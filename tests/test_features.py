import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import day, make_cube
from plotburn import features, synth
from plotburn.features import (FEATURE_CSV_FIXED, STAT_NAMES, TEMPORAL_NAMES, FeatureTable,
                               build_feature_table, feature_schema, read_feature_csv,
                               table_matrix, table_schema, temporal_columns,
                               write_feature_csv)
from plotburn.indices import ALL_INDICES
from plotburn.scene import (SENSOR_BANDS, BandObservation, GridGeometry, SceneCube, make_plot,
                            plot_blocks)


# Scalar references for temporal_columns, one series at a time.


def temporal_stats(series) -> dict[str, float]:
    """Order statistics and mean of the valid values of one series."""
    arr = np.asarray(series, dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return {name: np.nan for name in STAT_NAMES}
    q = np.percentile(arr, [10, 20, 50, 80, 90])
    return {"min": float(arr.min()), "max": float(arr.max()), "mean": float(arr.mean()),
            "median": float(q[2]), "p10": float(q[0]), "p20": float(q[1]),
            "p80": float(q[3]), "p90": float(q[4])}


def vdiff(series, direction, buffer) -> float:
    """Largest persistent step in a time-ordered series of valid values.

    For a drop: the most negative step v[t+1] - v[t] whose landing values
    v[t+1] .. v[t+1+buffer] all stay below the series mean; spikes are the
    mirror case above it. 0.0 when no step qualifies, NaN when the series is
    too short for the buffer.
    """
    arr = np.asarray(series, dtype=float)
    arr = arr[np.isfinite(arr)]
    n = arr.size
    if n < buffer + 2:
        return np.nan
    threshold = float(arr.mean())
    steps = np.diff(arr)[:n - 1 - buffer]
    past = arr[1:] < threshold if direction == "drop" else arr[1:] > threshold
    ok = np.ones(steps.size, dtype=bool)
    for k in range(buffer + 1):
        ok &= past[k:k + steps.size]
    if direction == "drop":
        ok &= steps < 0
        return float(steps[ok].min()) if ok.any() else 0.0
    ok &= steps > 0
    return float(steps[ok].max()) if ok.any() else 0.0


def oracle_vdiff(series, direction, buffer):
    """Exhaustive scan over every step; written independently of vdiff."""
    vals = [v for v in series if not math.isnan(v)]
    n = len(vals)
    if n < buffer + 2:
        return float("nan")
    thr = sum(vals) / n
    best = 0.0
    for t in range(0, n - 1 - buffer):
        step = vals[t + 1] - vals[t]
        window = vals[t + 1:t + 2 + buffer]
        if direction == "drop" and step < 0 and all(w < thr for w in window):
            best = min(best, step)
        if direction == "spike" and step > 0 and all(w > thr for w in window):
            best = max(best, step)
    return best


def kernel(series) -> dict[str, float]:
    """TEMPORAL_NAMES values of one series from temporal_columns."""
    column = np.asarray(series, dtype=float).reshape(-1, 1)
    return dict(zip(TEMPORAL_NAMES, temporal_columns(column)[0].tolist()))


class TestTemporalStats:
    def test_singleton_series(self):
        for stats in (temporal_stats([5.0]), kernel([5.0])):
            assert all(stats[name] == 5.0 for name in STAT_NAMES)

    def test_one_to_ten(self):
        for stats in (temporal_stats(list(range(1, 11))), kernel(range(1, 11))):
            assert stats["median"] == 5.5
            assert abs(stats["p10"] - 1.9) < 1e-12
            assert abs(stats["p90"] - 9.1) < 1e-12
            assert abs(stats["p20"] - 2.8) < 1e-12
            assert abs(stats["p80"] - 8.2) < 1e-12
            assert stats["mean"] == 5.5
            assert stats["min"] == 1.0 and stats["max"] == 10.0

    def test_constant_series(self):
        for stats in (temporal_stats([0.4, 0.4, 0.4]), kernel([0.4, 0.4, 0.4])):
            assert stats["min"] == stats["max"] == stats["median"] == 0.4
            assert stats["mean"] == pytest.approx(0.4, abs=1e-15)

    def test_empty_series_all_missing(self):
        assert all(math.isnan(v) for v in temporal_stats([]).values())
        assert all(math.isnan(v) for v in kernel([]).values())

    def test_order_statistics_chain(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            series = rng.normal(0, 1, size=rng.integers(1, 30))
            for s in (temporal_stats(series), kernel(series)):
                chain = [s["min"], s["p10"], s["p20"], s["median"], s["p80"], s["p90"],
                         s["max"]]
                assert all(a <= b + 1e-12 for a, b in zip(chain, chain[1:]))


class TestVdiff:
    def test_monotone_increasing_has_no_drop(self):
        assert vdiff([1, 2, 3, 4, 5], "drop", 0) == 0.0
        assert kernel([1, 2, 3, 4, 5])["drop0"] == 0.0

    def test_hand_trace_with_buffer_two(self):
        assert vdiff([10, 10, 2, 2, 2], "drop", 2) == -8.0
        assert kernel([10, 10, 2, 2, 2])["drop2"] == -8.0

    def test_landing_on_the_mean_does_not_count(self):
        # The -3 step lands on the mean, 2.0; only the -1 steps stay below it.
        series = [5.0, 2.0, 2.0, 1.0, 0.0]
        mirrored = [-v for v in series]
        assert vdiff(series, "drop", 0) == oracle_vdiff(series, "drop", 0) == -1.0
        assert kernel(series)["drop0"] == -1.0
        assert kernel(mirrored)["spike0"] == oracle_vdiff(mirrored, "spike", 0) == 1.0

    def test_short_series_missing(self):
        assert math.isnan(vdiff([1.0, 2.0], "drop", 1))
        got = kernel([1.0, 2.0])
        assert not math.isnan(got["drop0"])
        assert all(math.isnan(got[f"{d}{b}"]) for d in ("drop", "spike") for b in (1, 2))

    def test_signs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            series = rng.normal(0, 1, size=rng.integers(2, 25))
            got = kernel(series)
            for b in (0, 1, 2):
                if series.size >= b + 2:
                    assert vdiff(series, "drop", b) <= 0.0 and got[f"drop{b}"] <= 0.0
                    assert vdiff(series, "spike", b) >= 0.0 and got[f"spike{b}"] >= 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(400):
            series = rng.normal(0, 1, size=rng.integers(5, 41))
            for b in (0, 1, 2):
                for direction in ("drop", "spike"):
                    got = vdiff(series, direction, b)
                    want = oracle_vdiff(series.tolist(), direction, b)
                    assert got == want


def one_pixel_cubes(series_a, series_b):
    """Single-pixel plot observed with the given Red-band series per sensor."""
    geom = GridGeometry(6, 6, 0.0, 0.0, 1.0)
    plot = make_plot("p0", [(2.0, 2.0), (3.0, 2.0), (3.0, 3.0), (2.0, 3.0)],
                     geom, label="burned")
    cubes = []
    for sensor, series in (("A", series_a), ("B", series_b)):
        observations = []
        for i, value in enumerate(series):
            grids = {b: np.full(geom.shape, 0.3) for b in SENSOR_BANDS[sensor]}
            grids["Red"][plot.rows, plot.cols] = value
            valid = np.ones(geom.shape, dtype=bool)
            observations.append(BandObservation(sensor, day(i), grids, valid, geom))
        cubes.append(SceneCube(observations, geom))
    return cubes[0], cubes[1], plot


def row_map(table, i=0):
    """Column name -> value of one table row."""
    return dict(zip(table.schema, table.X[i]))


def assert_same_bits(got, want):
    """Equal bit patterns (so 0.0 != -0.0), NaN payloads aside."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def assert_same_table(a, b):
    assert a.schema == b.schema
    assert np.array_equal(a.X, b.X, equal_nan=True)
    assert list(a.plot_id) == list(b.plot_id)
    assert list(a.pixel_id) == list(b.pixel_id)


def oracle_columns(series):
    """TEMPORAL_NAMES values of one series from the scalar functions."""
    stats = temporal_stats(series)
    return ([stats[name] for name in STAT_NAMES]
            + [vdiff(series, d, b) for d in ("drop", "spike") for b in (0, 1, 2)])


class TestTemporalColumns:
    def test_matches_scalar_oracles_bitwise(self):
        # All-missing pixels, 0-3 valid values (short-series vdiff is NaN),
        # constant series that tie their own mean, and NaN/inf holes.
        rng = np.random.default_rng(12)
        mean_col = STAT_NAMES.index("mean")
        seen_counts = set()
        for _ in range(150):
            n_obs, n_px = int(rng.integers(1, 40)), int(rng.integers(1, 30))
            m = rng.normal(0.3, 0.2, size=(n_obs, n_px))
            const = rng.random(n_px) < 0.2
            m[:, const] = rng.choice([0.1, 0.3, 1 / 3], size=const.sum())
            holes = rng.random(m.shape) < rng.uniform(0.0, 0.95)
            m[holes] = rng.choice([np.nan, np.inf, -np.inf], size=holes.sum())
            m[:, rng.random(n_px) < 0.1] = np.nan
            seen_counts.update(np.isfinite(m).sum(axis=0).tolist())
            got = temporal_columns(m)
            assert got.shape == (n_px, len(TEMPORAL_NAMES))
            for px in range(n_px):
                s = m[:, px]
                ok = np.isfinite(s)
                want = oracle_columns(s)
                # The mean is one 1-D sum of the pixel's zero-filled series.
                if ok.any():
                    want[mean_col] = np.where(ok, s, 0.0).sum() / ok.sum()
                assert_same_bits(got[px], want)
        assert {0, 1, 2, 3} <= seen_counts and max(seen_counts) >= 30

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_obs=st.integers(1, 40),
           widths=st.lists(st.integers(0, 12), min_size=1, max_size=6),
           hole_frac=st.floats(0.0, 1.0))
    def test_joined_matrices_give_the_joined_columns(self, seed, n_obs, widths, hole_frac):
        # build_feature_table joins a group of sources' matrices column-wise
        # and calls the kernel once; each series must come out as it would alone.
        rng = np.random.default_rng(seed)
        parts = []
        for width in widths:
            m = rng.normal(0.3, 0.2, size=(n_obs, width))
            m[:, rng.random(width) < 0.2] = rng.choice([0.1, 1 / 3, -0.0])
            holes = rng.random(m.shape) < hole_frac
            m[holes] = rng.choice([np.nan, np.inf, -np.inf], size=holes.sum())
            m[:, rng.random(width) < 0.1] = np.nan
            parts.append(m)
        joined = temporal_columns(np.concatenate(parts, axis=1))
        assert_same_bits(joined, np.concatenate([temporal_columns(m) for m in parts]))


class TestBuildFeatureTable:
    def test_single_pixel_composes_unit_operations(self):
        series_a = [0.50, 0.48, 0.10, 0.12, 0.11, 0.13]
        series_b = [0.40, 0.09, 0.11]
        cube_a, cube_b, plot = one_pixel_cubes(series_a, series_b)
        table = build_feature_table(cube_a, cube_b, [plot], ["NDVI"])
        assert len(table) == 1
        row = row_map(table)
        stats = temporal_stats(series_a)
        for stat, value in stats.items():
            assert row[f"A_Red_{stat}"] == pytest.approx(value, abs=1e-12)
        for b in (0, 1, 2):
            assert row[f"A_Red_drop{b}"] == vdiff(series_a, "drop", b)
            want = vdiff(series_b, "spike", b)
            got = row[f"B_Red_spike{b}"]
            assert got == want or (math.isnan(got) and math.isnan(want))
        ndvi_series = [(0.3 - v) / (0.3 + v) for v in series_a]
        assert row["A_NDVI_mean"] == pytest.approx(
            temporal_stats(ndvi_series)["mean"], abs=1e-12)
        assert row["n_obs_A"] == 6 and row["n_obs_B"] == 3

    def test_valid_flagged_inf_is_missing_in_every_statistic(self):
        series_a = [0.5, np.inf, 0.1, 0.12]
        cube_a, cube_b, plot = one_pixel_cubes(series_a, [0.4, 0.1, 0.2])
        table = build_feature_table(cube_a, cube_b, [plot], [])
        row = row_map(table)
        got = [row[f"A_Red_{name}"] for name in TEMPORAL_NAMES]
        assert_same_bits(got, oracle_columns(series_a))
        assert row["A_Red_max"] == 0.5 and row["A_Red_p90"] == pytest.approx(0.424)
        assert row["n_obs_A"] == 4    # counts valid flags, not finite values

    def test_count_and_border_columns(self):
        cube_a, _, plot = one_pixel_cubes([0.2, 0.3, 0.4], [0.5])
        table = build_feature_table(cube_a, None, [plot], [])
        assert "n_obs_A" in table.schema and "n_obs_B" not in table.schema
        row = row_map(table)
        assert row["n_obs_A"] == 3.0
        assert row["border"] == 1.0 and table.border.tolist() == [True]

    def test_schema_is_feature_schema(self):
        cube_a, cube_b, plot = one_pixel_cubes([0.2, 0.3], [0.4, 0.5])
        geom = cube_a.geom
        inner = make_plot("p1", [(1.6, 1.6), (3.4, 1.6), (3.4, 3.4), (1.6, 3.4)], geom)
        assert plot.border.all() and not inner.border.any()
        for cubes, sensors in (((cube_a, cube_b), ["A", "B"]), ((None, cube_b), ["B"])):
            for plots, border in (([plot], True), ([plot, inner], True), ([inner], False)):
                table = build_feature_table(*cubes, plots, ["NBR", "CI"])
                schema = feature_schema(sensors, ["NBR", "CI"], border)
                assert table.schema == schema
                assert schema[-1] == ("border" if border else f"n_obs_{sensors[-1]}")

    def test_csv_round_trip_keeps_schema_without_border_pixels(self, tmp_path):
        cube_a, _, _ = one_pixel_cubes([0.2, 0.3], [0.4])
        inner = make_plot("p1", [(1.6, 1.6), (3.4, 1.6), (3.4, 3.4), (1.6, 3.4)],
                          cube_a.geom)
        table = build_feature_table(cube_a, None, [inner], [], include_border=True)
        path = tmp_path / "features.csv"
        write_feature_csv(path, table)
        assert_same_table(read_feature_csv(path), table)

    def test_border_exclusion_counts(self):
        geom = GridGeometry(12, 12, 0.0, 0.0, 1.0)
        plot = make_plot("p0", [(1.0, 1.0), (10.0, 1.0), (10.0, 10.0), (1.0, 10.0)],
                         geom, label="burned")
        cube = make_cube("A", geom, {0: 0.2, 1: 0.25, 2: 0.22})
        all_rows = build_feature_table(cube, None, [plot], [], include_border=True)
        inner_rows = build_feature_table(cube, None, [plot], [], include_border=False)
        assert len(all_rows) == 81
        assert len(inner_rows) == 49
        assert all_rows.border.sum() == 32
        assert "border" not in inner_rows.schema and not inner_rows.border.any()

    def test_sensor_b_only_has_no_a_names(self):
        _, cube_b, plot = one_pixel_cubes([0.2, 0.3], [0.4, 0.5, 0.6])
        table = build_feature_table(None, cube_b, [plot], ["NDVI", "NBR"])
        names = [n for n in table.schema if n not in ("n_obs_B", "border")]
        assert names and all(n.startswith("B_") for n in names)
        assert "n_obs_B" in table.schema and "n_obs_A" not in table.schema

    def test_masking_one_observation_is_local(self):
        geom = GridGeometry(14, 8, 0.0, 0.0, 1.0)
        p0 = make_plot("p0", [(1.0, 1.0), (5.0, 1.0), (5.0, 5.0), (1.0, 5.0)], geom)
        p1 = make_plot("p1", [(7.0, 1.0), (11.0, 1.0), (11.0, 5.0), (7.0, 5.0)], geom)
        cube = make_cube("A", geom, {0: 0.2, 1: 0.3, 2: 0.25, 3: 0.28})
        baseline = build_feature_table(cube, None, [p0, p1], [])
        masked = np.ones(geom.shape, dtype=bool)
        masked[p1.rows, p1.cols] = False
        cube2 = make_cube("A", geom, {0: 0.2, 1: 0.3, 2: 0.25, 3: 0.28},
                          valid_by_date={1: masked})
        shadowed = build_feature_table(cube2, None, [p0, p1], [])
        assert baseline.schema == shadowed.schema
        base_p0, shad_p0 = baseline.plot_id == "p0", shadowed.plot_id == "p0"
        assert base_p0.sum() == p0.n_pixels
        assert np.array_equal(baseline.X[base_p0], shadowed.X[shad_p0], equal_nan=True)
        assert list(baseline.pixel_id[base_p0]) == list(shadowed.pixel_id[shad_p0])
        shad_p1 = shadowed.X[shadowed.plot_id == "p1", shadowed.schema.index("n_obs_A")]
        assert shad_p1.size == p1.n_pixels and (shad_p1 == 3).all()

    def test_no_masked_value_ever_feeds_a_feature(self):
        # Poison masked cells with a huge finite number instead of NaN; the
        # features must be identical because access goes through valid_mask.
        geom = GridGeometry(8, 8, 0.0, 0.0, 1.0)
        plot = make_plot("p0", [(1.0, 1.0), (6.0, 1.0), (6.0, 6.0), (1.0, 6.0)], geom)
        hole = np.ones(geom.shape, dtype=bool)
        hole[plot.rows[:10], plot.cols[:10]] = False
        cube_nan = make_cube("A", geom, {0: 0.2, 1: 0.4, 2: 0.3},
                             valid_by_date={1: hole})
        table_nan = build_feature_table(cube_nan, None, [plot], ["NDVI", "CI"])

        cube_poison = make_cube("A", geom, {0: 0.2, 1: 0.4, 2: 0.3},
                                valid_by_date={1: hole})
        for obs in cube_poison.observations:
            for grid in obs.bands.values():
                grid[~obs.valid] = 1e30
        table_poison = build_feature_table(cube_poison, None, [plot], ["NDVI", "CI"])
        assert len(table_nan) == plot.n_pixels
        assert_same_table(table_nan, table_poison)
        finite = table_poison.X[np.isfinite(table_poison.X)]
        assert (np.abs(finite) < 1e29).all()

    def test_plot_without_observations_warns(self):
        geom = GridGeometry(8, 8, 0.0, 0.0, 1.0)
        plot = make_plot("p0", [(1.0, 1.0), (6.0, 1.0), (6.0, 6.0), (1.0, 6.0)], geom)
        nothing = np.zeros(geom.shape, dtype=bool)
        cube = make_cube("A", geom, {0: 0.2, 1: 0.3},
                         valid_by_date={0: nothing, 1: nothing})
        with pytest.warns(UserWarning, match="no valid observations"):
            table = build_feature_table(cube, None, [plot], [])
        features = [j for j, n in enumerate(table.schema) if n not in ("n_obs_A", "border")]
        assert len(table) == plot.n_pixels
        assert np.isnan(table.X[:, features]).all()
        assert (table.X[:, table.schema.index("n_obs_A")] == 0).all()


    def test_rows_do_not_depend_on_blocks_or_neighbouring_plots(self, monkeypatch):
        # Two float32 sensors with cloud holes, BASMA, and a plot whose pixels
        # are half valid on some dates; 7-row blocks split every plot.
        scen = synth.generate(synth.ScenarioConfig(
            n_plots=5, plot_area_mean_ha=0.004, plot_area_median_ha=0.004, seed=2))
        assert scen.cube_b.observations[0].bands["Red"].dtype == np.float32
        plots = scen.plots
        half = plots[1].n_pixels // 2
        for cube in (scen.cube_a, scen.cube_b):
            for obs in cube.observations[::3]:
                obs.valid[plots[1].rows[:half], plots[1].cols[:half]] = False

        def build(plots):
            return build_feature_table(scen.cube_a, scen.cube_b, plots,
                                       list(ALL_INDICES), endmembers=scen.endmembers)

        table = build(plots)
        assert len(table) > 7 and all(p.n_pixels % 7 for p in plots)
        assert np.isfinite(table.X[:, table.schema.index("B_BASMA_mean")]).any()
        clouded = table.X[:, table.schema.index("n_obs_B")] < len(scen.cube_b.observations)
        assert clouded[table.plot_id != plots[1].plot_id].any()
        monkeypatch.setattr(features, "BLOCK_ROWS", 7)
        blocked = build(plots)
        assert_same_table(blocked, table)
        assert_same_bits(blocked.X, table.X)
        singles = [build([p]) for p in plots]
        assert all(single.schema == table.schema for single in singles)
        assert_same_bits(np.concatenate([single.X for single in singles]), table.X)
        pixel_ids = np.concatenate([single.pixel_id for single in singles])
        assert list(pixel_ids) == list(table.pixel_id)

    def test_rows_do_not_depend_on_how_sources_are_grouped(self, monkeypatch, small_scene):
        table = build_all_indices(small_scene)
        assert [len(rows) for rows in table.plot_rows().values()] == [12] * 5
        # One plot a block and one source per call; blocks of two plots and a
        # last block of one, two sources per call there; one block, three
        # sources per call, with a partial last group; and every source of a
        # sensor in one call.
        for cap in (1, 30, 3 * len(table), 1 << 30):
            monkeypatch.setattr(features, "BLOCK_ROWS", cap)
            assert_same_bits(build_all_indices(small_scene).X, table.X)

    @pytest.mark.parametrize("blocks", [None, 7, 30])
    def test_stats_calls_hold_at_most_the_cap(self, monkeypatch, small_scene, blocks):
        if blocks:
            monkeypatch.setattr(features, "BLOCK_ROWS", blocks)
        widths = []

        def counting(matrix):
            widths.append(matrix.shape[1])
            return temporal_columns(matrix)

        monkeypatch.setattr(features, "temporal_columns", counting)
        table = build_all_indices(small_scene)
        sources = sum(n.endswith("_min") for n in table.schema)
        assert sum(widths) == len(table) * sources
        # A call holds a group of sources up to the cap, or one source's
        # block where that alone is over it.
        blocks = block_sizes(table)
        assert max(widths) <= max(features.BLOCK_ROWS, max(blocks))
        if features.BLOCK_ROWS >= 2 * max(blocks):
            assert len(widths) < len(blocks) * sources


@pytest.fixture(scope="module")
def small_scene():
    return synth.generate(synth.ScenarioConfig(
        n_plots=5, plot_area_mean_ha=0.004, plot_area_median_ha=0.004, seed=2))


def block_sizes(table):
    """Rows of each block build_feature_table took: whole plots, up to
    BLOCK_ROWS rows together, and a plot over BLOCK_ROWS rows alone."""
    sizes = [len(rows) for rows in table.plot_rows().values()]
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    return [bounds[hi] - bounds[lo] for lo, hi in plot_blocks(bounds, features.BLOCK_ROWS)]


def build_all_indices(scen):
    return build_feature_table(scen.cube_a, scen.cube_b, scen.plots, list(ALL_INDICES),
                               endmembers=scen.endmembers)


def oracle_write_feature_csv(path, table):
    """write_feature_csv as one csv.writer row per table row."""
    col = {name: j for j, name in enumerate(table.schema)}
    names = sorted(n for n in table.schema if n not in FEATURE_CSV_FIXED)
    fixed = [col.get(name) for name in FEATURE_CSV_FIXED[2:]]
    order = [col[name] for name in names]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(FEATURE_CSV_FIXED + names)
        for i, values in enumerate(table.X):
            w.writerow([table.plot_id[i], table.pixel_id[i],
                        *(0 if j is None else int(values[j]) for j in fixed),
                        *values[order].tolist()])


def odd_table(sensors, indices, border, n_rows, seed=0):
    """A table whose features hold awkward floats and whose ids need quoting."""
    schema = feature_schema(sensors, indices, border)
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.0, size=(n_rows, len(schema))) * 10.0 ** rng.integers(
        -12, 12, size=(n_rows, len(schema)))
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e16, 1e-7, 5e-324, 0.1 + 0.2])
    X.reshape(-1)[::3] = np.resize(special, X.reshape(-1)[::3].size)
    for j, name in enumerate(schema):
        if name.startswith("n_obs_"):
            X[:, j] = rng.integers(0, 40, size=n_rows)
        elif name == "border":
            X[:, j] = rng.integers(0, 2, size=n_rows)
    plots = ["p,1", 'q"2', "r 3", "s\n4", "t5"]
    plot_id = np.array([plots[i % len(plots)] for i in range(n_rows)], dtype=object)
    pixel_id = np.array([f"{p}_{i}_{i + 1}" for i, p in enumerate(plot_id)], dtype=object)
    return FeatureTable(X, schema, plot_id, pixel_id)


class TestFeatureCsvBytes:
    @pytest.mark.parametrize("sensors, indices, border, n_rows", [
        (["A", "B"], ["NBR", "CI"], True, 23), (["A", "B"], ["NBR"], True, 0),
        (["B"], [], False, 9), (["A"], list(ALL_INDICES), True, 4)],
        ids=["two-sensors", "zero-rows", "b-only-no-border", "a-all-indices"])
    def test_equals_the_csv_writer(self, tmp_path, sensors, indices, border, n_rows):
        table = odd_table(sensors, indices, border, n_rows)
        write_feature_csv(tmp_path / "new.csv", table)
        oracle_write_feature_csv(tmp_path / "old.csv", table)
        got = (tmp_path / "new.csv").read_bytes()
        assert got == (tmp_path / "old.csv").read_bytes()
        if n_rows:
            for text in (b'"p,1"', b'"q""2"', b'"s\n4"', b",nan", b",-inf", b",-0.0",
                         b",5e-324", b",1e+16", b",1e-07"):
                assert text in got
        else:
            assert got.count(b"\r\n") == 1

    def test_built_table_equals_the_csv_writer(self, tmp_path, small_scene):
        table = build_all_indices(small_scene)
        write_feature_csv(tmp_path / "new.csv", table)
        oracle_write_feature_csv(tmp_path / "old.csv", table)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestTableRoundTrip:
    def test_csv_round_trip_exact(self, tmp_path):
        series_a = [0.51, 0.47, 0.13, 0.12]
        cube_a, cube_b, plot = one_pixel_cubes(series_a, [0.4, 0.1, 0.2])
        table = build_feature_table(cube_a, cube_b, [plot], ["NDVI", "MIRBI"])
        path = tmp_path / "features.csv"
        write_feature_csv(path, table)
        back = read_feature_csv(path)
        assert len(back) == len(table) == 1
        assert table_schema(back) == table_schema(table)
        assert_same_table(back, table)
        again = tmp_path / "again.csv"
        write_feature_csv(again, back)
        assert again.read_bytes() == path.read_bytes()

    def test_csv_without_border_pixels(self, tmp_path):
        geom = GridGeometry(12, 12, 0.0, 0.0, 1.0)
        plot = make_plot("p0", [(1.0, 1.0), (10.0, 1.0), (10.0, 10.0), (1.0, 10.0)], geom)
        cube = make_cube("B", geom, {0: 0.2, 1: 0.25, 2: 0.22})
        table = build_feature_table(None, cube, [plot], ["NBR"], include_border=False)
        path = tmp_path / "features.csv"
        write_feature_csv(path, table)
        header, first = path.read_text().splitlines()[:2]
        assert header.startswith("plot_id,pixel_id,border,n_obs_A,n_obs_B,B_")
        assert first.split(",")[2:5] == ["0", "0", "3"]
        assert_same_table(read_feature_csv(path), table)

    def test_matrix_layout(self):
        cube_a, cube_b, plot = one_pixel_cubes([0.2, 0.3, 0.4], [0.5, 0.6])
        table = build_feature_table(cube_a, cube_b, [plot], [])
        schema = table_schema(table)
        X = table_matrix(table, schema)
        assert X.shape == (1, len(schema))
        assert np.array_equal(X, table.X, equal_nan=True)
        assert X[0, schema.index("n_obs_A")] == 3
        assert X[0, schema.index("border")] == 1.0
        sub = table_matrix(table, ["border", "A_Red_max"])
        assert sub.tolist() == [[1.0, 0.4]]
        rows = table_matrix(table, ["border", "A_Red_max"], np.array([0, 0]))
        assert rows.tolist() == [[1.0, 0.4], [1.0, 0.4]]
        assert table_matrix(table, schema, np.empty(0, dtype=np.int64)).shape == (0, len(schema))
        with pytest.raises(ValueError, match="A_Nope_max"):
            table_matrix(table, ["A_Red_max", "A_Nope_max"])
