import math

import numpy as np
import pytest

from conftest import day, make_cube
from plotburn.features import (VdiffSpec, build_feature_table,
                               read_feature_csv, table_matrix, table_schema,
                               temporal_stats, vdiff, write_feature_csv)
from plotburn.scene import SENSOR_BANDS, BandObservation, GridGeometry, SceneCube, make_plot


def oracle_vdiff(series, direction, buffer, threshold=None):
    """Exhaustive scan over every step; written independently of the module."""
    vals = [v for v in series if not math.isnan(v)]
    n = len(vals)
    if n < buffer + 2:
        return float("nan")
    thr = sum(vals) / n if threshold is None else threshold
    best = 0.0
    for t in range(0, n - 1 - buffer):
        step = vals[t + 1] - vals[t]
        window = vals[t + 1:t + 2 + buffer]
        if direction == "drop" and step < 0 and all(w < thr for w in window):
            best = min(best, step)
        if direction == "spike" and step > 0 and all(w > thr for w in window):
            best = max(best, step)
    return best


class TestTemporalStats:
    def test_singleton_series(self):
        stats = temporal_stats([5.0])
        assert all(v == 5.0 for v in stats.values())

    def test_one_to_ten(self):
        stats = temporal_stats(list(range(1, 11)))
        assert stats["median"] == 5.5
        assert abs(stats["p10"] - 1.9) < 1e-12
        assert abs(stats["p90"] - 9.1) < 1e-12
        assert abs(stats["p20"] - 2.8) < 1e-12
        assert abs(stats["p80"] - 8.2) < 1e-12
        assert stats["mean"] == 5.5
        assert stats["min"] == 1.0 and stats["max"] == 10.0

    def test_constant_series(self):
        stats = temporal_stats([0.4, 0.4, 0.4])
        assert stats["min"] == stats["max"] == stats["median"] == 0.4
        assert stats["mean"] == pytest.approx(0.4, abs=1e-15)

    def test_empty_series_all_missing(self):
        stats = temporal_stats([])
        assert all(math.isnan(v) for v in stats.values())

    def test_order_statistics_chain(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            series = rng.normal(0, 1, size=rng.integers(1, 30))
            s = temporal_stats(series)
            chain = [s["min"], s["p10"], s["p20"], s["median"], s["p80"], s["p90"], s["max"]]
            assert all(a <= b + 1e-12 for a, b in zip(chain, chain[1:]))


class TestVdiff:
    def test_monotone_increasing_has_no_drop(self):
        assert vdiff([1, 2, 3, 4, 5], VdiffSpec("drop", 0)) == 0.0

    def test_hand_trace_with_buffer_two(self):
        assert vdiff([10, 10, 2, 2, 2], VdiffSpec("drop", 2)) == -8.0

    def test_short_series_missing(self):
        assert math.isnan(vdiff([1.0, 2.0], VdiffSpec("drop", 1)))

    def test_signs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            series = rng.normal(0, 1, size=rng.integers(2, 25))
            for b in (0, 1, 2):
                if series.size >= b + 2:
                    assert vdiff(series, VdiffSpec("drop", b)) <= 0.0
                    assert vdiff(series, VdiffSpec("spike", b)) >= 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(400):
            series = rng.normal(0, 1, size=rng.integers(5, 41))
            for b in (0, 1, 2):
                for direction in ("drop", "spike"):
                    got = vdiff(series, VdiffSpec(direction, b))
                    want = oracle_vdiff(series.tolist(), direction, b)
                    assert got == want

    def test_explicit_threshold(self):
        series = [5.0, 1.0, 4.9, 0.5, 0.4]
        got = vdiff(series, VdiffSpec("drop", 1, threshold=1.5))
        assert got == oracle_vdiff(series, "drop", 1, threshold=1.5) == -4.4

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            VdiffSpec("sideways", 0)
        with pytest.raises(ValueError):
            VdiffSpec("drop", -1)


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
        cubes.append(SceneCube(observations, geom, 1.0))
    return cubes[0], cubes[1], plot


class TestBuildFeatureTable:
    def test_single_pixel_composes_unit_operations(self):
        series_a = [0.50, 0.48, 0.10, 0.12, 0.11, 0.13]
        series_b = [0.40, 0.09, 0.11]
        cube_a, cube_b, plot = one_pixel_cubes(series_a, series_b)
        rows = build_feature_table(cube_a, cube_b, [plot], ["NDVI"])
        assert len(rows) == 1
        row = rows[0]
        stats = temporal_stats(series_a)
        for stat, value in stats.items():
            assert row.features[f"A_Red_{stat}"] == pytest.approx(value, abs=1e-12)
        for b in (0, 1, 2):
            assert row.features[f"A_Red_drop{b}"] == vdiff(series_a, VdiffSpec("drop", b))
            want = vdiff(series_b, VdiffSpec("spike", b))
            got = row.features[f"B_Red_spike{b}"]
            assert got == want or (math.isnan(got) and math.isnan(want))
        ndvi_series = [(0.3 - v) / (0.3 + v) for v in series_a]
        assert row.features["A_NDVI_mean"] == pytest.approx(
            temporal_stats(ndvi_series)["mean"], abs=1e-12)
        assert row.n_obs_a == 6 and row.n_obs_b == 3

    def test_border_exclusion_counts(self):
        geom = GridGeometry(12, 12, 0.0, 0.0, 1.0)
        plot = make_plot("p0", [(1.0, 1.0), (10.0, 1.0), (10.0, 10.0), (1.0, 10.0)],
                         geom, label="burned")
        cube = make_cube("A", geom, {0: 0.2, 1: 0.25, 2: 0.22})
        all_rows = build_feature_table(cube, None, [plot], [], include_border=True)
        inner_rows = build_feature_table(cube, None, [plot], [], include_border=False)
        assert len(all_rows) == 81
        assert len(inner_rows) == 49
        assert sum(r.border for r in all_rows) == 32
        assert not any(r.border for r in inner_rows)

    def test_sensor_b_only_has_no_a_names(self):
        _, cube_b, plot = one_pixel_cubes([0.2, 0.3], [0.4, 0.5, 0.6])
        rows = build_feature_table(None, cube_b, [plot], ["NDVI", "NBR"])
        names = set(rows[0].features)
        assert names and all(n.startswith("B_") for n in names)
        schema = table_schema(rows)
        assert "n_obs_B" in schema and "n_obs_A" not in schema

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
        base_p0 = [r for r in baseline if r.plot_id == "p0"]
        shad_p0 = [r for r in shadowed if r.plot_id == "p0"]
        for a, b in zip(base_p0, shad_p0):
            assert a.features == b.features
        shad_p1 = [r for r in shadowed if r.plot_id == "p1"]
        assert all(r.n_obs_a == 3 for r in shad_p1)

    def test_no_masked_value_ever_feeds_a_feature(self):
        # Poison masked cells with a huge finite number instead of NaN; the
        # features must be identical because access goes through valid_mask.
        geom = GridGeometry(8, 8, 0.0, 0.0, 1.0)
        plot = make_plot("p0", [(1.0, 1.0), (6.0, 1.0), (6.0, 6.0), (1.0, 6.0)], geom)
        hole = np.ones(geom.shape, dtype=bool)
        hole[plot.rows[:10], plot.cols[:10]] = False
        cube_nan = make_cube("A", geom, {0: 0.2, 1: 0.4, 2: 0.3},
                             valid_by_date={1: hole})
        rows_nan = build_feature_table(cube_nan, None, [plot], ["NDVI", "CI"])

        cube_poison = make_cube("A", geom, {0: 0.2, 1: 0.4, 2: 0.3},
                                valid_by_date={1: hole})
        for obs in cube_poison.observations:
            for grid in obs.bands.values():
                grid[~obs.valid] = 1e30
        rows_poison = build_feature_table(cube_poison, None, [plot], ["NDVI", "CI"])
        for a, b in zip(rows_nan, rows_poison):
            for name, value in a.features.items():
                other = b.features[name]
                assert (math.isnan(value) and math.isnan(other)) or value == other
                if not math.isnan(other):
                    assert abs(other) < 1e29

    def test_plot_without_observations_warns(self):
        geom = GridGeometry(8, 8, 0.0, 0.0, 1.0)
        plot = make_plot("p0", [(1.0, 1.0), (6.0, 1.0), (6.0, 6.0), (1.0, 6.0)], geom)
        nothing = np.zeros(geom.shape, dtype=bool)
        cube = make_cube("A", geom, {0: 0.2, 1: 0.3},
                         valid_by_date={0: nothing, 1: nothing})
        with pytest.warns(UserWarning, match="no valid observations"):
            rows = build_feature_table(cube, None, [plot], [])
        assert all(math.isnan(v) for r in rows for v in r.features.values())
        assert all(r.n_obs_a == 0 for r in rows)


class TestTableRoundTrip:
    def test_csv_round_trip_exact(self, tmp_path):
        series_a = [0.51, 0.47, 0.13, 0.12]
        cube_a, cube_b, plot = one_pixel_cubes(series_a, [0.4, 0.1, 0.2])
        rows = build_feature_table(cube_a, cube_b, [plot], ["NDVI", "MIRBI"])
        path = tmp_path / "features.csv"
        write_feature_csv(path, rows)
        back = read_feature_csv(path)
        assert len(back) == len(rows)
        assert table_schema(back) == table_schema(rows)
        for a, b in zip(rows, back):
            assert a.plot_id == b.plot_id and a.pixel_id == b.pixel_id
            assert a.border == b.border
            assert a.n_obs_a == b.n_obs_a and a.n_obs_b == b.n_obs_b
            for name, value in a.features.items():
                if math.isnan(value):
                    assert math.isnan(b.features[name])
                else:
                    assert b.features[name] == value

    def test_matrix_layout(self):
        cube_a, cube_b, plot = one_pixel_cubes([0.2, 0.3, 0.4], [0.5, 0.6])
        rows = build_feature_table(cube_a, cube_b, [plot], [])
        schema = table_schema(rows)
        X = table_matrix(rows, schema)
        assert X.shape == (1, len(schema))
        assert X[0, schema.index("n_obs_A")] == 3
        assert X[0, schema.index("border")] == 1.0
