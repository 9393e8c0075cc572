import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import day, oracle_plot_means, plot_scenes, table_plot_means
from plotburn import features
from plotburn.features import build_feature_table
from plotburn.indices import SWIR_SET, unmix_char_fraction
from plotburn.pipeline import DEFAULT_CURVE_SOURCES
from plotburn.scene import (PLOT_VALID_FRACTION, SENSOR_BANDS, BandObservation,
                            GridGeometry, SceneCube, make_plot, plot_blocks, plot_observed,
                            segment_means)
from plotburn.separability import MIN_BUCKET_N, SampleStats, m_statistic, separability_curve
from plotburn.synth import ScenarioConfig, default_endmembers, generate


def stats_of(values):
    return SampleStats.from_values(values)


class TestMStatistic:
    def test_identical_distributions(self):
        s = SampleStats(10, 1.5, 0.3)
        assert m_statistic(s, s) == 0.0

    def test_hand_case(self):
        assert m_statistic(SampleStats(5, 2.0, 0.5), SampleStats(5, 0.0, 0.5)) == 2.0

    def test_zero_spread_flags(self):
        assert m_statistic(SampleStats(5, 1.0, 0.0), SampleStats(5, 1.0, 0.0)) == 0.0
        assert math.isinf(m_statistic(SampleStats(5, 2.0, 0.0), SampleStats(5, 1.0, 0.0)))

    def test_symmetry(self):
        a, b = SampleStats(8, 0.4, 0.2), SampleStats(9, 1.1, 0.5)
        assert m_statistic(a, b) == m_statistic(b, a)

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.normal(0, 1, 40)
            y = rng.normal(1, 2, 35)
            a = rng.uniform(0.1, 100) * rng.choice([-1, 1])
            b = rng.uniform(-50, 50)
            m0 = m_statistic(stats_of(x), stats_of(y))
            m1 = m_statistic(stats_of(a * x + b), stats_of(a * y + b))
            assert abs(m0 - m1) < 1e-12

    def test_scale_free(self):
        rng = np.random.default_rng(1)
        x = rng.normal(5, 1, 50)
        y = rng.normal(7, 2, 50)
        m0 = m_statistic(stats_of(x), stats_of(y))
        m1 = m_statistic(stats_of(2 * x), stats_of(2 * y))
        assert abs(m0 - m1) < 1e-12


def build_plot_scene(n_plots, days, value_fn, band="Red", sensor="A", plot_size=3):
    """Cube where plot i's `band` equals value_fn(i, day); other bands 0.2."""
    cols_per = plot_size + 2
    geom = GridGeometry(n_plots * cols_per + 2, plot_size + 4, 0.0, 0.0, 1.0)
    plots = []
    for i in range(n_plots):
        c0 = 1 + i * cols_per
        x0, x1 = float(c0), float(c0 + plot_size)
        y0, y1 = 1.0, 1.0 + plot_size
        plots.append(make_plot(f"p{i:02d}", [(x0, y0), (x1, y0), (x1, y1), (x0, y1)],
                               geom, label="burned"))
    observations = []
    for d in days:
        grids = {b: np.full(geom.shape, 0.2) for b in SENSOR_BANDS[sensor]}
        for i, plot in enumerate(plots):
            grids[band][plot.rows, plot.cols] = value_fn(i, d)
        valid = np.ones(geom.shape, dtype=bool)
        observations.append(BandObservation(sensor, day(d), grids, valid, geom))
    return SceneCube(observations, geom), plots


def curve_of(events, cube, source, max_offset, endmembers=None):
    """The curve of (plot, burn date) events over their feature table's plot means."""
    means = table_plot_means(cube, [plot for plot, _ in events], source, endmembers)
    return separability_curve(source, means, cube.dates, [date for _, date in events],
                              max_offset)


class TestSeparabilityCurve:
    def test_persistent_signal_stays_separable(self):
        n = 8
        jit = np.linspace(-0.05, 0.05, n)

        def value(i, d):
            return (1.0 + jit[i]) - (0.5 if d >= 10 else 0.0)

        cube, plots = build_plot_scene(n, range(0, 19), value)
        events = [(p, day(10)) for p in plots]
        curve = curve_of(events, cube, "Red", 8)
        assert all(m > 2.0 for m in curve.m_values)
        assert all(c == n for c in curve.n_per_offset)

    def test_decaying_signal_crosses_one_between_day_2_and_4(self):
        n = 24
        jit = np.linspace(-0.15, 0.15, n)

        def value(i, d):
            base = 1.0 + jit[i]
            if d >= 10:
                base -= 0.55 * 0.5 ** ((d - 10) / 1.5)
            return base

        cube, plots = build_plot_scene(n, range(0, 19), value)
        curve = curve_of([(p, day(10)) for p in plots], cube, "Red", 8)
        m = curve.m_values
        assert m[0] > 1.5
        assert m[6] < 0.5
        below = [off for off, v in zip(curve.offsets, m) if v < 1.0]
        assert 2 < below[0] <= 4

    def test_pre_burn_reference_is_nearest_valid(self):
        def value(i, d):
            return (2.0 if d <= 5 else 1.0) + 0.1 * i

        cube, plots = build_plot_scene(4, [5, 8, 10], value)
        curve = curve_of([(p, day(10)) for p in plots], cube, "Red", 0)
        # Post-burn equals the day-8 reference, so nearest-pre gives M = 0.
        assert curve.m_values[0] == 0.0

    def test_small_buckets_reported_missing(self):
        cube, plots = build_plot_scene(2, range(0, 12), lambda i, d: 1.0 + 0.01 * i)
        curve = curve_of([(p, day(6)) for p in plots], cube, "Red", 3)
        assert all(math.isnan(v) for v in curve.m_values)

    def test_event_without_pre_observation_skipped(self):
        cube, plots = build_plot_scene(4, range(5, 12), lambda i, d: 1.0 + 0.01 * i)
        curve = curve_of([(p, day(5)) for p in plots], cube, "Red", 2)
        assert all(c == 0 for c in curve.n_per_offset)


class TestPlotMeans:
    def test_underobserved_dates_are_nan(self):
        cube, plots = build_plot_scene(1, [0, 1, 2], lambda i, d: 0.7)
        plot = plots[0]
        obs = cube.observations[1]
        obs.valid[plot.rows, plot.cols] = False
        values = table_plot_means(cube, [plot], "Red")[0]
        assert np.isfinite(values[0]) and np.isfinite(values[2])
        assert np.isnan(values[1])

    def test_index_source_means_finite_values_at_valid_pixels(self):
        # A 5-pixel sensor-B plot: all valid on day 0, 3 of 5 valid on day 1
        # with one zero-denominator NDVI pixel, 2 of 5 valid on day 2.
        bands = SENSOR_BANDS["B"]
        endmembers = default_endmembers()
        geom = GridGeometry(8, 4, 0.0, 0.0, 1.0)
        plot = make_plot("p0", [(1.0, 1.0), (6.0, 1.0), (6.0, 2.0), (1.0, 2.0)], geom)
        assert plot.n_pixels == 5
        rng = np.random.default_rng(3)
        masks = [[1, 1, 1, 1, 1], [1, 0, 1, 0, 1], [1, 1, 0, 0, 0]]
        observations, spectra = [], []
        for d, mask in enumerate(masks):
            grids = {b: np.full(geom.shape, 0.2) for b in bands}
            px = rng.uniform(0.02, 0.5, size=(plot.n_pixels, len(bands)))
            if d == 1:
                px[2, [bands.index("NIR"), bands.index("Red")]] = 0.0
            for j, band in enumerate(bands):
                grids[band][plot.rows, plot.cols] = px[:, j]
            valid = np.ones(geom.shape, dtype=bool)
            valid[plot.rows, plot.cols] = np.asarray(mask, dtype=bool)
            observations.append(BandObservation("B", day(d), grids, valid, geom))
            spectra.append(px)
        cube = SceneCube(observations, geom)
        nir, red = bands.index("NIR"), bands.index("Red")
        swir = [bands.index(b) for b in SWIR_SET]

        def ndvi(v):
            return (v[nir] - v[red]) / (v[nir] + v[red]) if v[nir] + v[red] else math.nan

        def basma(v):
            return unmix_char_fraction(v[swir], endmembers)[2]

        for source, fn in (("NDVI", ndvi), ("BASMA", basma)):
            values = table_plot_means(cube, [plot], source, endmembers)[0]
            assert values.shape == (len(cube.dates),)
            for d, mask in enumerate(masks):
                if np.mean(mask) < PLOT_VALID_FRACTION:
                    assert math.isnan(values[d])
                    continue
                vals = [fn(v) for v, ok in zip(spectra[d], mask) if ok]
                vals = [v for v in vals if math.isfinite(v)]
                assert len(vals) == sum(mask) - (source == "NDVI" and d == 1)
                assert values[d] == pytest.approx(sum(vals) / len(vals), rel=1e-12)

    def test_several_plots_equal_each_plot_alone(self, cloudy_scene):
        scenario, endmembers = cloudy_scene

        def tables(plots):
            return build_feature_table(scenario.cube_a, scenario.cube_b, plots,
                                       ["NDVI", "BASMA"], endmembers=endmembers)

        together = tables(scenario.plots).plot_means
        alone = [tables([p]).plot_means for p in scenario.plots]
        assert {"A_Red", "A_NDVI", "B_Red", "B_NDVI", "B_BASMA"} <= together.keys()
        for name, means in together.items():
            assert means.tobytes() == np.concatenate([a[name] for a in alone]).tobytes()

    def test_unobserved_entries_are_nan(self, cloudy_scene):
        scenario, _ = cloudy_scene
        cube = scenario.cube_a
        observed = plot_observed(cube, scenario.plots)
        means = table_plot_means(cube, scenario.plots, "NIR")
        assert not observed.all()  # the scene has cloud losses
        assert np.array_equal(np.isfinite(means), observed)
        assert table_plot_means(cube, [], "NIR").shape == (0, len(cube.dates))

    @settings(max_examples=80, deadline=None)
    @given(scene=plot_scenes(min_obs=1),
           source=st.sampled_from(("Red", "NIR", "NDVI", "NBR", "BSI", "BASMA")),
           block_rows=st.one_of(st.integers(1, 300), st.just(features.BLOCK_ROWS)))
    def test_means_equal_the_per_plot_oracle(self, scene, source, block_rows):
        # A block holds whole plots of up to block_rows pixels: a small
        # block_rows puts a plot in a block alone, and neighbours in
        # different blocks. The table drops the plots without a pixel.
        cube, plots = scene
        endmembers = default_endmembers()
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            patch.setattr(features, "BLOCK_ROWS", block_rows)
            warnings.simplefilter("ignore")  # plots without a valid observation
            indices = [] if source in SENSOR_BANDS["B"] else [source]
            table = build_feature_table(None, cube, plots, indices, endmembers=endmembers)
        oracle = oracle_plot_means(cube, plots, source, endmembers)
        with_pixels = [i for i, plot in enumerate(plots) if plot.n_pixels]
        assert table.plot_means[f"B_{source}"].tobytes() == oracle[with_pixels].tobytes()


class TestSegmentMeans:
    @settings(max_examples=100, deadline=None)
    @given(lengths=st.lists(st.integers(0, 700), min_size=1, max_size=6),
           n_obs=st.integers(1, 3), missing=st.sampled_from((0.0, 0.1, 0.9)),
           seed=st.integers(0, 2**32 - 1))
    def test_each_entry_is_the_mean_of_its_finite_values(self, lengths, n_obs, missing, seed):
        rng = np.random.default_rng(seed)
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        # Values over six decades, so that a change in the order of the sum shows.
        values = (rng.standard_normal((n_obs, bounds[-1]))
                  * 10.0 ** rng.integers(-3, 3, (n_obs, bounds[-1])))
        values[rng.random(values.shape) < missing] = np.nan
        values[rng.random(values.shape) < missing / 10] = np.inf
        means = segment_means(values, bounds)
        assert means.shape == (n_obs, len(lengths))
        for t in range(n_obs):
            for i in range(len(lengths)):
                row = values[t, bounds[i]:bounds[i + 1]]
                row = row[np.isfinite(row)]
                want = row.mean() if row.size else np.nan
                assert means[t, i].tobytes() == np.float64(want).tobytes(), (t, i, row.size)

    def test_long_segments(self):
        lengths = [0, 1, 7, 8, 9, 127, 128, 129, 136, 300, 1000, 4099]
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        values = np.random.default_rng(4).uniform(0.0, 1.0, (1, bounds[-1])) ** 3
        want = [values[0, a:b].mean() if b > a else np.nan
                for a, b in zip(bounds[:-1], bounds[1:])]
        assert segment_means(values, bounds).tobytes() == np.asarray([want]).tobytes()


@given(sizes=st.lists(st.integers(0, 50), max_size=12), max_pixels=st.integers(1, 80))
def test_plot_blocks_cover_the_plots_in_runs_under_the_limit(sizes, max_pixels):
    bounds = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
    blocks = list(plot_blocks(bounds, max_pixels))
    assert [i for lo, hi in blocks for i in range(lo, hi)] == list(range(len(sizes)))
    for lo, hi in blocks:
        assert hi > lo
        assert bounds[hi] - bounds[lo] <= max_pixels or hi == lo + 1
        # A run stops where the next plot would take it past the limit.
        assert hi == len(sizes) or bounds[hi + 1] - bounds[lo] > max_pixels


# A small generated scene whose cloud model leaves plots unobserved on some passes.
CLOUDY = ScenarioConfig(n_plots=16, plot_area_mean_ha=0.02, plot_area_median_ha=0.018,
                        seed=5, burn_probability=0.6)


@pytest.fixture(scope="module")
def cloudy_scene():
    scenario = generate(CLOUDY)
    return scenario, scenario.endmembers


def oracle_plot_series(cube, plot, source, endmembers=None):
    """(dates, plot means) of one plot."""
    return cube.dates, oracle_plot_means(cube, [plot], source, endmembers)[0]


def oracle_curve(events, cube, source, max_offset, endmembers=None):
    """(m_values, n_per_offset) of the curve, one plot series per event."""
    post_by_offset = {d: [] for d in range(max_offset + 1)}
    pre_by_offset = {d: [] for d in range(max_offset + 1)}
    for plot, burn_date in events:
        dates, values = oracle_plot_series(cube, plot, source, endmembers)
        pre = [(d, v) for d, v in zip(dates, values) if d < burn_date and np.isfinite(v)]
        if not pre:
            continue
        pre_value = pre[-1][1]
        seen = {}
        for d, v in zip(dates, values):
            off = (d - burn_date).days
            if 0 <= off <= max_offset and np.isfinite(v) and off not in seen:
                seen[off] = v
        for off, v in seen.items():
            post_by_offset[off].append(v)
            pre_by_offset[off].append(pre_value)
    m_values, counts = [], []
    for off in range(max_offset + 1):
        post, pre = post_by_offset[off], pre_by_offset[off]
        counts.append(len(post))
        if len(post) < MIN_BUCKET_N or len(pre) < MIN_BUCKET_N:
            m_values.append(np.nan)
        else:
            m_values.append(m_statistic(SampleStats.from_values(post),
                                        SampleStats.from_values(pre)))
    return m_values, counts


@pytest.mark.parametrize("name", DEFAULT_CURVE_SOURCES)
def test_curve_equals_the_per_event_oracle(cloudy_scene, name):
    scenario, endmembers = cloudy_scene
    sensor, _, source = name.partition("_")
    cube = scenario.cube_a if sensor == "A" else scenario.cube_b
    by_id = {p.plot_id: p for p in scenario.plots}
    events = [(by_id[pid], date) for pid, kind, date in scenario.truth.events()
              if kind == "burn"]
    curve = curve_of(events, cube, source, 8, endmembers=endmembers)
    m_values, counts = oracle_curve(events, cube, source, 8, endmembers)
    assert np.isfinite(curve.m_values).any()
    assert np.array_equal(curve.m_values, m_values, equal_nan=True)
    assert curve.n_per_offset == counts
