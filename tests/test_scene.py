import numpy as np
import pytest
from hypothesis import given, settings

from conftest import day, make_cube, oracle_plot_observed, plot_scenes
from plotburn.scene import (PLOT_VALID_FRACTION, SENSOR_BANDS, AlignmentError, EmptyPlotError,
                            GridGeometry, Plot, SceneCube, SceneError, gap_statistics, make_plot,
                            plot_observed, rasterize_plot)


def square_polygon(col0, row0, size, geom):
    x0 = geom.xll + col0 * geom.cellsize
    x1 = geom.xll + (col0 + size) * geom.cellsize
    y1 = geom.yll + (geom.nrows - row0) * geom.cellsize
    y0 = geom.yll + (geom.nrows - row0 - size) * geom.cellsize
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def oracle_centers_inside(polygon, geom):
    """Independent scalar crossing-number test over every grid cell."""
    hits = set()
    n = len(polygon)
    for row in range(geom.nrows):
        for col in range(geom.ncols):
            px = geom.xll + (col + 0.5) * geom.cellsize
            py = geom.yll + (geom.nrows - row - 0.5) * geom.cellsize
            inside = False
            for i in range(n):
                x1, y1 = polygon[i]
                x2, y2 = polygon[(i + 1) % n]
                if (y1 > py) != (y2 > py):
                    xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
                    if px < xint:
                        inside = not inside
            if inside:
                hits.add((row, col))
    return hits


class TestRasterizePlot:
    def test_nine_by_nine_square(self):
        geom = GridGeometry(20, 20, 0.0, 0.0, 1.0)
        rows, cols, border = rasterize_plot(square_polygon(5, 4, 9, geom), geom)
        assert rows.size == 81
        assert int(border.sum()) == 32

    def test_sliver_covering_no_center_raises(self):
        geom = GridGeometry(10, 10, 0.0, 0.0, 1.0)
        sliver = [(0.1, 0.1), (0.3, 0.1), (0.3, 0.2), (0.1, 0.2)]
        with pytest.raises(EmptyPlotError):
            rasterize_plot(sliver, geom)

    def test_random_polygons_match_brute_force(self):
        rng = np.random.default_rng(7)
        geom = GridGeometry(24, 24, 0.0, 0.0, 1.0)
        for _ in range(20):
            cx, cy = rng.uniform(8, 16, size=2)
            angles = np.sort(rng.uniform(0, 2 * np.pi, size=rng.integers(3, 9)))
            radii = rng.uniform(2.0, 7.0, size=angles.size)
            polygon = [(cx + r * np.cos(a), cy + r * np.sin(a))
                       for a, r in zip(angles, radii)]
            expected = oracle_centers_inside(polygon, geom)
            if not expected:
                continue
            rows, cols, _ = rasterize_plot(polygon, geom)
            assert set(zip(rows.tolist(), cols.tolist())) == expected

    def test_vertex_order_independent(self):
        geom = GridGeometry(20, 20, 0.0, 0.0, 1.0)
        polygon = [(3.2, 4.1), (12.7, 3.3), (15.1, 11.8), (6.4, 14.9)]
        fwd = rasterize_plot(polygon, geom)
        rev = rasterize_plot(list(reversed(polygon)), geom)
        assert np.array_equal(fwd[0], rev[0])
        assert np.array_equal(fwd[1], rev[1])
        assert np.array_equal(fwd[2], rev[2])

    def test_border_is_subset_of_pixels(self):
        geom = GridGeometry(20, 20, 0.0, 0.0, 1.0)
        rows, cols, border = rasterize_plot(square_polygon(2, 2, 5, geom), geom)
        assert border.shape == rows.shape
        assert border.sum() <= rows.size

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x_max, y_max", [(1e308, 9.0), (1e306, 0.009)],
                             ids=["area-overflows", "cell-offset-overflows"])
    def test_overflowing_coordinates_raise(self, x_max, y_max):
        geom = GridGeometry(10, 10, 0.0, 0.0, 0.001)
        polygon = [(0.0, 0.0), (x_max, 0.0), (x_max, y_max), (0.0, y_max)]
        with pytest.raises(SceneError, match="polygon coordinates overflow on a grid "
                                             "of cellsize 0.001"):
            rasterize_plot(polygon, geom)

    def test_labeled_plot_needs_pixels(self):
        with pytest.raises(EmptyPlotError):
            Plot("p", [(0, 0), (1, 0), (1, 1)], np.array([], dtype=int),
                 np.array([], dtype=int), np.array([], dtype=bool), label="burned")


def _single_plot(geom):
    return make_plot("p0", square_polygon(1, 1, 4, geom), geom, label="burned")


class TestGapStatistics:
    def test_daily_observations(self, geom10):
        cube = make_cube("A", geom10, {d: 0.2 for d in range(10)})
        report = gap_statistics({"A": cube}, [_single_plot(geom10)])
        n, mean_gap, max_gap = report.per_plot["p0"]["A"]
        assert (n, mean_gap, max_gap) == (10, 1.0, 1.0)

    def test_gap_arithmetic(self, geom10):
        cube = make_cube("A", geom10, {0: 0.2, 2: 0.2, 10: 0.2})
        report = gap_statistics({"A": cube}, [_single_plot(geom10)])
        _, mean_gap, max_gap = report.per_plot["p0"]["A"]
        assert mean_gap == 5.0
        assert max_gap == 8.0

    def test_underobserved_plot_flagged(self, geom10):
        cube = make_cube("A", geom10, {0: 0.2})
        report = gap_statistics({"A": cube}, [_single_plot(geom10)])
        assert "A" not in report.per_plot["p0"]
        assert "A" not in report.summary

    def test_half_valid_rule(self, geom10):
        plot = _single_plot(geom10)  # 16 pixels
        valid = np.ones(geom10.shape, dtype=bool)
        valid[plot.rows[:9], plot.cols[:9]] = False  # 7/16 valid < 50%
        cube = make_cube("A", geom10, {0: 0.2, 1: 0.2, 2: 0.2},
                         valid_by_date={1: valid})
        assert plot_observed(cube, [plot]).tolist() == [[True, False, True]]

    def test_observed_is_the_valid_fraction_rule(self, geom10):
        plot = _single_plot(geom10)  # 16 pixels
        empty = Plot("e", [(0, 0), (1, 0), (1, 1)], np.array([], dtype=int),
                     np.array([], dtype=int), np.array([], dtype=bool))
        half, less = (np.ones(geom10.shape, dtype=bool) for _ in range(2))
        half[plot.rows[:8], plot.cols[:8]] = False   # exactly 8/16 valid
        less[plot.rows[:9], plot.cols[:9]] = False   # 7/16 valid
        cube = make_cube("A", geom10, {0: 0.2, 1: 0.2, 2: 0.2},
                         valid_by_date={0: half, 1: less})
        rule = [o.valid[plot.rows, plot.cols].mean() >= PLOT_VALID_FRACTION
                for o in cube.observations]
        observed = plot_observed(cube, [plot, empty, plot])
        assert observed.dtype == bool and observed.shape == (3, 3)
        assert observed[0].tolist() == rule == [True, False, True]
        assert not observed[1].any()
        assert np.array_equal(observed[2], observed[0])
        assert plot_observed(cube, []).shape == (0, 3)

    @settings(max_examples=80, deadline=None)
    @given(scene=plot_scenes())
    def test_observed_equals_the_per_plot_oracle(self, scene):
        cube, plots = scene
        observed = plot_observed(cube, plots)
        assert observed.dtype == bool
        assert observed.tobytes() == oracle_plot_observed(cube, plots).tobytes()

    def test_cube_without_observations(self, geom10):
        plot = _single_plot(geom10)
        cube = SceneCube("A", [], np.empty((0, 4, *geom10.shape)),
                         np.empty((0, *geom10.shape), dtype=bool), geom10)
        assert plot_observed(cube, [plot, plot]).shape == (2, 0)
        assert plot_observed(cube, []).shape == (0, 0)

    def test_summary_ordering(self, geom10):
        plots = [make_plot("p0", square_polygon(1, 1, 3, geom10), geom10),
                 make_plot("p1", square_polygon(5, 5, 3, geom10), geom10)]
        v = np.ones(geom10.shape, dtype=bool)
        hide_p1 = v.copy()
        hide_p1[plots[1].rows, plots[1].cols] = False
        cube = make_cube("A", geom10, {0: 0.2, 2: 0.2, 3: 0.2, 9: 0.2},
                         valid_by_date={2: hide_p1})
        report = gap_statistics({"A": cube}, plots)
        for entry in report.per_plot.values():
            n, mean_gap, max_gap = entry["A"]
            assert max_gap >= mean_gap >= 0
        s = report.summary["A"]
        assert s["max_of_means"] >= s["mean_of_means"]
        assert s["max_of_maxes"] >= s["mean_of_maxes"]
        assert s["mean_of_maxes"] >= s["mean_of_means"]


class TestSceneInvariants:
    def test_dates_strictly_increasing(self, geom10):
        cube = make_cube("A", geom10, {0: 0.2, 1: 0.2})
        with pytest.raises(SceneError, match="strictly increasing"):
            SceneCube("A", [day(0), day(0)], cube.values, cube.valid, geom10)

    def test_reflectance_values_masked_under_invalid(self, geom10):
        valid = np.ones(geom10.shape, dtype=bool)
        valid[0, 0] = False
        cube = make_cube("A", geom10, {0: 0.4}, valid_by_date={0: valid})
        assert np.isnan(cube.values[0, :, 0, 0]).all()

    @pytest.mark.parametrize("change, error, match", [
        ({"sensor": "C"}, SceneError, "unknown sensor"),
        ({"sensor": "B"}, SceneError, "9 bands"),
        ({"values": np.zeros((2, 10, 10))}, SceneError, "4 bands"),
        ({"values": np.zeros((2, 4, 10, 9))}, AlignmentError, "2 passes of"),
        ({"values": np.zeros((3, 4, 10, 10))}, AlignmentError, "2 passes of"),
        ({"valid": np.ones((2, 10, 9), dtype=bool)}, AlignmentError, "2 passes of"),
        ({"valid": np.ones((10, 10), dtype=bool)}, AlignmentError, "2 passes of"),
        ({"valid": np.ones((2, 10, 10))}, SceneError, "boolean"),
        ({"dates": [day(1), day(0)]}, SceneError, "strictly increasing"),
    ], ids=["sensor", "bands", "band-axis", "values-cols", "values-passes", "valid-cols",
            "valid-passes", "valid-dtype", "dates"])
    def test_cube_checks(self, geom10, change, error, match):
        fields = {"sensor": "A", "dates": [day(0), day(1)], "values": np.zeros((2, 4, 10, 10)),
                  "valid": np.ones((2, 10, 10), dtype=bool), "geom": geom10}
        SceneCube(**fields)
        with pytest.raises(error, match=match) as raised:
            SceneCube(**{**fields, **change})
        assert raised.type is error

    def test_observations_are_views_of_the_arrays(self, geom10):
        valid = np.ones(geom10.shape, dtype=bool)
        valid[0, 0] = False
        cube = make_cube("B", geom10, {0: 0.2, 3: {"Red": 0.4}}, valid_by_date={3: valid})
        for t, obs in enumerate(cube.observations):
            assert (obs.sensor, obs.date, obs.geom) == ("B", cube.dates[t], geom10)
            assert list(obs.bands) == list(SENSOR_BANDS["B"])
            assert np.shares_memory(obs.valid, cube.valid)
            assert all(np.shares_memory(grid, cube.values) for grid in obs.bands.values())
            assert np.array_equal(obs.valid, cube.valid[t])
            assert np.array_equal(obs.bands["Red"], cube.values[t, 2], equal_nan=True)

    def test_window_cube_reads_common_grid_cells(self, geom10):
        from plotburn.features import pixel_stack

        plot = _single_plot(geom10)  # rows and columns 1..4
        valid = np.ones(geom10.shape, dtype=bool)
        valid[plot.rows[:9], plot.cols[:9]] = False
        full = make_cube("A", geom10, {0: 0.2, 1: 0.3, 2: 0.4}, valid_by_date={1: valid})
        part = geom10.window(1, 0, 5, 5)
        window = SceneCube("A", full.dates, full.values[..., 1:6, :5], full.valid[:, 1:6, :5],
                           part, (1, 0))
        assert part == GridGeometry(5, 5, 0.0, 4.0, 1.0)
        assert np.array_equal(plot_observed(window, [plot]), plot_observed(full, [plot]))
        want = pixel_stack(full, plot.rows, plot.cols)
        got = pixel_stack(window, plot.rows, plot.cols)
        assert np.array_equal(got[0], want[0])
        for band in want[1]:
            assert np.array_equal(got[1][band], want[1][band], equal_nan=True)
        for cell in ((0, 1), (1, 5), (6, 1)):
            with pytest.raises(SceneError, match="outside"):
                window.index(*cell)
