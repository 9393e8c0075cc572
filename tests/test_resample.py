import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plotburn.resample import cubic_taps, upsample_cubic


def whole_axis(n_in, factor):
    return cubic_taps(n_in, factor, np.arange(n_in * factor))


def upsample_whole(grid, factor, valid=None):
    """Every output of grid, (..., rows, cols), upsampled by factor."""
    nrows, ncols = grid.shape[-2:]
    if valid is None:
        valid = np.ones((nrows, ncols), dtype=bool)
    return upsample_cubic(grid, valid, whole_axis(nrows, factor), whole_axis(ncols, factor))


def upsample_window(grid, factor, valid, rows, cols):
    """The rows by cols outputs, computed from the input cells their taps read."""
    row_taps = cubic_taps(grid.shape[-2], factor, np.asarray(rows))
    col_taps = cubic_taps(grid.shape[-1], factor, np.asarray(cols))
    at = np.ix_(row_taps.source, col_taps.source)
    return upsample_cubic(grid[..., at[0], at[1]], valid[at], row_taps, col_taps)


class TestCubicTaps:
    def test_whole_axis_reads_every_input(self):
        plan = whole_axis(6, 3)
        assert plan.source.tolist() == list(range(6))
        assert plan.taps.shape == plan.weights.shape == (4, 18)
        # Output 3 sits on input 1 and reads inputs 0..3; output 0 clamps.
        assert plan.taps[:, 3].tolist() == [0, 1, 2, 3]
        assert plan.taps[:, 0].tolist() == [0, 0, 1, 2]
        assert np.allclose(plan.weights.sum(axis=0), 1.0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(n_in=st.integers(4, 12), factor=st.integers(1, 4), data=st.data())
    def test_listed_outputs_take_the_whole_axis_taps_bit_for_bit(self, n_in, factor, data):
        whole = whole_axis(n_in, factor)
        out = np.array(sorted(data.draw(st.sets(st.integers(0, n_in * factor - 1),
                                                min_size=1))))
        plan = cubic_taps(n_in, factor, out)
        assert np.array_equal(plan.source, np.unique(whole.taps[:, out]))
        assert np.array_equal(plan.source[plan.taps], whole.source[whole.taps][:, out])
        assert np.array_equal(plan.weights.view(np.int64), whole.weights[:, out].view(np.int64))


class TestUpsampleCubic:
    def test_constant_grid_reproduced(self):
        grid = np.full((6, 7), 0.37)
        for factor in (1, 2, 3):
            out, ok = upsample_whole(grid, factor)
            assert ok.all()
            assert np.allclose(out, 0.37, atol=1e-12)

    def test_factor_one_is_identity(self):
        rng = np.random.default_rng(0)
        grid = rng.uniform(0, 1, (8, 5))
        out, ok = upsample_whole(grid, 1)
        assert ok.all()
        assert np.allclose(out, grid, atol=1e-12)

    def test_linear_ramp_exact_away_from_edges(self):
        rows = np.arange(10)[:, None]
        cols = np.arange(12)[None, :]
        grid = 0.3 * rows + 0.1 * cols + 2.0
        out, _ = upsample_whole(grid, 2)
        rr = np.arange(20)[:, None] / 2.0
        cc = np.arange(24)[None, :] / 2.0
        expected = 0.3 * rr + 0.1 * cc + 2.0
        interior = out[2:-4, 2:-4]
        assert np.allclose(interior, expected[2:-4, 2:-4], atol=1e-9)

    def test_decimation_recovers_original_samples(self):
        rng = np.random.default_rng(1)
        grid = rng.uniform(0, 1, (9, 9))
        for factor in (2, 3, 4):
            out, _ = upsample_whole(grid, factor)
            recovered = out[::factor, ::factor]
            assert np.max(np.abs(recovered[1:-1, 1:-1] - grid[1:-1, 1:-1])) < 1e-9

    def test_invalid_cells_propagate(self):
        grid = np.ones((6, 6))
        valid = np.ones((6, 6), dtype=bool)
        valid[2, 3] = False
        out, ok = upsample_whole(grid, 2, valid)
        assert not ok[4, 6]                  # directly over the invalid cell
        assert np.isnan(out[4, 6])
        # Kernel support reaches two input cells in each direction.
        assert not ok[2, 4]
        assert ok[10, 10]

    @pytest.mark.parametrize("rows", [[0], [17], [2, 3], [5, 9, 17], list(range(18))])
    def test_listed_rows_equal_the_full_upsample(self, rows):
        rng = np.random.default_rng(5)
        grid = rng.uniform(0, 1, (6, 5))
        valid = rng.random((6, 5)) > 0.1
        full, full_ok = upsample_whole(grid, 3, valid)
        out, ok = upsample_window(grid, 3, valid, rows, range(15))
        assert out.shape == ok.shape == (len(rows), 15)
        assert np.array_equal(ok, full_ok[rows])
        assert np.array_equal(out.view(np.int64), full[rows].view(np.int64))

    @pytest.mark.parametrize("cols", [[0], [14], [2, 3], [5, 6, 7, 8], list(range(15))],
                             ids=["first", "last", "straddles-0-1", "straddles-1-2", "every"])
    @pytest.mark.parametrize("rows", [[0], [16, 17], [4, 9], list(range(18))],
                             ids=["first", "last-two", "apart", "every"])
    def test_tapped_cells_alone_give_the_full_upsample(self, rows, cols):
        """upsample_cubic needs only the input cells under the outputs' taps,
        and gives the outputs a full upsample's bits."""
        rng = np.random.default_rng(8)
        stack = rng.uniform(0, 1, (2, 6, 5))
        valid = rng.random((6, 5)) > 0.1
        full, full_ok = upsample_whole(stack, 3, valid)
        out, ok = upsample_window(stack, 3, valid, rows, cols)
        want = np.ix_(rows, cols)
        assert np.array_equal(ok, full_ok[want])
        assert np.array_equal(out.view(np.int64), full[:, want[0], want[1]].view(np.int64))

    @pytest.mark.parametrize("rows", [None, [0], [0, 7, 17], list(range(18))])
    def test_band_stack_equals_band_by_band(self, rows):
        rng = np.random.default_rng(6)
        stack = rng.uniform(0, 1, (4, 6, 5))
        valid = rng.random((6, 5)) > 0.15

        def upsample(grid):
            if rows is None:
                return upsample_whole(grid, 3, valid)
            return upsample_window(grid, 3, valid, rows, range(15))

        out, ok = upsample(stack)
        assert out.shape == (4, 18 if rows is None else len(rows), 15)
        for band, values in zip(out, stack):
            want, want_ok = upsample(values)
            assert np.array_equal(ok, want_ok)
            assert np.array_equal(band.view(np.int64), want.view(np.int64))
