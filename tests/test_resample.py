import numpy as np
import pytest

from plotburn.resample import source_taps, upsample_cubic
from plotburn.scene import SceneError


class TestUpsampleCubic:
    def test_constant_grid_reproduced(self):
        grid = np.full((6, 7), 0.37)
        for factor in (1, 2, 3):
            out, ok = upsample_cubic(grid, factor)
            assert ok.all()
            assert np.allclose(out, 0.37, atol=1e-12)

    def test_factor_one_is_identity(self):
        rng = np.random.default_rng(0)
        grid = rng.uniform(0, 1, (8, 5))
        out, ok = upsample_cubic(grid, 1)
        assert ok.all()
        assert np.allclose(out, grid, atol=1e-12)

    def test_linear_ramp_exact_away_from_edges(self):
        rows = np.arange(10)[:, None]
        cols = np.arange(12)[None, :]
        grid = 0.3 * rows + 0.1 * cols + 2.0
        out, _ = upsample_cubic(grid, 2)
        rr = np.arange(20)[:, None] / 2.0
        cc = np.arange(24)[None, :] / 2.0
        expected = 0.3 * rr + 0.1 * cc + 2.0
        interior = out[2:-4, 2:-4]
        assert np.allclose(interior, expected[2:-4, 2:-4], atol=1e-9)

    def test_decimation_recovers_original_samples(self):
        rng = np.random.default_rng(1)
        grid = rng.uniform(0, 1, (9, 9))
        for factor in (2, 3, 4):
            out, _ = upsample_cubic(grid, factor)
            recovered = out[::factor, ::factor]
            assert np.max(np.abs(recovered[1:-1, 1:-1] - grid[1:-1, 1:-1])) < 1e-9

    def test_invalid_cells_propagate(self):
        grid = np.ones((6, 6))
        valid = np.ones((6, 6), dtype=bool)
        valid[2, 3] = False
        out, ok = upsample_cubic(grid, 2, valid)
        assert not ok[4, 6]                  # directly over the invalid cell
        assert np.isnan(out[4, 6])
        # Kernel support reaches two input cells in each direction.
        assert not ok[2, 4]
        assert ok[10, 10]

    def test_bad_factor_raises(self):
        grid = np.ones((5, 5))
        with pytest.raises(SceneError):
            upsample_cubic(grid, 0)
        with pytest.raises(SceneError):
            upsample_cubic(grid, 1.5)

    def test_small_grid_rejected(self):
        with pytest.raises(SceneError):
            upsample_cubic(np.ones((3, 8)), 2)

    @pytest.mark.parametrize("rows", [[0], [17], [2, 3], [5, 9, 17], list(range(18))])
    def test_listed_rows_equal_the_full_upsample(self, rows):
        rng = np.random.default_rng(5)
        grid = rng.uniform(0, 1, (6, 5))
        valid = rng.random((6, 5)) > 0.1
        full, full_ok = upsample_cubic(grid, 3, valid)
        out, ok = upsample_cubic(grid, 3, valid, np.array(rows))
        assert out.shape == ok.shape == (len(rows), 15)
        assert np.array_equal(ok, full_ok[rows])
        assert np.array_equal(out.view(np.int64), full[rows].view(np.int64))

    @pytest.mark.parametrize("cols", [[0], [14], [2, 3], [5, 6, 7, 8], list(range(15))],
                             ids=["first", "last", "straddles-0-1", "straddles-1-2", "every"])
    @pytest.mark.parametrize("rows", [[0], [16, 17], [4, 9], list(range(18))],
                             ids=["first", "last-two", "apart", "every"])
    def test_tapped_cells_alone_give_the_full_upsample(self, rows, cols):
        """Given the whole grid's shape, upsample_cubic needs only the input
        cells under the outputs' taps, and gives them a full upsample's bits."""
        rng = np.random.default_rng(8)
        stack = rng.uniform(0, 1, (2, 6, 5))
        valid = rng.random((6, 5)) > 0.1
        full, full_ok = upsample_cubic(stack, 3, valid)
        at = np.ix_(source_taps(6, 3, rows), source_taps(5, 3, cols))
        out, ok = upsample_cubic(stack[:, at[0], at[1]], 3, valid[at], rows, cols, (6, 5))
        want = np.ix_(rows, cols)
        assert np.array_equal(ok, full_ok[want])
        assert np.array_equal(out.view(np.int64), full[:, want[0], want[1]].view(np.int64))
        with pytest.raises(SceneError, match="does not hold"):
            upsample_cubic(stack[:, :1, :1], 3, valid[:1, :1], rows, cols, (6, 5))

    @pytest.mark.parametrize("rows", [None, [0], [0, 7, 17], list(range(18))])
    def test_band_stack_equals_band_by_band(self, rows):
        rng = np.random.default_rng(6)
        stack = rng.uniform(0, 1, (4, 6, 5))
        valid = rng.random((6, 5)) > 0.15
        rows = None if rows is None else np.array(rows)
        out, ok = upsample_cubic(stack, 3, valid, rows)
        assert out.shape == (4, 18 if rows is None else len(rows), 15)
        for band, values in zip(out, stack):
            want, want_ok = upsample_cubic(values, 3, valid, rows)
            assert np.array_equal(ok, want_ok)
            assert np.array_equal(band.view(np.int64), want.view(np.int64))
