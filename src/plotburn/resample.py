"""Cubic-convolution upsampling for bringing the coarse sensor onto the common grid."""

from __future__ import annotations

import numpy as np

from .scene import SceneError

# Keys kernel sharpness; -0.5 reproduces linear ramps exactly and is the
# conventional choice for imagery resampling.
KERNEL_A = -0.5


def _cubic_weights(frac: np.ndarray) -> np.ndarray:
    """Kernel weights for the four taps at offsets (-1, 0, 1, 2) - frac."""
    a = KERNEL_A
    s = np.stack([frac + 1.0, frac, 1.0 - frac, 2.0 - frac])
    s = np.abs(s)
    w = np.where(
        s <= 1.0,
        (a + 2.0) * s ** 3 - (a + 3.0) * s ** 2 + 1.0,
        np.where(s < 2.0, a * s ** 3 - 5.0 * a * s ** 2 + 8.0 * a * s - 4.0 * a, 0.0),
    )
    return w


def _axis_taps(n_in: int, factor: int):
    """Tap indices (4, n_out) and weights for one axis, sample-aligned grids.

    Output sample j maps to input coordinate j / factor, so output j = factor*i
    lands exactly on input sample i. Tap indices are clamped at the edges.
    """
    coords = np.arange(n_in * factor, dtype=float) / factor
    base = np.floor(coords).astype(int)
    frac = coords - base
    taps = np.stack([base - 1, base, base + 1, base + 2])
    taps = np.clip(taps, 0, n_in - 1)
    return taps, _cubic_weights(frac)


def source_taps(n_in: int, factor: int, out) -> np.ndarray:
    """Input samples, sorted, that the cubic taps of output samples out read."""
    taps, _ = _axis_taps(n_in, factor)
    return np.unique(taps[:, out])


def upsample_cubic(grid: np.ndarray, factor: int, valid: np.ndarray | None = None,
                   rows=None, cols=None, shape: tuple[int, int] | None = None):
    """Upsample grids by an integer factor with cubic convolution.

    grid is one 2-D grid or a stack of them, (..., rows, cols), that share
    valid, a 2-D mask. Returns (fine_grid, fine_valid), fine_valid 2-D. An
    output cell is invalid whenever any input cell under its 4x4 kernel
    support is invalid; invalid inputs contribute value 0 so no masked value
    can leak through arithmetic.

    rows and cols, when given, are the output rows and columns to compute
    (every one when None), and the result is that (len(rows), len(cols))
    block. shape, when given, is the (nrows, ncols) of the whole input grid,
    and grid holds only the cells those outputs read: its rows and columns
    are source_taps(nrows, factor, rows) and source_taps(ncols, factor, cols).
    Either way each output cell has the bits a whole-grid upsample gives it.
    """
    if int(factor) != factor or factor < 1:
        raise SceneError(f"upsample factor must be an integer >= 1, got {factor}")
    factor = int(factor)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim < 2 or min(shape or grid.shape[-2:]) < 4:
        raise SceneError("upsample_cubic needs grids of at least 4x4 cells")
    stack, (nrows, ncols) = grid.shape[:-2], shape or grid.shape[-2:]
    if valid is None:
        valid = np.ones(grid.shape[-2:], dtype=bool)
    filled = np.where(valid, grid, 0.0)

    rtaps, rw = _axis_taps(nrows, factor)
    ctaps, cw = _axis_taps(ncols, factor)
    if rows is not None:
        rtaps, rw = rtaps[:, rows], rw[:, rows]
    if cols is not None:
        ctaps, cw = ctaps[:, cols], cw[:, cols]
    if shape is not None:
        # Taps index the whole grid; grid holds only the tapped samples.
        rsrc, csrc = np.unique(rtaps), np.unique(ctaps)
        if grid.shape[-2:] != (rsrc.size, csrc.size):
            raise SceneError(f"grid of shape {grid.shape[-2:]} does not hold the "
                             "cells the outputs read")
        rtaps, ctaps = np.searchsorted(rsrc, rtaps), np.searchsorted(csrc, ctaps)

    # Separable pass: rows first, then columns.
    inter = np.zeros(stack + (rtaps.shape[1], grid.shape[-1]))
    inter_ok = np.ones((rtaps.shape[1], grid.shape[-1]), dtype=bool)
    for t in range(4):
        inter += rw[t][:, None] * filled[..., rtaps[t], :]
        inter_ok &= valid[rtaps[t], :]
    out = np.zeros(stack + (rtaps.shape[1], ctaps.shape[1]))
    out_ok = np.ones((rtaps.shape[1], ctaps.shape[1]), dtype=bool)
    for t in range(4):
        out += cw[t] * inter[..., ctaps[t]]
        out_ok &= inter_ok[:, ctaps[t]]
    out[..., ~out_ok] = np.nan
    return out, out_ok
