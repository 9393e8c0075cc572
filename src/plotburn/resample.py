"""Cubic-convolution upsampling for bringing the coarse sensor onto the common grid."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

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


class CubicTaps(NamedTuple):
    """Which input samples of one axis feed which outputs, with which weights."""

    source: np.ndarray   # sorted input samples the outputs read
    taps: np.ndarray     # (4, n_out) indices into source
    weights: np.ndarray  # (4, n_out)


def cubic_taps(n_in: int, factor: int, out) -> CubicTaps:
    """The cubic taps of output samples out on an axis of n_in input samples
    upsampled by an integer factor, sample-aligned.

    Output sample j maps to input coordinate j / factor, so output j = factor*i
    lands exactly on input sample i. Taps are clamped at the edges. Weights
    are computed over the whole axis and then indexed, so an output's bits do
    not depend on which others are asked for.
    """
    coords = np.arange(n_in * factor, dtype=float) / factor
    base = np.floor(coords).astype(int)
    weights = _cubic_weights(coords - base)[:, out]
    taps = np.clip(np.stack([base - 1, base, base + 1, base + 2])[:, out], 0, n_in - 1)
    source = np.unique(taps)
    return CubicTaps(source, np.searchsorted(source, taps), weights)


def upsample_cubic(grid: np.ndarray, valid: np.ndarray, row_taps: CubicTaps,
                   col_taps: CubicTaps):
    """Cubic convolution of grid at the outputs of row_taps by col_taps.

    grid is one 2-D grid or a stack of them, (..., rows, cols), that share
    valid, a 2-D mask; its rows are row_taps.source and its columns
    col_taps.source. Returns (fine_grid, fine_valid), fine_valid 2-D. An
    output cell is invalid whenever any input cell under its 4x4 kernel
    support is invalid; invalid inputs contribute value 0 so no masked value
    can leak through arithmetic.
    """
    filled = np.where(valid, grid, 0.0)
    _, rtaps, rw = row_taps
    _, ctaps, cw = col_taps
    # Separable pass: rows first, then columns.
    inter = np.zeros(filled.shape[:-2] + (rtaps.shape[1], filled.shape[-1]))
    inter_ok = np.ones((rtaps.shape[1], filled.shape[-1]), dtype=bool)
    for t in range(4):
        inter += rw[t][:, None] * filled[..., rtaps[t], :]
        inter_ok &= valid[rtaps[t], :]
    out = np.zeros(filled.shape[:-2] + (rtaps.shape[1], ctaps.shape[1]))
    out_ok = np.ones((rtaps.shape[1], ctaps.shape[1]), dtype=bool)
    for t in range(4):
        out += cw[t] * inter[..., ctaps[t]]
        out_ok &= inter_ok[:, ctaps[t]]
    out[..., ~out_ok] = np.nan
    return out, out_ok
