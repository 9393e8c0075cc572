"""Class separability of bands and indices, and its decay with time since burning.

plot_means is the one plots x passes table of a band or index: a plot's mean
in each pass where scene.plot_observed says the plot is observed. It works
on blocks of whole plots, as the feature table does, and on every pass of a
block at once. The separability curves read their events' rows from it.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from . import features
from .features import pixel_stack, source_values
from .indices import EndmemberSet
from .scene import Plot, SceneCube, observed_from_valid, plot_pixels


@dataclass(frozen=True)
class SampleStats:
    n: int
    mean: float
    sd: float

    @classmethod
    def from_values(cls, values) -> "SampleStats":
        arr = np.asarray(values, dtype=float)
        arr = arr[np.isfinite(arr)]
        if arr.size < 2:
            raise ValueError("need at least 2 values for a sample sd")
        return cls(int(arr.size), float(arr.mean()), float(arr.std(ddof=1)))


def m_statistic(burned: SampleStats, unburned: SampleStats) -> float:
    """|mean difference| over the sum of the two standard deviations.

    Values above 1 indicate usable separation; values near 2 indicate
    excellent separation. Zero spread with equal means gives 0; zero spread
    with unequal means flags infinite separability.
    """
    spread = burned.sd + unburned.sd
    diff = abs(burned.mean - unburned.mean)
    if spread == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / spread


@dataclass
class SeparabilityCurve:
    source: str
    offsets: list[int]
    m_values: list[float]          # NaN where a bucket lacks samples
    n_per_offset: list[int]

    def rows(self):
        for off, m, n in zip(self.offsets, self.m_values, self.n_per_offset):
            yield [self.source, off, m, n, n]


CURVE_CSV_HEADER = ["index", "offset_days", "m_value", "n_burn", "n_unburn"]


def plot_blocks(bounds: np.ndarray, max_pixels: int):
    """(lo, hi) runs of consecutive plots, plot i holding pixels
    bounds[i]:bounds[i + 1], of at most max_pixels pixels together; a larger
    plot makes a run alone."""
    lo, n = 0, len(bounds) - 1
    while lo < n:
        hi = int(np.searchsorted(bounds, bounds[lo] + max_pixels, side="right")) - 1
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def segment_means(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """(n_obs, n_plots) mean() of each plot's finite values in each row of
    values (n_obs, n_px), plot i holding columns bounds[i]:bounds[i + 1]; NaN
    where a plot has none.

    mean() sums from 0.0, pairwise, so each segment is summed behind a 0.0 of
    its own: a reduceat seeded with a segment's first value groups it
    differently from the 9th value on.
    """
    finite = np.isfinite(values)
    counts = np.zeros((values.shape[0], values.shape[1] + 1), dtype=np.intp)
    np.cumsum(finite, axis=1, out=counts[:, 1:])
    counts = counts[:, bounds[1:]] - counts[:, bounds[:-1]]
    # The finite values run row by row and plot by plot; each run gets its 0.0.
    n = counts.ravel()
    summed = np.insert(values[finite], np.cumsum(n) - n, 0.0)
    sums = np.add.reduceat(summed, np.cumsum(n + 1) - (n + 1)).reshape(counts.shape)
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def plot_means(cube: SceneCube, plots: list[Plot], source: str, *,
               endmembers: EndmemberSet | None = None) -> np.ndarray:
    """(len(plots), n_obs) plot means of one band or index; NaN marks missing.

    An entry is the mean of the plot's finite values in that pass, and NaN
    where plot_observed is false or the plot has no finite value there.

    Plots go in blocks of whole plots of at most features.BLOCK_ROWS pixels
    times passes (a larger plot alone), one pixel stack and one source
    evaluation per block. A block of BLOCK_ROWS pixels of every pass, as the
    feature table takes, raised the peak RSS of a paper-scale scene and its
    plot means by about 90 MB, most of it BASMA's unmixing stacks.
    """
    n_obs = len(cube.observations)
    means = np.full((len(plots), n_obs), np.nan)
    rows, cols, bounds = plot_pixels(plots)
    if not n_obs:
        return means
    for lo, hi in plot_blocks(bounds, max(1, features.BLOCK_ROWS // n_obs)):
        block = bounds[lo:hi + 1] - bounds[lo]
        if not block[-1]:
            continue
        pixels = slice(bounds[lo], bounds[hi])
        valid, bands = pixel_stack(cube, rows[pixels], cols[pixels])
        values = source_values(valid, bands, source, endmembers)
        block_means = segment_means(values, block)
        means[lo:hi] = np.where(observed_from_valid(valid, block), block_means, np.nan).T
    return means


MIN_BUCKET_N = 3


def separability_curve(events: list[tuple[Plot, dt.date]], cube: SceneCube,
                       source: str, max_offset: int, *,
                       endmembers: EndmemberSet | None = None) -> SeparabilityCurve:
    """M between post-burn values at each day offset and matched pre-burn values.

    Each event contributes its nearest valid pre-burn observation as the
    unburned reference and at most one value per integer offset after the burn
    date. Buckets with fewer than MIN_BUCKET_N events report NaN.
    """
    post_by_offset: dict[int, list[float]] = {d: [] for d in range(max_offset + 1)}
    pre_by_offset: dict[int, list[float]] = {d: [] for d in range(max_offset + 1)}
    days = np.array([d.toordinal() for d in cube.dates])
    means = plot_means(cube, [plot for plot, _ in events], source, endmembers=endmembers)
    for values, (_, burn_date) in zip(means, events):
        since = days - burn_date.toordinal()
        finite = np.isfinite(values)
        pre = np.flatnonzero(finite & (since < 0))
        if not pre.size:
            continue
        pre_value = values[pre[-1]]  # nearest valid observation before the event
        # Dates are strictly increasing, so each offset occurs at most once.
        for t in np.flatnonzero(finite & (since >= 0) & (since <= max_offset)):
            post_by_offset[since[t]].append(values[t])
            pre_by_offset[since[t]].append(pre_value)

    offsets = list(range(max_offset + 1))
    counts = [len(post_by_offset[off]) for off in offsets]
    # Each event adds to post and pre together, so they have one length.
    m_values = [m_statistic(SampleStats.from_values(post_by_offset[off]),
                            SampleStats.from_values(pre_by_offset[off]))
                if n >= MIN_BUCKET_N else np.nan for off, n in zip(offsets, counts)]
    return SeparabilityCurve(source, offsets, m_values, counts)

