"""Class separability of bands and indices, and its decay with time since burning."""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .features import pixel_stack, source_values
from .indices import EndmemberSet
from .scene import PLOT_VALID_FRACTION, Plot, SceneCube


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


def plot_source_series(cube: SceneCube, plot: Plot, source: str, *,
                       endmembers: EndmemberSet | None = None):
    """(dates, plot-mean values) across the cube; NaN marks missing entries.

    A date is missing when under PLOT_VALID_FRACTION of the plot's pixels are
    valid; otherwise its value is the mean of the finite values there.
    """
    valid, bands = pixel_stack(cube, plot.rows, plot.cols)
    values = source_values(valid, bands, source, endmembers)
    means = np.full(len(values), np.nan)
    for t in np.flatnonzero(valid.mean(axis=1) >= PLOT_VALID_FRACTION):
        vals = values[t][np.isfinite(values[t])]
        if vals.size:
            means[t] = vals.mean()
    return cube.dates, means


MIN_BUCKET_N = 3


def separability_curve(events: list[tuple[Plot, dt.date]], cube: SceneCube,
                       source: str, max_offset: int, *,
                       endmembers: EndmemberSet | None = None) -> SeparabilityCurve:
    """M between post-burn values at each day offset and matched pre-burn values.

    Each event contributes its nearest valid pre-burn observation as the
    unburned reference and at most one value per integer offset after the burn
    date. Buckets with fewer than MIN_BUCKET_N events on either side report NaN.
    """
    post_by_offset: dict[int, list[float]] = {d: [] for d in range(max_offset + 1)}
    pre_by_offset: dict[int, list[float]] = {d: [] for d in range(max_offset + 1)}
    for plot, burn_date in events:
        dates, values = plot_source_series(cube, plot, source, endmembers=endmembers)
        pre = [(d, v) for d, v in zip(dates, values)
               if d < burn_date and np.isfinite(v)]
        if not pre:
            continue
        pre_value = pre[-1][1]  # nearest valid observation before the event
        seen = {}
        for d, v in zip(dates, values):
            off = (d - burn_date).days
            if 0 <= off <= max_offset and np.isfinite(v) and off not in seen:
                seen[off] = v
        for off, v in seen.items():
            post_by_offset[off].append(v)
            pre_by_offset[off].append(pre_value)

    offsets, m_values, counts = [], [], []
    for off in range(max_offset + 1):
        post, pre = post_by_offset[off], pre_by_offset[off]
        offsets.append(off)
        counts.append(len(post))
        if len(post) < MIN_BUCKET_N or len(pre) < MIN_BUCKET_N:
            m_values.append(np.nan)
            continue
        m_values.append(m_statistic(SampleStats.from_values(post),
                                    SampleStats.from_values(pre)))
    return SeparabilityCurve(source, offsets, m_values, counts)

