"""Class separability of bands and indices, and its decay with time since burning.

separability_curve is statistics over a plots x passes table of plot means,
NaN where scene.plot_observed says a plot is unobserved: the rows of the
burned plots in a FeatureTable's plot_means, which features.build_feature_table
fills for every source it evaluates.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np


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

MIN_BUCKET_N = 3


def separability_curve(source: str, means: np.ndarray, dates: list[dt.date],
                       burn_dates: list[dt.date], max_offset: int) -> SeparabilityCurve:
    """M between post-burn values at each day offset and matched pre-burn values.

    Row i of means is the series, on dates, of the plot burned on
    burn_dates[i]: its nearest valid pre-burn value is the unburned reference,
    and it adds at most one value per integer offset after the burn. Buckets
    with fewer than MIN_BUCKET_N events report NaN.
    """
    since = (np.array([d.toordinal() for d in dates], dtype=np.int64)
             - np.array([d.toordinal() for d in burn_dates], dtype=np.int64).reshape(-1, 1))
    finite = np.isfinite(means)
    before = [row[ok] for row, ok in zip(means, finite & (since < 0))]
    pre = np.array([row[-1] if row.size else np.nan for row in before])
    post = finite & (since >= 0) & np.isfinite(pre).reshape(-1, 1)
    offsets = list(range(max_offset + 1))
    # Dates are strictly increasing, so an event has each offset at most once.
    hits = [post & (since == off) for off in offsets]
    counts = [int(at.sum()) for at in hits]
    m_values = [m_statistic(SampleStats.from_values(means[at]),
                            SampleStats.from_values(pre[at.any(axis=1)]))
                if n >= MIN_BUCKET_N else np.nan for at, n in zip(hits, counts)]
    return SeparabilityCurve(source, offsets, m_values, counts)
