"""Class separability of bands and indices, and its decay with time since burning.

plot_means is the one plots x passes table of a band or index: a plot's mean
in each pass where scene.plot_observed says the plot is observed. The
separability curves read their events' rows from it.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .features import pixel_stack, source_values
from .indices import EndmemberSet
from .scene import Plot, SceneCube, plot_observed


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


def plot_means(cube: SceneCube, plots: list[Plot], source: str, *,
               endmembers: EndmemberSet | None = None) -> np.ndarray:
    """(len(plots), n_obs) plot means of one band or index; NaN marks missing.

    An entry is the mean of the plot's finite values in that pass, and NaN
    where plot_observed is false or the plot has no finite value there.
    """
    observed = plot_observed(cube, plots)
    means = np.full(observed.shape, np.nan)
    for i, plot in enumerate(plots):
        valid, bands = pixel_stack(cube, plot.rows, plot.cols)
        values = source_values(valid, bands, source, endmembers)
        for t in np.flatnonzero(observed[i]):
            vals = values[t][np.isfinite(values[t])]
            if vals.size:
                means[i, t] = vals.mean()
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

