"""Plot-level aggregation, threshold policies, kappa, and prediction summaries.

Plots score above a threshold are called burned. Candidate thresholds are the
empirical score percentiles 0..100 in half-percent steps; accuracy is
piecewise constant between observed scores, so the sweep works on ranks and
both policies are invariant under any strictly increasing rescoring.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

PERCENTILE_GRID = np.arange(0.0, 100.5, 0.5)


class ThresholdError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionCounts:
    false_burn: int      # called burned, labeled not burned
    false_no_burn: int   # called not burned, labeled burned
    true_burn: int
    true_no_burn: int

    @property
    def total(self) -> int:
        return self.false_burn + self.false_no_burn + self.true_burn + self.true_no_burn

    @property
    def burn_accuracy(self) -> float:
        n = self.true_burn + self.false_no_burn
        return self.true_burn / n if n else math.nan

    @property
    def no_burn_accuracy(self) -> float:
        n = self.true_no_burn + self.false_burn
        return self.true_no_burn / n if n else math.nan

    @property
    def mean_accuracy(self) -> float:
        return (self.true_burn + self.true_no_burn) / self.total


@dataclass(frozen=True)
class ThresholdChoice:
    threshold: float      # score units
    percentile: float     # grid position, recorded alongside the score value
    counts: ConfusionCounts


@dataclass
class PlotPrediction:
    plot_id: str
    mean_score: float
    call_max: int
    call_balanced: int
    label: str = "unlabeled"
    group: str = "none"


def aggregate_plot(pixel_scores, border=None) -> float:
    """Plot-level score: the arithmetic mean of the finite pixel scores.

    Given the pixels' border flags, only interior pixels count, or every
    pixel when all are border. Empty input raises so callers can flag the
    plot as missing.
    """
    arr = np.asarray(pixel_scores, dtype=float)
    if border is not None and not np.all(border):
        arr = arr[~np.asarray(border, dtype=bool)]
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        raise ThresholdError("no valid pixel scores to aggregate")
    return float(arr.mean())


def _as_arrays(preds):
    scores = np.asarray([p[0] for p in preds], dtype=float)
    labels = np.asarray([p[1] for p in preds], dtype=np.int64)
    if scores.size == 0:
        raise ThresholdError("empty prediction set")
    if not np.isfinite(scores).all():
        raise ThresholdError("plot scores must be finite, not NaN or +-inf")
    if np.unique(labels).size < 2:
        raise ThresholdError("both labels must be present to choose a threshold")
    return scores, labels


def _confusion_sweep(scores: np.ndarray, labels: np.ndarray, thresholds) -> np.ndarray:
    """(false_burn, false_no_burn, true_burn, true_no_burn) at each of the
    thresholds, from one sort of the (finite) scores."""
    order = np.argsort(scores)
    burned = np.concatenate(([0], np.cumsum(labels[order] == 1)))
    unburned = np.concatenate(([0], np.cumsum(labels[order] == 0)))
    # Scores at or below a threshold are not called burned.
    below = np.searchsorted(scores[order], thresholds, side="right")
    false_no_burn, true_no_burn = burned[below], unburned[below]
    return np.stack([unburned[-1] - true_no_burn, false_no_burn,
                     burned[-1] - false_no_burn, true_no_burn])


def max_accuracy_threshold(preds) -> ThresholdChoice:
    """Threshold maximizing overall accuracy over the percentile grid.

    preds is a sequence of (mean_score, label) with label 1 = burned. Ties go
    to the lower threshold, which favors burn calls.
    """
    scores, labels = _as_arrays(preds)
    # The percentile grid cannot express "call everything" (score > t is
    # strict), so prepend a candidate strictly below the minimum.
    percentiles = np.concatenate(([-1.0], PERCENTILE_GRID))
    candidates = np.concatenate(([scores.min() - 1.0],
                                 np.percentile(scores, PERCENTILE_GRID)))
    counts = _confusion_sweep(scores, labels, candidates)
    best = int(np.argmax(counts[2] + counts[3]))
    return ThresholdChoice(float(candidates[best]), float(percentiles[best]),
                           ConfusionCounts(*map(int, counts[:, best])))


def balanced_accuracy_threshold(preds) -> ThresholdChoice:
    """Threshold where burn accuracy and no-burn accuracy cross.

    Both accuracy curves are sampled on the percentile grid and interpolated
    piecewise linearly in percentile space; the crossing percentile maps back
    to a score threshold. Among the crossing point and its bracketing grid
    points, the realized accuracy gap decides (the step curves can jump inside
    the bracket); without a crossing the gap-minimizing grid point is used
    with a warning.
    """
    scores, labels = _as_arrays(preds)
    grid = np.percentile(scores, PERCENTILE_GRID)
    false_burn, false_no_burn, true_burn, true_no_burn = _confusion_sweep(
        scores, labels, grid)
    diffs = (true_burn / (true_burn + false_no_burn)
             - true_no_burn / (true_no_burn + false_burn))

    # The first grid point where the gap is zero or turns from positive to negative.
    turns = np.append((diffs[:-1] > 0.0) & (diffs[1:] < 0.0), False)
    hits = np.flatnonzero((diffs == 0.0) | turns)
    q = PERCENTILE_GRID
    k = hits[0] if hits.size else None
    if k is None:
        warnings.warn("accuracy curves never cross; falling back to the "
                      "gap-minimizing grid threshold")
        cross = [q[np.argmin(np.abs(diffs))]]
    elif diffs[k] == 0.0:
        # Zero-gap run: take its midpoint in percentile space (the run ends
        # where the gap first turns nonzero, or at the grid end).
        end = k + np.argmax(np.append(diffs[k:] != 0.0, True))
        cross = [(q[k] + q[min(end, len(q) - 1)]) / 2.0]
    else:
        frac = diffs[k] / (diffs[k] - diffs[k + 1])
        cross = [q[k] + frac * (q[k + 1] - q[k]), q[k], q[k + 1]]

    # The smallest realized gap wins; ties go to the earlier candidate.
    cross = np.asarray(cross)
    thresholds = np.percentile(scores, cross)
    counts = _confusion_sweep(scores, labels, thresholds)
    false_burn, false_no_burn, true_burn, true_no_burn = counts
    best = int(np.argmin(np.abs(true_burn / (true_burn + false_no_burn)
                                - true_no_burn / (true_no_burn + false_burn))))
    return ThresholdChoice(float(thresholds[best]), float(cross[best]),
                           ConfusionCounts(*map(int, counts[:, best])))


def cohens_kappa(counts: ConfusionCounts) -> float:
    """Agreement beyond chance from the confusion marginals."""
    n = counts.total
    if n == 0:
        raise ThresholdError("empty confusion counts")
    p_o = counts.mean_accuracy
    pred_burn = (counts.true_burn + counts.false_burn) / n
    label_burn = (counts.true_burn + counts.false_no_burn) / n
    p_e = pred_burn * label_burn + (1 - pred_burn) * (1 - label_burn)
    if p_e == 1.0:
        return 0.0
    return (p_o - p_e) / (1.0 - p_e)


def make_predictions(plot_means: dict[str, float], choice_max: ThresholdChoice,
                     choice_balanced: ThresholdChoice,
                     labels: dict[str, str] | None = None,
                     groups: dict[str, str] | None = None) -> list[PlotPrediction]:
    labels = labels or {}
    groups = groups or {}
    preds = []
    for plot_id in sorted(plot_means):
        score = plot_means[plot_id]
        preds.append(PlotPrediction(
            plot_id, score,
            int(score > choice_max.threshold),
            int(score > choice_balanced.threshold),
            labels.get(plot_id, "unlabeled"),
            groups.get(plot_id, "none")))
    return preds


def _summary_row(values: np.ndarray):
    if values.size == 0:
        return [0, math.nan, math.nan, math.nan, math.nan]
    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return [int(values.size), float(values.mean()), sd,
            float(values.max()), float(values.min())]


def prediction_summary(preds: list[PlotPrediction], n_bins: int = 40):
    """Summary tables: per-measure statistics, policy cross-tab, score densities.

    Returns a dict with "summary" rows (measure, n, mean, sd, max, min),
    "crosstab" counts over (balanced call, max call), and "density" histogram
    rows (policy, call, group, bin_left, bin_right, count, density) of the
    continuous scores.
    """
    call_max = np.asarray([p.call_max for p in preds], dtype=float)
    call_bal = np.asarray([p.call_balanced for p in preds], dtype=float)
    cont = np.asarray([p.mean_score for p in preds], dtype=float)
    summary = [
        ["max_accuracy", *_summary_row(call_max)],
        ["balanced_accuracy", *_summary_row(call_bal)],
        ["continuous", *_summary_row(cont)],
    ]
    crosstab = {(b, m): 0 for b in (0, 1) for m in (0, 1)}
    for p in preds:
        crosstab[(p.call_balanced, p.call_max)] += 1

    edges = np.linspace(0.0, 1.0, n_bins + 1)
    density = []
    for policy, calls in (("max_accuracy", call_max), ("balanced_accuracy", call_bal)):
        for call in (0, 1):
            group_names = sorted({p.group for p in preds})
            for group in group_names:
                sel = np.asarray([p.mean_score for p, c in zip(preds, calls)
                                  if int(c) == call and p.group == group])
                if sel.size == 0:
                    continue
                hist, _ = np.histogram(sel, bins=edges)
                dens = hist / (sel.size * (edges[1] - edges[0]))
                for b in range(n_bins):
                    if hist[b]:
                        density.append([policy, call, group,
                                        float(edges[b]), float(edges[b + 1]),
                                        int(hist[b]), float(dens[b])])
    return {"summary": summary, "crosstab": crosstab, "density": density}
