"""Plot-holdout cross-validation, and the one path from a feature table to a
forest and its plot scores: row_classes, fit_forest and score_plots.

Labels live at the plot level and pixels within a plot are strongly
correlated, so every fold holds out whole plots. A leakage guard re-derives
the training rows' plot ids per fold and refuses any overlap with the holdout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .features import FeatureTable, table_matrix
from .forest import (ForestModel, ForestParams, apply_impute, fit_impute_medians,
                     predict_scores, train_forest)
from .thresholds import aggregate_plot

LABEL_TO_CLASS = {"not_burned": 0, "burned": 1}

# True leave-one-plot-out up to this many plots; grouped folds beyond.
LOOCV_PLOT_LIMIT = 200
DEFAULT_GROUPS = 20


class LeakageError(AssertionError):
    """A fold's training set shares a plot with its holdout."""


@dataclass
class CvResult:
    pixel_scores: dict[str, np.ndarray] = field(default_factory=dict)
    plot_means: dict[str, float] = field(default_factory=dict)
    folds: list[tuple[tuple[str, ...], int]] = field(default_factory=list)


def check_fold_leakage(train_plot_ids, holdout_plot_ids) -> None:
    overlap = set(train_plot_ids) & set(holdout_plot_ids)
    if overlap:
        raise LeakageError(f"holdout plot(s) {sorted(overlap)} appear in training rows")


def parse_cv_mode(mode) -> tuple[str, int]:
    """("auto", 0), ("loocv", 0) or ("grouped", k) for a cv_mode string."""
    kind, _, k = str(mode).partition(":")
    if mode in ("auto", "loocv") or (kind == "grouped" and k.isdecimal() and int(k) >= 1):
        return kind, int(k or 0)
    raise ValueError("cv_mode must be 'auto', 'loocv' or 'grouped:<k>' with k >= 1, "
                     f"got {mode!r}")


def row_classes(table: FeatureTable, labels: dict[str, str]) -> np.ndarray:
    """Each row's class by its plot's label; -1 unless burned or not_burned."""
    return np.asarray([LABEL_TO_CLASS.get(labels.get(p), -1) for p in table.plot_id],
                      dtype=np.int64)


def fit_forest(table: FeatureTable, rows: np.ndarray, names: list[str], y: np.ndarray,
               params: ForestParams) -> tuple[ForestModel, np.ndarray]:
    """(model, medians) of a forest on the named columns of table's rows."""
    X = table_matrix(table, names, rows)
    medians = fit_impute_medians(X)
    return train_forest(apply_impute(X, medians), y, names, params), medians


def score_plots(model: ForestModel, medians: np.ndarray, table: FeatureTable,
                plot_rows: dict[str, np.ndarray], plots: list[str]) -> dict[str, np.ndarray]:
    """Each listed plot's row scores, from one gather and one predict_scores call."""
    if not plots:
        return {}
    rows = [plot_rows[p] for p in plots]
    X = apply_impute(table_matrix(table, model.schema, np.concatenate(rows)), medians)
    return dict(zip(plots, np.split(predict_scores(model, X),
                                    np.cumsum([r.size for r in rows[:-1]]))))


def grouped_plot_folds(plot_ids: list[str], n_groups: int, seed: int) -> list[tuple[str, ...]]:
    """Deterministic partition of plots into n_groups holdout groups."""
    rng = np.random.Generator(np.random.PCG64(seed))
    order = list(np.asarray(sorted(plot_ids))[rng.permutation(len(plot_ids))])
    n_groups = min(n_groups, len(order))
    groups = [tuple(order[g::n_groups]) for g in range(n_groups)]
    return [g for g in groups if g]


def loocv_plot(table: FeatureTable, labels: dict[str, str],
               params: ForestParams = ForestParams(), *,
               mode: str = "auto",
               folds: list[tuple[tuple[str, ...], np.ndarray]] | None = None,
               schema: list[str] | None = None) -> CvResult:
    """Out-of-fold pixel scores with whole plots held out.

    mode is "loocv", "grouped:<k>" or "auto" (leave-one-plot-out for small
    plot sets, grouped otherwise). Custom folds may be supplied as
    (holdout_plot_ids, train_row_indices) pairs; the leakage guard always
    re-checks the actual training rows, and every training row's plot must be
    labeled burned or not_burned. Imputation medians are fit on each fold's
    training rows only. schema names the table columns to train on
    (default: all of them). plot_means holds each plot's aggregate_plot of
    its out-of-fold scores, border pixels excluded.
    """
    plot_rows = table.plot_rows()

    labeled_plots = sorted(p for p, lab in labels.items() if lab in LABEL_TO_CLASS)
    usable = []
    for p in labeled_plots:
        if p in plot_rows:
            usable.append(p)
        else:
            warnings.warn(f"labeled plot {p} has no feature rows; excluded from CV")

    if schema is None:
        schema = table.schema
    row_class = row_classes(table, labels)

    if folds is None:
        kind, n_groups = parse_cv_mode(mode)
        if kind == "auto" and len(usable) > LOOCV_PLOT_LIMIT:
            kind, n_groups = "grouped", DEFAULT_GROUPS
        holdout_groups = (grouped_plot_folds(usable, n_groups, params.seed)
                          if kind == "grouped" else [(p,) for p in usable])
        folds = []
        for holdout in holdout_groups:
            train_idx = np.concatenate([np.empty(0, dtype=np.int64)] +
                                       [plot_rows[p] for p in usable if p not in holdout])
            folds.append((holdout, train_idx))

    border = table.border
    result = CvResult()
    for i, (holdout, train_idx) in enumerate(folds):
        train_plot_ids = table.plot_id[train_idx]
        check_fold_leakage(train_plot_ids, holdout)
        y = row_class[train_idx]
        if (y < 0).any():
            raise ValueError(f"fold {i} trains on plot(s) {sorted(set(train_plot_ids[y < 0]))} "
                             "that are not labeled burned or not_burned")
        model, medians = fit_forest(table, train_idx, schema, y, params)
        scores = score_plots(model, medians, table, plot_rows,
                             [p for p in holdout if p in plot_rows])
        for p, plot_scores in scores.items():
            result.pixel_scores[p] = plot_scores
            result.plot_means[p] = aggregate_plot(plot_scores, border[plot_rows[p]])
        result.folds.append((tuple(holdout), int(train_idx.size)))

    missing = [p for p in usable if p not in result.pixel_scores]
    if missing:
        raise ValueError(f"plots never scored by any fold: {missing}")
    return result

