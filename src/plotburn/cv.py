"""Plot-holdout cross-validation, and the one path from a feature table to a
forest and its plot scores: row_classes, fit_forest and score_plots.

Labels live at the plot level and pixels within a plot are strongly
correlated, so every fold holds out whole plots. A leakage guard re-derives
the training rows' plot ids per fold and refuses any overlap with the holdout.

The folds are independent, so loocv_plot trains them on up to every core of
the process's affinity set once their work reaches FORK_ROW_TREES, through
child.fan_out: forked workers train on their copy-on-write view of the table,
and the plot scores come back in fold order, those of one process running
the folds in turn. Below that, with one core, or without os.fork, the parent
runs every fold itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .child import fan_out, processes
from .features import FeatureTable, table_matrix
from .forest import (ForestModel, ForestParams, apply_impute, fit_impute_medians,
                     predict_scores, train_forest)
from .thresholds import aggregate_plot

LABEL_TO_CLASS = {"not_burned": 0, "burned": 1}

# True leave-one-plot-out up to this many plots; grouped folds beyond.
LOOCV_PLOT_LIMIT = 200
DEFAULT_GROUPS = 20

# Folds fork out to the other cores only when their training work, in
# row-trees (training rows summed over the folds, times trees per forest),
# reaches this. On a 2-vCPU Xeon host at 2.1 GHz a fold forest costs about
# 2.2 us per row-tree on one core, and a fork and join of a worker from a
# 40 MB process about 3 ms; but the features.csv writer (pipeline.
# write_in_child) may still hold the second core, for 0.05-0.12 s in small
# runs. 1 << 16 row-trees is about 0.15 s of folds on one core. Measured on
# that host, a whole run with 14 folds of 60 trees (131,040 row-trees)
# took 22% less wall time forked, and one with 4 folds of 10 trees (10,440
# row-trees) was slower forked in 5 of 6 alternating pairs.
FORK_ROW_TREES = 1 << 16


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


def fold_processes(folds: list[tuple[tuple[str, ...], np.ndarray]], n_trees: int) -> int:
    """How many processes train the folds (child.processes): their work is
    their training rows times n_trees, in row-trees, against FORK_ROW_TREES."""
    row_trees = sum(train_idx.size for _, train_idx in folds) * n_trees
    return processes(len(folds), row_trees, FORK_ROW_TREES)


def loocv_plot(table: FeatureTable, labels: dict[str, str],
               params: ForestParams = ForestParams(), *,
               mode: str = "auto",
               folds: list[tuple[tuple[str, ...], np.ndarray]] | None = None,
               schema: list[str] | None = None,
               fold_workers: list | None = None) -> CvResult:
    """Out-of-fold pixel scores with whole plots held out.

    mode is "loocv", "grouped:<k>" or "auto" (leave-one-plot-out for small
    plot sets, grouped otherwise). Custom folds may be supplied as
    (holdout_plot_ids, train_row_indices) pairs; the leakage guard always
    re-checks the actual training rows, and every training row's plot must be
    labeled burned or not_burned. Imputation medians are fit on each fold's
    training rows only. schema names the table columns to train on
    (default: all of them). plot_means holds each plot's aggregate_plot of
    its out-of-fold scores, border pixels excluded.

    Every fold passes both checks before any forest is trained. The folds
    then run in fold_processes(folds, params.n_trees) processes through
    child.fan_out, which appends its worker records ("folds", "cpu_s",
    "peak_rss_mb", "wait_s" and "error": "fold <i>: <message>") to
    fold_workers. A failing fold raises its own exception whichever process
    ran it, the first failing fold's when several fail, and only after every
    worker has been reaped.
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

    for i, (holdout, train_idx) in enumerate(folds):
        train_plot_ids = table.plot_id[train_idx]
        check_fold_leakage(train_plot_ids, holdout)
        y = row_class[train_idx]
        if (y < 0).any():
            raise ValueError(f"fold {i} trains on plot(s) {sorted(set(train_plot_ids[y < 0]))} "
                             "that are not labeled burned or not_burned")

    def fold_scores(i):
        holdout, train_idx = folds[i]
        model, medians = fit_forest(table, train_idx, schema, row_class[train_idx], params)
        return score_plots(model, medians, table, plot_rows,
                           [p for p in holdout if p in plot_rows])

    scores = fan_out(fold_scores, len(folds), fold_processes(folds, params.n_trees),
                     fold_workers, noun="fold", nouns="folds")

    border = table.border
    result = CvResult()
    for i, (holdout, train_idx) in enumerate(folds):
        for p, plot_scores in scores[i].items():
            result.pixel_scores[p] = plot_scores
            result.plot_means[p] = aggregate_plot(plot_scores, border[plot_rows[p]])
        result.folds.append((tuple(holdout), int(train_idx.size)))

    missing = [p for p in usable if p not in result.pixel_scores]
    if missing:
        raise ValueError(f"plots never scored by any fold: {missing}")
    return result

