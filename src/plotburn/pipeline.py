"""End-to-end pipeline with reproducible, self-describing run directories.

Every run lands in its own directory named after a hash of the configuration;
reruns with the same configuration produce byte-identical CSV artifacts. CSV
and model files carry full-precision floats, and all orderings are explicit,
so determinism only depends on the seed in the configuration.

No later stage reads features.csv; separability reads the curve sources'
plot means off the table (FeatureTable.plot_means) and evaluates none again.
So the features stage hands its write to a forked child (write_in_child), and
separability, training, thresholds and the report run while it writes.
run_pipeline joins the child (join_writers) before it calls the run complete:
a failed write fails the features stage, and the manifest records under
writers["features.csv"] the child's CPU seconds, its peak RSS and how long
the run waited for it. Without os.fork the file is written inline.

The manifest also records each stage's cost under stage_costs[stage]: its
wall seconds, its CPU seconds (this process and its reaped children) and the
process's peak RSS when the stage ended, for a failed stage too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import features as feats
from . import synth as synthmod
from .cv import (LABEL_TO_CLASS, fit_forest, loocv_plot, parse_cv_mode, row_classes,
                 score_plots)
from .forest import ForestParams, save_forest, top_k_features
# Not called here: perfbench/worker.py rebinds them by name.
from .forest import apply_impute, fit_impute_medians, predict_scores, train_forest  # noqa: F401
from .gridio import (FormatError, read_csv_rows, read_endmembers_csv, read_events_csv,
                     read_plot_rows, read_plots_csv, read_scene_manifest,
                     scan_scene_manifest, write_rows_csv)
from .scene import gap_statistics
from .separability import CURVE_CSV_HEADER, plot_means, separability_curve
from .thresholds import (ConfusionCounts, PlotPrediction, aggregate_plot,
                         balanced_accuracy_threshold, cohens_kappa, make_predictions,
                         max_accuracy_threshold, prediction_summary)

# The sensors each sensor_mode reads.
SENSOR_MODES = {"combined": ("A", "B"), "A_only": ("A",), "B_only": ("B",)}
# "importance": the top_k_features of a forest ranked on every labeled plot;
# "none": every feature column.
SELECTION_MODES = ("importance", "none")

# The RunConfig fields that name input files, each a path or None.
FILE_FIELDS = ("manifest_path", "plots_path", "events_path", "endmembers_path")

ARTIFACTS = ("features.csv", "importance.csv", "cv_scores.csv", "predictions.csv",
             "confusion_max.csv", "confusion_balanced.csv", "gaps.csv",
             "run_manifest.json")
PREDICTION_COLUMNS = [f.name for f in dataclasses.fields(PlotPrediction)]
# An ablation table's columns: run, policy, then measures of the run's confusion
# table; those after threshold are ConfusionCounts attributes.
ABLATION_HEADER = ["run", "policy", "threshold", "false_burn", "false_no_burn",
                   "true_burn", "true_no_burn", "no_burn_accuracy",
                   "burn_accuracy", "mean_accuracy"]


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class RunConfig:
    out_root: str
    name: str = "run"
    # Data source: a synthetic scenario, or manifest/plot files.
    scenario: synthmod.ScenarioConfig | None = None
    manifest_path: str | None = None
    plots_path: str | None = None
    events_path: str | None = None
    endmembers_path: str | None = None
    sensor_mode: str = "combined"
    include_border: bool = True
    top_k_features: int = 50
    selection: str = "importance"
    cv_mode: str = "auto"
    n_trees: int = 300
    min_leaf: int = 5
    max_offset: int = 8
    seed: int = 0

    def __post_init__(self):
        for name in ("out_root", "name", *FILE_FIELDS):
            value, optional = getattr(self, name), name in FILE_FIELDS
            if not (isinstance(value, str) or optional and value is None):
                raise ValueError(f"{name} must be a string{' or null' * optional}, got {value!r}")
        # The run directory is <out_root>/<name>-<hash>: a name with a separator,
        # or "." or "..", would put it elsewhere.
        if (self.name in ("", ".", "..")
                or any(sep and sep in self.name for sep in (os.sep, os.altsep))):
            raise ValueError(f"name must be one path component, got {self.name!r}")
        # A tuple compares an unhashable value, where a dict lookup would raise.
        if self.sensor_mode not in tuple(SENSOR_MODES):
            raise ValueError(f"sensor_mode must be one of {tuple(SENSOR_MODES)}, "
                             f"got {self.sensor_mode!r}")
        if self.selection not in SELECTION_MODES:
            raise ValueError(f"selection must be one of {SELECTION_MODES}, "
                             f"got {self.selection!r}")
        parse_cv_mode(self.cv_mode)
        self.forest_params()
        synthmod.check_numbers(self, ("top_k_features",), 1, integer=True)
        synthmod.check_numbers(self, ("max_offset",), 0, integer=True)
        if not isinstance(self.include_border, bool):
            raise ValueError(f"include_border must be a boolean, got {self.include_border!r}")
        if not isinstance(self.scenario, (synthmod.ScenarioConfig, type(None))):
            raise ValueError(f"scenario must be a ScenarioConfig, got {self.scenario!r}")
        files = [name for name in FILE_FIELDS if getattr(self, name)]
        if self.scenario is not None and files:
            raise ValueError("a run reads either a scenario or files, not both: "
                             f"scenario is set, and so is {', '.join(files)}")
        if self.scenario is None and not self.plots_path:
            raise ValueError("need either a scenario or a plots path")

    def forest_params(self) -> ForestParams:
        return ForestParams(self.n_trees, self.min_leaf, self.seed)

    def config_hash(self) -> str:
        text = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def _check_keys(doc: dict, cls, what: str) -> None:
    unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} key(s) {unknown}")


def json_object(value, what: str) -> dict:
    """value, which must be a JSON object; what names it in the error."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def config_from_dict(doc: dict, source: str = "the run config") -> RunConfig:
    """The RunConfig of a JSON document, which source names; the document and
    its "scenario", when set, must be objects, and unknown keys are an error."""
    _check_keys(json_object(doc, source), RunConfig, "run config")
    if doc.get("scenario") is not None:
        scenario = json_object(doc["scenario"], f'{source}: "scenario"')
        _check_keys(scenario, synthmod.ScenarioConfig, "scenario")
        doc = dict(doc, scenario=synthmod.ScenarioConfig(**scenario))
    return RunConfig(**doc)


def allocate_run_dir(config: RunConfig) -> str:
    """A new directory <name>-<hash> under out_root, or <name>-<hash>-<n> for
    the first n from 2 up not taken; os.makedirs claims it, so two runs started
    together never share one."""
    base = os.path.join(config.out_root, f"{config.name}-{config.config_hash()}")
    candidate, suffix = base, 1
    while True:
        try:
            os.makedirs(candidate)
            return candidate
        except FileExistsError:
            suffix += 1
            candidate = f"{base}-{suffix}"


@dataclass
class RunState:
    config: RunConfig | None
    run_dir: str
    cubes: dict = field(default_factory=dict)
    plots: list = field(default_factory=list)
    events: list = field(default_factory=list)
    endmembers: object = None
    table: feats.FeatureTable | None = None
    selected: list = field(default_factory=list)
    cv_result: object = None
    model: object = None
    plot_scores: dict = field(default_factory=dict)
    labels: dict = field(default_factory=dict)
    groups: dict = field(default_factory=dict)
    choice_max: object = None
    choice_balanced: object = None
    predictions: list = field(default_factory=list)
    manifest: dict = field(default_factory=dict)
    # File name -> the _Writer writing it, from write_in_child to join_writers.
    writers: dict = field(default_factory=dict)


class _Writer(NamedTuple):
    stage: str
    pid: int
    errors: int  # read end of the pipe the child sends its error text through


def write_in_child(state: RunState, stage: str, name: str, write, *args) -> None:
    """write(<run_dir>/<name>, *args) in a forked child, on its copy-on-write
    snapshot of args, while the caller goes on; join_writers reaps it and
    fails stage if the write failed. Without os.fork, write inline.

    The child holds only the forking thread, so write must take no lock that
    another thread could hold. The pipeline starts no threads of its own, and
    write_feature_csv makes no BLAS call, so numpy's threads never matter."""
    path = os.path.join(state.run_dir, name)
    if not hasattr(os, "fork"):
        write(path, *args)
        return
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child never returns into the caller's code, and never flushes
        # the buffered files it shares with the parent.
        code = 1
        try:
            os.close(read_end)
            write(path, *args)
            code = 0
        except BaseException as exc:
            os.write(write_end, (str(exc) or type(exc).__name__).encode())
        finally:
            os._exit(code)
    os.close(write_end)
    state.writers[name] = _Writer(stage, pid, read_end)


def join_writers(state: RunState) -> PipelineError | None:
    """Reap every child write_in_child started and record its cost under
    manifest["writers"][name]: CPU seconds, peak RSS and the seconds spent
    waiting for it here. A failed write marks its stage failed; the error of
    the first is returned."""
    error = None
    for name, writer in state.writers.items():
        t0 = time.perf_counter()
        with os.fdopen(writer.errors, "rb") as pipe:
            message = pipe.read().decode(errors="replace")
        _, status, usage = os.wait4(writer.pid, 0)
        state.manifest.setdefault("writers", {})[name] = {
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "wait_s": time.perf_counter() - t0}
        code = os.waitstatus_to_exitcode(status)
        if code:
            cause = RuntimeError(f"writing {name}: {message or f'exit status {code}'}")
            state.manifest.setdefault("stages", {})[writer.stage] = f"failed: {cause}"
            error = error or PipelineError(writer.stage, cause)
    state.writers.clear()
    return error


def stage_ingest(state: RunState) -> None:
    cfg = state.config
    sensors = SENSOR_MODES[cfg.sensor_mode]
    if cfg.scenario is not None:
        scenario = synthmod.generate(cfg.scenario)
        state.cubes = {sensor: cube for sensor, cube in
                       (("A", scenario.cube_a), ("B", scenario.cube_b)) if sensor in sensors}
        state.plots = scenario.plots
        state.events = scenario.truth.events()
        state.endmembers = scenario.endmembers
    else:
        if not cfg.manifest_path:
            raise ValueError("a run from files needs a scene manifest (manifest_path)")
        # Plots are rasterised from the grid headers, so that only the grid
        # cells they need are converted and held.
        layout = scan_scene_manifest(cfg.manifest_path)
        # The other sensor's grids go unread; the common grid stays the one
        # chosen from every sensor, so plots rasterise alike in every mode.
        passes = tuple(g for g in layout.passes if g.sensor in sensors)
        if not passes:
            raise ValueError(f"sensor_mode {cfg.sensor_mode!r} reads sensor "
                             f"{' or '.join(sensors)}, but {cfg.manifest_path} has only "
                             f"sensor {', '.join(sorted({g.sensor for g in layout.passes}))}")
        layout = layout._replace(passes=passes)
        state.plots = read_plots_csv(cfg.plots_path, layout.geom)
        if not state.plots:
            raise FormatError(f"{cfg.plots_path}: the plots file lists no plots")
        # The cubes hold the plots' bounding window: every column across it,
        # but of its rows only those plots touch.
        rows = np.unique(np.concatenate([p.rows for p in state.plots]))
        cols = np.concatenate([p.cols for p in state.plots])
        cols = np.arange(cols.min(), cols.max() + 1)
        state.cubes = read_scene_manifest(layout, rows, cols)
        state.manifest["ingest"] = {
            **layout.ingest_counts(rows, cols),
            "window": {"rows": [int(rows[0]), int(rows[-1]) + 1],
                       "cols": [int(cols[0]), int(cols[-1]) + 1]},
            "cells_held": sum(len(o.bands) * o.valid.size for cube in state.cubes.values()
                              for o in cube.observations)}
        if cfg.events_path:
            state.events = read_events_csv(cfg.events_path)
        state.endmembers = (read_endmembers_csv(cfg.endmembers_path)
                            if cfg.endmembers_path else synthmod.default_endmembers())
    state.labels = {p.plot_id: p.label for p in state.plots}
    state.groups = {p.plot_id: p.group for p in state.plots}


def stage_gaps(state: RunState) -> None:
    report = gap_statistics(state.cubes, state.plots)
    rows = []
    for plot_id in sorted(report.per_plot):
        for sensor in sorted(state.cubes):
            entry = report.per_plot[plot_id].get(sensor)
            if entry:
                rows.append([plot_id, sensor, entry[0], entry[1], entry[2]])
            else:
                rows.append([plot_id, sensor, 0, None, None])
    for sensor in sorted(report.summary):
        for key in ("mean_of_means", "mean_of_maxes", "max_of_means", "max_of_maxes"):
            rows.append([f"summary_{key}", sensor, "", report.summary[sensor][key], ""])
    write_rows_csv(os.path.join(state.run_dir, "gaps.csv"),
                   ["plot_id", "sensor", "n_obs", "mean_gap", "max_gap"], rows)
    state.manifest["gap_summary"] = report.summary


def stage_features(state: RunState) -> None:
    state.table = feats.build_feature_table(
        state.cubes.get("A"), state.cubes.get("B"), state.plots,
        list(feats.ALL_INDICES), include_border=state.config.include_border,
        endmembers=state.endmembers)
    write_in_child(state, "features", "features.csv", feats.write_feature_csv, state.table)


DEFAULT_CURVE_SOURCES = ("A_CI", "A_NIR", "B_MIRBI", "B_NBR", "B_BASMA")


def curve_rows(state: RunState, sources) -> list[list]:
    """Separability-curve CSV rows of each "<sensor>_<source>" of sources whose
    sensor is loaded: over the table's plot_means, or without one plot_means."""
    table = state.table
    # An event's plot: its row of the table's plot_means, or its Plot.
    at = ({pid: i for i, pid in enumerate(dict.fromkeys(table.plot_id))}
          if table is not None else {p.plot_id: p for p in state.plots})
    events = [(at[pid], date) for pid, kind, date in state.events
              if kind == "burn" and pid in at]
    rows = []
    for name in sources:
        sensor, _, source = name.partition("_")
        cube = state.cubes.get(sensor)
        if cube is None:
            continue
        if table is not None:
            means = table.plot_means[name][[i for i, _ in events]]
        else:
            means = plot_means(cube, [plot for plot, _ in events], source,
                               endmembers=state.endmembers)
        rows += separability_curve(name, means, cube.dates, [d for _, d in events],
                                   state.config.max_offset).rows()
    return rows


def stage_separability(state: RunState) -> None:
    if any(kind == "burn" for _, kind, _ in state.events):
        write_rows_csv(os.path.join(state.run_dir, "separability.csv"),
                       CURVE_CSV_HEADER, curve_rows(state, DEFAULT_CURVE_SOURCES))
    else:
        state.manifest["separability"] = "skipped: no burn events supplied"
    state.cubes = {}  # no later stage reads them


def _write_importance(path: str, model) -> None:
    write_rows_csv(path, ["feature", "gini_importance"],
                   sorted(zip(model.schema, map(float, model.importance)),
                          key=lambda kv: (-kv[1], kv[0])))


def stage_train(state: RunState) -> None:
    cfg = state.config
    params = cfg.forest_params()
    table = state.table
    rows_by_plot = table.plot_rows()
    row_class = row_classes(table, state.labels)
    labeled_idx = np.flatnonzero(row_class >= 0)
    if labeled_idx.size == 0:
        raise ValueError("no labeled plots with feature rows")
    y = row_class[labeled_idx]

    ranking, medians = fit_forest(table, labeled_idx, table.schema, y, params)
    _write_importance(os.path.join(state.run_dir, "importance_full.csv"), ranking)
    if cfg.selection == "importance":
        state.selected = sorted(top_k_features(ranking, cfg.top_k_features))
    else:
        state.selected = list(table.schema)

    state.cv_result = loocv_plot(table, state.labels, params,
                                 mode=cfg.cv_mode, schema=state.selected)
    border = table.border
    cv_rows = []
    for plot_id in sorted(state.cv_result.pixel_scores):
        scores = state.cv_result.pixel_scores[plot_id]
        for i, score in zip(rows_by_plot[plot_id], scores):
            cv_rows.append([plot_id, table.pixel_id[i], int(border[i]), float(score)])
    write_rows_csv(os.path.join(state.run_dir, "cv_scores.csv"),
                   ["plot_id", "pixel_id", "border", "score"], cv_rows)

    if state.selected == ranking.schema:
        # Same rows, columns and params as the ranking forest: the same model.
        state.model = ranking
    else:
        state.model, medians = fit_forest(table, labeled_idx, state.selected, y, params)
    save_forest(os.path.join(state.run_dir, "model.txt"), state.model)
    _write_importance(os.path.join(state.run_dir, "importance.csv"), state.model)

    # Plot-level scores: out-of-fold means for labeled plots, final-model
    # scores for the rest, both by aggregate_plot's border rule.
    state.plot_scores = dict(state.cv_result.plot_means)
    rest = [p for p in state.labels if p in rows_by_plot and p not in state.plot_scores]
    for pid, scores in score_plots(state.model, medians, table, rows_by_plot, rest).items():
        state.plot_scores[pid] = aggregate_plot(scores, border[rows_by_plot[pid]])
    state.manifest["flagged_plots"] = [p for p in state.labels if p not in rows_by_plot]


def stage_threshold(state: RunState) -> None:
    labeled = [(state.plot_scores[p], LABEL_TO_CLASS[state.labels[p]])
               for p in sorted(state.plot_scores)
               if state.labels.get(p) in LABEL_TO_CLASS]
    state.choice_max = max_accuracy_threshold(labeled)
    state.choice_balanced = balanced_accuracy_threshold(labeled)
    for name, choice in (("max", state.choice_max), ("balanced", state.choice_balanced)):
        write_rows_csv(os.path.join(state.run_dir, f"confusion_{name}.csv"),
                       ["measure", "value"],
                       [["threshold", choice.threshold],
                        ["threshold_percentile", choice.percentile],
                        *([m, getattr(choice.counts, m)] for m in ABLATION_HEADER[3:]),
                        ["cohens_kappa", cohens_kappa(choice.counts)]])
    state.predictions = make_predictions(state.plot_scores, state.choice_max,
                                         state.choice_balanced, state.labels,
                                         state.groups)
    write_rows_csv(os.path.join(state.run_dir, "predictions.csv"), PREDICTION_COLUMNS,
                   map(dataclasses.astuple, state.predictions))
    state.manifest["thresholds"] = {
        "max": {"score": state.choice_max.threshold,
                "percentile": state.choice_max.percentile},
        "balanced": {"score": state.choice_balanced.threshold,
                     "percentile": state.choice_balanced.percentile},
    }


def finite_score(row) -> float:
    """The mean_score of a scores or predictions row, a finite number."""
    score = float(row["mean_score"])
    if not np.isfinite(score):
        raise ValueError(f"mean_score {score!r} is not finite")
    return score


def read_predictions(path) -> list[PlotPrediction]:
    """The rows of a predictions.csv stage_threshold wrote. Besides
    read_plot_rows' checks, a score must be finite and a call 0 or 1."""
    def prediction(row):
        score = finite_score(row)
        calls = int(row["call_max"]), int(row["call_balanced"])
        if not set(calls) <= {0, 1}:
            raise ValueError(f"calls {calls} are not each 0 or 1")
        return PlotPrediction(row["plot_id"], score, *calls, row["label"], row["group"])
    return read_plot_rows(path, PREDICTION_COLUMNS, prediction)


def stage_report(state: RunState) -> None:
    unlabeled = [p for p in state.predictions if p.label == "unlabeled"]
    subset = unlabeled if unlabeled else state.predictions
    tables = prediction_summary(subset)
    write_rows_csv(os.path.join(state.run_dir, "summary.csv"),
                   ["measure", "n", "mean", "sd", "max", "min"], tables["summary"])
    write_rows_csv(os.path.join(state.run_dir, "crosstab.csv"),
                   ["balanced_call", "max_call", "n_plots"],
                   [[b, m, tables["crosstab"][(b, m)]] for b in (0, 1) for m in (0, 1)])
    write_rows_csv(os.path.join(state.run_dir, "density.csv"),
                   ["policy", "call", "group", "bin_left", "bin_right",
                    "count", "density"], tables["density"])


STAGES = (("ingest", stage_ingest), ("gaps", stage_gaps),
          ("features", stage_features), ("separability", stage_separability),
          ("train", stage_train), ("threshold", stage_threshold),
          ("report", stage_report))


def _usage() -> tuple[float, float, float]:
    """(wall s, CPU s of this process and its reaped children, peak RSS MB)."""
    own, children = (resource.getrusage(who)
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    cpu = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    return time.perf_counter(), cpu, own.ru_maxrss / 1024


def run_pipeline(config: RunConfig) -> str:
    """Execute every stage into a fresh run directory; returns its path."""
    run_dir = allocate_run_dir(config)
    state = RunState(config, run_dir)
    state.manifest = {"config": dataclasses.asdict(config),
                      "config_hash": config.config_hash(),
                      "seed": config.seed, "stages": {}, "stage_costs": {},
                      "incomplete": True}
    try:
        for name, fn in STAGES:
            wall0, cpu0, _ = _usage()
            try:
                fn(state)
            except Exception as exc:
                state.manifest["stages"][name] = f"failed: {exc}"
                raise PipelineError(name, exc) from exc
            finally:
                wall, cpu, peak = _usage()
                state.manifest["stage_costs"][name] = {
                    "wall_s": wall - wall0, "cpu_s": cpu - cpu0, "peak_rss_mb": peak}
            state.manifest["stages"][name] = "ok"
        error = join_writers(state)
        if error:
            raise error
        state.manifest["incomplete"] = False
        state.manifest["artifacts"] = sorted(os.listdir(run_dir) + ["run_manifest.json"])
    finally:
        # After a failed stage: reap the writers, and keep that stage's error.
        join_writers(state)
        with open(os.path.join(run_dir, "run_manifest.json"), "w") as fh:
            json.dump(state.manifest, fh, indent=1, sort_keys=True, default=str)
            fh.write("\n")
    return run_dir


class AblationError(ValueError):
    pass


def _ablation_measures(run_dir: str, policy: str) -> list:
    """ABLATION_HEADER's measures in the run's confusion_<policy>.csv, counts as
    ints and the rest as floats; each must be there, and none may repeat."""
    path = os.path.join(run_dir, f"confusion_{policy}.csv")
    counts, stats = {f.name for f in dataclasses.fields(ConfusionCounts)}, {}

    def measure(row):
        name = row["measure"]
        try:
            if name in stats:
                raise ValueError("listed more than once")
            stats[name] = (int if name in counts else float)(row["value"])
        except ValueError as exc:
            raise ValueError(f"measure {name!r}: {exc}") from None
    read_csv_rows(path, ["measure", "value"], measure)
    missing = [m for m in ABLATION_HEADER[2:] if m not in stats]
    if missing:
        raise FormatError(f"{path}: missing measure(s) {missing}")
    return [stats[m] for m in ABLATION_HEADER[2:]]


def compare_ablations(runs: dict[str, str]) -> list[list]:
    """Side-by-side accuracy table for completed runs over identical plots.

    runs maps labels (e.g. combined, A_only, B_only) to run directories.
    Raises AblationError when the runs cover different plot sets.
    """
    reference = None
    for label, run_dir in runs.items():
        ids = {p.plot_id for p in read_predictions(os.path.join(run_dir, "predictions.csv"))}
        if reference is not None and ids != reference:
            raise AblationError(f"run {label!r} covers a different plot set")
        reference = ids
    return [[label, policy, *_ablation_measures(runs[label], policy)]
            for label in sorted(runs) for policy in ("max", "balanced")]
