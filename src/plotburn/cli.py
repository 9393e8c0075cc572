"""Command-line driver for the burn-detection pipeline.

Stage subcommands load their flags and upstream files into a pipeline.RunState
whose run directory is --out, then call the pipeline's own stage functions, so
each step can run on its own artifacts and writes the same bytes as `run`;
`run` executes everything into a fresh run directory. A JSON config file
supplies RunConfig fields, individual flags override it, and the PLOTBURN_OUT
environment variable sets the default output root.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import features as feats
from . import pipeline as pipe
from . import synth as synthmod
from .gridio import PLOT_COLUMNS, parse_wkt_polygon, read_plot_rows, write_rows_csv
from .separability import CURVE_CSV_HEADER

DEFAULT_OUT = os.environ.get("PLOTBURN_OUT", "runs")
# The columns of scores.csv, which train writes and threshold reads.
SCORE_COLUMNS = ["plot_id", "mean_score", "label", "group"]


def _read_config(path) -> dict:
    with open(path) as fh:
        return pipe.json_object(json.load(fh), path)


def _load_run_config(args) -> pipe.RunConfig:
    path = getattr(args, "config", None)
    doc = _read_config(path) if path else {}
    doc.setdefault("out_root", DEFAULT_OUT)
    for f in dataclasses.fields(pipe.RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            doc[f.name] = value
    if getattr(args, "synth", False) and not doc.get("scenario"):
        doc["scenario"] = {}
    if getattr(args, "no_border", False):
        doc["include_border"] = False
    return pipe.config_from_dict(doc, path or "the run config")


def _scenario_from_args(args) -> synthmod.ScenarioConfig:
    doc = {}
    if args.config:
        loaded = _read_config(args.config)
        doc = loaded.get("scenario", loaded)
    cfg = pipe.config_from_dict({"out_root": ".", "scenario": doc},
                                args.config or "the run config").scenario
    overrides = {}
    if args.n_plots is not None:
        overrides["n_plots"] = args.n_plots
    if args.seed is not None:
        overrides["seed"] = args.seed
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def cmd_synth(args) -> int:
    cfg = _scenario_from_args(args)
    scenario = synthmod.generate(cfg)
    paths = synthmod.write_scenario(args.out, scenario)
    print(f"wrote scenario ({cfg.n_plots} plots) under {args.out}")
    for kind, path in paths.items():
        print(f"  {kind}: {path}")
    return 0


def _stage_state(args, config: pipe.RunConfig | None = None) -> pipe.RunState:
    """A RunState whose run directory is the stage command's --out."""
    os.makedirs(args.out, exist_ok=True)
    return pipe.RunState(config, args.out)


def cmd_ingest(args) -> int:
    state = _stage_state(args, _load_run_config(args))
    pipe.stage_ingest(state)
    pipe.stage_gaps(state)
    n_obs = {s: len(c.observations) for s, c in state.cubes.items()}
    print(f"ingested {len(state.plots)} plots; observations per sensor: {n_obs}")
    print(f"gap report: {os.path.join(args.out, 'gaps.csv')}")
    return 0


def cmd_features(args) -> int:
    state = _stage_state(args, _load_run_config(args))
    pipe.stage_ingest(state)
    pipe.stage_features(state)
    error = pipe.join_writers(state)
    if error:
        raise error
    print(f"wrote {len(state.table)} feature rows to "
          f"{os.path.join(args.out, 'features.csv')}")
    return 0


def cmd_separability(args) -> int:
    # Only the --source sensor's grids are read.
    modes = {sensors[0]: mode for mode, sensors in pipe.SENSOR_MODES.items()
             if len(sensors) == 1}
    sensor = args.source.partition("_")[0]
    if sensor not in modes:
        raise ValueError(f"--source {args.source}: sensor {sensor!r} is not one of "
                         f"{', '.join(modes)}")
    args.sensor_mode = modes[sensor]
    state = pipe.RunState(_load_run_config(args),
                          os.path.dirname(os.path.abspath(args.out)))
    pipe.stage_ingest(state)
    write_rows_csv(args.out, CURVE_CSV_HEADER, pipe.curve_rows(state, [args.source]))
    print(f"wrote separability curve for {args.source} to {args.out}")
    return 0


def cmd_train(args) -> int:
    state = _stage_state(args, _load_run_config(args))

    def plot_row(row):
        parse_wkt_polygon(row["wkt_polygon"])  # as ingest checks it
        state.labels[row["plot_id"]] = row["label"]
        state.groups[row["plot_id"]] = row["group"]
    read_plot_rows(args.plots_path, PLOT_COLUMNS, plot_row)
    state.table = feats.read_feature_csv(args.features)
    pipe.stage_train(state)
    write_rows_csv(os.path.join(args.out, "scores.csv"), SCORE_COLUMNS,
                   [[pid, score, state.labels[pid], state.groups[pid]]
                    for pid, score in sorted(state.plot_scores.items())])
    print(f"trained on {len(state.cv_result.pixel_scores)} labeled plots; "
          f"artifacts in {args.out}")
    return 0


def cmd_threshold(args) -> int:
    state = _stage_state(args)

    def score_row(row):
        state.plot_scores[row["plot_id"]] = pipe.finite_score(row)
        state.labels[row["plot_id"]] = row["label"]
        state.groups[row["plot_id"]] = row["group"]
    read_plot_rows(args.scores, SCORE_COLUMNS, score_row)
    pipe.stage_threshold(state)
    print(f"thresholds: max={state.choice_max.threshold!r} "
          f"(percentile {state.choice_max.percentile}), "
          f"balanced={state.choice_balanced.threshold!r} "
          f"(percentile {state.choice_balanced.percentile}); artifacts in {args.out}")
    return 0


def cmd_report(args) -> int:
    state = _stage_state(args)
    state.predictions = pipe.read_predictions(args.predictions)
    pipe.stage_report(state)
    print(f"report tables in {args.out}")
    return 0


def cmd_run(args) -> int:
    config = _load_run_config(args)
    run_dir = pipe.run_pipeline(config)
    print(f"run complete: {run_dir}")
    return 0


def cmd_ablate(args) -> int:
    runs = {}
    for spec in args.run:
        label, _, path = spec.partition("=")
        if not path:
            raise ValueError(f"--run expects label=dir, got {spec!r}")
        if label in runs:
            raise ValueError(f"--run label {label!r} is given more than once")
        runs[label] = path
    table = pipe.compare_ablations(runs)
    write_rows_csv(args.out, pipe.ABLATION_HEADER, table)
    print(f"ablation comparison in {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="plotburn",
                                 description="Plot-level burn detection pipeline")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scenario to files")
    p.add_argument("--config", help="JSON file with scenario fields")
    p.add_argument("--n-plots", type=int, dest="n_plots")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("ingest", help="validate inputs and emit the gap report")
    p.add_argument("--manifest", required=True, dest="manifest_path")
    p.add_argument("--plots", required=True, dest="plots_path")
    p.add_argument("--sensor-mode", choices=pipe.SENSOR_MODES, dest="sensor_mode")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("features", help="build the pixel feature table")
    p.add_argument("--manifest", required=True, dest="manifest_path")
    p.add_argument("--plots", required=True, dest="plots_path")
    p.add_argument("--endmembers", dest="endmembers_path")
    p.add_argument("--sensor-mode", choices=pipe.SENSOR_MODES, dest="sensor_mode")
    p.add_argument("--no-border", action="store_true", dest="no_border")
    p.add_argument("--out", required=True, help="directory for features.csv")
    p.set_defaults(fn=cmd_features)

    p = sub.add_parser("separability", help="emit an M-value decay curve")
    p.add_argument("--manifest", required=True, dest="manifest_path")
    p.add_argument("--plots", required=True, dest="plots_path")
    p.add_argument("--events", required=True, dest="events_path")
    p.add_argument("--endmembers", dest="endmembers_path")
    p.add_argument("--source", default="A_CI",
                   help="sensor_source, e.g. A_CI or B_MIRBI")
    p.add_argument("--max-offset", type=int, dest="max_offset")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_separability)

    p = sub.add_parser("train", help="train the forest with plot-holdout CV")
    p.add_argument("--features", required=True)
    p.add_argument("--plots", required=True, dest="plots_path")
    p.add_argument("--n-trees", type=int, dest="n_trees")
    p.add_argument("--top-k-features", type=int, dest="top_k_features")
    p.add_argument("--cv-mode", dest="cv_mode")
    p.add_argument("--selection", choices=pipe.SELECTION_MODES)
    p.add_argument("--min-leaf", type=int, dest="min_leaf")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("threshold", help="select thresholds and emit predictions")
    p.add_argument("--scores", required=True,
                   help="CSV of plot_id, mean_score, label, group")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_threshold)

    p = sub.add_parser("report", help="summaries, cross-tab and score densities")
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("run", help="full pipeline into a fresh run directory")
    p.add_argument("--config", help="JSON file with RunConfig fields")
    p.add_argument("--synth", action="store_true",
                   help="use the default synthetic scenario as input")
    p.add_argument("--out-root", dest="out_root")
    p.add_argument("--name")
    p.add_argument("--manifest", dest="manifest_path")
    p.add_argument("--plots", dest="plots_path")
    p.add_argument("--events", dest="events_path")
    p.add_argument("--endmembers", dest="endmembers_path")
    p.add_argument("--sensor-mode", choices=pipe.SENSOR_MODES, dest="sensor_mode")
    p.add_argument("--cv-mode", dest="cv_mode")
    p.add_argument("--selection", choices=pipe.SELECTION_MODES)
    p.add_argument("--no-border", action="store_true", dest="no_border")
    p.add_argument("--n-trees", type=int, dest="n_trees")
    p.add_argument("--top-k-features", type=int, dest="top_k_features")
    p.add_argument("--min-leaf", type=int, dest="min_leaf")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("ablate", help="compare completed runs side by side")
    p.add_argument("--run", action="append", required=True,
                   help="label=run_dir; repeat for each run")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ablate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (pipe.PipelineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
