"""One benchmark job in a fresh interpreter: prepare inputs, or run once.

Usage: python perfbench/worker.py '<job json>'   (with src/ on PYTHONPATH)

A "prepare" job writes the workload's inputs into the job's directory: the
generator's truth table always, and for the files workload the grids,
manifest, plots, events and endmembers. A "run" job makes one
pipeline.run_pipeline call, timed with tracing off or on, checks its outputs,
and prints one JSON line. Each run gets its own process, so ru_maxrss is
the high-water mark of that run alone. A "calibrate" job only measures the
host's speed (see calibrate), which a run job also does before and after its
call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import TraceError, Tracer  # noqa: E402
from workloads import WORKLOADS, min_class_plots, scenario_seed  # noqa: E402

from plotburn import cv, features, gridio, pipeline, synth  # noqa: E402
from plotburn.scene import GridGeometry  # noqa: E402

DIGESTED = ("features.csv", "cv_scores.csv", "importance.csv", "predictions.csv")
MAX_DRAWS = 50


def scenario_config(workload: str, scene_seed: int) -> synth.ScenarioConfig:
    return synth.ScenarioConfig(**WORKLOADS[workload]["scenario"], seed=scene_seed)


def draw_scene(workload: str):
    """The workload's scene: the first draw in which both classes are big enough."""
    for attempt in range(MAX_DRAWS):
        scene_seed = scenario_seed(workload, attempt)
        scenario = synth.generate(scenario_config(workload, scene_seed))
        n_burned = sum(scenario.truth.burned.values())
        if min(n_burned, len(scenario.plots) - n_burned) >= min_class_plots(workload):
            return scene_seed, scenario
    raise RuntimeError(f"no valid {workload} scene in {MAX_DRAWS} draws")


def run_config(workload: str, scene_seed: int, seed: int, inputs: str,
               out_root: str) -> pipeline.RunConfig:
    spec = WORKLOADS[workload]
    if spec["source"] == "files":
        return pipeline.RunConfig(
            out_root=out_root, name=workload,
            manifest_path=os.path.join(inputs, "scene_manifest.json"),
            plots_path=os.path.join(inputs, "plots.csv"),
            events_path=os.path.join(inputs, "events.csv"),
            endmembers_path=os.path.join(inputs, "endmembers.csv"),
            seed=seed, **spec["run"])
    return pipeline.RunConfig(out_root=out_root, name=workload,
                              scenario=scenario_config(workload, scene_seed),
                              seed=seed, **spec["run"])


# -- host speed ------------------------------------------------------------

# Wall seconds that calibrate() takes on the host perfbench/reference.json was
# made on (2 vCPUs of a shared Xeon host at 2.1 GHz), at its median speed.
CALIBRATION_REF_S = 0.25
CALIBRATION_SCALE = 30


def _calibration_work(scale: int) -> int:
    """Fixed interpreter and numpy work that runs no plotburn code.

    The mix follows the program's: a pure-Python loop over a dict, many
    numpy calls on small arrays (the forest's split search), and a few on
    a larger grid (the feature statistics).
    """
    total, table = 0, {}
    for i in range(10000 * scale):
        total += i * i % 7
        table[i % 997] = table.get(i % 997, 0) + 1
    rng = np.random.Generator(np.random.PCG64(0))
    small = rng.random(120)
    grid = rng.random((200, 300))
    for _ in range(250 * scale):
        order = np.argsort(small, kind="stable")
        total += int(np.argmax(np.cumsum(small[order])[:-1] > 1.0))
    for _ in range(scale):
        total += int(np.percentile(grid, [10, 50, 90], axis=0).sum())
        total += int(np.sort(grid, axis=1)[:, -1].sum())
    return total


def calibrate() -> float:
    """Host speed now: CALIBRATION_REF_S over the calibration's wall time.

    The benchmark's end-to-end times are multiplied by the speed measured
    around them, which takes out the drift of a shared host's CPU speed
    over minutes (it moves raw wall times by about 30%).
    """
    _calibration_work(1)                 # warm numpy's lazy imports
    t0 = time.perf_counter()
    _calibration_work(CALIBRATION_SCALE)
    return CALIBRATION_REF_S / (time.perf_counter() - t0)


# -- inputs ----------------------------------------------------------------

def _write_tile(grids_dir, obs, geom: GridGeometry, pad: tuple[int, int],
                factor: int, rng) -> list[dict]:
    """Pad one observation to the tile, coarsen it by factor, write its grids."""
    extra_rows, extra_cols = pad
    valid = np.pad(obs.valid, ((0, extra_rows), (0, extra_cols)), constant_values=True)
    if factor > 1:
        rows, cols = valid.shape
        valid = valid.reshape(rows // factor, factor, cols // factor, factor).all(axis=(1, 3))
    entries = []
    for band, grid in obs.bands.items():
        tile = synth.TILL_LEVELS[band] + 0.01 * rng.standard_normal(
            (geom.nrows * factor, geom.ncols * factor))
        tile[:grid.shape[0], :grid.shape[1]] = grid
        if factor > 1:
            rows, cols = tile.shape
            tile = tile.reshape(rows // factor, factor, cols // factor, factor).mean(axis=(1, 3))
        tile = np.clip(np.where(valid, tile, 0.0), 0.0, 1.0).astype(np.float32)
        name = f"{obs.sensor}_{obs.date.isoformat()}_{band}.grid"
        gridio.write_grid(os.path.join(grids_dir, name), tile, geom, valid)
        entries.append({"sensor": obs.sensor, "date": obs.date.isoformat(),
                        "band": band, "grid": f"grids/{name}", "mask": None})
    return entries


def prepare(job: dict) -> dict:
    workload, inputs = job["workload"], job["inputs"]
    spec = WORKLOADS[workload]
    scene_seed, scenario = draw_scene(workload)
    os.makedirs(inputs, exist_ok=True)
    synth.write_truth_csv(os.path.join(inputs, "truth.csv"), scenario.truth)
    if spec["source"] != "files":
        return {"scene_seed": scene_seed}

    # Grow the scene's grid down and to the right, which keeps every plot
    # polygon on the same cells, until the plots cover 1/tile_area_factor.
    geom = scenario.cube_a.geom
    factor = spec["coarse_factor_b"]
    plot_cells = sum(p.n_pixels for p in scenario.plots)
    grow = math.sqrt(spec["tile_area_factor"] * plot_cells / (geom.nrows * geom.ncols))
    nrows = factor * math.ceil(max(grow, 1.0) * geom.nrows / factor)
    ncols = factor * math.ceil(max(grow, 1.0) * geom.ncols / factor)
    pad = (nrows - geom.nrows, ncols - geom.ncols)
    fine = GridGeometry(ncols, nrows, geom.xll, geom.yll - pad[0] * geom.cellsize,
                        geom.cellsize)
    coarse = GridGeometry(ncols // factor, nrows // factor, fine.xll, fine.yll,
                          geom.cellsize * factor)

    grids_dir = os.path.join(inputs, "grids")
    os.makedirs(grids_dir, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(scene_seed))
    entries = []
    for obs in scenario.cube_a.observations:
        entries += _write_tile(grids_dir, obs, fine, pad, 1, rng)
    for obs in scenario.cube_b.observations:
        entries += _write_tile(grids_dir, obs, coarse, pad, factor, rng)
    gridio.write_scene_manifest(os.path.join(inputs, "scene_manifest.json"),
                                entries, scale=1.0)
    gridio.write_plots_csv(os.path.join(inputs, "plots.csv"), scenario.plots)
    gridio.write_events_csv(os.path.join(inputs, "events.csv"), scenario.truth.events())
    gridio.write_endmembers_csv(os.path.join(inputs, "endmembers.csv"),
                                scenario.endmembers)
    # Flush the inputs now, so their writeback does not overlap the first run.
    grid_bytes = 0
    for name in os.listdir(grids_dir):
        with open(os.path.join(grids_dir, name), "rb") as fh:
            os.fsync(fh.fileno())
            grid_bytes += os.fstat(fh.fileno()).st_size
    return {"scene_seed": scene_seed, "grid_mb": grid_bytes / 1e6, "tile": [nrows, ncols]}


# -- tracing ---------------------------------------------------------------

def _count_index(counts, args, kwargs, result):
    counts["indices.compute_index.calls"] += 1
    counts["indices.pixel_obs"] += next(iter(args[1].values())).size


def _count_build(counts, args, kwargs, result):
    counts["features.rows"] += len(result)
    counts["features.columns"] = len(features.table_schema(result))


def _count_train(counts, args, kwargs, result):
    counts["forest.train.calls"] += 1
    counts["forest.trees"] += result.n_trees
    counts["forest.nodes"] += sum(t.n_nodes for t in result.trees)
    if result.oob_accuracy is not None:
        counts["forest.oob_sum"] += result.oob_accuracy
        counts["forest.oob_models"] += 1


def _count_predict(counts, args, kwargs, result):
    counts["forest.predict.row_trees"] += len(result) * args[0].n_trees


def _count_loocv(counts, args, kwargs, result):
    counts["cv.folds"] += len(result.folds)
    counts["cv.train_rows"] += sum(n for _, n in result.folds)


def _counter(key, size=None):
    def count(counts, args, kwargs, result):
        counts[f"{key}.calls"] += 1
        if size is not None:
            counts[f"{key}.items"] += size(args, result)
    return count


def install(tracer: Tracer) -> None:
    """Rebind each layer's public entry points where the pipeline reaches them."""
    stages = tuple((name, _stage(tracer, name, fn)) for name, fn in pipeline.STAGES)
    tracer.replace(pipeline, "STAGES", stages)
    tracer.wrap(synth, "generate", "synth.generate")
    tracer.wrap(pipeline, "read_scene_manifest", "gridio.read_scene_manifest")
    tracer.wrap(gridio, "read_grid", "gridio.read_grid",
                _counter("gridio.read_grid", lambda a, r: r[0].size))
    tracer.wrap(gridio, "upsample_cubic", "resample.upsample_cubic",
                _counter("resample.upsample_cubic"))
    for name in ("read_plots_csv", "read_events_csv", "read_endmembers_csv",
                 "write_rows_csv"):
        tracer.wrap(pipeline, name, f"gridio.{name}")
    tracer.wrap(pipeline, "gap_statistics", "scene.gap_statistics")
    tracer.wrap(features, "compute_index", "indices.compute_index", _count_index)
    tracer.wrap(features, "build_feature_table", "features.build", _count_build)
    tracer.wrap(features, "write_feature_csv", "features.write_csv")
    tracer.wrap(features, "table_matrix", "features.table_matrix")
    tracer.wrap(cv, "table_matrix", "features.table_matrix")
    tracer.wrap(pipeline, "separability_curve", "separability.curve",
                _counter("separability.curve"))
    for module in (pipeline, cv):
        tracer.wrap(module, "train_forest", "forest.train", _count_train)
        tracer.wrap(module, "predict_scores", "forest.predict", _count_predict)
        tracer.wrap(module, "fit_impute_medians", "forest.impute")
        tracer.wrap(module, "apply_impute", "forest.impute")
    tracer.wrap(pipeline, "save_forest", "forest.save")
    tracer.wrap(pipeline, "loocv_plot", "cv.loocv", _count_loocv)
    tracer.wrap(pipeline, "max_accuracy_threshold", "thresholds.max",
                _counter("thresholds.max", lambda a, r: len(a[0])))
    tracer.wrap(pipeline, "balanced_accuracy_threshold", "thresholds.balanced")
    tracer.wrap(pipeline, "prediction_summary", "thresholds.summary")


def _stage(tracer: Tracer, name: str, fn):
    def traced(state):
        return tracer.call(f"pipeline.{name}", fn, state)
    return traced


def layer_metrics(tracer: Tracer, run_dir: str) -> dict[str, float]:
    inc = tracer.inclusive()
    exc = tracer.exclusive()
    n = tracer.counts
    root = inc["pipeline.run"]
    out = {f"pipeline.{name}.s": inc[f"pipeline.{name}"] for name, _ in pipeline.STAGES}
    # Calls a workload may never make are reported as a share of the run,
    # so that no timing reads 0 s on every run of a workload.
    for name in ("synth.generate", "gridio.read_scene_manifest", "gridio.read_grid",
                 "gridio.read_plots_csv", "resample.upsample_cubic"):
        out[f"{name}.frac"] = inc[name] / root
    out["gridio.write_rows_csv.s"] = inc["gridio.write_rows_csv"]
    out["gridio.read_grid.calls"] = n["gridio.read_grid.calls"]
    out["gridio.read_grid.mvalues_per_s"] = (
        n["gridio.read_grid.items"] / 1e6 / inc["gridio.read_grid"]
        if inc["gridio.read_grid"] else 0.0)
    out["resample.upsample_cubic.calls"] = n["resample.upsample_cubic.calls"]
    out["scene.gap_statistics.s"] = inc["scene.gap_statistics"]
    out["indices.compute_index.s"] = inc["indices.compute_index"]
    out["indices.compute_index.calls"] = n["indices.compute_index.calls"]
    out["indices.ns_per_pixel_obs"] = (
        inc["indices.compute_index"] * 1e9 / n["indices.pixel_obs"]
        if n["indices.pixel_obs"] else 0.0)
    out["features.build.self_s"] = exc["features.build"]
    out["features.ms_per_row"] = (inc["features.build"] * 1e3 / n["features.rows"]
                                  if n["features.rows"] else 0.0)
    out["features.rows"] = n["features.rows"]
    out["features.columns"] = n["features.columns"]
    out["features.write_csv.s"] = inc["features.write_csv"]
    out["features.csv_mb"] = os.path.getsize(os.path.join(run_dir, "features.csv")) / 1e6
    out["features.table_matrix.s"] = inc["features.table_matrix"]
    out["separability.curve.s"] = inc["separability.curve"]
    out["separability.curve.calls"] = n["separability.curve.calls"]
    out["forest.train.s"] = inc["forest.train"]
    out["forest.train.calls"] = n["forest.train.calls"]
    out["forest.trees"] = n["forest.trees"]
    out["forest.nodes"] = n["forest.nodes"]
    out["forest.s_per_tree"] = inc["forest.train"] / max(n["forest.trees"], 1)
    out["forest.oob_accuracy"] = n["forest.oob_sum"] / max(n["forest.oob_models"], 1)
    out["forest.predict.s"] = inc["forest.predict"]
    out["forest.predict.row_trees"] = n["forest.predict.row_trees"]
    out["forest.impute.s"] = inc["forest.impute"]
    out["forest.save.s"] = inc["forest.save"]
    out["cv.loocv.self_s"] = exc["cv.loocv"]
    out["cv.folds"] = n["cv.folds"]
    out["cv.train_rows"] = n["cv.train_rows"]
    out["thresholds.s"] = (inc["thresholds.max"] + inc["thresholds.balanced"]
                           + inc["thresholds.summary"])
    out["thresholds.plots"] = n["thresholds.max.items"]
    for layer, own in tracer.layer_self().items():
        out[f"share.{layer}"] = own / root
    return out


# -- output checks ---------------------------------------------------------

def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _accuracy(calls: list[int], truth: list[bool]) -> float:
    return sum(c == int(t) for c, t in zip(calls, truth)) / len(truth)


def check_outputs(run_dir: str, truth_path: str) -> tuple[list[str], dict]:
    """Problems found in one run directory, and the figures read from it."""
    problems = []
    with open(os.path.join(run_dir, "run_manifest.json")) as fh:
        manifest = json.load(fh)
    if manifest.get("incomplete", True):
        problems.append("run_manifest.json says incomplete")
    missing = [a for a in pipeline.ARTIFACTS if not os.path.isfile(os.path.join(run_dir, a))]
    if missing:
        problems.append(f"missing artifacts {missing}")
        return problems, {}
    found = {"digests": {name: _digest(os.path.join(run_dir, name)) for name in DIGESTED}}

    # The calls in predictions.csv, scored against the generator's truth,
    # must reproduce each policy's confusion table.
    burned = {r["plot_id"]: r["burned"] == "1" for r in _read_csv(truth_path)}
    preds = _read_csv(os.path.join(run_dir, "predictions.csv"))
    if sorted(p["plot_id"] for p in preds) != sorted(burned):
        problems.append("predictions.csv does not cover the scene's plots")
        return problems, found
    for p in preds:
        if p["label"] != ("burned" if burned[p["plot_id"]] else "not_burned"):
            problems.append(f"plot {p['plot_id']} carries label {p['label']!r}")
    truth = [burned[p["plot_id"]] for p in preds]
    for policy in ("max", "balanced"):
        table = {r["measure"]: float(r["value"]) for r in
                 _read_csv(os.path.join(run_dir, f"confusion_{policy}.csv"))}
        ours = _accuracy([int(p[f"call_{policy}"]) for p in preds], truth)
        if abs(ours - table["mean_accuracy"]) > 1e-12:
            problems.append(f"confusion_{policy}.csv mean_accuracy "
                            f"{table['mean_accuracy']} but the calls give {ours}")
        found[f"accuracy_{policy}"] = ours
    return problems, found


# -- one run ---------------------------------------------------------------

def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run(job: dict) -> dict:
    out_root = job["out_root"]
    config = run_config(job["workload"], job["scene_seed"], job["run_seed"],
                        job["inputs"], out_root)
    tracer = Tracer() if job["trace"] else None
    result = {"ok": False, "trace": bool(tracer), "run_seed": job["run_seed"],
              "numpy": np.__version__}
    if tracer:
        install(tracer)
    speed_before = calibrate()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        run_dir = (tracer.call("pipeline.run", pipeline.run_pipeline, config)
                   if tracer else pipeline.run_pipeline(config))
    except Exception:
        result["error"] = traceback.format_exc(limit=3)
        return result
    finally:
        result["run_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu_s() - cpu0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.restore()
    result["speed"] = (speed_before + calibrate()) / 2

    problems, found = check_outputs(run_dir, os.path.join(job["inputs"], "truth.csv"))
    result.update(found)
    if tracer:
        try:
            tracer.check(result["run_s"])
        except TraceError as exc:
            problems.append(f"tracer self-check: {exc}")
        else:
            result["layers"] = layer_metrics(tracer, run_dir)
            result["spans"] = [[name, start - t0, end - t0, parent]
                               for name, start, end, parent in tracer.spans]
    result["problems"] = problems
    result["ok"] = not problems
    shutil.rmtree(out_root, ignore_errors=True)
    return result


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    if job["kind"] == "calibrate":
        result = {"speed": calibrate()}
    else:
        result = prepare(job) if job["kind"] == "prepare" else run(job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
