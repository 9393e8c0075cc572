"""The benchmark's tracer (perfbench/worker.py) rebinds names in plotburn's
modules by attribute name; a refactor that deletes or renames one breaks the
benchmark without breaking any other test. This only reads perfbench/.
"""

import importlib.util
import json
import os
import sys

import numpy as np
import pytest

from plotburn import features, forest, pipeline, synth

WORKER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "worker.py")


@pytest.fixture
def worker(monkeypatch):
    # The worker puts perfbench/ on sys.path and imports tracer and workloads
    # as top-level modules; undo both after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in ("tracer", "workloads"):
        sys.modules.pop(name, None)


def test_tracer_installs_and_restores_every_binding(worker):
    originals = {(pipeline, "STAGES"): pipeline.STAGES,
                 (pipeline, "save_forest"): forest.save_forest,
                 (features, "compute_index"): features.compute_index,
                 (features, "build_feature_table"): features.build_feature_table,
                 (features, "write_feature_csv"): features.write_feature_csv,
                 (features, "table_matrix"): features.table_matrix}
    tracer = worker.Tracer()
    try:
        worker.install(tracer)
        for (module, attr), original in originals.items():
            assert getattr(module, attr) is not original, attr
    finally:
        tracer.restore()
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original, attr


def test_build_counter_reads_the_table_schema(worker):
    table = features.FeatureTable(np.zeros((3, 2)), ["a", "b"],
                                  np.array(["p"] * 3, dtype=object),
                                  np.array(["x", "y", "z"], dtype=object))
    tracer = worker.Tracer()
    worker._count_build(tracer.counts, (), {}, table)
    assert tracer.counts["features.rows"] == 3
    assert tracer.counts["features.columns"] == 2


def test_every_forest_is_trained_through_the_traced_names(worker, tmp_path):
    scene = synth.ScenarioConfig(n_plots=8, plot_area_mean_ha=0.01, plot_area_median_ha=0.01,
                                 burn_probability=0.5, seed=2)
    config = pipeline.RunConfig(out_root=str(tmp_path), scenario=scene, n_trees=3,
                                cv_mode="grouped:2")
    tracer = worker.Tracer()
    try:
        worker.install(tracer)
        pipeline.run_pipeline(config)
    finally:
        tracer.restore()
    # The ranking forest, one per fold and the final forest.
    assert tracer.counts["forest.train.calls"] == 1 + 2 + 1
    # Every forest records its out-of-bag accuracy once.
    assert tracer.counts["forest.oob_models"] == tracer.counts["forest.train.calls"]
    assert tracer.counts["cv.folds"] == 2
    assert tracer.inclusive()["forest.impute"] > 0


def test_every_separability_curve_is_counted_through_the_traced_name(worker, tmp_path):
    # A two-sensor scene with burn events: the run draws every default curve.
    # A curve reached through another name would read 0 calls here.
    scene = synth.ScenarioConfig(n_plots=6, plot_area_mean_ha=0.01, plot_area_median_ha=0.01,
                                 burn_probability=0.5, seed=2)
    assert 0 < sum(synth.generate(scene).truth.burned.values()) < scene.n_plots
    config = pipeline.RunConfig(out_root=str(tmp_path), scenario=scene, n_trees=2,
                                cv_mode="grouped:2")
    tracer = worker.Tracer()
    try:
        worker.install(tracer)
        run_dir = pipeline.run_pipeline(config)
    finally:
        tracer.restore()
    assert os.path.isfile(os.path.join(run_dir, "separability.csv"))
    assert tracer.counts["separability.curve.calls"] == len(pipeline.DEFAULT_CURVE_SOURCES)
    assert tracer.inclusive()["separability.curve"] > 0


def test_file_ingest_is_counted_through_the_traced_names(worker, tmp_path, monkeypatch):
    # A files workload small enough for a test: sensor B on 3x coarser cells.
    monkeypatch.setitem(worker.WORKLOADS, "small_files", {
        "scenario": {"n_plots": 6, "plot_area_mean_ha": 0.01, "plot_area_median_ha": 0.01,
                     "burn_probability": 0.5},
        "run": {"n_trees": 3, "cv_mode": "auto"},
        "source": "files", "tile_area_factor": 4.0, "coarse_factor_b": 3})
    inputs = str(tmp_path / "inputs")
    prepared = worker.prepare({"workload": "small_files", "inputs": inputs})
    with open(os.path.join(inputs, "scene_manifest.json")) as fh:
        entries = json.load(fh)["entries"]
    grids = {e["grid"] for e in entries} | {e["mask"] for e in entries if e["mask"]}
    coarse_passes = {e["date"] for e in entries if e["sensor"] == "B"}
    config = worker.run_config("small_files", prepared["scene_seed"], 1, inputs,
                               str(tmp_path / "runs"))
    tracer = worker.Tracer()
    try:
        worker.install(tracer)
        pipeline.run_pipeline(config)
    finally:
        tracer.restore()
    # An upsample reached through another name would read 0 calls here.
    assert tracer.counts["resample.upsample_cubic.calls"] == len(coarse_passes) > 0
    assert tracer.counts["gridio.read_grid.calls"] == len(grids)


def test_window_ingest_counts_the_converted_cells(worker, tmp_path):
    # The tracer's read_grid items are the cells converted, since read_grid
    # returns only the block it converts.
    from test_io import rows_plot, write_tile_scene

    from plotburn import gridio

    manifest = write_tile_scene(tmp_path)
    gridio.write_plots_csv(tmp_path / "plots.csv", [rows_plot(4, 9, cols=(5, 13))])
    config = pipeline.RunConfig(out_root=str(tmp_path), manifest_path=str(manifest),
                                plots_path=str(tmp_path / "plots.csv"))
    state = pipeline.RunState(config, str(tmp_path))
    tracer = worker.Tracer()
    try:
        worker.install(tracer)
        pipeline.stage_ingest(state)
    finally:
        tracer.restore()
    assert tracer.counts["gridio.read_grid.calls"] > 0
    assert tracer.counts["resample.upsample_cubic.calls"] > 0
    assert tracer.counts["gridio.read_grid.items"] == state.manifest["ingest"]["cells_converted"]
