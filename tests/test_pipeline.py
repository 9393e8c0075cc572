import collections
import dataclasses
import datetime as dt
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from conftest import assert_no_child_left, load_forest, oracle_plot_means, read_rows_csv
from plotburn import cv, features, pipeline, synth
from plotburn.features import FeatureTable, read_feature_csv, table_matrix
from plotburn.forest import apply_impute, fit_impute_medians, predict_scores
from plotburn.gridio import write_rows_csv
from plotburn.pipeline import (ARTIFACTS, AblationError, PipelineError, RunConfig,
                               RunState, allocate_run_dir, compare_ablations,
                               config_from_dict, run_pipeline, stage_ingest, stage_train)
from plotburn.scene import Plot
from plotburn.separability import CURVE_CSV_HEADER, separability_curve
from plotburn.synth import PRE_LEVELS, ScenarioConfig
from plotburn.thresholds import aggregate_plot

SCENARIO = ScenarioConfig(n_plots=24, plot_area_mean_ha=0.02,
                          plot_area_median_ha=0.018, seed=5)


def base_config(tmp_path, **overrides):
    kwargs = dict(out_root=str(tmp_path), scenario=SCENARIO, n_trees=30,
                  top_k_features=25, cv_mode="grouped:6", min_leaf=2, seed=5)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    config = base_config(tmp)
    return config, run_pipeline(config)


class TestRunPipeline:
    def test_emits_every_artifact(self, completed_run):
        _, run_dir = completed_run
        for name in ARTIFACTS:
            assert os.path.exists(os.path.join(run_dir, name)), name

    def test_manifest_records_config_and_stages(self, completed_run):
        config, run_dir = completed_run
        with open(os.path.join(run_dir, "run_manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["config_hash"] == config.config_hash()
        assert manifest["incomplete"] is False
        assert all(v == "ok" for v in manifest["stages"].values())
        assert manifest["thresholds"]["max"]["score"] is not None
        assert "percentile" in manifest["thresholds"]["balanced"]

    def test_manifest_records_each_stage_cost(self, completed_run):
        _, run_dir = completed_run
        with open(os.path.join(run_dir, "run_manifest.json")) as fh:
            manifest = json.load(fh)
        names = [name for name, _ in pipeline.STAGES]
        costs = manifest["stage_costs"]
        assert sorted(costs) == sorted(names)
        for cost in costs.values():
            assert sorted(cost) == ["cpu_s", "peak_rss_mb", "wall_s"]
            assert all(value >= 0 for value in cost.values())
        peaks = [costs[name]["peak_rss_mb"] for name in names]
        assert 0 < peaks[0] and peaks == sorted(peaks)
        assert sorted(manifest["stages"]) == sorted(names)
        assert all(status == "ok" for status in manifest["stages"].values())

    def test_rerun_is_byte_identical(self, completed_run, tmp_path):
        config, run_dir = completed_run
        again = run_pipeline(dataclasses.replace(config, out_root=str(tmp_path)))
        for name in ("predictions.csv", "importance.csv", "cv_scores.csv",
                     "features.csv"):
            with open(os.path.join(run_dir, name), "rb") as fh:
                first = fh.read()
            with open(os.path.join(again, name), "rb") as fh:
                second = fh.read()
            assert first == second, name

    def test_runs_never_overwrite(self, tmp_path):
        config = base_config(tmp_path,
                             scenario=dataclasses.replace(SCENARIO, n_plots=10,
                                                         burn_probability=0.5),
                             n_trees=5, cv_mode="grouped:3")
        d1 = run_pipeline(config)
        d2 = run_pipeline(config)
        assert d1 != d2
        assert os.path.isdir(d1) and os.path.isdir(d2)

    def test_b_only_importance_has_no_sensor_a_names(self, tmp_path):
        config = base_config(tmp_path, sensor_mode="B_only",
                             scenario=dataclasses.replace(SCENARIO, n_plots=10),
                             n_trees=10, cv_mode="grouped:3")
        run_dir = run_pipeline(config)
        _, rows = read_rows_csv(os.path.join(run_dir, "importance.csv"))
        names = [r[0] for r in rows]
        assert names
        assert not any(n.startswith("A_") or n == "n_obs_A" for n in names)

    def test_stage_failure_reports_stage_and_marks_incomplete(self, tmp_path):
        # Every plot burned: the training data holds a single class.
        config = base_config(tmp_path,
                             scenario=dataclasses.replace(SCENARIO, n_plots=10,
                                                         burn_probability=1.0),
                             n_trees=5)
        with pytest.raises(PipelineError, match="single class") as err:
            run_pipeline(config)
        assert err.value.stage == "train"
        run_dirs = [d for d in os.listdir(tmp_path)]
        manifest_path = os.path.join(tmp_path, run_dirs[0], "run_manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        assert manifest["incomplete"] is True
        assert manifest["stages"]["train"].startswith("failed")

    def test_file_run_without_manifest_fails_at_ingest(self, tmp_path):
        from plotburn.synth import generate, write_scenario

        scenario = generate(dataclasses.replace(SCENARIO, n_plots=4))
        paths = write_scenario(tmp_path / "scene", scenario)
        config = RunConfig(out_root=str(tmp_path / "runs"), plots_path=paths["plots"])
        with pytest.raises(PipelineError) as err:
            run_pipeline(config)
        assert err.value.stage == "ingest"
        assert "manifest" in str(err.value)
        (run_dir,) = os.listdir(tmp_path / "runs")
        with open(tmp_path / "runs" / run_dir / "run_manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["incomplete"] is True
        assert manifest["stages"]["ingest"].startswith("failed")

    def test_empty_manifest_fails_at_ingest(self, tmp_path):
        from plotburn.gridio import write_scene_manifest
        from plotburn.synth import generate, write_scenario

        scenario = generate(dataclasses.replace(SCENARIO, n_plots=4))
        paths = write_scenario(tmp_path / "scene", scenario)
        write_scene_manifest(tmp_path / "empty.json", [])
        config = RunConfig(out_root=str(tmp_path / "runs"), plots_path=paths["plots"],
                           manifest_path=str(tmp_path / "empty.json"))
        with pytest.raises(PipelineError) as err:
            run_pipeline(config)
        assert err.value.stage == "ingest"
        assert "lists no grids" in str(err.value)
        (run_dir,) = os.listdir(tmp_path / "runs")
        with open(tmp_path / "runs" / run_dir / "run_manifest.json") as fh:
            assert json.load(fh)["incomplete"] is True

    def test_nan_endmember_fails_at_ingest_naming_the_file(self, tmp_path):
        from plotburn.synth import generate, write_scenario

        scenario = generate(dataclasses.replace(SCENARIO, n_plots=4))
        paths = write_scenario(tmp_path / "scene", scenario)
        header, rows = read_rows_csv(paths["endmembers"])
        rows[2][3] = "nan"
        write_rows_csv(paths["endmembers"], header, rows)
        config = RunConfig(out_root=str(tmp_path / "runs"), plots_path=paths["plots"],
                           manifest_path=paths["manifest"],
                           endmembers_path=paths["endmembers"])
        with pytest.raises(PipelineError) as err:
            run_pipeline(config)
        assert err.value.stage == "ingest"
        assert f"{paths['endmembers']}: char endmember outside [0, 1]" in str(err.value)

    def test_plots_file_without_plots_fails_at_ingest(self, tmp_path, monkeypatch):
        from test_io import write_two_sensor_manifest

        from plotburn import gridio

        manifest, _ = write_two_sensor_manifest(tmp_path)
        gridio.write_plots_csv(tmp_path / "plots.csv", [])
        config = RunConfig(out_root=str(tmp_path / "runs"), manifest_path=str(manifest),
                           plots_path=str(tmp_path / "plots.csv"))
        read = []
        monkeypatch.setattr(gridio, "read_grid", lambda *args: read.append(args))
        with pytest.raises(PipelineError) as err:
            run_pipeline(config)
        assert err.value.stage == "ingest"
        assert "plots.csv: the plots file lists no plots" in str(err.value)
        assert read == []
        (run_dir,) = os.listdir(tmp_path / "runs")
        with open(tmp_path / "runs" / run_dir / "run_manifest.json") as fh:
            assert json.load(fh)["incomplete"] is True

    @staticmethod
    def ingest_two_sensor_scene(tmp_path, monkeypatch, sensor_mode="combined"):
        """stage_ingest of a two-sensor file scene with one plot; returns the
        state, the grid files read, every grid file and the plot."""
        from test_io import FINE, write_two_sensor_manifest

        from plotburn import gridio
        from plotburn.scene import make_plot

        manifest, files = write_two_sensor_manifest(tmp_path, dates_a=2, mask=True)
        plot = make_plot("p0", [(3.0, 3.0), (15.0, 3.0), (15.0, 15.0), (3.0, 15.0)],
                         FINE, "burned")
        gridio.write_plots_csv(tmp_path / "plots.csv", [plot])
        config = RunConfig(out_root=str(tmp_path), manifest_path=str(manifest),
                           plots_path=str(tmp_path / "plots.csv"), sensor_mode=sensor_mode)
        read = []
        real_read_grid = gridio.read_grid

        def counting_read_grid(path, rows=None, cols=None):
            read.append(os.path.basename(path))
            return real_read_grid(path, rows, cols)

        monkeypatch.setattr(gridio, "read_grid", counting_read_grid)
        state = RunState(config, str(tmp_path))
        stage_ingest(state)
        return state, read, files, plot

    def test_ingest_parses_each_grid_once(self, tmp_path, monkeypatch):
        from test_io import FINE

        state, read, files, plot = self.ingest_two_sensor_scene(tmp_path, monkeypatch)
        assert len(read) == len(set(files)) == 2 * (4 + 1) + (9 + 1)
        assert sorted(read) == sorted(files)
        # The cubes hold the plot's window, fine rows 7..10 by columns 1..4.
        assert {c.geom for c in state.cubes.values()} == {FINE.window(7, 1, 4, 4)}
        assert {c.origin for c in state.cubes.values()} == {(7, 1)}
        assert state.plots[0].n_pixels == plot.n_pixels
        # The window's cubic taps reach rows 2..5 and columns 0..4 of sensor
        # B's 6 m grid.
        assert state.manifest["ingest"] == {
            "workers": [], "grids": 20, "cells": 10 * 12 * 12 + 10 * 6 * 6,
            "cells_converted": 10 * 4 * 4 + 10 * 4 * 5,
            "window": {"rows": [7, 11], "cols": [1, 5]},
            "cells_held": (2 * 4 + 9) * 4 * 4}

    @pytest.mark.parametrize("sensor_mode", ["A_only", "B_only"])
    def test_single_sensor_ingest_reads_only_its_grids(self, tmp_path, monkeypatch,
                                                       sensor_mode):
        from test_io import FINE

        state, read, files, plot = self.ingest_two_sensor_scene(tmp_path, monkeypatch,
                                                                sensor_mode)
        sensor = sensor_mode[0]
        kept = [name for name in files if name.startswith(f"{sensor}_")]
        assert sorted(read) == sorted(kept)
        assert state.manifest["ingest"]["grids"] == len(kept)
        # The common grid is still sensor A's, sensor B's cells upsampled to it.
        assert list(state.cubes) == [sensor]
        assert state.cubes[sensor].geom == FINE.window(7, 1, 4, 4)
        assert state.plots[0].n_pixels == plot.n_pixels

    def test_predictions_cover_all_plots(self, completed_run):
        _, run_dir = completed_run
        _, rows = read_rows_csv(os.path.join(run_dir, "predictions.csv"))
        assert len(rows) == SCENARIO.n_plots
        for row in rows:
            score = float(row[1])
            assert 0.0 <= score <= 1.0
            assert row[2] in ("0", "1") and row[3] in ("0", "1")

    def test_final_model_keeps_at_most_top_k_features(self, completed_run):
        config, run_dir = completed_run
        _, rows = read_rows_csv(os.path.join(run_dir, "importance.csv"))
        assert 0 < len(rows) <= config.top_k_features

    def test_plot_means_exclude_border_pixels(self, completed_run):
        import math

        _, run_dir = completed_run
        _, cv_rows = read_rows_csv(os.path.join(run_dir, "cv_scores.csv"))
        _, pred_rows = read_rows_csv(os.path.join(run_dir, "predictions.csv"))
        preds = {r[0]: float(r[1]) for r in pred_rows}
        by_plot = {}
        for plot_id, _, border, score in cv_rows:
            by_plot.setdefault(plot_id, []).append((border == "1", float(score)))
        checked = 0
        for plot_id, entries in by_plot.items():
            inner = [s for b, s in entries if not b]
            if inner:
                assert preds[plot_id] == pytest.approx(
                    math.fsum(inner) / len(inner), abs=1e-12)
                checked += 1
        assert checked > 0

    def test_cv_plot_means_are_the_pipeline_plot_scores(self, tmp_path, monkeypatch):
        results = []

        def recording_loocv(*args, **kwargs):
            results.append(cv.loocv_plot(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(pipeline, "loocv_plot", recording_loocv)
        run_dir = run_pipeline(base_config(tmp_path, n_trees=5))
        (result,) = results
        _, cv_rows = read_rows_csv(os.path.join(run_dir, "cv_scores.csv"))
        _, pred_rows = read_rows_csv(os.path.join(run_dir, "predictions.csv"))
        preds = {r[0]: float(r[1]) for r in pred_rows}
        by_plot = {}
        for plot_id, _, border, score in cv_rows:
            by_plot.setdefault(plot_id, []).append((border == "1", float(score)))
        assert sorted(result.plot_means) == sorted(by_plot)
        mixed = 0
        for plot_id, entries in by_plot.items():
            inner = [s for b, s in entries if not b] or [s for _, s in entries]
            mixed += len(inner) < len(entries)
            assert result.plot_means[plot_id] == aggregate_plot(inner) == preds[plot_id]
        assert mixed > 0

    def test_file_based_ingestion_path(self, tmp_path):
        from plotburn.synth import generate, write_scenario

        scenario = generate(dataclasses.replace(SCENARIO, n_plots=10,
                                                burn_probability=0.5))
        paths = write_scenario(tmp_path / "scene", scenario)
        config = RunConfig(out_root=str(tmp_path), manifest_path=paths["manifest"],
                           plots_path=paths["plots"], events_path=paths["events"],
                           endmembers_path=paths["endmembers"], n_trees=10,
                           cv_mode="grouped:3", min_leaf=2, seed=5)
        run_dir = run_pipeline(config)
        for name in ARTIFACTS + ("separability.csv",):
            assert os.path.exists(os.path.join(run_dir, name)), name

    def test_selection_modes(self, tmp_path, monkeypatch):
        small = dataclasses.replace(SCENARIO, n_plots=10, burn_probability=0.5)
        none_cfg = base_config(tmp_path, scenario=small, n_trees=10,
                               cv_mode="grouped:3", selection="none")
        calls = []
        for module in (pipeline, cv):
            def counted(*args, _train=module.train_forest, **kwargs):
                calls.append(1)
                return _train(*args, **kwargs)
            monkeypatch.setattr(module, "train_forest", counted)
        run_dir = run_pipeline(none_cfg)
        # The ranking forest is also the final model: ranking + 3 folds.
        assert len(calls) == 1 + 3
        _, rows = read_rows_csv(os.path.join(run_dir, "importance.csv"))
        assert len(rows) > none_cfg.top_k_features
        with open(os.path.join(run_dir, "importance.csv"), "rb") as fh:
            final = fh.read()
        with open(os.path.join(run_dir, "importance_full.csv"), "rb") as fh:
            assert fh.read() == final

    def test_unlabeled_plots_scored_by_final_model(self, tmp_path):
        scenario = dataclasses.replace(SCENARIO, n_plots=12, burn_probability=0.5,
                                       unlabeled_fraction=0.3, seed=3)
        run_dir = run_pipeline(base_config(tmp_path, scenario=scenario, n_trees=10,
                                           cv_mode="loocv"))
        _, preds = read_rows_csv(os.path.join(run_dir, "predictions.csv"))
        unlabeled = [p for p in preds if p[4] == "unlabeled"]
        assert unlabeled and len(unlabeled) < len(preds)
        # The final model scores every row imputed with the labeled rows' medians.
        table = read_feature_csv(os.path.join(run_dir, "features.csv"))
        model = load_forest(os.path.join(run_dir, "model.txt"))
        X = table_matrix(table, model.schema)
        labeled = np.isin(table.plot_id, [p[0] for p in preds if p[4] != "unlabeled"])
        scores = predict_scores(model, apply_impute(X, fit_impute_medians(X[labeled])))
        for plot_id, mean_score, *_ in unlabeled:
            interior = (table.plot_id == plot_id) & ~table.border
            assert interior.any()
            assert float(mean_score) == float(scores[interior].mean())


def small_config(tmp_path, **overrides):
    return base_config(tmp_path, scenario=dataclasses.replace(SCENARIO, n_plots=10,
                                                              burn_probability=0.5),
                       n_trees=5, cv_mode="grouped:3", **overrides)


def read_manifest(out_root):
    (run_dir,) = os.listdir(out_root)
    with open(os.path.join(out_root, run_dir, "run_manifest.json")) as fh:
        return json.load(fh)


class TestStageCosts:
    def test_cpu_counts_reaped_children_and_a_failed_stage_its_cost(self, tmp_path,
                                                                    monkeypatch):
        burn = ("import time\nt = time.process_time()\n"
                "while time.process_time() - t < 0.2:\n    pass\n")

        def child(state):
            subprocess.run([sys.executable, "-c", burn], check=True)

        def idle(state):
            time.sleep(0.2)

        def broken(state):
            time.sleep(0.05)
            raise ValueError("broke")
        monkeypatch.setattr(pipeline, "STAGES", (("child", child), ("idle", idle),
                                                 ("broken", broken), ("never", idle)))
        with pytest.raises(PipelineError, match="broke"):
            run_pipeline(small_config(tmp_path))
        manifest = read_manifest(tmp_path)
        assert manifest["stages"] == {"child": "ok", "idle": "ok", "broken": "failed: broke"}
        costs = manifest["stage_costs"]
        assert sorted(costs) == ["broken", "child", "idle"]
        assert costs["child"]["cpu_s"] >= 0.2
        assert costs["idle"]["wall_s"] >= 0.2 > costs["idle"]["cpu_s"]
        assert costs["broken"]["wall_s"] >= 0.05
        peaks = [costs[name]["peak_rss_mb"] for name in ("child", "idle", "broken")]
        assert 0 < peaks[0] and peaks == sorted(peaks)


def oracle_separability_csv(path, config):
    """separability.csv of a run, its curves over oracle_plot_means of the
    event plots' pixels: the interior ones when the run drops border pixels."""
    scenario = synth.generate(config.scenario)
    by_id = {p.plot_id: p for p in scenario.plots}
    if not config.include_border:
        by_id = {pid: Plot(pid, p.polygon, p.rows[~p.border], p.cols[~p.border],
                           p.border[~p.border], p.label, p.group)
                 for pid, p in by_id.items() if not p.border.all()}
    events = [(by_id[pid], date) for pid, kind, date in scenario.truth.events()
              if kind == "burn" and pid in by_id]
    rows = []
    for name in pipeline.DEFAULT_CURVE_SOURCES:
        sensor, _, source = name.partition("_")
        cube = scenario.cube_a if sensor == "A" else scenario.cube_b
        means = oracle_plot_means(cube, [plot for plot, _ in events], source,
                                  scenario.endmembers)
        rows += separability_curve(name, means, cube.dates, [date for _, date in events],
                                   config.max_offset).rows()
    write_rows_csv(path, CURVE_CSV_HEADER, rows)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSeparabilityStage:
    """The curves read the plot means the features stage kept."""

    def test_curves_evaluate_no_source(self, tmp_path, monkeypatch):
        evaluated, stage = collections.Counter(), [None]

        def counted(name, fn):
            def call(*args, **kwargs):
                evaluated[stage[0], name] += 1
                return fn(*args, **kwargs)
            return call

        def tracked(name, fn):
            def run(state):
                stage[0] = name
                fn(state)
            return run

        for name in ("source_values", "compute_index"):
            monkeypatch.setattr(features, name, counted(name, getattr(features, name)))
        monkeypatch.setattr(pipeline, "STAGES",
                            tuple((name, tracked(name, fn)) for name, fn in pipeline.STAGES))
        config = small_config(tmp_path / "runs")
        run_dir = run_pipeline(config)
        assert evaluated["features", "source_values"] and evaluated["features", "compute_index"]
        assert not [key for key in evaluated if key[0] == "separability"]
        oracle_separability_csv(tmp_path / "oracle.csv", config)
        path = os.path.join(run_dir, "separability.csv")
        assert read_bytes(path) == read_bytes(tmp_path / "oracle.csv")
        _, rows = read_rows_csv(path)
        assert {row[0] for row in rows if row[2] != "nan"} == set(pipeline.DEFAULT_CURVE_SOURCES)

    def test_cubes_are_released_before_training(self, tmp_path, monkeypatch):
        cubes_seen = {}

        def tracked(name, fn):
            def run(state):
                cubes_seen[name] = sorted(state.cubes)
                fn(state)
            return run
        monkeypatch.setattr(pipeline, "STAGES",
                            tuple((name, tracked(name, fn)) for name, fn in pipeline.STAGES))
        config = small_config(tmp_path / "runs")
        run_dir = run_pipeline(config)
        assert cubes_seen["separability"] == ["A", "B"]
        assert cubes_seen["train"] == cubes_seen["threshold"] == cubes_seen["report"] == []
        oracle_separability_csv(tmp_path / "oracle.csv", config)
        assert (read_bytes(os.path.join(run_dir, "separability.csv"))
                == read_bytes(tmp_path / "oracle.csv"))

    def test_skipped_stage_releases_the_cubes(self, tmp_path):
        state = RunState(small_config(tmp_path), str(tmp_path))
        state.cubes, state.events = {"A": object()}, [("p1", "till", dt.date(2019, 11, 2))]
        pipeline.stage_separability(state)
        assert state.cubes == {}
        assert state.manifest["separability"] == "skipped: no burn events supplied"
        assert not os.path.exists(tmp_path / "separability.csv")

    def test_no_border_curves_use_interior_pixels(self, tmp_path):
        config = small_config(tmp_path / "runs", include_border=False)
        run_dir = run_pipeline(config)
        oracle_separability_csv(tmp_path / "oracle.csv", config)
        oracle_separability_csv(tmp_path / "all_pixels.csv",
                                dataclasses.replace(config, include_border=True))
        written = read_bytes(os.path.join(run_dir, "separability.csv"))
        assert written == read_bytes(tmp_path / "oracle.csv")
        assert written != read_bytes(tmp_path / "all_pixels.csv")


class TestFeatureWriter:
    """features.csv is written by a forked child while the later stages run."""

    def test_file_is_write_feature_csv_of_the_table(self, tmp_path, monkeypatch):
        tables = []

        def recording_build(*args, _build=features.build_feature_table, **kwargs):
            tables.append(_build(*args, **kwargs))
            return tables[-1]
        monkeypatch.setattr(features, "build_feature_table", recording_build)
        run_dir = run_pipeline(small_config(tmp_path / "runs"))
        assert_no_child_left()
        features.write_feature_csv(tmp_path / "inline.csv", tables[0])
        with open(os.path.join(run_dir, "features.csv"), "rb") as fh:
            assert fh.read() == (tmp_path / "inline.csv").read_bytes()
        record = read_manifest(tmp_path / "runs")["writers"]["features.csv"]
        assert sorted(record) == ["cpu_s", "peak_rss_mb", "wait_s"]
        assert all(value >= 0 for value in record.values())
        assert record["peak_rss_mb"] > 0

    def test_failed_write_fails_the_features_stage(self, tmp_path, monkeypatch):
        def full(path, table):
            raise OSError("disk full")
        monkeypatch.setattr(features, "write_feature_csv", full)
        with pytest.raises(PipelineError, match="stage 'features' failed") as err:
            run_pipeline(small_config(tmp_path))
        assert_no_child_left()
        assert err.value.stage == "features"
        manifest = read_manifest(tmp_path)
        assert manifest["stages"]["features"] == "failed: writing features.csv: disk full"
        # The later stages ran while the child wrote.
        assert manifest["stages"]["report"] == "ok"
        assert manifest["incomplete"] is True
        assert "artifacts" not in manifest
        assert "features.csv" in manifest["writers"]

    def test_stage_failing_during_the_write_is_the_run_error(self, tmp_path, monkeypatch):
        def slow(path, table, _write=features.write_feature_csv):
            time.sleep(0.3)
            _write(path, table)

        def broken(state):
            raise ValueError("train broke")
        monkeypatch.setattr(features, "write_feature_csv", slow)
        monkeypatch.setattr(pipeline, "STAGES", tuple(
            (name, broken if name == "train" else fn) for name, fn in pipeline.STAGES))
        with pytest.raises(PipelineError, match="train broke") as err:
            run_pipeline(small_config(tmp_path))
        assert_no_child_left()
        assert err.value.stage == "train"
        manifest = read_manifest(tmp_path)
        assert manifest["stages"]["features"] == "ok"
        assert manifest["stages"]["train"] == "failed: train broke"
        assert manifest["incomplete"] is True
        # The run waited for the write before it wrote its manifest.
        assert "features.csv" in manifest["writers"]
        assert read_feature_csv(os.path.join(tmp_path, os.listdir(tmp_path)[0],
                                             "features.csv")).X.shape[0] > 0

    def test_child_never_returns_into_the_caller(self, tmp_path, monkeypatch):
        def leave(path, table):
            raise SystemExit()
        monkeypatch.setattr(features, "write_feature_csv", leave)
        after = tmp_path / "after.txt"
        # A child that got out of the writer would come through here too.
        error = None
        try:
            run_pipeline(small_config(tmp_path / "runs"))
        except BaseException as exc:
            error = exc
        with open(after, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        assert_no_child_left()
        assert after.read_text() == f"{os.getpid()}\n"
        assert isinstance(error, PipelineError) and error.stage == "features"
        assert read_manifest(tmp_path / "runs")["stages"]["features"] == \
            "failed: writing features.csv: SystemExit"

    def test_without_fork_the_file_is_written_inline(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        state = RunState(small_config(tmp_path), str(tmp_path))
        stage_ingest(state)
        pipeline.stage_features(state)
        assert state.writers == {}
        assert pipeline.join_writers(state) is None
        assert read_feature_csv(tmp_path / "features.csv").X.shape == state.table.X.shape


class TestRunDirectory:
    def test_next_free_suffix(self, tmp_path):
        config = small_config(tmp_path)
        base = os.path.join(tmp_path, f"run-{config.config_hash()}")
        os.makedirs(base)
        os.makedirs(f"{base}-2")
        assert allocate_run_dir(config) == f"{base}-3"
        assert os.path.isdir(f"{base}-3")

    def test_directory_taken_before_the_claim(self, tmp_path, monkeypatch):
        config = small_config(tmp_path)
        base = os.path.join(tmp_path, f"run-{config.config_hash()}")
        calls = []

        def racing_makedirs(path, *args, _makedirs=os.makedirs, **kwargs):
            if not calls:
                _makedirs(path)  # another run claims it first
            calls.append(path)
            return _makedirs(path, *args, **kwargs)
        monkeypatch.setattr(os, "makedirs", racing_makedirs)
        assert allocate_run_dir(config) == f"{base}-2"
        assert calls == [base, f"{base}-2"]


class TestTrainMemory:
    def test_stage_train_holds_one_labeled_copy(self, tmp_path):
        # 20,000 rows x 423 columns in 40 labeled plots, 5% of values missing.
        rng = np.random.default_rng(0)
        n_plots, per_plot, n_cols = 40, 500, 423
        plots = [f"p{i:02d}" for i in range(n_plots)]
        cls = np.repeat(np.arange(n_plots) % 2, per_plot)
        X = cls[:, None] + 0.1 * rng.standard_normal((cls.size, n_cols))
        X[rng.random(X.shape) < 0.05] = np.nan
        table = FeatureTable(X, [f"f{j:03d}" for j in range(n_cols)],
                             np.repeat(plots, per_plot).astype(object),
                             np.asarray([f"x{i}" for i in range(cls.size)], dtype=object))
        state = RunState(base_config(tmp_path, n_trees=1, cv_mode="grouped:2"), str(tmp_path))
        state.table = table
        state.labels = {p: "burned" if i % 2 else "not_burned" for i, p in enumerate(plots)}
        tracemalloc.start()
        try:
            stage_train(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(state.plot_scores) == plots
        assert peak <= 1.6 * X.nbytes, peak / X.nbytes


# Former ScenarioConfig fields, now constants in plotburn.synth, as a config spelled them.
FIXED_GENERATOR_VALUES = {
    "season_start": "2019-10-10", "season_end": "2019-12-15",
    "burn_window_start": "2019-10-18", "burn_window_end": "2019-12-02",
    "till_lag_max_days": 2, "cloud_event_min_days": 3, "cloud_event_max_days": 5,
    "cloud_event_coverage": 0.5, "noise_sd_b": 0.01, "char_amp_range": [0.85, 1.15],
    "till_levels": None, "char_deltas": None, "treatment_fraction": 0.5,
}


class TestConfigRoundTrip:
    def test_dict_round_trip(self, tmp_path):
        custom = dataclasses.replace(SCENARIO, pre_levels=dict(PRE_LEVELS, NIR=0.55),
                                     unlabeled_fraction=0.3)
        for scenario in (SCENARIO, custom):
            config = base_config(tmp_path, scenario=scenario)
            doc = json.loads(json.dumps(dataclasses.asdict(config)))
            back = config_from_dict(doc)
            assert back == config
            assert back.config_hash() == config.config_hash()

    @pytest.mark.parametrize("key", FIXED_GENERATOR_VALUES)
    def test_fixed_generator_values_are_unknown_keys(self, tmp_path, key):
        doc = {"out_root": str(tmp_path), "scenario": {key: FIXED_GENERATOR_VALUES[key]}}
        with pytest.raises(ValueError, match=rf"unknown scenario key\(s\) \['{key}'\]"):
            config_from_dict(doc)

    def test_empty_scenario_is_the_default_scenario(self, tmp_path):
        doc = {"out_root": str(tmp_path), "scenario": {}}
        assert config_from_dict(doc).scenario == ScenarioConfig()
        with pytest.raises(ValueError, match="scenario"):
            RunConfig(out_root=str(tmp_path), scenario={})

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            RunConfig(out_root=str(tmp_path))
        with pytest.raises(ValueError):
            RunConfig(out_root=str(tmp_path), scenario=SCENARIO, sensor_mode="both")
        with pytest.raises(ValueError, match="selection"):
            RunConfig(out_root=str(tmp_path), scenario=SCENARIO, selection="sequential:2")
        for field, value in [("cv_mode", "bogus-mode"), ("cv_mode", "grouped:0"),
                             ("cv_mode", "grouped:x"), ("cv_mode", "grouped:"),
                             ("cv_mode", "loocv:3"), ("cv_mode", 3), ("n_trees", 0),
                             ("n_trees", "5"), ("top_k_features", 0), ("min_leaf", 0),
                             ("max_offset", -1), ("seed", "1"), ("seed", -1),
                             ("seed", 1.0), ("seed", True), ("include_border", "false"),
                             ("include_border", 1), ("out_root", 5), ("name", None),
                             ("name", "../escaped"), ("name", "/tmp/abs"), ("name", ""),
                             ("name", "."), ("name", ".."),
                             ("manifest_path", 3), ("events_path", ["e.csv"]),
                             ("sensor_mode", ["A"])]:
            with pytest.raises(ValueError, match=field):
                RunConfig(**{"out_root": str(tmp_path), "scenario": SCENARIO, field: value})
        for field, value in [("cv_mode", "auto"), ("cv_mode", "loocv"),
                             ("cv_mode", "grouped:1"), ("n_trees", 1),
                             ("top_k_features", 1), ("min_leaf", 1), ("max_offset", 0),
                             ("seed", 0), ("seed", np.int64(7)),
                             ("include_border", False)]:
            RunConfig(out_root=str(tmp_path), scenario=SCENARIO, **{field: value})

    @pytest.mark.parametrize("files", [
        {"manifest_path": "m.json"}, {"plots_path": "p.csv"},
        {"events_path": "e.csv", "endmembers_path": "em.csv"},
    ])
    def test_scenario_and_files_are_not_both_named(self, tmp_path, files):
        with pytest.raises(ValueError, match=f"not both: scenario is set, and so is "
                                             f"{', '.join(files)}$"):
            RunConfig(out_root=str(tmp_path), scenario=SCENARIO, **files)


class TestAblations:
    def test_identical_runs_compare_equal(self, completed_run):
        _, run_dir = completed_run
        table = compare_ablations({"x": run_dir, "y": run_dir})
        stats = {(r[0], r[1]): r for r in table}
        for policy in ("max", "balanced"):
            assert stats[("x", policy)][2:] == stats[("y", policy)][2:]

    def test_mismatched_plot_sets_rejected(self, completed_run, tmp_path):
        _, run_dir = completed_run
        other = run_pipeline(base_config(
            tmp_path,
            scenario=dataclasses.replace(SCENARIO, n_plots=10, burn_probability=0.5),
            n_trees=5, cv_mode="grouped:3"))
        with pytest.raises(AblationError):
            compare_ablations({"a": run_dir, "b": other})
