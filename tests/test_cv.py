import json
import os
import time

import numpy as np
import pytest

from conftest import assert_no_child_left
from plotburn import cv
from plotburn.cv import (LeakageError, check_fold_leakage, fit_forest, grouped_plot_folds,
                         loocv_plot, row_classes, score_plots)
from plotburn.features import FeatureTable
from plotburn.forest import ForestParams
from plotburn.pipeline import PipelineError, RunConfig, run_pipeline
from plotburn.synth import ScenarioConfig


def toy_rows(n_plots=10, px_per_plot=6, n_features=4, signal=3.0, seed=0):
    """Plot-structured table where feature s0 carries the class signal."""
    rng = np.random.default_rng(seed)
    values, plot_ids, pixel_ids, labels = [], [], [], {}
    for p in range(n_plots):
        plot_id = f"plot{p:03d}"
        cls = p % 2
        labels[plot_id] = "burned" if cls else "not_burned"
        level = cls * signal + rng.normal(0, 0.3)
        for px in range(px_per_plot):
            features = [level + rng.normal(0, 0.5)]
            features += [rng.normal(0, 1) for _ in range(1, n_features)]
            values.append(features + [5.0, 3.0, float(px == 0)])
            plot_ids.append(plot_id)
            pixel_ids.append(f"{plot_id}_{px}")
    schema = [f"s{f}" for f in range(n_features)] + ["n_obs_A", "n_obs_B", "border"]
    return FeatureTable(np.asarray(values), schema, np.asarray(plot_ids, dtype=object),
                        np.asarray(pixel_ids, dtype=object)), labels


PARAMS = ForestParams(n_trees=20, min_leaf=2, seed=0)


class TestLoocv:
    def test_every_labeled_plot_held_out_once(self):
        rows, labels = toy_rows(n_plots=10)
        result = loocv_plot(rows, labels, PARAMS, mode="loocv")
        assert len(result.folds) == 10
        held = [p for holdout, _ in result.folds for p in holdout]
        assert sorted(held) == sorted(labels)
        assert sorted(result.plot_means) == sorted(labels)

    def test_scores_recover_plot_labels(self):
        rows, labels = toy_rows(n_plots=12, signal=6.0)
        result = loocv_plot(rows, labels, PARAMS, mode="loocv")
        for plot_id, mean in result.plot_means.items():
            if labels[plot_id] == "burned":
                assert mean > 0.5
            else:
                assert mean < 0.5

    def test_grouped_five_fold_scores_each_plot_once(self):
        rows, labels = toy_rows(n_plots=10)
        result = loocv_plot(rows, labels, PARAMS, mode="grouped:5")
        assert len(result.folds) == 5
        held = [p for holdout, _ in result.folds for p in holdout]
        assert sorted(held) == sorted(labels)

    def test_leakage_probe_trips_assertion(self):
        table, labels = toy_rows(n_plots=10)
        plot_rows = table.plot_rows()
        plots = sorted(labels)
        holdout = plots[0]
        train_idx = [i for p in plots[1:] for i in plot_rows[p]]
        # Duplicate one holdout pixel into training with a flipped label.
        src = plot_rows[holdout][0]
        bad = FeatureTable(np.vstack([table.X, table.X[src]]), table.schema,
                           np.append(table.plot_id, holdout),
                           np.append(table.pixel_id, "leaked_px"))
        bad_train = train_idx + [len(bad) - 1]
        folds = [((holdout,), np.asarray(bad_train))]
        with pytest.raises(LeakageError):
            loocv_plot(bad, labels, PARAMS, folds=folds)

    def test_fold_guard_direct(self):
        with pytest.raises(LeakageError):
            check_fold_leakage(["a", "b", "c"], ["c"])
        check_fold_leakage(["a", "b"], ["c"])

    def test_plot_without_rows_excluded_with_warning(self):
        rows, labels = toy_rows(n_plots=6)
        labels["ghost"] = "burned"
        with pytest.warns(UserWarning, match="ghost"):
            result = loocv_plot(rows, labels, PARAMS, mode="loocv")
        assert "ghost" not in result.plot_means

    def test_bad_mode_rejected_with_the_config_message(self, tmp_path):
        rows, labels = toy_rows(n_plots=4)
        for mode in ("grouped:x", "grouped:0"):
            with pytest.raises(ValueError) as from_config:
                RunConfig(out_root=str(tmp_path), scenario=ScenarioConfig(), cv_mode=mode)
            with pytest.raises(ValueError) as from_cv:
                loocv_plot(rows, labels, PARAMS, mode=mode)
            assert str(from_cv.value) == str(from_config.value)
            assert "cv_mode must be" in str(from_cv.value)

    def test_auto_mode_uses_loocv_for_small_sets(self):
        rows, labels = toy_rows(n_plots=8)
        result = loocv_plot(rows, labels, PARAMS, mode="auto")
        assert len(result.folds) == 8

    def test_fold_training_on_an_unlabeled_plot_is_an_error(self):
        table, labels = toy_rows(n_plots=6)
        labels["plot005"] = "unlabeled"
        plot_rows = table.plot_rows()
        train_idx = np.concatenate([plot_rows[f"plot{p:03d}"] for p in range(1, 6)])
        with pytest.raises(ValueError, match=r"fold 0 trains on plot\(s\) \['plot005'\]"):
            loocv_plot(table, labels, PARAMS, folds=[(("plot000",), train_idx)])

    def test_one_prediction_per_fold(self, monkeypatch):
        table, labels = toy_rows(n_plots=10)
        calls = []

        def counted(model, X, _predict=cv.predict_scores):
            calls.append(X.shape[0])
            return _predict(model, X)
        monkeypatch.setattr(cv, "predict_scores", counted)
        result = loocv_plot(table, labels, PARAMS, mode="grouped:3")
        assert len(calls) == len(result.folds) == 3
        assert sum(calls) == len(table)


def fork_folds(monkeypatch, cores):
    """Fork the folds of any size into `cores` processes."""
    monkeypatch.setattr(cv, "FORK_ROW_TREES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


def on_folds(monkeypatch, actions):
    """Make cv.fit_forest call actions[p]() first in each fold holding out
    plot p; the fork inherits the patch."""
    def fit(table, rows, *args, _fit=cv.fit_forest):
        for plot_id, action in actions.items():
            if table.plot_rows()[plot_id][0] not in rows:
                action()
        return _fit(table, rows, *args)
    monkeypatch.setattr(cv, "fit_forest", fit)


def raising(exc):
    def action():
        raise exc
    return action


def same_result(a, b):
    return (a.folds == b.folds and a.plot_means == b.plot_means
            and list(a.pixel_scores) == list(b.pixel_scores)
            and all(a.pixel_scores[p].tobytes() == b.pixel_scores[p].tobytes()
                    for p in a.pixel_scores))


class TestForkedFolds:
    @pytest.mark.parametrize("cores", [2, 3])
    def test_forked_folds_equal_folds_run_inline(self, monkeypatch, cores):
        table, labels = toy_rows(n_plots=10)
        table.X[::7, 2] = np.nan
        fork_folds(monkeypatch, cores)
        workers = []
        forked = loocv_plot(table, labels, PARAMS, mode="grouped:5", fold_workers=workers)
        assert_no_child_left()
        assert [w["folds"] for w in workers] == [list(range(w, 5, cores))
                                                 for w in range(1, cores)]
        for record in workers:
            assert sorted(record) == ["cpu_s", "folds", "peak_rss_mb", "wait_s"]
            assert record["peak_rss_mb"] > 0
        monkeypatch.delattr(os, "fork")
        inline = []
        assert same_result(forked, loocv_plot(table, labels, PARAMS, mode="grouped:5",
                                              fold_workers=inline))
        assert inline == []

    def test_folds_fork_from_fork_row_trees_on(self, monkeypatch):
        rows = np.arange(cv.FORK_ROW_TREES // 4)
        folds = [((str(i),), rows) for i in range(4)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert cv.fold_processes(folds[:2], n_trees=1) == 1
        assert cv.fold_processes(folds[:2], n_trees=2) == 2
        assert cv.fold_processes(folds, n_trees=2) == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert cv.fold_processes(folds, n_trees=2) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.delattr(os, "fork")
        assert cv.fold_processes(folds, n_trees=2) == 1

    def test_fold_order_holds_when_the_worker_finishes_last(self, monkeypatch):
        table, labels = toy_rows(n_plots=8)
        inline = loocv_plot(table, labels, PARAMS, mode="loocv")
        fork_folds(monkeypatch, 2)
        on_folds(monkeypatch, {"plot001": lambda: time.sleep(0.3)})  # the worker's first
        workers = []
        forked = loocv_plot(table, labels, PARAMS, mode="loocv", fold_workers=workers)
        assert_no_child_left()
        assert workers[0]["folds"] == [1, 3, 5, 7] and workers[0]["wait_s"] > 0.1
        assert same_result(forked, inline)

    def test_worker_fold_error_is_raised_with_its_type_and_message(self, monkeypatch,
                                                                   tmp_path):
        scene = ScenarioConfig(n_plots=8, plot_area_mean_ha=0.01, plot_area_median_ha=0.01,
                               burn_probability=0.5, seed=2)
        config = RunConfig(out_root=str(tmp_path), scenario=scene, n_trees=3,
                           cv_mode="loocv")
        fork_folds(monkeypatch, 2)
        on_folds(monkeypatch, {"p0003": raising(KeyError("no such column"))})  # fold 3
        with pytest.raises(PipelineError) as err:
            run_pipeline(config)
        assert_no_child_left()
        assert err.value.stage == "train"
        assert type(err.value.cause) is KeyError and str(err.value.cause) == "'no such column'"
        (run_dir,) = os.listdir(tmp_path)
        with open(os.path.join(tmp_path, run_dir, "run_manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["incomplete"] is True
        assert manifest["stages"]["train"] == "failed: 'no such column'"
        assert [w["folds"] for w in manifest["fold_workers"]] == [[1, 3, 5, 7]]
        assert manifest["fold_workers"][0]["error"] == "fold 3: 'no such column'"

    def test_unpicklable_error_arrives_as_a_runtime_error(self, monkeypatch):
        class Unbuildable(ValueError):
            def __init__(self, a, b):
                super().__init__(f"{a} and {b}")

        table, labels = toy_rows(n_plots=6)
        fork_folds(monkeypatch, 2)
        on_folds(monkeypatch, {"plot003": raising(Unbuildable("x", "y"))})
        workers = []
        with pytest.raises(RuntimeError, match=r"^Unbuildable: x and y$"):
            loocv_plot(table, labels, PARAMS, mode="loocv", fold_workers=workers)
        assert_no_child_left()
        assert workers[0]["error"] == "fold 3: Unbuildable: x and y"

    def test_first_failing_fold_is_raised_after_every_worker_is_reaped(self, monkeypatch):
        table, labels = toy_rows(n_plots=6)
        fork_folds(monkeypatch, 2)
        actions = {"plot002": raising(ValueError("parent's fold")),
                   "plot001": raising(TypeError("worker's"))}
        on_folds(monkeypatch, actions)
        workers = []
        with pytest.raises(TypeError, match="worker's"):
            loocv_plot(table, labels, PARAMS, mode="loocv", fold_workers=workers)
        assert_no_child_left()
        assert workers[0]["error"] == "fold 1: worker's"
        del actions["plot001"]
        with pytest.raises(ValueError, match="parent's fold"):
            loocv_plot(table, labels, PARAMS, mode="loocv")
        assert_no_child_left()


class TestForestInputs:
    def test_row_classes(self):
        table, labels = toy_rows(n_plots=4, px_per_plot=2)
        labels.update(plot002="unlabeled")
        del labels["plot003"]
        assert row_classes(table, labels).tolist() == [0, 0, 1, 1, -1, -1, -1, -1]

    def test_scoring_plots_together_equals_scoring_each_alone(self):
        table, labels = toy_rows(n_plots=8)
        table.X[::5, 1] = np.nan
        plot_rows = table.plot_rows()
        train = np.concatenate([plot_rows[p] for p in sorted(labels)[:6]])
        names = ["s2", "s0", "s1"]
        model, medians = fit_forest(table, train, names, row_classes(table, labels)[train],
                                    PARAMS)
        assert model.schema == names
        plots = ["plot007", "plot000", "plot006", "plot003"]
        together = score_plots(model, medians, table, plot_rows, plots)
        assert list(together) == plots
        for p in plots:
            alone = score_plots(model, medians, table, plot_rows, [p])[p]
            assert together[p].tobytes() == alone.tobytes()
            assert together[p].size == plot_rows[p].size
        assert score_plots(model, medians, table, plot_rows, []) == {}


class TestGroupedFolds:
    def test_partition_properties(self):
        plots = [f"p{i}" for i in range(17)]
        folds = grouped_plot_folds(plots, 5, seed=3)
        assert len(folds) == 5
        flat = [p for fold in folds for p in fold]
        assert sorted(flat) == sorted(plots)

    def test_more_groups_than_plots(self):
        folds = grouped_plot_folds(["a", "b"], 10, seed=0)
        assert len(folds) == 2

