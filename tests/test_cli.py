import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import read_rows_csv
import plotburn
from plotburn import features as feats
from plotburn import pipeline as pipe
from plotburn.cli import RUN_FLAGS, _load_run_config, build_parser, main
from plotburn.gridio import write_rows_csv
from plotburn.synth import ScenarioConfig

SCENARIO_DOC = {"n_plots": 12, "plot_area_mean_ha": 0.02,
                "plot_area_median_ha": 0.018, "seed": 5,
                "burn_probability": 0.5}


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = tmp / "scenario.json"
    cfg.write_text(json.dumps(SCENARIO_DOC))
    out = tmp / "scene"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def scene_inputs(scene_dir):
    """The input flags of the scene's files."""
    return ["--manifest", str(scene_dir / "scene_manifest.json"),
            "--plots", str(scene_dir / "plots.csv"),
            "--events", str(scene_dir / "events.csv"),
            "--endmembers", str(scene_dir / "endmembers.csv")]


@pytest.fixture(scope="module")
def file_run(scene_dir, tmp_path_factory):
    """The run directory of a small run on the scene's files."""
    out_root = tmp_path_factory.mktemp("file_run")
    assert main(["run", *scene_inputs(scene_dir), "--n-trees", "5", "--cv-mode",
                 "grouped:4", "--min-leaf", "2", "--out-root", str(out_root)]) == 0
    (run_dir,) = out_root.iterdir()
    return run_dir


def edited_plots(scene_dir, path, edit):
    """The scene's plots file with edit applied to its header and rows, at path."""
    header, rows = read_rows_csv(scene_dir / "plots.csv")
    write_rows_csv(path, *edit(header, rows))
    return path


FEATURE_HEADER = "plot_id,pixel_id,border,n_obs_A,n_obs_B,A_NIR_max\n"


def drop_column(name):
    def edit(header, rows):
        j = header.index(name)
        return header[:j] + header[j + 1:], [r[:j] + r[j + 1:] for r in rows]
    return edit


class TestStageCommands:
    def test_synth_without_config(self, tmp_path):
        out = tmp_path / "scene"
        assert main(["synth", "--n-plots", "4", "--out", str(out)]) == 0
        _, rows = read_rows_csv(out / "plots.csv")
        assert (out / "scene_manifest.json").exists() and len(rows) == 4

    def test_synth_rejects_bad_sizes(self, tmp_path, capsys):
        out = tmp_path / "scene"
        assert main(["synth", "--n-plots", "0", "--out", str(out)]) == 1
        assert "error: n_plots must be an integer of at least 1, got 0" in \
            capsys.readouterr().err
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(dict(SCENARIO_DOC, plot_area_median_ha=0)))
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "error: plot_area_median_ha must be a number greater than 0, got 0" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_ingest_writes_gap_report(self, scene_dir, tmp_path):
        rc = main(["ingest", "--manifest", str(scene_dir / "scene_manifest.json"),
                   "--plots", str(scene_dir / "plots.csv"), "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_rows_csv(tmp_path / "gaps.csv")
        assert header == ["plot_id", "sensor", "n_obs", "mean_gap", "max_gap"]
        assert any(r[0].startswith("summary_") for r in rows)

    def test_feature_and_model_chain(self, scene_dir, tmp_path):
        manifest = str(scene_dir / "scene_manifest.json")
        plots = str(scene_dir / "plots.csv")
        endmembers = str(scene_dir / "endmembers.csv")
        ingest_out = tmp_path / "ingest"
        assert main(["ingest", "--manifest", manifest, "--plots", plots,
                     "--out", str(ingest_out)]) == 0

        feat_out = tmp_path / "features"
        rc = main(["features", "--manifest", manifest, "--plots", plots,
                   "--endmembers", endmembers, "--out", str(feat_out)])
        assert rc == 0 and (feat_out / "features.csv").exists()

        train_out = tmp_path / "model"
        rc = main(["train", "--features", str(feat_out / "features.csv"),
                   "--plots", plots, "--n-trees", "15", "--cv-mode", "grouped:4",
                   "--out", str(train_out)])
        assert rc == 0
        assert (train_out / "model.txt").exists()
        assert (train_out / "importance.csv").exists()

        thr_out = tmp_path / "thr"
        rc = main(["threshold", "--scores", str(train_out / "scores.csv"),
                   "--out", str(thr_out)])
        assert rc == 0
        assert (thr_out / "confusion_max.csv").exists()
        assert (thr_out / "confusion_balanced.csv").exists()

        rep_out = tmp_path / "rep"
        rc = main(["report", "--predictions", str(thr_out / "predictions.csv"),
                   "--out", str(rep_out)])
        assert rc == 0
        for name in ("summary.csv", "crosstab.csv", "density.csv"):
            assert (rep_out / name).exists()

        # The stage commands run the pipeline's own stages, so `run` on the
        # same files and flags gives the same bytes.
        runs = tmp_path / "runs"
        assert main(["run", "--manifest", manifest, "--plots", plots,
                     "--endmembers", endmembers, "--n-trees", "15",
                     "--cv-mode", "grouped:4", "--out-root", str(runs)]) == 0
        run_dir = runs / os.listdir(runs)[0]
        chain = {"gaps.csv": ingest_out, "features.csv": feat_out,
                 "importance.csv": train_out, "cv_scores.csv": train_out,
                 "model.txt": train_out, "confusion_max.csv": thr_out,
                 "confusion_balanced.csv": thr_out, "predictions.csv": thr_out,
                 "summary.csv": rep_out, "crosstab.csv": rep_out,
                 "density.csv": rep_out}
        for name, stage_dir in chain.items():
            assert ((stage_dir / name).read_bytes()
                    == (run_dir / name).read_bytes()), name

    def test_failed_feature_write_is_an_error(self, scene_dir, tmp_path, capsys,
                                              monkeypatch):
        def full(path, table):
            raise OSError("disk full")
        monkeypatch.setattr(feats, "write_feature_csv", full)
        rc = main(["features", "--manifest", str(scene_dir / "scene_manifest.json"),
                   "--plots", str(scene_dir / "plots.csv"), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == ("error: stage 'features' failed: "
                                           "writing features.csv: disk full\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_chain_reproduces_a_run_with_non_default_flags(self, scene_dir, tmp_path):
        manifest = str(scene_dir / "scene_manifest.json")
        plots = str(scene_dir / "plots.csv")
        endmembers = str(scene_dir / "endmembers.csv")
        mode = ["--sensor-mode", "A_only"]
        forest = ["--n-trees", "8", "--cv-mode", "grouped:3", "--min-leaf", "2",
                  "--selection", "none"]
        ingest_out, feat_out, train_out = (tmp_path / d for d in ("ingest", "features",
                                                                  "model"))
        assert main(["ingest", "--manifest", manifest, "--plots", plots, *mode,
                     "--out", str(ingest_out)]) == 0
        assert main(["features", "--manifest", manifest, "--plots", plots,
                     "--endmembers", endmembers, *mode, "--out", str(feat_out)]) == 0
        assert main(["train", "--features", str(feat_out / "features.csv"),
                     "--plots", plots, *forest, "--out", str(train_out)]) == 0

        runs = tmp_path / "runs"
        assert main(["run", "--manifest", manifest, "--plots", plots,
                     "--endmembers", endmembers, *mode, *forest,
                     "--out-root", str(runs)]) == 0
        run_dir = runs / os.listdir(runs)[0]
        chain = {"gaps.csv": ingest_out, "importance.csv": train_out,
                 "cv_scores.csv": train_out, "model.txt": train_out}
        for name, stage_dir in chain.items():
            assert ((stage_dir / name).read_bytes()
                    == (run_dir / name).read_bytes()), name
        # The flags took effect: sensor A only, leaves of 2, no selection.
        _, gaps = read_rows_csv(ingest_out / "gaps.csv")
        assert {row[1] for row in gaps} == {"A"}
        assert (train_out / "model.txt").read_text().splitlines()[2] == "min_leaf 2"
        assert ((train_out / "importance.csv").read_bytes()
                == (train_out / "importance_full.csv").read_bytes())

    def test_separability_command(self, scene_dir, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(["separability",
                   "--manifest", str(scene_dir / "scene_manifest.json"),
                   "--plots", str(scene_dir / "plots.csv"),
                   "--events", str(scene_dir / "events.csv"),
                   "--source", "A_CI", "--max-offset", "4", "--out", str(out)])
        assert rc == 0
        header, rows = read_rows_csv(out)
        assert header == ["index", "offset_days", "m_value", "n_burn", "n_unburn"]
        assert len(rows) == 5

    @pytest.mark.parametrize("source", ["A_CI", "A_NIR", "B_BASMA"])
    def test_separability_command_writes_the_runs_curve(self, scene_dir, file_run, tmp_path,
                                                       source):
        # Both read the curve off a feature table's plot means: the run's of
        # every source, the command's of the burned plots, the source and
        # its sensor's bands.
        out = tmp_path / "curve.csv"
        assert main(["separability", *scene_inputs(scene_dir), "--source", source,
                     "--out", str(out)]) == 0
        header, rows = read_rows_csv(out)
        run_header, run_rows = read_rows_csv(file_run / "separability.csv")
        assert header == run_header
        assert rows == [row for row in run_rows if row[0] == source]
        assert len(rows) == 9 and any(row[2] != "nan" for row in rows)

    def test_separability_reads_only_the_source_sensor(self, scene_dir, tmp_path,
                                                       monkeypatch):
        from plotburn import gridio

        entries = json.loads((scene_dir / "scene_manifest.json").read_text())["entries"]
        real_read_grid = gridio.read_grid
        read = []

        def counting_read_grid(path, rows=None, cols=None):
            read.append(os.path.basename(path))
            return real_read_grid(path, rows, cols)

        monkeypatch.setattr(gridio, "read_grid", counting_read_grid)
        for sensor, source in (("A", "A_CI"), ("B", "B_MIRBI")):
            read.clear()
            assert main(["separability",
                         "--manifest", str(scene_dir / "scene_manifest.json"),
                         "--plots", str(scene_dir / "plots.csv"),
                         "--events", str(scene_dir / "events.csv"),
                         "--source", source, "--out", str(tmp_path / "curve.csv")]) == 0
            files = {f for e in entries if e["sensor"] == sensor
                     for f in (e["grid"], e["mask"]) if f}
            assert sorted(read) == sorted(os.path.basename(f) for f in files)

    def test_separability_unloaded_sensor_is_an_error(self, scene_dir, tmp_path,
                                                      capsys):
        rc = main(["separability",
                   "--manifest", str(scene_dir / "scene_manifest.json"),
                   "--plots", str(scene_dir / "plots.csv"),
                   "--events", str(scene_dir / "events.csv"),
                   "--source", "C_CI", "--out", str(tmp_path / "curve.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()

    def test_separability_without_a_burn_event_is_an_error(self, scene_dir, tmp_path,
                                                            capsys, monkeypatch):
        header, rows = read_rows_csv(scene_dir / "events.csv")
        events = tmp_path / "events.csv"
        write_rows_csv(events, header, [r for r in rows if r[header.index("event")] != "burn"])

        def no_table(*args, **kwargs):
            raise AssertionError("built a feature table")
        monkeypatch.setattr(feats, "build_feature_table", no_table)
        rc = main(["separability", "--manifest", str(scene_dir / "scene_manifest.json"),
                   "--plots", str(scene_dir / "plots.csv"), "--events", str(events),
                   "--out", str(tmp_path / "curve.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {events}: the events file lists "
                                           "no burn event\n")
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("source, name", [("A_Foo", "Foo"), ("A_NBR", "NBR")])
    def test_separability_bad_source_is_an_error(self, scene_dir, tmp_path, capsys,
                                                 source, name):
        # An unknown index, and a sensor-A index that needs SWIR bands.
        rc = main(["separability",
                   "--manifest", str(scene_dir / "scene_manifest.json"),
                   "--plots", str(scene_dir / "plots.csv"),
                   "--events", str(scene_dir / "events.csv"),
                   "--source", source, "--out", str(tmp_path / "curve.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("command", ["ingest", "separability"])
    def test_input_without_a_column_is_an_error(self, scene_dir, tmp_path, capsys, command):
        # ingest reads a plots file without `group`; separability an events
        # file without `event`.
        args = ["--manifest", str(scene_dir / "scene_manifest.json")]
        if command == "ingest":
            plots = edited_plots(scene_dir, tmp_path / "plots.csv", drop_column("group"))
            args += ["--plots", str(plots), "--out", str(tmp_path / "out")]
            message = "plots.csv: missing column(s) ['group']"
        else:
            events = tmp_path / "events.csv"
            events.write_text("plot_id,date\np0000,2019-11-02\n")
            args += ["--plots", str(scene_dir / "plots.csv"), "--events", str(events),
                     "--out", str(tmp_path / "curve.csv")]
            message = "events.csv: missing column(s) ['event']"
        assert main([command, *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("edit, message", [
        (lambda header, rows: (header, [r[:1] + ["burnt"] + r[2:] for r in rows[:1]]
                               + rows[1:]),
         "data row 1: plot 'p0000': bad label 'burnt'"),
        (drop_column("group"), "missing column(s) ['group']"),
        (lambda header, rows: (header, [r[:3] + ["not a polygon"] for r in rows[:1]]
                               + rows[1:]),
         "data row 1: plot 'p0000': not a WKT polygon: 'not a polygon'"),
    ], ids=["typo-label", "no-group-column", "not-a-polygon"])
    def test_train_checks_the_plots_file(self, scene_dir, tmp_path, capsys, edit, message):
        feat_out = tmp_path / "features"
        assert main(["features", "--manifest", str(scene_dir / "scene_manifest.json"),
                     "--plots", str(scene_dir / "plots.csv"),
                     "--out", str(feat_out)]) == 0
        plots = edited_plots(scene_dir, tmp_path / "plots.csv", edit)
        rc = main(["train", "--features", str(feat_out / "features.csv"),
                   "--plots", str(plots), "--n-trees", "5", "--out", str(tmp_path / "model")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"plots.csv: {message}" in err
        assert not (tmp_path / "model" / "scores.csv").exists()

    def test_train_without_labeled_plots_is_an_error(self, scene_dir, tmp_path,
                                                     capsys):
        feat_out = tmp_path / "features"
        assert main(["features", "--manifest", str(scene_dir / "scene_manifest.json"),
                     "--plots", str(scene_dir / "plots.csv"),
                     "--out", str(feat_out)]) == 0
        header, rows = read_rows_csv(scene_dir / "plots.csv")
        label = header.index("label")
        unlabeled = tmp_path / "plots.csv"
        write_rows_csv(unlabeled, header,
                       [r[:label] + ["unlabeled"] + r[label + 1:] for r in rows])
        rc = main(["train", "--features", str(feat_out / "features.csv"),
                   "--plots", str(unlabeled), "--n-trees", "5",
                   "--out", str(tmp_path / "model")])
        assert rc == 1
        assert "error: no labeled plots with feature rows" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, name, text, message", [
        ("threshold", "--scores", "scores.csv", "",
         "missing column(s) ['plot_id', 'mean_score', 'label', 'group']"),
        ("report", "--predictions", "predictions.csv", "",
         "missing column(s) ['plot_id', 'mean_score', 'call_max', 'call_balanced', "),
        ("threshold", "--scores", "scores.csv",
         "plot_id,mean_score,label,group\np0000,0.5,burned\n",
         "data row 1: 3 field(s), expected 4"),
        ("threshold", "--scores", "scores.csv",
         "plot_id,mean_score,label,group\np0000,0.5,burned,treatment\np0001,x,burned,treatment\n",
         "data row 2: plot 'p0001': could not convert string to float: 'x'"),
        ("report", "--predictions", "predictions.csv",
         "plot_id,mean_score,call_max,call_balanced,label,group\np0000,0.5,1\n",
         "data row 1: 3 field(s), expected 6"),
        ("threshold", "--scores", "scores.csv",
         "plot_id,mean_score,label,group\np0000,0.5,burned,treatment\np0001,0.4,burnt,control\n",
         "data row 2: plot 'p0001': bad label 'burnt'"),
        ("threshold", "--scores", "scores.csv",
         "plot_id,mean_score,label,group\np0000,0.5,burned,sideways\n",
         "data row 1: plot 'p0000': bad group 'sideways'"),
        ("threshold", "--scores", "scores.csv",
         "plot_id,mean_score,label,group\np0000,0.5,burned,treatment\n"
         "p0000,0.2,not_burned,control\n",
         "data row 2: plot 'p0000': listed more than once"),
        ("report", "--predictions", "predictions.csv",
         "plot_id,mean_score,call_max,call_balanced,label,group\n"
         "p0000,0.5,1,7,unlabeled,none\n",
         "data row 1: plot 'p0000': calls (1, 7) are not each 0 or 1"),
        ("report", "--predictions", "predictions.csv",
         "plot_id,mean_score,call_max,call_balanced,label,group\n"
         "p0000,0.5,1,1,unlabeled,none\np0001,nan,1,0,unlabeled,none\n",
         "data row 2: plot 'p0001': mean_score nan is not finite"),
        ("report", "--predictions", "predictions.csv",
         "plot_id,mean_score,call_max,call_balanced,label,group\n"
         "p0000,0.5,1,1,unlabeled,none\np0001,inf,1,0,unlabeled,none\n",
         "data row 2: plot 'p0001': mean_score inf is not finite"),
        ("report", "--predictions", "predictions.csv",
         "plot_id,mean_score,call_max,call_balanced,label,group\n"
         "p0000,0.5,1,1,unlabeled,none\np0001,-inf,1,0,unlabeled,none\n",
         "data row 2: plot 'p0001': mean_score -inf is not finite"),
        ("train", "--features", "features.csv", "", "missing column(s) ['plot_id', "),
        ("train", "--features", "features.csv",
         "plot_id,pixel_id,n_obs_A,n_obs_B,A_NIR_max\np0000,x0,3,2,0.5\n",
         "missing column(s) ['border']"),
        ("train", "--features", "features.csv",
         FEATURE_HEADER + "p0000,x0,0,3,2,0.5\np0000,x1,0,3,2,oops\n",
         "could not convert string 'oops'"),
        ("train", "--features", "features.csv",
         FEATURE_HEADER + "p0000,x0,0,3,2,0.5\np0000,x1,0,3\n", "at row 2"),
    ], ids=["empty-scores", "empty-predictions", "short-score-row", "non-numeric-score",
            "short-prediction-row", "unknown-label", "unknown-group", "repeated-plot",
            "call-not-0-or-1", "nan-prediction-score", "inf-prediction-score",
            "minus-inf-prediction-score", "empty-features", "no-border-column",
            "non-numeric-feature", "short-feature-row"])
    def test_malformed_input_csv_is_an_error(self, scene_dir, tmp_path, capsys,
                                             command, flag, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        args = [command, flag, str(path), "--out", str(tmp_path / "out")]
        if command == "train":
            args += ["--plots", str(scene_dir / "plots.csv"), "--n-trees", "2"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{name}: " in err and message in err

    @pytest.mark.parametrize("score", ["inf", "-inf", "nan"])
    def test_non_finite_score_is_an_error(self, tmp_path, capsys, score):
        path = tmp_path / "scores.csv"
        path.write_text("plot_id,mean_score,label,group\n"
                        f"p0000,0.5,burned,treatment\np0001,{score},not_burned,control\n"
                        "p0002,0.2,not_burned,control\n")
        out = tmp_path / "out"
        assert main(["threshold", "--scores", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"scores.csv: data row 2: plot 'p0001': mean_score {score} is not finite" in err
        assert not (out / "predictions.csv").exists()

    def test_infinite_plot_vertex_is_an_error(self, scene_dir, tmp_path, capsys):
        def edit(header, rows):
            j = header.index("wkt_polygon")
            first = rows[0][:j] + ["POLYGON ((0 0, inf 0, 9 9, 0 9))"] + rows[0][j + 1:]
            return header, [first, *rows[1:]]
        plots = edited_plots(scene_dir, tmp_path / "plots.csv", edit)
        assert main(["ingest", "--manifest", str(scene_dir / "scene_manifest.json"),
                     "--plots", str(plots), "--out", str(tmp_path / "out")]) == 1
        assert ("plots.csv: data row 1: plot 'p0000': WKT coordinate 'inf 0' is not finite"
                in capsys.readouterr().err)

    @pytest.mark.filterwarnings("error")
    def test_huge_plot_vertex_is_an_error(self, scene_dir, tmp_path, capsys):
        # Finite, but its products overflow the float range.
        def edit(header, rows):
            j = header.index("wkt_polygon")
            first = rows[0][:j] + ["POLYGON ((0 0, 1e308 0, 1e308 9, 0 9))"] + rows[0][j + 1:]
            return header, [first, *rows[1:]]
        plots = edited_plots(scene_dir, tmp_path / "plots.csv", edit)
        assert main(["ingest", "--manifest", str(scene_dir / "scene_manifest.json"),
                     "--plots", str(plots), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "plots.csv: data row 1: plot 'p0000': polygon coordinates overflow" in err
        assert not (tmp_path / "out" / "gaps.csv").exists()


class TestRunCommand:
    def test_synth_flag_runs_the_default_scenario(self):
        config = _load_run_config(build_parser().parse_args(["run", "--synth"]))
        assert config.scenario == ScenarioConfig()

    def test_run_takes_a_flag_for_every_config_field(self):
        """run spells each RunConfig field but scenario as its RUN_FLAGS flag,
        and every other command that reads a field spells it the same way."""
        (subparsers,) = [a for a in build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        fields = [f.name for f in dataclasses.fields(pipe.RunConfig) if f.name != "scenario"]
        for command, parser in subparsers.choices.items():
            flags = {a.dest: a.option_strings for a in parser._actions if a.dest in fields}
            if command == "run":
                assert set(flags) == set(fields)
            if command != "synth":  # synth's --seed is the scenario's
                assert flags == {name: [RUN_FLAGS[name][0]] for name in flags}, command

    def test_no_border_flag_and_config_record_the_same_config(self, tmp_path):
        cfg = {"scenario": SCENARIO_DOC, "n_trees": 2, "cv_mode": "grouped:2",
               "min_leaf": 2}
        plain, unbordered = tmp_path / "plain.json", tmp_path / "unbordered.json"
        plain.write_text(json.dumps(cfg))
        unbordered.write_text(json.dumps(dict(cfg, include_border=False)))
        runs = tmp_path / "runs"
        for args in (["--config", str(plain), "--no-border"], ["--config", str(unbordered)]):
            assert main(["run", *args, "--out-root", str(runs)]) == 0
        manifests = [json.loads((run_dir / "run_manifest.json").read_text())
                     for run_dir in runs.iterdir()]
        assert len(manifests) == 2 and manifests[0]["config"]["include_border"] is False
        assert (manifests[0]["config"] == manifests[1]["config"]
                and manifests[0]["config_hash"] == manifests[1]["config_hash"])
        feature_args = ["features", "--manifest", "m", "--plots", "p", "--out", "o"]
        assert _load_run_config(build_parser().parse_args(feature_args)).include_border
        assert not _load_run_config(
            build_parser().parse_args([*feature_args, "--no-border"])).include_border

    def test_full_run_from_config_file(self, tmp_path):
        cfg = {"scenario": SCENARIO_DOC, "n_trees": 15, "cv_mode": "grouped:4",
               "min_leaf": 2, "name": "clitest"}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path), "--out-root", str(tmp_path)])
        assert rc == 0
        run_dirs = [d for d in os.listdir(tmp_path) if d.startswith("clitest-")]
        assert len(run_dirs) == 1
        assert (tmp_path / run_dirs[0] / "predictions.csv").exists()

    def test_ablate_against_self(self, tmp_path):
        cfg = {"scenario": SCENARIO_DOC, "n_trees": 10, "cv_mode": "grouped:4",
               "min_leaf": 2, "name": "ab"}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path),
                     "--out-root", str(tmp_path)]) == 0
        run_dir = next(tmp_path / d for d in os.listdir(tmp_path)
                       if d.startswith("ab-"))
        out = tmp_path / "ablation.csv"
        rc = main(["ablate", "--run", f"one={run_dir}", "--run", f"two={run_dir}",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_rows_csv(out)
        assert len(rows) == 4

    def test_ablate_skips_blank_lines(self, file_run, tmp_path):
        spaced = tmp_path / "spaced"
        shutil.copytree(file_run, spaced)
        for name in ("predictions.csv", "confusion_max.csv"):
            (spaced / name).write_text((spaced / name).read_text().replace("\n", "\n\n"))
        out = tmp_path / "ablation.csv"
        assert main(["ablate", "--run", f"a={file_run}", "--run", f"b={spaced}",
                     "--out", str(out)]) == 0
        _, rows = read_rows_csv(out)
        assert [row[1:] for row in rows[:2]] == [row[1:] for row in rows[2:]]

    @pytest.mark.parametrize("name, edit, message", [
        ("predictions.csv", lambda text: text.replace("\n", "\np9999,0.5,1\n", 1),
         "data row 1: 3 field(s), expected 6"),
        ("predictions.csv",
         lambda text: text.replace("\n", "\np9999,nan,1,0,unlabeled,none\n", 1),
         "data row 1: plot 'p9999': mean_score nan is not finite"),
        ("confusion_max.csv", lambda text: text.replace("threshold,", "thresh,", 1),
         "missing measure(s) ['threshold']"),
        ("confusion_balanced.csv", lambda text: text + "true_burn,4\n",
         "data row 11: measure 'true_burn': listed more than once"),
        ("confusion_max.csv", lambda text: text.replace("\nfalse_burn,", "\nfalse_burn,x", 1),
         "data row 3: measure 'false_burn': invalid literal for int()"),
        ("confusion_max.csv",
         lambda text: text.replace("\nburn_accuracy,", "\nburn_accuracy,x", 1),
         "data row 8: measure 'burn_accuracy': could not convert string to float"),
    ], ids=["short-prediction-row", "nan-prediction-score", "no-threshold",
            "repeated-measure", "non-numeric-count", "non-numeric-accuracy"])
    def test_ablate_checks_each_run(self, file_run, tmp_path, capsys, name, edit, message):
        broken = tmp_path / "broken"
        shutil.copytree(file_run, broken)
        path = broken / name
        path.write_text(edit(path.read_text()))
        out = tmp_path / "ablation.csv"
        assert main(["ablate", "--run", f"good={file_run}", "--run", f"bad={broken}",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path}: {message}" in err
        assert not out.exists()

    def test_ablate_repeated_label_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "ablation.csv"
        rc = main(["ablate", "--run", f"a={tmp_path / 'x'}", "--run", f"a={tmp_path / 'y'}",
                   "--out", str(out)])
        assert rc == 1
        assert "label 'a'" in capsys.readouterr().err
        assert not out.exists()

    def test_ablate_run_without_a_label_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "ablation.csv"
        assert main(["ablate", "--run", str(tmp_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: --run expects label=dir, got ")
        assert not out.exists()

    def test_missing_input_gives_nonzero_exit(self, tmp_path):
        rc = main(["ingest", "--manifest", str(tmp_path / "nope.json"),
                   "--plots", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert rc == 1

    def test_stage_failure_gives_nonzero_exit(self, tmp_path, capsys):
        # Every plot burned: the train stage refuses a single-class training set.
        cfg = {"scenario": dict(SCENARIO_DOC, burn_probability=1.0), "n_trees": 5,
               "min_leaf": 2}
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path), "--out-root", str(tmp_path)])
        assert rc == 1
        assert "stage 'train' failed: training data contains a single class" in \
            capsys.readouterr().err


    @pytest.mark.parametrize("command, cfg, unknown", [
        ("run", {"scenario": SCENARIO_DOC, "bsi_exponent": 1.0, "max_features": "sqrt"},
         "run config key(s) ['bsi_exponent', 'max_features']"),
        ("run", {"scenario": dict(SCENARIO_DOC, plots=3)}, "scenario key(s) ['plots']"),
        ("synth", {"scenario": {"n_plotz": 3}}, "scenario key(s) ['n_plotz']"),
        ("synth", {"scenario": {"n_plots": 4}, "n_treez": 5}, "run config key(s) ['n_treez']"),
        ("synth", dict(SCENARIO_DOC, plots=3), "scenario key(s) ['plots']"),
    ], ids=["run-config", "scenario", "synth-run-config", "synth-run-config-key",
            "synth-scenario"])
    def test_unknown_config_key_is_an_error(self, tmp_path, capsys, command, cfg, unknown):
        cfg_path = tmp_path / "old.json"
        cfg_path.write_text(json.dumps(cfg))
        out = ["--out-root" if command == "run" else "--out", str(tmp_path / "runs")]
        rc = main([command, "--config", str(cfg_path), *out])
        assert rc == 1
        assert f"error: {cfg_path}: unknown {unknown}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command, text, message", [
        ("run", "[1, 2]", "bad.json must be a JSON object, got list"),
        ("synth", "[1, 2]", "bad.json must be a JSON object, got list"),
        ("run", '{"scenario": 5}', 'bad.json: "scenario" must be a JSON object, got int'),
        ("synth", '{"scenario": 5}', 'bad.json: "scenario" must be a JSON object, got int'),
        ("synth", '{"scenario": null}',
         'bad.json: "scenario" must be a JSON object, got NoneType'),
    ], ids=["run-array", "synth-array", "run-scenario-number", "synth-scenario-number",
            "synth-scenario-null"])
    def test_config_that_is_not_an_object_is_an_error(self, tmp_path, capsys, command, text,
                                                      message):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(text)
        out = ["--out-root", str(tmp_path / "runs")] if command == "run" else [
            "--out", str(tmp_path / "runs")]
        rc = main([command, "--config", str(cfg_path), *out])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "runs").exists()


    @pytest.mark.parametrize("cfg, message", [
        ({"scenario": {"burn_probability": "0.5"}},
         "burn_probability must be a number in [0, 1], got '0.5'"),
        ({"scenario": {"char_half_life_vis": None}},
         "char_half_life_vis must be a number greater than 0, got None"),
        ({"scenario": {"n_cloud_events": 2.5}},
         "n_cloud_events must be an integer of at least 0, got 2.5"),
        ({"scenario": SCENARIO_DOC, "sensor_mode": ["A"]}, "sensor_mode must be one of"),
        ({"scenario": SCENARIO_DOC, "name": 5}, "name must be a string, got 5"),
        ({"scenario": SCENARIO_DOC, "plots_path": "plots.csv"},
         "not both: scenario is set, and so is plots_path"),
    ], ids=["probability-string", "half-life-null", "events-float", "mode-list",
            "name-number", "scenario-and-plots"])
    def test_config_field_of_the_wrong_type_is_an_error(self, tmp_path, capsys, cfg, message):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path), "--out-root", str(tmp_path / "runs")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "runs").exists()

    def test_synth_flag_with_files_is_an_error(self, scene_dir, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setattr(pipe, "run_pipeline", lambda config: pytest.fail("a run started"))
        rc = main(["run", "--synth", "--manifest", str(scene_dir / "scene_manifest.json"),
                   "--out-root", str(tmp_path / "runs")])
        assert rc == 1
        assert ("error: a run reads either a scenario or files, not both: scenario is set, "
                "and so is manifest_path") in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_mode_the_manifest_cannot_serve_fails_at_ingest(self, scene_dir, tmp_path,
                                                            capsys):
        doc = json.loads((scene_dir / "scene_manifest.json").read_text())
        doc["entries"] = [dict(e, grid=str(scene_dir / e["grid"]),
                               mask=e["mask"] and str(scene_dir / e["mask"]))
                          for e in doc["entries"] if e["sensor"] == "A"]
        manifest = tmp_path / "a_only.json"
        manifest.write_text(json.dumps(doc))
        rc = main(["run", "--manifest", str(manifest), "--plots", str(scene_dir / "plots.csv"),
                   "--sensor-mode", "B_only", "--out-root", str(tmp_path / "runs")])
        assert rc == 1
        assert (f"error: stage 'ingest' failed: sensor_mode 'B_only' reads sensor B, "
                f"but {manifest} has only sensor A") in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation_exit_codes(self, tmp_path):
        # The child runs this checkout's package, with or without PYTHONPATH.
        env = dict(os.environ, PLOTBURN_OUT=str(tmp_path),
                   PYTHONPATH=os.path.dirname(os.path.dirname(plotburn.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "plotburn.cli", "ingest", "--manifest",
             "missing.json", "--plots", "missing.csv", "--out", str(tmp_path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "error" in proc.stderr.lower()
        proc = subprocess.run([sys.executable, "-m", "plotburn.cli", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        for sub in ("synth", "ingest", "features", "separability", "train",
                    "threshold", "report", "run", "ablate"):
            assert sub in proc.stdout
