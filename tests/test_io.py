import json

import numpy as np
import pytest

from test_features import assert_same_table

from plotburn.features import build_feature_table
from plotburn.gridio import (FormatError, format_wkt_polygon, parse_wkt_polygon,
                             read_endmembers_csv, read_events_csv, read_grid,
                             read_plots_csv, read_rows_csv, read_scene_manifest,
                             write_endmembers_csv, write_events_csv, write_grid,
                             write_rows_csv, write_scene_manifest)
from plotburn.scene import SENSOR_BANDS, AlignmentError, GridGeometry
from plotburn.synth import (ScenarioConfig, default_endmembers, generate,
                            write_scenario)

SMALL = ScenarioConfig(n_plots=6, plot_area_mean_ha=0.03,
                       plot_area_median_ha=0.025, seed=3)
FINE = GridGeometry(12, 12, 0.0, 0.0, 3.0)
COARSE = GridGeometry(6, 6, 0.0, 0.0, 6.0)


def write_two_sensor_manifest(root, geom_b=COARSE, dates_a=1, mask=False):
    """Sensor A on FINE and one sensor-B date on geom_b, unit-scaled.

    Returns the manifest path and every distinct grid file it lists. With
    mask=True each observation gets a cloud-probability grid (all clear).
    """
    rng = np.random.default_rng(4)
    entries = []
    files = []
    dates = {"A": [f"2019-10-{20 + i}" for i in range(dates_a)], "B": ["2019-11-01"]}
    for sensor, geom in (("A", FINE), ("B", geom_b)):
        for date in dates[sensor]:
            mask_name = f"{sensor}_{date}_cloud.grid" if mask else None
            if mask:
                write_grid(root / mask_name, np.zeros(geom.shape), geom)
                files.append(mask_name)
            for band in SENSOR_BANDS[sensor]:
                name = f"{sensor}_{date}_{band}.grid"
                write_grid(root / name, rng.uniform(0.1, 0.9, geom.shape), geom)
                files.append(name)
                entries.append({"sensor": sensor, "date": date, "band": band,
                                "grid": name, "mask": mask_name})
    write_scene_manifest(root / "m.json", entries, scale=1.0)
    return root / "m.json", files


class TestGridFiles:
    def test_round_trip_exact(self, tmp_path):
        geom = GridGeometry(7, 5, 10.0, -3.5, 3.0)
        rng = np.random.default_rng(0)
        grid = rng.uniform(0, 1, geom.shape)
        valid = rng.random(geom.shape) > 0.2
        path = tmp_path / "band.grid"
        write_grid(path, grid, geom, valid)
        values, ok, geom2 = read_grid(path)
        assert geom2 == geom
        assert np.array_equal(ok, valid)
        assert np.array_equal(values[valid], grid[valid])
        assert np.isnan(values[~valid]).all()

    def test_shape_mismatch_detected(self, tmp_path):
        path = tmp_path / "bad.grid"
        path.write_text("3 2 0.0 0.0 1.0 -9999.0\n1 2 3\n")
        with pytest.raises(FormatError):
            read_grid(path)


class TestWkt:
    def test_round_trip(self):
        polygon = [(1.5, 2.25), (4.0, 2.25), (4.0, 6.5)]
        assert parse_wkt_polygon(format_wkt_polygon(polygon)) == polygon

    def test_closed_ring_unclosed(self):
        pts = parse_wkt_polygon("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))")
        assert pts == [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]

    def test_rejects_non_polygon(self):
        with pytest.raises(FormatError):
            parse_wkt_polygon("LINESTRING (0 0, 1 1)")


class TestManifest:
    def test_scenario_round_trip_equals_memory(self, tmp_path):
        scenario = generate(SMALL)
        paths = write_scenario(tmp_path / "scene", scenario)
        cubes = read_scene_manifest(paths["manifest"])
        for mem_cube, sensor in ((scenario.cube_a, "A"), (scenario.cube_b, "B")):
            file_cube = cubes[sensor]
            assert file_cube.dates == mem_cube.dates
            for fo, mo in zip(file_cube.observations, mem_cube.observations):
                assert np.array_equal(fo.valid, mo.valid)
                for band in mo.bands:
                    want = np.asarray(mo.bands[band], dtype=float)
                    got = fo.bands[band]
                    assert np.array_equal(got[fo.valid], want[mo.valid])
        plots = read_plots_csv(paths["plots"], scenario.cube_a.geom)
        assert [p.plot_id for p in plots] == [p.plot_id for p in scenario.plots]
        for a, b in zip(plots, scenario.plots):
            assert np.array_equal(a.rows, b.rows)
            assert np.array_equal(a.cols, b.cols)
            assert np.array_equal(a.border, b.border)
            assert a.label == b.label and a.group == b.group

    def test_manifest_order_is_irrelevant(self, tmp_path):
        scenario = generate(SMALL)
        out = tmp_path / "scene"
        paths = write_scenario(out, scenario)
        with open(paths["manifest"]) as fh:
            doc = json.load(fh)
        rng = np.random.default_rng(1)
        doc["entries"] = [doc["entries"][i]
                          for i in rng.permutation(len(doc["entries"]))]
        shuffled = out / "shuffled.json"
        with open(shuffled, "w") as fh:
            json.dump(doc, fh)
        cubes_a = read_scene_manifest(paths["manifest"])
        cubes_b = read_scene_manifest(shuffled)
        plots = read_plots_csv(paths["plots"], scenario.cube_a.geom)
        table_a = build_feature_table(cubes_a["A"], cubes_a["B"], plots, ["NDVI"])
        table_b = build_feature_table(cubes_b["A"], cubes_b["B"], plots, ["NDVI"])
        assert len(table_a) == sum(p.n_pixels for p in plots)
        assert_same_table(table_a, table_b)

    def test_duplicate_entry_rejected(self, tmp_path):
        scenario = generate(SMALL)
        paths = write_scenario(tmp_path / "scene", scenario)
        with open(paths["manifest"]) as fh:
            doc = json.load(fh)
        doc["entries"].append(doc["entries"][0])
        bad = tmp_path / "scene" / "dup.json"
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(FormatError, match="duplicate"):
            read_scene_manifest(bad)

    def test_unknown_sensor_rejected(self, tmp_path):
        write_grid(tmp_path / "g.grid", np.full((2, 2), 0.5), GridGeometry(2, 2, 0.0, 0.0, 3.0))
        write_scene_manifest(tmp_path / "m.json", [
            {"sensor": "C", "date": "2019-10-20", "band": "NIR", "grid": "g.grid",
             "mask": None}])
        with pytest.raises(FormatError, match=r"unknown sensor 'C' \(allowed: A, B\)"):
            read_scene_manifest(tmp_path / "m.json")

    def test_dn_scale_and_cloud_mask(self, tmp_path):
        geom = GridGeometry(6, 6, 0.0, 0.0, 3.0)
        rng = np.random.default_rng(2)
        entries = []
        for band in ("Blue", "Green", "Red", "NIR"):
            dn = np.round(rng.uniform(0, 10000, geom.shape))
            write_grid(tmp_path / f"{band}.grid", dn, geom)
            entries.append({"sensor": "A", "date": "2019-10-20", "band": band,
                            "grid": f"{band}.grid", "mask": "cloud.grid"})
        prob = np.zeros(geom.shape)
        prob[0, :3] = 0.9
        write_grid(tmp_path / "cloud.grid", prob, geom)
        write_scene_manifest(tmp_path / "m.json", entries, scale=10000.0)
        cube = read_scene_manifest(tmp_path / "m.json")["A"]
        obs = cube.observations[0]
        assert not obs.valid[0, :3].any()
        assert obs.valid[1:].all()
        assert np.nanmax(obs.bands["Red"]) <= 1.0

    def test_out_of_range_values_marked_invalid(self, tmp_path):
        geom = GridGeometry(5, 5, 0.0, 0.0, 3.0)
        entries = []
        for band in ("Blue", "Green", "Red", "NIR"):
            grid = np.full(geom.shape, 0.5)
            if band == "Red":
                grid[2, 2] = 1.7
            write_grid(tmp_path / f"{band}.grid", grid, geom)
            entries.append({"sensor": "A", "date": "2019-10-20", "band": band,
                            "grid": f"{band}.grid", "mask": None})
        write_scene_manifest(tmp_path / "m.json", entries, scale=1.0)
        obs = read_scene_manifest(tmp_path / "m.json")["A"].observations[0]
        assert not obs.valid[2, 2]
        assert obs.valid.sum() == 24

    def test_coarse_sensor_upsampled_to_target(self, tmp_path):
        path, _ = write_two_sensor_manifest(tmp_path)
        cubes = read_scene_manifest(path)
        assert cubes["A"].geom == FINE and cubes["B"].geom == FINE
        obs = cubes["B"].observations[0]
        assert obs.bands["NIR"].shape == FINE.shape
        original, _, _ = read_grid(tmp_path / "B_2019-11-01_NIR.grid")
        # Sample-aligned upsampling reproduces the coarse samples exactly.
        assert np.allclose(obs.bands["NIR"][::2, ::2], original, atol=1e-9)

    @pytest.mark.parametrize("geom_b, aligned", [
        (GridGeometry(7, 7, 0.0, -6.0, 6.0), True),
        (GridGeometry(6, 6, 60.0, 0.0, 6.0), False),
        (GridGeometry(6, 6, 1e6, 0.0, 6.0), False),
        (GridGeometry(12, 12, 30.0, 0.0, 3.0), False),
    ], ids=["aligned-larger", "shifted-60m", "1000km-away", "fine-shifted-origin"])
    def test_grid_must_share_top_left_corner(self, tmp_path, geom_b, aligned):
        path, _ = write_two_sensor_manifest(tmp_path, geom_b=geom_b)
        if aligned:
            cubes = read_scene_manifest(path)
            assert cubes["A"].geom == FINE and cubes["B"].geom == FINE
        else:
            with pytest.raises(AlignmentError, match="B 2019-11-01"):
                read_scene_manifest(path)


def write_masked_scene(root, prob, mask_geom, cloud_threshold=0.5):
    """One sensor-A date, every band 0.4 on a 5 x 5 grid, with a cloud mask."""
    geom = GridGeometry(5, 5, 0.0, 0.0, 3.0)
    entries = []
    for band in SENSOR_BANDS["A"]:
        write_grid(root / f"{band}.grid", np.full(geom.shape, 0.4), geom)
        entries.append({"sensor": "A", "date": "2019-10-20", "band": band,
                        "grid": f"{band}.grid", "mask": "cloud.grid"})
    write_grid(root / "cloud.grid", prob, mask_geom)
    write_scene_manifest(root / "m.json", entries, scale=1.0,
                         cloud_threshold=cloud_threshold)
    return read_scene_manifest(root / "m.json")["A"].observations[0]


class TestCloudMask:
    """The manifest's cloud rule: a pixel is valid while prob < cloud_threshold."""

    def test_zero_probabilities_leave_mask_unchanged(self, tmp_path):
        obs = write_masked_scene(tmp_path, np.zeros((5, 5)), GridGeometry(5, 5, 0.0, 0.0, 3.0))
        assert obs.valid.all()

    def test_all_cloud_masks_everything(self, tmp_path):
        obs = write_masked_scene(tmp_path, np.ones((5, 5)), GridGeometry(5, 5, 0.0, 0.0, 3.0))
        assert not obs.valid.any()
        for grid in obs.bands.values():
            assert np.isnan(grid).all()

    def test_exactly_k_cells_newly_invalid(self, tmp_path):
        prob = np.random.default_rng(3).uniform(0, 1, (5, 5))
        # A probability exactly at the threshold is cloud; one just below is not.
        prob[0, 0], prob[0, 1] = 0.25, np.nextafter(0.25, 0.0)
        obs = write_masked_scene(tmp_path, prob, GridGeometry(5, 5, 0.0, 0.0, 3.0),
                                 cloud_threshold=0.25)
        assert not obs.valid[0, 0] and obs.valid[0, 1]
        assert int((~obs.valid).sum()) == int((prob >= 0.25).sum())
        for grid in obs.bands.values():
            assert np.isnan(grid[~obs.valid]).all()
            assert (grid[obs.valid] == 0.4).all()

    def test_misaligned_grid_raises(self, tmp_path):
        with pytest.raises(AlignmentError, match="cloud mask geometry mismatch"):
            write_masked_scene(tmp_path, np.zeros((4, 4)), GridGeometry(4, 4, 0.0, 0.0, 3.0))


class TestSmallCsvs:
    def test_endmembers_round_trip(self, tmp_path):
        em = default_endmembers()
        write_endmembers_csv(tmp_path / "em.csv", em)
        back = read_endmembers_csv(tmp_path / "em.csv")
        assert np.array_equal(back.veg, np.asarray(em.veg))
        assert np.array_equal(back.char, np.asarray(em.char))

    def test_events_round_trip(self, tmp_path):
        import datetime as dt

        events = [("p1", "burn", dt.date(2019, 11, 2)),
                  ("p2", "till", dt.date(2019, 11, 5))]
        write_events_csv(tmp_path / "ev.csv", events)
        assert read_events_csv(tmp_path / "ev.csv") == events

    def test_rows_csv_floats_exact(self, tmp_path):
        rows = [["a", 0.1 + 0.2, None], ["b", 1.0 / 3.0, 7]]
        write_rows_csv(tmp_path / "r.csv", ["k", "x", "n"], rows)
        header, back = read_rows_csv(tmp_path / "r.csv")
        assert header == ["k", "x", "n"]
        assert float(back[0][1]) == 0.1 + 0.2
        assert float(back[1][1]) == 1.0 / 3.0
        assert back[0][2] == ""
