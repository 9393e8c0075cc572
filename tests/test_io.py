import json
import re
import tracemalloc

import numpy as np
import pytest

from conftest import read_rows_csv
from test_features import assert_same_table

from plotburn import gridio
from plotburn.cli import main
from plotburn.features import build_feature_table
from plotburn.indices import SWIR_SET
from plotburn.gridio import (FormatError, format_wkt_polygon, parse_wkt_polygon,
                             read_endmembers_csv, read_events_csv, read_grid,
                             read_plots_csv, read_scene_manifest,
                             scan_scene_manifest, write_endmembers_csv, write_events_csv,
                             write_grid, write_plots_csv, write_rows_csv,
                             write_scene_manifest)
from plotburn.pipeline import PipelineError, RunConfig, run_pipeline
from plotburn.resample import upsample_cubic
from plotburn.scene import SENSOR_BANDS, AlignmentError, GridGeometry, SceneError, make_plot
from plotburn.synth import (ScenarioConfig, default_endmembers, generate,
                            write_scenario)

SMALL = ScenarioConfig(n_plots=6, plot_area_mean_ha=0.03,
                       plot_area_median_ha=0.025, seed=3)
FINE = GridGeometry(12, 12, 0.0, 0.0, 3.0)
COARSE = GridGeometry(6, 6, 0.0, 0.0, 6.0)


def write_two_sensor_manifest(root, geom_b=COARSE, dates_a=1, mask=False, dates_b=1):
    """Sensor A on FINE and sensor B on geom_b, unit-scaled.

    Returns the manifest path and every distinct grid file it lists. With
    mask=True each observation gets a cloud-probability grid (all clear).
    """
    rng = np.random.default_rng(4)
    entries = []
    files = []
    dates = {"A": [f"2019-10-{20 + i}" for i in range(dates_a)],
             "B": [f"2019-11-{1 + i:02d}" for i in range(dates_b)]}
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

    def test_listed_rows_converted_and_the_rest_invalid(self, tmp_path):
        geom = GridGeometry(4, 6, 0.0, 0.0, 1.0)
        grid = np.random.default_rng(1).uniform(0, 1, geom.shape)
        write_grid(tmp_path / "band.grid", grid, geom)
        values, ok, _ = read_grid(tmp_path / "band.grid", [0, 3, 5])
        # Only the listed rows come back; the rest are not converted.
        assert values.shape == ok.shape == (3, 4) and ok.all()
        assert np.array_equal(values, grid[[0, 3, 5]])
        values, ok, _ = read_grid(tmp_path / "band.grid", [5, 1], range(1, 3))
        assert values.shape == ok.shape == (2, 2) and ok.all()
        assert np.array_equal(values, grid[np.ix_([5, 1], [1, 2])])

    @pytest.mark.parametrize("rows", [[0, 6], [-1]], ids=["past-the-end", "negative"])
    def test_rows_outside_the_grid_rejected(self, tmp_path, rows):
        write_grid(tmp_path / "band.grid", np.zeros((6, 4)), GridGeometry(4, 6, 0.0, 0.0, 1.0))
        with pytest.raises(IndexError, match=r"band.grid: rows must lie in 0\.\.5"):
            read_grid(tmp_path / "band.grid", rows)

    def test_shape_mismatch_detected(self, tmp_path):
        path = tmp_path / "bad.grid"
        path.write_text("3 2 0.0 0.0 1.0 -9999.0\n1 2 3\n")
        with pytest.raises(FormatError):
            read_grid(path)

    @pytest.mark.parametrize("header", ["3.0 2 0 0 1 -9999", "3 2.5 0 0 1 -9999",
                                        "3 2 west 0 1 -9999", "3 2 0 0 1 none",
                                        "0 2 0 0 1 -9999", "3 -2 0 0 1 -9999",
                                        "3 2 0 0 0 -9999", "3 2 0 0 -1 -9999",
                                        "3 2 0 0 nan -9999", "3 2 0 0 1"],
                             ids=["float-ncols", "float-nrows", "text-xll", "text-nodata",
                                  "zero-ncols", "negative-nrows", "zero-cellsize",
                                  "negative-cellsize", "nan-cellsize", "five-fields"])
    def test_malformed_header_fails_naming_the_file(self, tmp_path, header):
        path = tmp_path / "bad.grid"
        path.write_text(header + "\n1 2 3\n4 5 6\n")
        with pytest.raises(FormatError, match=r"bad.grid: line 1: bad grid header"):
            read_grid(path)
        with pytest.raises(FormatError, match=r"bad.grid: line 1: bad grid header"):
            gridio._read_grid_header(path)

    @pytest.mark.parametrize("body", ["1 2\n\n3 4\n", "1 2\n# note\n3 4\n",
                                      "1 2\n3 4\n\n"],
                             ids=["blank-line", "comment-line", "blank-last-line"])
    def test_every_line_is_a_grid_row(self, tmp_path, body):
        path = tmp_path / "bad.grid"
        path.write_text("2 2 0.0 0.0 1.0 -9999.0\n" + body)
        with pytest.raises(FormatError, match="bad.grid"):
            read_grid(path, rows=[])

    @pytest.mark.parametrize("token", ["1_0", "0x1", "1.2.3", "--1", "1e", ".", "nan", "-inf",
                                       "1e999", "+.5", "5.", "0.0000000000000000000001"])
    def test_unconverted_rows_accept_what_conversion_accepts(self, tmp_path, token):
        path = tmp_path / "g.grid"
        path.write_text(f"2 2 0.0 0.0 1.0 -9999.0\n0.5 0.25\n0.5 {token}\n")
        try:
            np.loadtxt([token])
        except ValueError:
            with pytest.raises(FormatError, match="line 3"):
                read_grid(path, rows=[0])
        else:
            values, ok, _ = read_grid(path, rows=[0])
            assert ok.shape == (1, 2) and ok.all()

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "lone-cr"])
    def test_cr_line_endings_read_as_lf(self, tmp_path, newline):
        geom = GridGeometry(5, 4, 0.0, 0.0, 1.0)
        valid = np.ones(geom.shape, dtype=bool)
        valid[1, 2] = False
        write_grid(tmp_path / "lf.grid", np.random.default_rng(2).uniform(0, 1, geom.shape),
                   geom, valid)
        (tmp_path / "cr.grid").write_bytes(
            (tmp_path / "lf.grid").read_bytes().replace(b"\n", newline))
        for rows, cols in ((None, None), ([1, 3], range(1, 4))):
            want, want_ok, want_geom = read_grid(tmp_path / "lf.grid", rows, cols)
            got, got_ok, got_geom = read_grid(tmp_path / "cr.grid", rows, cols)
            assert got_geom == want_geom == geom
            assert np.array_equal(got_ok, want_ok)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert gridio._read_grid_header(tmp_path / "cr.grid") == geom

    @pytest.mark.parametrize("where", ["header", "converted-row", "unconverted-row"])
    def test_non_utf8_byte_fails_naming_the_file(self, tmp_path, where):
        lines = [b"2 2 0.0 0.0 1.0 -9999.0", b"0.5 0.25", b"0.5 0.75"]
        line = {"header": 0, "converted-row": 1, "unconverted-row": 2}[where]
        lines[line] += b" \xe9"
        path = tmp_path / "latin1.grid"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(FormatError, match=rf"latin1.grid: line {line + 1}.* not UTF-8"):
            read_grid(path, rows=[0])

    def test_column_block_tokenised_like_the_full_line(self, tmp_path):
        lines = ["3 3 0.0 0.0 1.0 -9999.0",
                 "\t 0.5\t\t0.25   -9999.0  ",
                 "1e-3 \t .75\t1.5 # trailing comment",
                 "  2.0 3.0 4.0#comment"]
        path = tmp_path / "ws.grid"
        path.write_text("\n".join(lines) + "\n")
        full, full_ok, _ = read_grid(path)
        assert np.array_equal(full_ok, [[1, 1, 0], [1, 1, 1], [1, 1, 1]])
        for rows in ([0, 1, 2], [2], [0, 2]):
            for cols in (range(0, 1), range(1, 2), range(2, 3), range(1, 3), range(0, 3)):
                got, ok, _ = read_grid(path, rows, cols)
                want = np.ix_(rows, cols)
                assert np.array_equal(ok, full_ok[want])
                assert np.array_equal(got.view(np.int64), full[want].view(np.int64))

    def test_line_longer_than_a_block_taken_whole(self, tmp_path):
        path = tmp_path / "wide.grid"
        gap = " " * (gridio.GRID_BLOCK_BYTES + 1)
        path.write_text(f"2 2 0.0 0.0 1.0 -9999.0\n0.5{gap}0.25\n1.0 2.0{gap}\n")
        values, ok, _ = read_grid(path)
        assert ok.all() and np.array_equal(values, [[0.5, 0.25], [1.0, 2.0]])
        values, ok, _ = read_grid(path, [1], [1])
        assert ok.all() and np.array_equal(values, [[2.0]])

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "lone-cr"])
    def test_no_final_newline(self, tmp_path, newline):
        path = tmp_path / "open.grid"
        path.write_bytes(newline.join(["2 3 0.0 0.0 1.0 -9999.0", "0.5 0.25", "1 2",
                                       "3 -9999.0"]).encode())
        values, ok, _ = read_grid(path)
        assert np.array_equal(ok, [[1, 1], [1, 1], [1, 0]])
        assert np.array_equal(values[ok], [0.5, 0.25, 1.0, 2.0, 3.0])
        values, ok, _ = read_grid(path, [2, 0], [0])
        assert ok.all() and np.array_equal(values, [[3.0], [0.5]])

    @pytest.mark.parametrize("nrows", [3, 5])
    def test_line_count_reported_before_a_bad_line(self, tmp_path, nrows):
        # The bad line comes first, but the count is only known at the end.
        path = tmp_path / "bad.grid"
        path.write_text(f"2 {nrows} 0.0 0.0 1.0 -9999.0\n0.5 x\n" + "0.5 0.25\n" * 3)
        with pytest.raises(FormatError,
                           match=rf"bad.grid: expected {nrows} rows of values, got 4 lines"):
            read_grid(path, rows=[])


class TestGridFilesInSmallBlocks(TestGridFiles):
    """Every TestGridFiles case again at blocks of 1 and 7 bytes, so every
    line is longer than a block and reads end inside lines and line ends."""

    @pytest.fixture(autouse=True, params=[1, 7], ids=lambda n: f"block-{n}")
    def block_bytes(self, request, monkeypatch):
        monkeypatch.setattr(gridio, "GRID_BLOCK_BYTES", request.param)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "lone-cr"])
@pytest.mark.parametrize("final", [True, False], ids=["final-newline", "no-final-newline"])
def test_every_block_size_reads_the_same_grid(tmp_path, monkeypatch, newline, final):
    # Some sizes end a read between a line's CR and LF (15 of the 264 with
    # CRLF), and most end reads inside a line.
    geom = GridGeometry(3, 4, 0.0, 0.0, 1.0)
    grid = np.random.default_rng(6).uniform(0, 1, geom.shape)
    valid = np.ones(geom.shape, dtype=bool)
    valid[2, 1] = False
    write_grid(tmp_path / "lf.grid", grid, geom, valid)
    text = (tmp_path / "lf.grid").read_bytes()
    text = text.replace(b"\n", newline)[:None if final else -len(newline)]
    (tmp_path / "g.grid").write_bytes(text)
    for size in range(1, len(text) + 2):
        monkeypatch.setattr(gridio, "GRID_BLOCK_BYTES", size)
        for rows in (None, [3, 0, 3]):
            values, ok, got_geom = read_grid(tmp_path / "g.grid", rows)
            want = np.s_[:] if rows is None else rows
            assert got_geom == geom
            assert np.array_equal(ok, valid[want])
            assert np.array_equal(values[ok], grid[want][valid[want]])


def test_read_grid_memory_is_a_block_plus_the_rows_converted(tmp_path, monkeypatch):
    monkeypatch.setattr(gridio, "GRID_BLOCK_BYTES", 1 << 16)
    geom = GridGeometry(500, 200, 0.0, 0.0, 3.0)
    path = tmp_path / "tile.grid"
    grid = np.random.default_rng(7).uniform(0, 1, geom.shape)
    write_grid(path, grid, geom)
    size = path.stat().st_size
    read_grid(path, [0])  # the first conversion imports numpy modules; not a read's cost
    tracemalloc.start()
    try:
        values, ok, _ = read_grid(path, range(90, 110))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok.all() and np.array_equal(values, grid[90:110])
    assert size > 1_900_000 and peak < size / 2


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
        first = doc["entries"][0]
        doc["entries"].append(first)
        bad = tmp_path / "scene" / "dup.json"
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(FormatError, match=rf"dup.json: entries\[{len(doc['entries']) - 1}\]: "
                           rf"duplicate grid for {first['sensor']} {first['date']} "
                           rf"{first['band']}, first listed at entries\[0\]"):
            read_scene_manifest(bad)

    def test_unknown_sensor_rejected(self, tmp_path):
        write_grid(tmp_path / "g.grid", np.full((2, 2), 0.5), GridGeometry(2, 2, 0.0, 0.0, 3.0))
        write_scene_manifest(tmp_path / "m.json", [
            {"sensor": "C", "date": "2019-10-20", "band": "NIR", "grid": "g.grid",
             "mask": None}])
        with pytest.raises(FormatError,
                           match=r"m.json: entries\[0\]: unknown sensor 'C' \(allowed: A, B\)"):
            read_scene_manifest(tmp_path / "m.json")

    @pytest.mark.parametrize("band, grid", [("Bleu", None), ("SWIR1", "absent.grid")],
                             ids=["typo", "other-sensors-band"])
    def test_band_the_sensor_lacks_is_rejected(self, tmp_path, band, grid):
        path, _ = write_two_sensor_manifest(tmp_path)
        doc = json.loads(path.read_text())
        first_a = next(e for e in doc["entries"] if e["sensor"] == "A")
        # The band is checked before any grid header is read: absent.grid
        # does not exist.
        doc["entries"].append(dict(first_a, band=band, grid=grid or first_a["grid"]))
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=rf"m.json: entries\[{len(doc['entries']) - 1}\]: "
                           rf"sensor A has no band '{band}' \(bands: Blue, Green, Red, NIR\)"):
            scan_scene_manifest(path)

    def test_missing_band_fails_naming_the_pass_first_entry(self, tmp_path):
        path, _ = write_two_sensor_manifest(tmp_path)
        doc = json.loads(path.read_text())
        doc["entries"] = [e for e in doc["entries"]
                          if (e["sensor"], e["band"]) != ("B", "NIR")]
        path.write_text(json.dumps(doc))
        first_b = len(SENSOR_BANDS["A"])
        with pytest.raises(FormatError, match=rf"m.json: entries\[{first_b}\]: B 2019-11-01: "
                           r"missing band grids \['NIR'\]"):
            scan_scene_manifest(path)

    @pytest.mark.parametrize("broken, message", [
        ({"band": None}, r"entries\[1\]: missing key 'band'"),
        ({"grid": None}, r"entries\[1\]: missing key 'grid'"),
        ({"date": "2019-13-01"}, r"entries\[1\]: bad date '2019-13-01' \(month must be"),
        ({"date": 20191020}, r"entries\[1\]: bad date 20191020"),
    ], ids=["no-band", "no-grid", "month-13", "date-not-text"])
    def test_bad_entry_fails_naming_the_manifest_and_entry(self, tmp_path, broken, message):
        path, _ = write_two_sensor_manifest(tmp_path)
        doc = json.loads(path.read_text())
        doc["entries"][1].update(broken)
        doc["entries"][1] = {k: v for k, v in doc["entries"][1].items() if v is not None}
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"m.json: " + message):
            scan_scene_manifest(path)

    @pytest.mark.parametrize("doc, message", [
        ([], r'a manifest is a JSON object with an "entries" list'),
        ({"scale": 1.0}, r'a manifest is a JSON object with an "entries" list'),
        ({"entries": {}}, r'a manifest is a JSON object with an "entries" list'),
        ("oops", r"entries\[1\]: an entry is a JSON object, got 'oops'"),
    ], ids=["top-level-list", "no-entries", "entries-not-a-list", "string-entry"])
    def test_malformed_manifest_fails_naming_the_manifest(self, tmp_path, doc, message):
        path, _ = write_two_sensor_manifest(tmp_path)
        if doc == "oops":
            doc = json.loads(path.read_text())
            doc["entries"].insert(1, "oops")
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"m.json: " + message):
            scan_scene_manifest(path)

    @pytest.mark.parametrize("top, entry, message", [
        ({"scale": 0}, {}, r"'scale' must be a number greater than 0, got 0\.0"),
        ({"scale": -1}, {}, r"'scale' must be a number greater than 0, got -1\.0"),
        ({"scale": float("nan")}, {}, r"'scale' must be a finite number, got nan"),
        ({"scale": None}, {}, r"'scale' must be a finite number, got None"),
        ({"scale": "abc"}, {}, r"'scale' must be a finite number, got 'abc'"),
        ({"scale": True}, {}, r"'scale' must be a finite number, got True"),
        ({"cloud_threshold": float("inf")}, {},
         r"'cloud_threshold' must be a finite number, got inf"),
        ({"cloud_threshold": "0.5"}, {},
         r"'cloud_threshold' must be a finite number, got '0\.5'"),
        ({}, {"sensor": ["A"]}, r"entries\[1\]: 'sensor' must be a string, got \['A'\]"),
        ({}, {"band": 7}, r"entries\[1\]: 'band' must be a string, got 7"),
        ({}, {"grid": 3}, r"entries\[1\]: 'grid' must be a string, got 3"),
        ({}, {"mask": 5}, r"entries\[1\]: 'mask' must be a string or null, got 5"),
    ], ids=["scale-0", "scale-negative", "scale-nan", "scale-null", "scale-text",
            "scale-bool", "threshold-inf", "threshold-text", "sensor-list", "band-number",
            "grid-number", "mask-number"])
    def test_bad_manifest_value_fails_naming_the_manifest(self, tmp_path, top, entry,
                                                          message):
        path, _ = write_two_sensor_manifest(tmp_path)
        doc = json.loads(path.read_text())
        doc.update(top)
        doc["entries"][1].update(entry)
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"m.json: " + message):
            scan_scene_manifest(path)

    @pytest.mark.parametrize("geom_b, message", [
        (GridGeometry(8, 8, 0.0, 0.0, 4.5), "not an integer multiple"),
        (GridGeometry(8, 3, 0.0, 0.0, 12.0), "needs at least 4x4 cells"),
    ], ids=["bad-factor", "3-row-grid"])
    def test_coarse_grid_checked_at_scan(self, tmp_path, monkeypatch, geom_b, message):
        # The geometry is wrong from the headers alone, so no cell is read.
        path, _ = write_two_sensor_manifest(tmp_path, geom_b=geom_b)
        monkeypatch.setattr(gridio, "read_grid", None)
        with pytest.raises(SceneError, match="B 2019-11-01: .*" + message):
            scan_scene_manifest(path)

    @pytest.mark.parametrize("row, message", [
        ('far,burned,none,"POLYGON ((900 900, 903 900, 903 903, 900 903))"',
         "plot 'far': polygon lies outside the grid extent"),
        ('p2,burnt,none,"POLYGON ((0 0, 9 0, 9 9, 0 9))"', "plot 'p2': bad label 'burnt'"),
        ('p3,burned,none,"POLYGON ((0 0, 9 0, 9 9 9))"', "plot 'p3': bad WKT coordinate"),
        ('p4,burned,none,"POLYGON ((0 0, inf 0, 9 9, 0 9))"',
         "plot 'p4': WKT coordinate 'inf 0' is not finite"),
        ('p5,burned,none,"POLYGON ((0 0, 9 0, 9 nan, 0 9))"',
         "plot 'p5': WKT coordinate '9 nan' is not finite"),
        ('p6,burned,none,"POLYGON (0 0, 9 0, 9 9, 0 9)"',
         r"plot 'p6': WKT polygon without its \(\(...\)\) ring"),
    ], ids=["outside-grid", "bad-label", "bad-wkt", "inf-vertex", "nan-vertex", "no-ring"])
    def test_bad_plot_fails_naming_the_file_and_plot(self, tmp_path, row, message):
        path = tmp_path / "plots.csv"
        path.write_text("plot_id,label,group,wkt_polygon\n"
                        f'p1,burned,none,"POLYGON ((0 0, 9 0, 9 9, 0 9))"\n{row}\n')
        with pytest.raises(FormatError, match=r"plots.csv: data row 2: " + message):
            read_plots_csv(path, FINE)

    def test_one_pass_with_two_cloud_masks_rejected(self, tmp_path):
        path, _ = write_two_sensor_manifest(tmp_path, mask=True)
        doc = json.loads(path.read_text())
        assert [e["band"] for e in doc["entries"][:2]] == ["Blue", "Green"]
        doc["entries"][1]["mask"] = "other_cloud.grid"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=re.escape(
                "m.json: entries[1]: A 2019-10-20: cloud mask 'other_cloud.grid' "
                "differs from entries[0]'s")):
            scan_scene_manifest(path)

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

    def test_coarse_pass_upsampled_in_one_call(self, tmp_path, monkeypatch):
        path, _ = write_two_sensor_manifest(tmp_path, dates_b=2)
        shapes = []

        def recording_upsample(grid, *args):
            shapes.append(grid.shape)
            return upsample_cubic(grid, *args)

        monkeypatch.setattr(gridio, "upsample_cubic", recording_upsample)
        cubes = read_scene_manifest(path)
        assert len(cubes["B"].observations) == 2
        assert shapes == [(len(SENSOR_BANDS["B"]), *COARSE.shape)] * 2

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


# A 3 m grid and a 9 m grid over the same 72 m x 54 m tile.
TILE_FINE = GridGeometry(24, 18, 0.0, 0.0, 3.0)
TILE_COARSE = GridGeometry(8, 6, 0.0, 0.0, 9.0)


def write_tile_scene(root):
    """Sensor A on TILE_FINE and B on TILE_COARSE, one date each, with nodata
    cells and a cloud mask on both. A coarse cell masks every fine cell whose
    cubic taps reach it, so B gets one nodata and two cloudy cells."""
    rng = np.random.default_rng(7)
    entries = []
    for sensor, geom in (("A", TILE_FINE), ("B", TILE_COARSE)):
        mask = f"{sensor}_cloud.grid"
        if sensor == "A":
            prob = rng.uniform(0.0, 0.55, geom.shape)
        else:
            prob = np.full(geom.shape, 0.3)
            prob[2, 6] = prob[5, 5] = 0.9
        write_grid(root / mask, prob, geom)
        for band in SENSOR_BANDS[sensor]:
            name = f"{sensor}_{band}.grid"
            if sensor == "A":
                valid = rng.random(geom.shape) > 0.05
            else:
                valid = np.ones(geom.shape, dtype=bool)
                valid[0, 3] = band != "Red"
            write_grid(root / name, rng.uniform(0.05, 0.95, geom.shape), geom, valid)
            entries.append({"sensor": sensor, "date": "2019-10-20", "band": band,
                            "grid": name, "mask": mask})
    write_scene_manifest(root / "m.json", entries, scale=1.0)
    return root / "m.json"


def rows_plot(first, last, cols=(1, 12)):
    """A plot over the centres of TILE_FINE rows first..last and columns cols."""
    geom = TILE_FINE
    top = geom.yll + (geom.nrows - first) * geom.cellsize - 0.5
    bottom = geom.yll + (geom.nrows - last - 1) * geom.cellsize + 0.5
    left = geom.xll + cols[0] * geom.cellsize + 0.5
    right = geom.xll + (cols[1] + 1) * geom.cellsize - 0.5
    plot = make_plot("p", [(left, bottom), (right, bottom), (right, top),
                           (left, top)], geom, "burned")
    assert (plot.rows.min(), plot.rows.max()) == (first, last)
    return plot


def assert_plot_pixels_equal_a_full_read(path, plot):
    """Reading the plot's window gives every plot pixel the bits of a full read."""
    full = read_scene_manifest(path)
    window = read_scene_manifest(scan_scene_manifest(path), plot.rows, plot.cols)
    origin = (plot.rows.min(), plot.cols.min())
    shape = (plot.rows.max() + 1 - origin[0], plot.cols.max() + 1 - origin[1])
    for sensor in ("A", "B"):
        assert full[sensor].origin == (0, 0) and full[sensor].geom == TILE_FINE
        assert window[sensor].origin == origin
        assert window[sensor].geom == TILE_FINE.window(*origin, *shape)
        (want,) = full[sensor].observations
        (got,) = window[sensor].observations
        at_full = full[sensor].index(plot.rows, plot.cols)
        at = window[sensor].index(plot.rows, plot.cols)
        assert want.valid[at_full].any()
        assert np.array_equal(got.valid[at], want.valid[at_full])
        for band, values in want.bands.items():
            ok = want.valid[at_full]
            assert got.bands[band].shape == shape
            assert np.array_equal(got.bands[band][at][ok].view(np.int64),
                                  values[at_full][ok].view(np.int64))
            assert np.isnan(got.bands[band][~got.valid]).all()


class TestPlotRowWindows:
    """Reading only the rows plots touch gives every plot pixel the bits of a
    full read, at the window's edges and through the cubic taps of the 3x
    coarser sensor."""

    @pytest.mark.parametrize("first, last", [(0, 0), (0, 1), (17, 17), (16, 17), (2, 3),
                                             (5, 6), (8, 8), (0, 17)],
                             ids=["first-row", "top-two", "last-row", "bottom-two",
                                  "straddles-coarse-rows-0-1", "straddles-coarse-rows-1-2",
                                  "coarse-row-middle", "every-row"])
    def test_plot_pixels_equal_a_full_read(self, tmp_path, first, last):
        assert_plot_pixels_equal_a_full_read(write_tile_scene(tmp_path),
                                             rows_plot(first, last))

    def test_rows_between_plots_are_held_invalid(self, tmp_path):
        path = write_tile_scene(tmp_path)
        top, bottom = rows_plot(2, 3), rows_plot(9, 10)
        rows = np.concatenate([top.rows, bottom.rows])
        cols = np.concatenate([top.cols, bottom.cols])
        for cube in read_scene_manifest(scan_scene_manifest(path), rows, cols).values():
            assert cube.origin == (2, 1) and cube.geom.shape == (9, 12)
            (obs,) = cube.observations
            assert obs.valid[[0, 1, 7, 8]].any(axis=1).all()
            assert not obs.valid[2:7].any()
            assert all(np.isnan(grid[2:7]).all() for grid in obs.bands.values())

    def test_coarse_rows_read_are_the_cubic_taps(self, tmp_path):
        layout = scan_scene_manifest(write_tile_scene(tmp_path))
        coarse = next(g for g in layout.passes if g.sensor == "B")
        # Fine row 0 samples coarse rows 0..2 (its top tap clamps to row 0),
        # fine rows 3..5 sit on coarse row 1 and sample rows 0..3, and fine
        # row 17 samples rows 4 and 5.
        for rows, source in (([0], [0, 1, 2]), ([3, 5], [0, 1, 2, 3]), ([17], [4, 5])):
            row_taps, _ = layout.taps(np.array(rows), np.arange(24))[coarse.sensor]
            assert row_taps.source.tolist() == source
        counts = layout.ingest_counts(np.array([17]), np.arange(24))
        assert counts == {"grids": 15, "cells": 5 * 24 * 18 + 10 * 8 * 6,
                          "cells_converted": 5 * 24 + 10 * 2 * 8}


class TestPlotColumnWindows:
    """Reading only the columns plots span gives every plot pixel the bits of
    a full read, at the tile's first and last columns and through the clamped
    cubic taps of the 3x coarser sensor."""

    @pytest.mark.parametrize("first, last", [(0, 0), (0, 1), (23, 23), (22, 23), (2, 3),
                                             (5, 6), (7, 7), (0, 23)],
                             ids=["first-col", "left-two", "last-col", "right-two",
                                  "straddles-coarse-cols-0-1", "straddles-coarse-cols-1-2",
                                  "coarse-col-middle", "every-col"])
    @pytest.mark.parametrize("rows", [(12, 15), (0, 17)], ids=["lower-rows", "every-row"])
    def test_plot_pixels_equal_a_full_read(self, tmp_path, first, last, rows):
        assert_plot_pixels_equal_a_full_read(write_tile_scene(tmp_path),
                                             rows_plot(*rows, cols=(first, last)))

    def test_coarse_cols_read_are_the_cubic_taps(self, tmp_path):
        layout = scan_scene_manifest(write_tile_scene(tmp_path))
        coarse = next(g for g in layout.passes if g.sensor == "B")
        # As for rows: fine column 0 samples coarse columns 0..2, fine
        # columns 2..3 straddle coarse columns 0 and 1, and fine column 23
        # samples the last two of the 8 coarse columns.
        for cols, source in (([0], [0, 1, 2]), ([2, 3], [0, 1, 2, 3]), ([23], [6, 7])):
            _, col_taps = layout.taps(np.arange(18), np.array(cols))[coarse.sensor]
            assert col_taps.source.tolist() == source
        counts = layout.ingest_counts(np.array([17]), np.arange(2, 4))
        assert counts["cells_converted"] == 5 * 2 + 10 * 2 * 4


def corrupt_line(path, row, kind):
    """Break data row `row` of a grid file: a bad token, a short row or no row."""
    lines = path.read_text().split("\n")
    fields = lines[row + 1].split()
    if kind == "token":
        fields[1] = "0.4x"
    elif kind == "ragged":
        fields.pop()
    lines[row + 1:row + 2] = [] if kind == "missing" else [" ".join(fields)]
    path.write_text("\n".join(lines))


class TestMalformedRowsOutsidePlots:
    @pytest.mark.parametrize("kind", ["token", "ragged", "missing"])
    @pytest.mark.parametrize("name, row", [("A_NIR.grid", 17), ("B_SWIR1.grid", 5),
                                           ("B_cloud.grid", 5)])
    def test_ingest_fails_naming_the_file(self, tmp_path, name, row, kind):
        path = write_tile_scene(tmp_path)
        plot = rows_plot(0, 2)
        write_plots_csv(tmp_path / "plots.csv", [plot])
        layout = scan_scene_manifest(path)
        plan = layout.taps(plot.rows, plot.cols)[name[0]]
        assert row not in (plot.rows if plan is None else plan[0].source)
        corrupt_line(tmp_path / name, row, kind)
        config = RunConfig(out_root=str(tmp_path / "runs"), manifest_path=str(path),
                           plots_path=str(tmp_path / "plots.csv"), n_trees=2)
        with pytest.raises(PipelineError) as err:
            run_pipeline(config)
        assert err.value.stage == "ingest"
        assert isinstance(err.value.cause, FormatError)
        assert name in str(err.value)
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert json.loads((run_dir / "run_manifest.json").read_text())["incomplete"] is True


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


PLOT_ROW = 'p1,burned,none,"POLYGON ((0 0, 9 0, 9 9, 0 9))"\n'
BANDS_HEADER = ",".join(SWIR_SET)


def read_plots(path):
    return read_plots_csv(path, FINE)


class TestSmallCsvs:
    @pytest.mark.parametrize("read, text, error, message", [
        (read_plots, "plot_id,label,wkt_polygon\n", FormatError,
         r"missing column\(s\) \['group'\]"),
        (read_plots, "", FormatError, r"missing column\(s\) \['plot_id', 'label'"),
        (read_plots, "plot_id,label,group,wkt_polygon\np1,burned\n", FormatError,
         r"data row 1: 2 field\(s\), expected 4"),
        (read_plots, "plot_id,label,group,wkt_polygon\np1,burned,none,\n", FormatError,
         r"data row 1: plot 'p1': not a WKT polygon"),
        (read_events_csv, "plot_id,date\np1,2019-11-02\n", FormatError,
         r"missing column\(s\) \['event'\]"),
        (read_events_csv, "plot_id,event,date\np1,burnt,2019-11-02\n", FormatError,
         r"data row 1: plot 'p1': unknown event kind 'burnt'"),
        (read_events_csv, "plot_id,event,date\np1,burn,2019-11-31\n", FormatError,
         r"data row 1: plot 'p1': day is out of range"),
        (read_events_csv, "plot_id,event,date\np1,burn\n", FormatError,
         r"data row 1: 2 field\(s\), expected 3"),
        (read_endmembers_csv, "name," + BANDS_HEADER.replace(",SWIR2", "") + "\n",
         FormatError, r"missing column\(s\) \['SWIR2'\]"),
        (read_endmembers_csv, BANDS_HEADER + "\n", FormatError,
         r"missing column\(s\) \['name'\]"),
    ], ids=["plots-no-group", "plots-empty", "plots-short-row", "plots-no-wkt",
            "events-no-event", "events-bad-kind", "events-bad-date", "events-short-row",
            "endmembers-no-band", "endmembers-no-name"])
    def test_bad_file_fails_naming_the_file(self, tmp_path, read, text, error, message):
        path = tmp_path / "input.csv"
        path.write_text(text)
        with pytest.raises(error, match=r"input.csv: " + message):
            read(path)

    def test_repeated_plot_id_rejected(self, tmp_path):
        path = tmp_path / "plots.csv"
        path.write_text("plot_id,label,group,wkt_polygon\n" + PLOT_ROW
                        + PLOT_ROW.replace("burned", "not_burned"))
        with pytest.raises(FormatError,
                           match=r"plots.csv: data row 2: plot 'p1': listed more than once"):
            read_plots_csv(path, FINE)

    def test_endmember_value_not_a_number(self, tmp_path):
        path = tmp_path / "em.csv"
        write_endmembers_csv(path, default_endmembers())
        header, veg, soil, char = path.read_text().splitlines()
        band = SWIR_SET[1]
        values = soil.split(",")
        values[1 + SWIR_SET.index(band)] = "x"
        path.write_text("\n".join([header, veg, ",".join(values), char]) + "\n")
        with pytest.raises(FormatError,
                           match=rf"em.csv: data row 2: endmember 'soil': {band} value 'x' "
                                 "is not a number"):
            read_endmembers_csv(path)

    @pytest.mark.parametrize("name, message", [
        ("soil", "endmember 'soil': listed more than once"),
        ("water", "unknown endmember 'water' (expected veg, soil, char)"),
    ], ids=["repeated", "unknown"])
    def test_endmember_name_is_known_and_listed_once(self, tmp_path, name, message):
        path = tmp_path / "em.csv"
        write_endmembers_csv(path, default_endmembers())
        with open(path, "a") as fh:
            fh.write(",".join([name] + ["0.9"] * len(SWIR_SET)) + "\n")
        with pytest.raises(FormatError, match=re.escape(f"em.csv: data row 4: {message}")):
            read_endmembers_csv(path)

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


def _endmember_rows():
    em = default_endmembers()
    return [[name, *map(repr, map(float, getattr(em, name)))] for name in ("veg", "soil", "char")]


# Each CSV input: its header, two good data rows, a second row holding a
# field that does not parse, and the reason that row fails with.
CSV_INPUTS = {
    "plots.csv": (["plot_id", "label", "group", "wkt_polygon"],
                  [["p1", "burned", "none", "POLYGON ((0 0, 9 0, 9 9, 0 9))"],
                   ["p2", "burned", "none", "POLYGON ((0 0, 9 0, 9 9, 0 9))"]],
                  ["p2", "burned", "none", "POLYGON ((0 0, 9 0, x 9, 0 9))"],
                  "plot 'p2': could not convert string to float: 'x'"),
    "events.csv": (["plot_id", "event", "date"],
                   [["p1", "burn", "2019-11-02"], ["p2", "till", "2019-11-05"]],
                   ["p2", "till", "2019-13-05"], "plot 'p2': month must be in 1..12"),
    "endmembers.csv": (["name", *SWIR_SET], _endmember_rows(),
                       ["soil", "x", *_endmember_rows()[1][2:]],
                       f"endmember 'soil': {SWIR_SET[0]} value 'x' is not a number"),
    "scores.csv": (["plot_id", "mean_score", "label", "group"],
                   [["p1", "0.8", "burned", "treatment"], ["p2", "0.2", "not_burned", "control"]],
                   ["p2", "low", "not_burned", "control"],
                   "plot 'p2': could not convert string to float: 'low'"),
    "predictions.csv": (["plot_id", "mean_score", "call_max", "call_balanced", "label", "group"],
                        [["p1", "0.8", "1", "1", "burned", "treatment"],
                         ["p2", "0.2", "0", "0", "not_burned", "control"]],
                        ["p2", "0.2", "no", "0", "not_burned", "control"],
                        "plot 'p2': invalid literal for int() with base 10: 'no'"),
}
# The stage command that reads a file the pipeline's own stages pass on.
STAGE_INPUTS = {"scores.csv": ("threshold", "--scores"),
                "predictions.csv": ("report", "--predictions")}
READERS = {"plots.csv": read_plots, "events.csv": read_events_csv,
           "endmembers.csv": read_endmembers_csv}


@pytest.mark.parametrize("name", CSV_INPUTS)
@pytest.mark.parametrize("case", ["short", "long", "unparseable"])
def test_malformed_row_fails_naming_the_file_and_data_row(tmp_path, capsys, name, case):
    """Every CSV input goes through gridio.read_csv_rows, so a row with too few
    fields, too many, or one that does not parse fails alike in each."""
    header, rows, unparseable, reason = CSV_INPUTS[name]
    n = len(header)
    bad, reason = {"short": (rows[1][:-1], f"{n - 1} field(s), expected {n}"),
                   "long": (rows[1] + ["extra"], f"{n + 1} field(s), expected {n}"),
                   "unparseable": (unparseable, reason)}[case]
    path = tmp_path / name
    write_rows_csv(path, header, [rows[0], bad, *rows[2:]])
    if name in STAGE_INPUTS:
        command, flag = STAGE_INPUTS[name]
        assert main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 1
        message = capsys.readouterr().err
    else:
        with pytest.raises(FormatError) as info:
            READERS[name](path)
        message = str(info.value)
    assert f"{name}: data row 2: {reason}" in message
