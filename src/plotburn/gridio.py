"""File formats: ASCII grids, scene manifests, plot/endmember/event CSVs.

Grid file: one header line "ncols nrows xll yll cellsize nodata" followed by
nrows rows of ncols ASCII floats, top row first. The manifest is JSON with a
reflectance scale divisor (10000 for DN-scaled grids, 1 for unit reflectance)
and one entry per (sensor, date, band) grid, plus an optional cloud
probability grid per observation.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import os
from collections import defaultdict

import numpy as np

from .indices import SWIR_SET, EndmemberSet
from .resample import upsample_cubic
from .scene import (MASKED_FILL, SENSOR_BANDS, AlignmentError, BandObservation,
                    GridGeometry, Plot, SceneCube, SceneError, make_plot)

DEFAULT_NODATA = -9999.0
DEFAULT_SCALE = 10000.0
DEFAULT_CLOUD_THRESHOLD = 0.5


class FormatError(ValueError):
    pass


def write_grid(path, grid: np.ndarray, geom: GridGeometry, valid=None,
               nodata: float = DEFAULT_NODATA) -> None:
    grid = np.asarray(grid, dtype=float)
    if grid.shape != geom.shape:
        raise AlignmentError("grid shape does not match geometry")
    out = grid.copy()
    if valid is not None:
        out[~valid] = nodata
    out[~np.isfinite(out)] = nodata
    with open(path, "w") as fh:
        fh.write(f"{geom.ncols} {geom.nrows} {float(geom.xll)!r} {float(geom.yll)!r} "
                 f"{float(geom.cellsize)!r} {float(nodata)!r}\n")
        for row in out:
            fh.write(" ".join(repr(float(v)) for v in row))
            fh.write("\n")


def read_grid(path):
    """Returns (values, valid, geom); nodata cells are invalid and NaN-filled."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 6:
            raise FormatError(f"{path}: bad grid header")
        ncols, nrows = int(header[0]), int(header[1])
        geom = GridGeometry(ncols, nrows, float(header[2]), float(header[3]),
                            float(header[4]))
        nodata = float(header[5])
        data = np.loadtxt(fh, dtype=float, ndmin=2)
    if data.shape != (nrows, ncols):
        raise FormatError(f"{path}: expected {nrows}x{ncols} values, got {data.shape}")
    valid = data != nodata
    values = np.where(valid, data, np.nan)
    return values, valid, geom


def write_scene_manifest(path, entries: list[dict], scale: float = 1.0,
                         cloud_threshold: float = DEFAULT_CLOUD_THRESHOLD) -> None:
    doc = {"scale": scale, "cloud_threshold": cloud_threshold, "entries": entries}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_scene_manifest(path):
    """Load a manifest into one SceneCube per sensor, all on one common grid.

    Every grid file is parsed once. Bands of one (sensor, date) share a
    validity mask: a pixel is valid only when every band carries data, its
    value lands in [0, 1] after scaling, and the cloud probability (when
    provided) stays below the threshold. The common grid is the finest
    sensor's geometry (on a tie, the first sensor in sorted order). Coarser
    grids must share its top-left corner; they are upsampled by their integer
    cellsize factor with cubic convolution and clipped back to the unit range.
    """
    with open(path) as fh:
        doc = json.load(fh)
    scale = float(doc.get("scale", DEFAULT_SCALE))
    threshold = float(doc.get("cloud_threshold", DEFAULT_CLOUD_THRESHOLD))
    base = os.path.dirname(os.path.abspath(path))

    grouped: dict[tuple[str, dt.date], dict] = defaultdict(dict)
    masks: dict[tuple[str, dt.date], str] = {}
    for entry in doc["entries"]:
        sensor = entry["sensor"]
        if sensor not in SENSOR_BANDS:
            raise FormatError(f"{path}: unknown sensor {sensor!r} "
                              f"(allowed: {', '.join(sorted(SENSOR_BANDS))})")
        date = dt.date.fromisoformat(entry["date"])
        band = entry["band"]
        if band in grouped[(sensor, date)]:
            raise FormatError(f"duplicate grid for {sensor} {date} {band}")
        grouped[(sensor, date)][band] = os.path.join(base, entry["grid"])
        if entry.get("mask"):
            masks[(sensor, date)] = os.path.join(base, entry["mask"])
    if not grouped:
        raise FormatError(f"{path}: the manifest lists no grids")

    native = []
    geom_by_sensor: dict[str, GridGeometry] = {}
    for (sensor, date), band_paths in sorted(grouped.items()):
        expected = SENSOR_BANDS[sensor]
        missing = [b for b in expected if b not in band_paths]
        if missing:
            raise FormatError(f"{sensor} {date}: missing band grids {missing}")
        bands = {}
        valid = None
        geom = None
        for band in expected:
            values, ok, g = read_grid(band_paths[band])
            if geom is None:
                geom = g
            elif g != geom:
                raise AlignmentError(f"{sensor} {date}: band grids disagree on geometry")
            values = values / scale
            ok = ok & np.isfinite(values) & (values >= 0.0) & (values <= 1.0)
            bands[band] = values
            valid = ok if valid is None else (valid & ok)
        if (sensor, date) in masks:
            prob, mask_ok, g = read_grid(masks[(sensor, date)])
            if g != geom:
                raise AlignmentError(f"{sensor} {date}: cloud mask geometry mismatch")
            valid &= mask_ok & (prob < threshold)
        geom_by_sensor.setdefault(sensor, geom)
        if geom != geom_by_sensor[sensor]:
            raise AlignmentError(f"sensor {sensor}: observations disagree on geometry")
        native.append((sensor, date, bands, valid, geom))

    target = min(geom_by_sensor.values(), key=lambda g: g.cellsize)
    cubes: dict[str, list[BandObservation]] = defaultdict(list)
    for sensor, date, bands, valid, geom in native:
        if geom != target:
            bands, valid = _resample_to(bands, valid, geom, target, f"{sensor} {date}")
        for grid in bands.values():
            grid[~valid] = MASKED_FILL
        cubes[sensor].append(BandObservation(sensor, date, bands, valid, target))
    return {sensor: SceneCube(obs, target) for sensor, obs in cubes.items()}


def _resample_to(bands, valid, geom: GridGeometry, target: GridGeometry, label: str):
    top_left = (geom.xll, geom.yll + geom.nrows * geom.cellsize)
    target_top_left = (target.xll, target.yll + target.nrows * target.cellsize)
    if any(abs(a - b) > 1e-6 * target.cellsize for a, b in zip(top_left, target_top_left)):
        raise AlignmentError(f"{label}: grid top-left corner {top_left} is not the "
                             f"common grid's {target_top_left}")
    ratio = geom.cellsize / target.cellsize
    factor = int(round(ratio))
    if abs(ratio - factor) > 1e-9 or factor < 1:
        raise SceneError(f"{label}: cellsize {geom.cellsize} is not an integer "
                         f"multiple of {target.cellsize}")
    fine = {}
    fine_valid = None
    for name, grid in bands.items():
        up, ok = upsample_cubic(grid, factor, valid)
        fine[name] = np.clip(up, 0.0, 1.0)
        fine_valid = ok if fine_valid is None else (fine_valid & ok)
    fine_valid = fine_valid[:target.nrows, :target.ncols]
    fine = {k: v[:target.nrows, :target.ncols] for k, v in fine.items()}
    if fine_valid.shape != target.shape:
        raise AlignmentError(f"{label}: resampled grid does not cover the common grid")
    return fine, fine_valid


def format_wkt_polygon(polygon) -> str:
    coords = ", ".join(f"{float(x)!r} {float(y)!r}" for x, y in polygon)
    return f"POLYGON (({coords}))"


def parse_wkt_polygon(wkt: str) -> list[tuple[float, float]]:
    text = wkt.strip()
    if not text.upper().startswith("POLYGON"):
        raise FormatError(f"not a WKT polygon: {wkt[:40]!r}")
    inner = text[text.index("((") + 2:text.rindex("))")]
    pts = []
    for pair in inner.split(","):
        xs = pair.split()
        if len(xs) != 2:
            raise FormatError(f"bad WKT coordinate {pair!r}")
        pts.append((float(xs[0]), float(xs[1])))
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts = pts[:-1]
    return pts


def write_plots_csv(path, plots: list[Plot]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["plot_id", "label", "group", "wkt_polygon"])
        for p in plots:
            w.writerow([p.plot_id, p.label, p.group, format_wkt_polygon(p.polygon)])


def read_plots_csv(path, geom: GridGeometry) -> list[Plot]:
    plots = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            polygon = parse_wkt_polygon(row["wkt_polygon"])
            plots.append(make_plot(row["plot_id"], polygon, geom,
                                   row["label"], row["group"]))
    return plots


def write_endmembers_csv(path, endmembers: EndmemberSet) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", *SWIR_SET])
        for name, spec in (("veg", endmembers.veg), ("soil", endmembers.soil),
                           ("char", endmembers.char)):
            w.writerow([name, *[repr(float(v)) for v in np.asarray(spec)]])


def read_endmembers_csv(path) -> EndmemberSet:
    spectra = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            spectra[row["name"]] = np.array([float(row[b]) for b in SWIR_SET])
    missing = {"veg", "soil", "char"} - set(spectra)
    if missing:
        raise FormatError(f"endmember file missing rows {sorted(missing)}")
    return EndmemberSet(spectra["veg"], spectra["soil"], spectra["char"])


def write_events_csv(path, events: list[tuple[str, str, dt.date]]) -> None:
    """Events are (plot_id, kind, date) with kind in {burn, till}."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["plot_id", "event", "date"])
        for plot_id, kind, date in events:
            w.writerow([plot_id, kind, date.isoformat()])


def read_events_csv(path) -> list[tuple[str, str, dt.date]]:
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["event"] not in ("burn", "till"):
                raise FormatError(f"unknown event kind {row['event']!r}")
            out.append((row["plot_id"], row["event"], dt.date.fromisoformat(row["date"])))
    return out


def write_rows_csv(path, header: list[str], rows) -> None:
    """Deterministic CSV writer: floats via repr, None as empty field."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(["" if v is None else
                        (repr(float(v)) if isinstance(v, float) else v) for v in row])


def read_rows_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]
