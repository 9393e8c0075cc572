"""File formats: ASCII grids, scene manifests, plot/endmember/event CSVs.

Grid file: UTF-8 text, one header line "ncols nrows xll yll cellsize nodata"
followed by exactly nrows lines of ncols ASCII floats, top row first; lines
end in LF, CRLF or CR. A blank or "#" comment line counts as a row and fails
the check. read_grid checks every line (the line count, and that each line
holds ncols numbers the converter accepts) but converts only the block of
rows and columns it is asked for, and returns just that block. It reads the
file in blocks of whole lines (GRID_BLOCK_BYTES, 1 MiB) and lets each go once
checked, so its peak memory is about one block's temporaries plus the rows
it converts, whatever the file's size.

The manifest is JSON with a reflectance scale divisor (10000 for DN-scaled
grids, 1 for unit reflectance) and one entry per (sensor, date, band) grid,
plus an optional cloud probability grid per observation. scan_scene_manifest
checks the manifest's values (scale a finite number above 0, cloud_threshold
a finite number, an entry's sensor, band and grid strings and its mask a
string or null, one cloud mask per pass), then reads only the grid headers
and checks the geometry; read_scene_manifest then reads each grid once,
converting only the cells a window of the common grid is computed from (for
a coarser sensor, the cells under their cubic taps), and holds each pass as
window-sized arrays.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import itertools
import json
import math
import os
import warnings
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from .indices import SWIR_SET, EndmemberSet
from .resample import cubic_taps, upsample_cubic
from .scene import (GROUPS, LABELS, MASKED_FILL, SENSOR_BANDS, AlignmentError,
                    BandObservation, GridGeometry, Plot, SceneCube, SceneError, make_plot)

DEFAULT_NODATA = -9999.0
DEFAULT_SCALE = 10000.0
DEFAULT_CLOUD_THRESHOLD = 0.5
# The JSON types of a manifest entry's grid fields.
_ENTRY_TYPES = {"sensor": str, "band": str, "grid": str, "mask": (str, type(None))}
PLOT_COLUMNS = ["plot_id", "label", "group", "wkt_polygon"]
# The rows of an endmember file, in EndmemberSet's order.
ENDMEMBERS = ("veg", "soil", "char")


class FormatError(ValueError):
    pass


def write_grid(path, grid: np.ndarray, geom: GridGeometry, valid=None) -> None:
    grid = np.asarray(grid, dtype=float)
    if grid.shape != geom.shape:
        raise AlignmentError("grid shape does not match geometry")
    out = grid.copy()
    if valid is not None:
        out[~valid] = DEFAULT_NODATA
    out[~np.isfinite(out)] = DEFAULT_NODATA
    with open(path, "w") as fh:
        fh.write(f"{geom.ncols} {geom.nrows} {float(geom.xll)!r} {float(geom.yll)!r} "
                 f"{float(geom.cellsize)!r} {DEFAULT_NODATA!r}\n")
        for row in out:
            fh.write(" ".join(repr(float(v)) for v in row))
            fh.write("\n")


def _parse_header(path, line: bytes) -> tuple[GridGeometry, float]:
    try:
        ncols, nrows, xll, yll, cellsize, nodata = line.decode().split()
        geom = GridGeometry(int(ncols), int(nrows), float(xll), float(yll), float(cellsize))
        return geom, float(nodata)
    except UnicodeDecodeError:
        raise FormatError(f"{path}: line 1 is not UTF-8 text") from None
    except ValueError as exc:  # SceneError included
        raise FormatError(f"{path}: line 1: bad grid header ({exc})") from None


def _read_grid_header(path) -> GridGeometry:
    """The geometry a grid file's header line declares; no row is read."""
    with open(path, "rb") as fh:
        head = b""
        for chunk in iter(lambda: fh.read(1 << 12), b""):
            head += chunk
            if b"\n" in chunk or b"\r" in chunk:
                break
    return _parse_header(path, head.splitlines()[0] if head else head)[0]


_DIGITS_TO_ZERO = bytes.maketrans(b"123456789", b"000000000")
# read_grid reads and checks a grid this many bytes at a time, rounded to
# whole lines.
GRID_BLOCK_BYTES = 1 << 20


def _parse_rows(lines: list[str], cols=None) -> np.ndarray:
    with warnings.catch_warnings():
        # loadtxt warns of lines holding no values; the row check reports them.
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, dtype=float, ndmin=2, usecols=cols)


def _check_rows(path, raw: np.ndarray, nrows: int, ncols: int, first: int) -> None:
    """Raise FormatError unless each of the nrows lines of raw, a block of
    the body's bytes starting at its row first, is UTF-8 text holding ncols
    values _parse_rows accepts.

    Whether a token converts depends on where its runs of ASCII digits sit,
    not on their length or value. So each line is reduced to its shape,
    every digit run becoming one "0", and each distinct shape is parsed once:
    a grid of one number format has a handful of shapes however many rows it
    has. A shape is UTF-8 exactly when its line is.
    """
    # Keep every byte but the second and later digits of a run; UTF-8 never
    # uses ASCII digit bytes inside a multi-byte character.
    other = (raw - np.uint8(ord("0"))) > 9
    keep = np.empty_like(other)
    keep[:1] = True
    np.logical_or(other[1:], other[:-1], out=keep[1:])
    shapes = raw[keep].tobytes().translate(_DIGITS_TO_ZERO).split(b"\n")
    try:
        distinct = [shape.decode() for shape in dict.fromkeys(shapes[:nrows])]
        if _parse_rows(distinct).shape == (len(distinct), ncols):
            return
    except ValueError:  # UnicodeDecodeError included
        pass
    for row, line in enumerate(raw.tobytes().split(b"\n")[:nrows], start=first):
        try:
            n = _parse_rows([line.decode()]).size
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: line {row + 2} is not UTF-8 text "
                              f"({exc.reason} at byte {exc.start + 1})") from None
        except ValueError as exc:
            # numpy names the position within the one line it was given.
            reason = str(exc).split(" at row ")[0]
            raise FormatError(f"{path}: line {row + 2}: {reason}") from None
        if n != ncols:
            raise FormatError(f"{path}: line {row + 2} holds {n} values, "
                              f"expected {ncols}")
    raise FormatError(f"{path}: rows do not parse as {ncols} numbers each")


def _line_blocks(fh):
    """Yield (block, ends): the file's bytes as uint8 arrays of whole lines,
    about GRID_BLOCK_BYTES each, with CR and CRLF line ends turned into LF,
    and the offsets of the LFs in each.

    A line longer than a block comes whole in a larger one. Every block but
    the last ends in LF.
    """
    left = os.fstat(fh.fileno()).st_size
    tail = b""
    while True:
        chunk = fh.read(min(max(GRID_BLOCK_BYTES, len(tail)), left))
        left = left - len(chunk) if chunk else 0
        data = tail + chunk
        # Hold back the last partial line, and a last CR that may start a CRLF.
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1 if left else len(data)
        tail = data[cut:]
        if data.find(b"\r", 0, cut) >= 0:
            data = data[:cut].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            cut = len(data)
        if cut or not left:
            block = np.frombuffer(data, dtype=np.uint8, count=cut)
            yield block, np.flatnonzero(block == ord("\n"))
        if not left:
            return


def read_grid(path, rows=None, cols=None):
    """Returns (values, valid, geom) of a block of the grid; nodata cells are
    invalid and NaN-filled, and geom is the whole file's geometry.

    The block is the listed rows by the listed columns, (len(rows),
    len(cols)); None lists every row or column. Only the block's cells are
    converted to floats, but every line is checked: the file must hold
    exactly nrows lines of ncols numbers.

    The file is read and checked in blocks of whole lines, GRID_BLOCK_BYTES
    each (a longer line is read whole), keeping only the listed rows' text:
    peak memory is about one block's temporaries plus the rows converted.
    """
    with open(path, "rb") as fh:
        blocks = _line_blocks(fh)
        raw, ends = next(blocks)
        body_start = int(ends[0]) + 1 if ends.size else raw.size
        geom, nodata = _parse_header(path, raw[:body_start].tobytes().rstrip(b"\n"))
        rows = range(geom.nrows) if rows is None else np.asarray(rows, dtype=np.int64).tolist()
        need = sorted(set(rows))
        if need and not 0 <= need[0] <= need[-1] < geom.nrows:
            raise IndexError(f"{path}: rows must lie in 0..{geom.nrows - 1}")
        kept: dict[int, str] = {}
        lines, error = 0, None
        body = raw[body_start:], ends[1:] - body_start
        if not body[0].size:  # the body starts in the next block, if there is one
            body = next(blocks, body)
        for raw, ends in itertools.chain([body], blocks):
            stops = ends if raw[-1:].tobytes() == b"\n" else np.append(ends, raw.size)
            if error is None:
                try:
                    _check_rows(path, raw, stops.size, geom.ncols, lines)
                except FormatError as exc:
                    error = exc  # raised after the line count is known
                else:
                    for r in need[bisect.bisect_left(need, lines):
                                  bisect.bisect_left(need, lines + stops.size)]:
                        start = int(stops[r - lines - 1]) + 1 if r > lines else 0
                        kept[r] = raw[start:stops[r - lines]].tobytes().decode()
            lines += stops.size
    if lines != geom.nrows:
        raise FormatError(f"{path}: expected {geom.nrows} rows of values, "
                          f"got {lines} lines")
    if error is not None:
        raise error
    cols = np.arange(geom.ncols) if cols is None else np.asarray(cols, dtype=np.int64)
    if not rows or not cols.size:
        values = np.zeros((len(rows), cols.size))
        return values, values.astype(bool), geom
    values = _parse_rows([kept[r] for r in rows], cols)
    valid = values != nodata
    values[~valid] = np.nan
    return values, valid, geom


def write_scene_manifest(path, entries: list[dict], scale: float = 1.0,
                         cloud_threshold: float = DEFAULT_CLOUD_THRESHOLD) -> None:
    doc = {"scale": scale, "cloud_threshold": cloud_threshold, "entries": entries}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


class GridPass(NamedTuple):
    """One (sensor, date) of a manifest: its band grids, cloud mask and geometry."""

    sensor: str
    date: dt.date
    bands: dict[str, str]          # band -> grid path, in SENSOR_BANDS order
    mask: str | None
    geom: GridGeometry


class SceneLayout(NamedTuple):
    """A scene manifest checked against its grid headers; no cell read yet.

    geom is the common grid; passes come in (sensor, date) order.
    """

    scale: float
    threshold: float
    passes: tuple[GridPass, ...]
    geom: GridGeometry

    def taps(self, rows: np.ndarray, cols: np.ndarray) -> dict:
        """Each sensor's row and column cubic_taps for the common grid's rows
        by cols, or None for a sensor already on the common grid. A sensor's
        passes share one geometry, so one plan serves all of them."""
        plans = {}
        for sensor, geom in {grid.sensor: grid.geom for grid in self.passes}.items():
            factor = int(round(geom.cellsize / self.geom.cellsize))
            plans[sensor] = None if geom == self.geom else (
                cubic_taps(geom.nrows, factor, rows), cubic_taps(geom.ncols, factor, cols))
        return plans

    def ingest_counts(self, rows: np.ndarray, cols: np.ndarray) -> dict[str, int]:
        """Grids, cells in them and cells converted when reading the common
        grid's rows by cols."""
        plans = self.taps(rows, cols)
        counts = {"grids": 0, "cells": 0, "cells_converted": 0}
        for grid in self.passes:
            n = len(grid.bands) + (grid.mask is not None)
            plan = plans[grid.sensor]
            counts["grids"] += n
            counts["cells"] += n * grid.geom.nrows * grid.geom.ncols
            counts["cells_converted"] += n * (rows.size * cols.size if plan is None else
                                              plan[0].source.size * plan[1].source.size)
        return counts


def scan_scene_manifest(path) -> SceneLayout:
    """Read a manifest and the header line of every grid it lists.

    Checks what read_scene_manifest needs of the geometry before any cell is
    converted: bands and cloud mask of one (sensor, date) share a geometry,
    every date of a sensor has the same one, and each coarser grid shares the
    common grid's top-left corner with a cellsize an integer multiple of it
    and at least the 4x4 cells cubic convolution reads.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise FormatError(f"{path}: a manifest is a JSON object with an \"entries\" list")
    scale = _manifest_number(path, doc, "scale", DEFAULT_SCALE)
    if not scale > 0:
        raise FormatError(f"{path}: 'scale' must be a number greater than 0, got {scale!r}")
    threshold = _manifest_number(path, doc, "cloud_threshold", DEFAULT_CLOUD_THRESHOLD)
    base = os.path.dirname(os.path.abspath(path))

    grouped: dict[tuple[str, dt.date], dict] = defaultdict(dict)
    masks: dict[tuple[str, dt.date], tuple[str, int]] = {}  # mask path, first entry
    entry_of: dict[tuple[str, dt.date, str], int] = {}
    for i, entry in enumerate(doc["entries"]):
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: entries[{i}]: an entry is a JSON object, "
                              f"got {entry!r}")
        try:
            sensor, band, grid, date = (entry[k] for k in ("sensor", "band", "grid", "date"))
        except KeyError as exc:
            raise FormatError(f"{path}: entries[{i}]: missing key {exc}") from None
        for key, kind in _ENTRY_TYPES.items():
            if not isinstance(entry.get(key), kind):
                raise FormatError(f"{path}: entries[{i}]: {key!r} must be a string"
                                  f"{' or null' if key == 'mask' else ''}, "
                                  f"got {entry.get(key)!r}")
        try:
            date = dt.date.fromisoformat(date)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{path}: entries[{i}]: bad date {date!r} ({exc})") from None
        if sensor not in SENSOR_BANDS:
            raise FormatError(f"{path}: entries[{i}]: unknown sensor {sensor!r} "
                              f"(allowed: {', '.join(sorted(SENSOR_BANDS))})")
        if band not in SENSOR_BANDS[sensor]:
            raise FormatError(f"{path}: entries[{i}]: sensor {sensor} has no band {band!r} "
                              f"(bands: {', '.join(SENSOR_BANDS[sensor])})")
        if (sensor, date, band) in entry_of:
            raise FormatError(f"{path}: entries[{i}]: duplicate grid for {sensor} {date} "
                              f"{band}, first listed at entries[{entry_of[sensor, date, band]}]")
        entry_of[(sensor, date, band)] = i
        grouped[(sensor, date)][band] = os.path.join(base, grid)
        if entry.get("mask"):
            mask, first = masks.setdefault((sensor, date), (os.path.join(base, entry["mask"]), i))
            if mask != os.path.join(base, entry["mask"]):
                raise FormatError(f"{path}: entries[{i}]: {sensor} {date}: cloud mask "
                                  f"{entry['mask']!r} differs from entries[{first}]'s")
    if not grouped:
        raise FormatError(f"{path}: the manifest lists no grids")

    passes = []
    geom_by_sensor: dict[str, GridGeometry] = {}
    for (sensor, date), band_paths in sorted(grouped.items()):
        expected = SENSOR_BANDS[sensor]
        missing = [b for b in expected if b not in band_paths]
        if missing:
            first = min(entry_of[(sensor, date, b)] for b in band_paths)
            raise FormatError(f"{path}: entries[{first}]: {sensor} {date}: "
                              f"missing band grids {missing}")
        bands = {band: band_paths[band] for band in expected}
        geoms = {_read_grid_header(p) for p in bands.values()}
        if len(geoms) > 1:
            raise AlignmentError(f"{sensor} {date}: band grids disagree on geometry")
        (geom,) = geoms
        mask = masks.get((sensor, date), (None,))[0]
        if mask is not None and _read_grid_header(mask) != geom:
            raise AlignmentError(f"{sensor} {date}: cloud mask geometry mismatch")
        geom_by_sensor.setdefault(sensor, geom)
        if geom != geom_by_sensor[sensor]:
            raise AlignmentError(f"sensor {sensor}: observations disagree on geometry")
        passes.append(GridPass(sensor, date, bands, mask, geom))

    target = min(geom_by_sensor.values(), key=lambda g: g.cellsize)
    for grid in passes:
        if grid.geom != target:
            _check_alignment(grid.geom, target, f"{grid.sensor} {grid.date}")
    return SceneLayout(scale, threshold, tuple(passes), target)


def _manifest_number(path, doc: dict, key: str, default: float) -> float:
    """doc[key] (default when absent) as a float; anything but a finite JSON
    number is a FormatError naming the manifest."""
    value = doc.get(key, default)
    try:
        if isinstance(value, bool) or not math.isfinite(value):
            raise TypeError
    except (TypeError, OverflowError):
        raise FormatError(f"{path}: {key!r} must be a finite number, got {value!r}") from None
    return float(value)


def _check_alignment(geom: GridGeometry, target: GridGeometry, label: str) -> None:
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
    if geom.nrows * factor < target.nrows or geom.ncols * factor < target.ncols:
        raise AlignmentError(f"{label}: resampled grid does not cover the common grid")
    if min(geom.shape) < 4:
        raise SceneError(f"{label}: a {geom.nrows}x{geom.ncols} grid is too small to "
                         "upsample; cubic convolution needs at least 4x4 cells")


def read_scene_manifest(manifest, rows=None, cols=None):
    """Load a manifest into one SceneCube per sensor, all on one common grid.

    manifest is a manifest path or the SceneLayout scan_scene_manifest made
    of one. Bands of one (sensor, date) share a validity mask: a pixel is
    valid only when every band carries data, its value lands in [0, 1] after
    scaling, and the cloud probability (when provided) stays below the
    threshold. The common grid is the finest sensor's geometry (on a tie, the
    first sensor in sorted order). A coarser pass is upsampled by its integer
    cellsize factor with cubic convolution, all its bands in one call, and
    clipped back to the unit range.

    rows and cols are the common-grid rows and columns to fill (every one
    when None). The cubes hold only their bounding window: window-shaped
    arrays, the window's geometry, and its top-left cell as origin. Every
    grid file is still read and checked once, but only the cells the listed
    ones are computed from are converted, and every other window cell is
    invalid.
    """
    layout = (manifest if isinstance(manifest, SceneLayout)
              else scan_scene_manifest(manifest))
    target = layout.geom
    rows = np.arange(target.nrows) if rows is None else np.unique(rows)
    cols = np.arange(target.ncols) if cols is None else np.unique(cols)
    if not rows.size or not cols.size:
        raise SceneError("no common-grid cells to read")
    origin = (int(rows[0]), int(cols[0]))
    shape = (int(rows[-1]) + 1 - origin[0], int(cols[-1]) + 1 - origin[1])
    window = target.window(*origin, *shape)
    at = np.ix_(rows - origin[0], cols - origin[1])
    plans = layout.taps(rows, cols)
    cubes: dict[str, list[BandObservation]] = defaultdict(list)
    for grid in layout.passes:
        plan = plans[grid.sensor]
        source = (rows, cols) if plan is None else (plan[0].source, plan[1].source)
        stack = np.empty((len(grid.bands), source[0].size, source[1].size))
        valid = np.ones(stack.shape[1:], dtype=bool)
        for i, band_path in enumerate(grid.bands.values()):
            stack[i], ok, _ = read_grid(band_path, *source)
            valid &= ok
        stack /= layout.scale
        valid &= (np.isfinite(stack) & (stack >= 0.0) & (stack <= 1.0)).all(axis=0)
        if grid.mask is not None:
            prob, mask_ok, _ = read_grid(grid.mask, *source)
            valid &= mask_ok & (prob < layout.threshold)
        if plan is not None:
            stack, valid = upsample_cubic(stack, valid, *plan)
            np.clip(stack, 0.0, 1.0, out=stack)
        stack[:, ~valid] = MASKED_FILL
        if stack.shape[1:] != shape:
            # Rows (or columns) inside the window that were not asked for.
            held, held_ok = np.full((len(stack), *shape), MASKED_FILL), np.zeros(shape, bool)
            held[:, at[0], at[1]], held_ok[at] = stack, valid
            stack, valid = held, held_ok
        cubes[grid.sensor].append(BandObservation(
            grid.sensor, grid.date, dict(zip(grid.bands, stack)), valid, window))
    return {sensor: SceneCube(obs, window, origin) for sensor, obs in cubes.items()}


def format_wkt_polygon(polygon) -> str:
    coords = ", ".join(f"{float(x)!r} {float(y)!r}" for x, y in polygon)
    return f"POLYGON (({coords}))"


def parse_wkt_polygon(wkt: str) -> list[tuple[float, float]]:
    text = wkt.strip()
    if not text.upper().startswith("POLYGON"):
        raise FormatError(f"not a WKT polygon: {wkt[:40]!r}")
    start, end = text.find("(("), text.rfind("))")
    if not 0 <= start < end:
        raise FormatError(f"WKT polygon without its ((...)) ring: {wkt[:40]!r}")
    pts = []
    for pair in text[start + 2:end].split(","):
        xs = pair.split()
        if len(xs) != 2:
            raise FormatError(f"bad WKT coordinate {pair!r}")
        x, y = float(xs[0]), float(xs[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise FormatError(f"WKT coordinate {pair.strip()!r} is not finite")
        pts.append((x, y))
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts = pts[:-1]
    return pts


def read_csv_rows(path, columns, parse) -> list:
    """parse(row) of each data row of a CSV file, row a dict of the header's
    fields; the header must hold the columns, and blank lines are skipped.
    A row whose field count differs from the header's, or that parse
    rejects with a ValueError, is a FormatError naming the file and row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise FormatError(f"{path}: missing column(s) {missing}")
        out = []
        for i, row in enumerate(filter(None, reader), 1):
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} field(s), expected {len(header)}")
                out.append(parse(dict(zip(header, row))))
            except ValueError as exc:
                raise FormatError(f"{path}: data row {i}: {exc}") from None
    return out


def write_plots_csv(path, plots: list[Plot]) -> None:
    write_rows_csv(path, PLOT_COLUMNS,
                   [[p.plot_id, p.label, p.group, format_wkt_polygon(p.polygon)]
                    for p in plots])


def read_plot_rows(path, columns, parse) -> list:
    """parse(row) of each row of a file listing plots (plots, scores,
    predictions), if its plot_id is new and its label and group known ones.
    Its errors, and those of parse, name the plot."""
    seen = set()

    def checked(row):
        try:
            if row["plot_id"] in seen:
                raise ValueError("listed more than once")
            seen.add(row["plot_id"])
            for key, allowed in (("label", LABELS), ("group", GROUPS)):
                if row[key] not in allowed:
                    raise ValueError(f"bad {key} {row[key]!r}")
            return parse(row)
        except ValueError as exc:
            raise ValueError(f"plot {row['plot_id']!r}: {exc}") from None
    return read_csv_rows(path, columns, checked)


def read_plots_csv(path, geom: GridGeometry) -> list[Plot]:
    return read_plot_rows(path, PLOT_COLUMNS, lambda row: make_plot(
        row["plot_id"], parse_wkt_polygon(row["wkt_polygon"]), geom, row["label"], row["group"]))


def write_endmembers_csv(path, endmembers: EndmemberSet) -> None:
    write_rows_csv(path, ["name", *SWIR_SET], [[name, *map(float, getattr(endmembers, name))]
                                               for name in ENDMEMBERS])


def read_endmembers_csv(path) -> EndmemberSet:
    """The veg, soil and char rows of an endmember file, each listed once."""
    def spectrum(row):
        name = row["name"]
        if name not in ENDMEMBERS:
            raise ValueError(f"unknown endmember {name!r} (expected {', '.join(ENDMEMBERS)})")
        if name in spectra:
            raise ValueError(f"endmember {name!r}: listed more than once")
        values = []
        for band in SWIR_SET:
            try:
                values.append(float(row[band]))
            except ValueError:
                raise ValueError(f"endmember {name!r}: {band} value {row[band]!r} "
                                 "is not a number") from None
        spectra[name] = np.array(values)
    spectra = {}
    read_csv_rows(path, ["name", *SWIR_SET], spectrum)
    missing = set(ENDMEMBERS) - set(spectra)
    if missing:
        raise FormatError(f"{path}: endmember file missing rows {sorted(missing)}")
    try:
        return EndmemberSet(**spectra)
    except ValueError as exc:  # IndexError_
        raise type(exc)(f"{path}: {exc}") from None


def write_events_csv(path, events: list[tuple[str, str, dt.date]]) -> None:
    """Events are (plot_id, kind, date) with kind in {burn, till}."""
    write_rows_csv(path, ["plot_id", "event", "date"],
                   [[plot_id, kind, date.isoformat()] for plot_id, kind, date in events])


def read_events_csv(path) -> list[tuple[str, str, dt.date]]:
    def event(row):
        try:
            if row["event"] not in ("burn", "till"):
                raise ValueError(f"unknown event kind {row['event']!r}")
            return row["plot_id"], row["event"], dt.date.fromisoformat(row["date"])
        except ValueError as exc:
            raise ValueError(f"plot {row['plot_id']!r}: {exc}") from None
    return read_csv_rows(path, ["plot_id", "event", "date"], event)


def write_rows_csv(path, header: list[str], rows) -> None:
    """Deterministic CSV writer: floats via repr, None as empty field."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(["" if v is None else
                        (repr(float(v)) if isinstance(v, float) else v) for v in row])


def read_rows_csv(path):
    """(header, rows) of a CSV file; a file without a header line is an error."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: the file is empty")
        return header, list(reader)
