"""Collapse per-pixel masked time series of bands and indices into feature vectors.

Feature naming is `<sensor>_<source>_<stat>` (e.g. B_MIRBI_max, A_CI_drop0).
Order statistics use linear interpolation between closest ranks. Temporal
differencing (drop/spike) takes the largest step that stays past the series
mean for a persistence buffer of 0, 1 or 2 subsequent images; all three
buffers and both directions are emitted and feature selection arbitrates
between them. build_feature_table walks the pixels once, in blocks of whole
plots, and keeps each source's plot x pass means for the separability curves.
"""

from __future__ import annotations

import csv
import functools
import types
import warnings
from dataclasses import dataclass, field

import numpy as np

from .gridio import FormatError
from .indices import (ALL_INDICES, INDEX_REGISTRY, EndmemberSet, compute_index,
                      indices_for_bands)
from .scene import (SENSOR_BANDS, Plot, SceneCube, block_plot_means, observed_from_valid,
                    plot_blocks, plot_pixels)

STAT_NAMES = ("min", "max", "mean", "median", "p10", "p20", "p80", "p90")
VDIFF_NAMES = ("drop0", "drop1", "drop2", "spike0", "spike1", "spike2")
TEMPORAL_NAMES = STAT_NAMES + VDIFF_NAMES


@dataclass(eq=False)
class FeatureTable:
    """Design matrix X, one row per (plot, pixel) and one column per schema
    name (features, n_obs_<sensor>, the 0/1 border flag); NaN marks missing.
    plot_means maps each "<sensor>_<source>" built to its (n_plots, n_obs)
    block_plot_means, plots in plot_rows() order: the one source of the plot
    means that pipeline.curve_rows reads. A CSV table has none.
    """
    X: np.ndarray
    schema: list[str]
    plot_id: np.ndarray
    pixel_id: np.ndarray
    plot_means: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def border(self) -> np.ndarray:
        """Border flag per row; all False in a table without a border column."""
        if "border" not in self.schema:
            return np.zeros(len(self), dtype=bool)
        return self.X[:, self.schema.index("border")] == 1.0

    def plot_rows(self) -> dict[str, np.ndarray]:
        """Row indices of each plot, plots in order of first appearance."""
        rows: dict[str, list[int]] = {}
        for i, plot_id in enumerate(self.plot_id):
            rows.setdefault(plot_id, []).append(i)
        return {p: np.asarray(idx, dtype=np.int64) for p, idx in rows.items()}


# Pixels per block of whole plots, which bounds BASMA's (n_obs * pixels, 9)
# stacks; and pixel series per temporal_columns call, a block's sources going
# in groups of up to this many series, at least one source per call.
BLOCK_ROWS = 1 << 11


def pixel_stack(cube: SceneCube, rows, cols):
    """(valid, bands) at common-grid pixels, each (n_obs, n_px); bands keep
    the cube's dtype, because index formulas compute in it and upcasting
    changes values.
    """
    r, c = cube.index(rows, cols)
    return cube.valid[:, r, c], dict(zip(SENSOR_BANDS[cube.sensor],
                                         cube.values[:, :, r, c].swapaxes(0, 1)))


def source_values(valid, bands, source: str, endmembers) -> np.ndarray:
    """One band or index over a pixel stack, float64, NaN where invalid."""
    if source in bands:
        values = bands[source]
    else:
        values = compute_index(source, bands, endmembers=endmembers)
    return np.where(valid, np.asarray(values, dtype=float), np.nan)


def temporal_columns(matrix: np.ndarray) -> np.ndarray:
    """(n_px, 14) columns, in TEMPORAL_NAMES order, of an (n_obs, n_px) matrix.

    Non-finite values are missing. mean is the pairwise sum of the pixel's
    series with missing values as 0, over its count. A vdiff column is the
    largest step v[t+1] - v[t] of the valid values whose landing values
    v[t+1] .. v[t+1+buffer] all stay past the series mean (below for a drop,
    above for a spike): 0.0 when none does, NaN under buffer + 2 values.
    """
    finite = np.isfinite(matrix)
    counts = finite.sum(axis=0)
    out = np.full((matrix.shape[1], len(TEMPORAL_NAMES)), np.nan)
    # Valid values to the front of each pixel's series, in time order; then
    # the pixels with n valid values form one contiguous (g, n) block.
    order = np.argsort(~finite, axis=0, kind="stable")
    series = np.take_along_axis(matrix, order, axis=0).T
    some = counts > 0
    for n in np.unique(counts[some]):
        cols = np.flatnonzero(counts == n)
        out[cols] = _block_columns(np.ascontiguousarray(series[cols, :n]))
    sums = np.ascontiguousarray(np.where(finite, matrix, 0.0).T).sum(axis=1)
    out[some, 2] = sums[some] / counts[some]
    return out


def _block_columns(sub: np.ndarray) -> np.ndarray:
    """TEMPORAL_NAMES columns of (g, n) valid series, mean left missing."""
    out = np.full((sub.shape[0], len(TEMPORAL_NAMES)), np.nan)
    out[:, 0], out[:, 1] = sub.min(axis=1), sub.max(axis=1)
    out[:, 3:8] = np.percentile(sub, [50, 10, 20, 80, 90], axis=1).T
    # vdiff per buffer b: steps t < n - 1 - b whose landing values
    # v[t+1] .. v[t+1+b] all stay past the series mean.
    threshold = sub.mean(axis=1)[:, None]
    steps = np.diff(sub, axis=1)
    below, above = sub[:, 1:] < threshold, sub[:, 1:] > threshold
    for b in range(min(3, sub.shape[1] - 1)):
        m = sub.shape[1] - 1 - b
        drop, spike = steps[:, :m] < 0, steps[:, :m] > 0
        for k in range(b + 1):
            drop &= below[:, k:k + m]
            spike &= above[:, k:k + m]
        out[:, 8 + b] = np.where(
            drop.any(axis=1), np.where(drop, steps[:, :m], np.inf).min(axis=1), 0.0)
        out[:, 11 + b] = np.where(
            spike.any(axis=1), np.where(spike, steps[:, :m], -np.inf).max(axis=1), 0.0)
    return out


def _sources(sensor: str, indices) -> list[str]:
    bands = SENSOR_BANDS[sensor]
    return list(bands) + indices_for_bands(bands, indices)


def feature_schema(sensors, indices, has_border: bool) -> list[str]:
    """Column order of the design matrix of a sensor configuration.

    Every <sensor>_<source>_<stat>, sensors sorted and each source's
    TEMPORAL_NAMES contiguous; then n_obs_<sensor>; then border when the
    table has border pixels. A CSV records no more than the border flags,
    so build and read both take the border column from them.
    """
    sensors = sorted(sensors)
    names = [f"{sensor}_{source}_{stat}" for sensor in sensors
             for source in _sources(sensor, indices) for stat in TEMPORAL_NAMES]
    names += [f"n_obs_{sensor}" for sensor in sensors]
    if has_border:
        names.append("border")
    return names


def build_feature_table(cube_a: SceneCube | None, cube_b: SceneCube | None,
                        plots: list[Plot], indices, include_border: bool = True,
                        *, endmembers: EndmemberSet | None = None) -> FeatureTable:
    """One row per (plot, pixel) with every temporal statistic of every source.

    Border pixels are dropped entirely when include_border is False; otherwise
    they carry a border flag feature. Plots with no valid observation in
    either sensor still emit rows (all-NaN features) with a warning.
    """
    for name in indices:
        if name not in INDEX_REGISTRY:
            raise ValueError(f"unknown index {name!r}")
    cubes = [c for c in (cube_a, cube_b) if c is not None]
    if not cubes:
        raise ValueError("at least one sensor cube is required")

    if not include_border:
        plots = [Plot(p.plot_id, p.polygon, p.rows[~p.border], p.cols[~p.border],
                      p.border[~p.border], p.label, p.group)
                 for p in plots if not p.border.all()]
    plots = [p for p in plots if p.n_pixels]
    has_border = any(p.border.any() for p in plots)
    schema = feature_schema([c.sensor for c in cubes], indices, has_border)
    col = {name: j for j, name in enumerate(schema)}
    rows, cols, bounds = plot_pixels(plots)
    plot_id = np.repeat(np.array([p.plot_id for p in plots], dtype=object), np.diff(bounds))
    pixel_id = np.array([f"{p}_{r}_{c}" for p, r, c in
                         zip(plot_id, rows.tolist(), cols.tolist())], dtype=object)
    X = np.full((rows.size, len(schema)), np.nan)
    if has_border:
        X[:, col["border"]] = np.concatenate([p.border for p in plots])
    plot_means = {f"{c.sensor}_{source}": np.full((len(plots), len(c.dates)), np.nan)
                  for c in cubes for source in _sources(c.sensor, indices)}
    for lo, hi in plot_blocks(bounds, BLOCK_ROWS):
        block = slice(bounds[lo], bounds[hi])
        for cube in cubes:
            valid, bands = pixel_stack(cube, rows[block], cols[block])
            observed = observed_from_valid(valid, bounds[lo:hi + 1] - bounds[lo])
            n = valid.shape[1]
            X[block, col[f"n_obs_{cube.sensor}"]] = valid.sum(axis=0)
            # A sensor's sources hold adjacent columns, and temporal_columns
            # treats each series alone: one call covers a group of sources,
            # their matrices side by side.
            sources = _sources(cube.sensor, indices)
            per_call = max(1, BLOCK_ROWS // n)
            for k in range(0, len(sources), per_call):
                group = sources[k:k + per_call]
                joined = np.empty((valid.shape[0], len(group) * n))
                for j, source in enumerate(group):
                    values = source_values(valid, bands, source, endmembers)
                    joined[:, j * n:(j + 1) * n] = values
                    plot_means[f"{cube.sensor}_{source}"][lo:hi] = block_plot_means(
                        values, observed, bounds[lo:hi + 1] - bounds[lo])
                first = col[f"{cube.sensor}_{group[0]}_{TEMPORAL_NAMES[0]}"]
                stop = first + len(group) * len(TEMPORAL_NAMES)
                stats = temporal_columns(joined).reshape(len(group), n, -1)
                X[block, first:stop] = stats.transpose(1, 0, 2).reshape(n, -1)
    n_obs = X[:, [col[f"n_obs_{c.sensor}"] for c in cubes]]
    for plot, start, stop in zip(plots, bounds[:-1], bounds[1:]):
        if not n_obs[start:stop].any():
            warnings.warn(f"plot {plot.plot_id} has no valid observations; "
                          "emitting all-missing rows")
    return FeatureTable(X, schema, plot_id, pixel_id, plot_means)


def table_matrix(table: FeatureTable, names: list[str],
                 rows: np.ndarray | None = None) -> np.ndarray:
    """Columns of table.X in the order of names, of every row or of rows only;
    an unknown name is an error."""
    col = {name: j for j, name in enumerate(table.schema)}
    unknown = [name for name in names if name not in col]
    if unknown:
        raise ValueError(f"feature table has no column(s) {unknown}")
    cols = [col[name] for name in names]
    return table.X[:, cols] if rows is None else table.X[np.ix_(rows, cols)]


def table_schema(table: FeatureTable) -> list[str]:
    return list(table.schema)


FEATURE_CSV_FIXED = ["plot_id", "pixel_id", "border", "n_obs_A", "n_obs_B"]


def write_feature_csv(path, table: FeatureTable) -> None:
    """Fixed columns (0 for a column the table lacks), then features by name.

    csv.writer formats the fixed fields; it would write each float as its
    repr, so the floats are joined from their reprs, one line at a time.
    """
    col = {name: j for j, name in enumerate(table.schema)}
    names = sorted(n for n in table.schema if n not in FEATURE_CSV_FIXED)
    fixed = [col.get(name) for name in FEATURE_CSV_FIXED[2:]]
    order = [col[name] for name in names]
    # A writer whose file's write returns the line: writerow gives the fields
    # quoted as csv quotes them, ending in the writer's "\r\n".
    line = csv.writer(types.SimpleNamespace(write=str)).writerow
    with open(path, "w", newline="") as fh:
        fh.write(line(FEATURE_CSV_FIXED + names))
        for i, values in enumerate(table.X):
            head = line([table.plot_id[i], table.pixel_id[i],
                         *(0 if j is None else int(values[j]) for j in fixed)])
            floats = ",".join(map(repr, values[order].tolist()))
            fh.write(f"{head[:-2]},{floats}\r\n")


def read_feature_csv(path) -> FeatureTable:
    """The table of a feature CSV, columns back in feature_schema order."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
    missing = [c for c in FEATURE_CSV_FIXED if c not in header[:len(FEATURE_CSV_FIXED)]]
    if missing:
        raise FormatError(f"{path}: missing column(s) {missing}; a feature CSV "
                          f"begins with {FEATURE_CSV_FIXED}")
    file_cols = header[2:]
    load = functools.partial(np.loadtxt, path, delimiter=",", quotechar='"',
                             skiprows=1, ndmin=2)
    try:
        data = load(usecols=range(2, 2 + len(file_cols)))
        ids = load(usecols=(0, 1), dtype=str).astype(object)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    names = file_cols[len(FEATURE_CSV_FIXED) - 2:]
    sensors = {n.split("_", 1)[0] for n in names} & SENSOR_BANDS.keys()
    has_border = bool((data[:, file_cols.index("border")] == 1.0).any())
    schema = [n for n in feature_schema(sensors, ALL_INDICES, has_border)
              if n in file_cols]
    unknown = sorted(set(names) - set(schema))
    if unknown:
        raise FormatError(f"{path}: unknown feature column(s) {unknown}")
    return FeatureTable(data[:, [file_cols.index(n) for n in schema]], schema,
                        ids[:, 0], ids[:, 1])
