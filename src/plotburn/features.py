"""Collapse per-pixel masked time series of bands and indices into feature vectors.

Feature naming is `<sensor>_<source>_<stat>` (e.g. B_MIRBI_max, A_CI_drop0).
Order statistics use linear interpolation between closest ranks. Temporal
differencing (drop/spike) takes the largest step that stays past a threshold
for a persistence buffer of 0, 1 or 2 subsequent images; all three buffers and
both directions are emitted and feature selection arbitrates between them.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .indices import (ALL_INDICES, INDEX_REGISTRY, EndmemberSet, compute_index,
                      indices_for_bands)
from .scene import SENSOR_BANDS, Plot, SceneCube

STAT_NAMES = ("min", "max", "mean", "median", "p10", "p20", "p80", "p90")
VDIFF_NAMES = ("drop0", "drop1", "drop2", "spike0", "spike1", "spike2")


@dataclass(frozen=True)
class VdiffSpec:
    direction: str           # "drop" or "spike"
    buffer: int = 0
    threshold: float | None = None   # None -> per-series mean

    def __post_init__(self):
        if self.direction not in ("drop", "spike"):
            raise ValueError(f"bad vdiff direction {self.direction!r}")
        if self.buffer < 0:
            raise ValueError("vdiff buffer must be >= 0")


def temporal_stats(series) -> dict[str, float]:
    """Order statistics and mean of the valid values of one series."""
    arr = np.asarray(series, dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return {name: np.nan for name in STAT_NAMES}
    q = np.percentile(arr, [10, 20, 50, 80, 90])
    return {
        "min": float(arr.min()),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
        "median": float(q[2]),
        "p10": float(q[0]),
        "p20": float(q[1]),
        "p80": float(q[3]),
        "p90": float(q[4]),
    }


def vdiff(series, spec: VdiffSpec) -> float:
    """Largest persistent step in a time-ordered series of valid values.

    For a drop: the most negative step v[t+1] - v[t] whose landing values
    v[t+1] .. v[t+1+buffer] all stay below the threshold; spikes are the
    mirror case above the threshold. Returns 0.0 when no step qualifies and
    NaN when the series is too short for the buffer.
    """
    arr = np.asarray(series, dtype=float)
    arr = arr[np.isfinite(arr)]
    n = arr.size
    if n < spec.buffer + 2:
        return np.nan
    threshold = float(arr.mean()) if spec.threshold is None else spec.threshold
    steps = np.diff(arr)[:n - 1 - spec.buffer]
    past = arr[1:] < threshold if spec.direction == "drop" else arr[1:] > threshold
    ok = np.ones(steps.size, dtype=bool)
    for k in range(spec.buffer + 1):
        ok &= past[k:k + steps.size]
    if spec.direction == "drop":
        ok &= steps < 0
        return float(steps[ok].min()) if ok.any() else 0.0
    ok &= steps > 0
    return float(steps[ok].max()) if ok.any() else 0.0


@dataclass
class FeatureRow:
    plot_id: str
    pixel_id: str
    border: bool
    features: dict[str, float]
    n_obs_a: int
    n_obs_b: int


def _source_matrix(cube: SceneCube, plot: Plot, source: str,
                   endmembers, bsi_exponent) -> np.ndarray:
    """(n_obs, n_pixels) values for one band or index, NaN where invalid."""
    cols = []
    for obs in cube.observations:
        ok = obs.valid[plot.rows, plot.cols]
        if source in obs.bands:
            vals = np.where(ok, obs.bands[source][plot.rows, plot.cols], np.nan)
        else:
            bands = {b: obs.bands[b][plot.rows, plot.cols] for b in obs.bands}
            vals = np.asarray(compute_index(source, bands, endmembers=endmembers,
                                            bsi_exponent=bsi_exponent), dtype=float)
            vals = np.where(ok, vals, np.nan)
        cols.append(vals)
    return np.asarray(cols, dtype=float)


def _stats_matrix(matrix: np.ndarray) -> dict[str, np.ndarray]:
    """Vectorized temporal_stats over the observation axis of (n_obs, n_px)."""
    n_px = matrix.shape[1]
    out = {name: np.full(n_px, np.nan) for name in STAT_NAMES}
    counts = np.isfinite(matrix).sum(axis=0)
    some = counts > 0
    if not some.any():
        return out
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out["min"][some] = np.nanmin(matrix[:, some], axis=0)
        out["max"][some] = np.nanmax(matrix[:, some], axis=0)
        out["mean"][some] = np.nanmean(matrix[:, some], axis=0)
        q = np.nanpercentile(matrix[:, some], [10, 20, 50, 80, 90], axis=0)
    out["p10"][some], out["p20"][some], out["median"][some] = q[0], q[1], q[2]
    out["p80"][some], out["p90"][some] = q[3], q[4]
    return out


def _vdiff_columns(matrix: np.ndarray) -> dict[str, np.ndarray]:
    n_px = matrix.shape[1]
    out = {name: np.full(n_px, np.nan) for name in VDIFF_NAMES}
    for px in range(n_px):
        col = matrix[:, px]
        col = col[np.isfinite(col)]
        for b in (0, 1, 2):
            out[f"drop{b}"][px] = vdiff(col, VdiffSpec("drop", b))
            out[f"spike{b}"][px] = vdiff(col, VdiffSpec("spike", b))
    return out


def sources_for_cube(cube: SceneCube, indices) -> list[str]:
    bands = SENSOR_BANDS[cube.sensor]
    return list(bands) + indices_for_bands(bands, indices)


def feature_schema(sensors: list[str], indices, include_border: bool) -> list[str]:
    """Stable column order for the design matrix of a sensor configuration."""
    names = []
    for sensor in sorted(sensors):
        bands = SENSOR_BANDS[sensor]
        for source in list(bands) + indices_for_bands(bands, indices):
            for stat in STAT_NAMES + VDIFF_NAMES:
                names.append(f"{sensor}_{source}_{stat}")
        names.append(f"n_obs_{sensor}")
    if include_border:
        names.append("border")
    return names


def build_feature_table(cube_a: SceneCube | None, cube_b: SceneCube | None,
                        plots: list[Plot], indices, include_border: bool = True,
                        *, endmembers: EndmemberSet | None = None,
                        bsi_exponent: float = 1.0) -> list[FeatureRow]:
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

    rows: list[FeatureRow] = []
    for plot in plots:
        keep = np.ones(plot.n_pixels, dtype=bool) if include_border else ~plot.border
        n_keep = int(keep.sum())
        if n_keep == 0:
            continue
        sub_rows, sub_cols = plot.rows[keep], plot.cols[keep]
        sub_border = plot.border[keep]
        pixel_ids = [f"{plot.plot_id}_{r}_{c}" for r, c in zip(sub_rows, sub_cols)]
        sub_plot = Plot(plot.plot_id, plot.polygon, sub_rows, sub_cols, sub_border,
                        plot.label, plot.group)

        features = [dict() for _ in range(n_keep)]
        n_obs = {"A": np.zeros(n_keep, dtype=int), "B": np.zeros(n_keep, dtype=int)}
        for cube in cubes:
            sensor = cube.sensor
            valid_any = np.zeros(n_keep, dtype=int)
            for obs in cube.observations:
                valid_any += obs.valid[sub_rows, sub_cols]
            n_obs[sensor] = valid_any
            for source in sources_for_cube(cube, indices):
                matrix = _source_matrix(cube, sub_plot, source, endmembers, bsi_exponent)
                stats = _stats_matrix(matrix)
                stats.update(_vdiff_columns(matrix))
                for stat, col in stats.items():
                    name = f"{sensor}_{source}_{stat}"
                    for i in range(n_keep):
                        features[i][name] = float(col[i])
        if all(n_obs[c.sensor].max() == 0 for c in cubes):
            warnings.warn(f"plot {plot.plot_id} has no valid observations; "
                          "emitting all-missing rows")
        for i in range(n_keep):
            rows.append(FeatureRow(plot.plot_id, pixel_ids[i], bool(sub_border[i]),
                                   features[i], int(n_obs["A"][i]), int(n_obs["B"][i])))
    return rows


def row_values(row: FeatureRow) -> dict[str, float]:
    """Feature map of one row including the count and border columns."""
    values = dict(row.features)
    sensors = {n.split("_", 1)[0] for n in row.features}
    if "A" in sensors:
        values["n_obs_A"] = float(row.n_obs_a)
    if "B" in sensors:
        values["n_obs_B"] = float(row.n_obs_b)
    values["border"] = 1.0 if row.border else 0.0
    return values


def table_matrix(rows: list[FeatureRow], schema: list[str]) -> np.ndarray:
    """Design matrix (n_rows, n_features) in schema order; NaN marks missing."""
    X = np.full((len(rows), len(schema)), np.nan)
    for j, name in enumerate(schema):
        if name == "border":
            X[:, j] = [1.0 if r.border else 0.0 for r in rows]
        elif name == "n_obs_A":
            X[:, j] = [r.n_obs_a for r in rows]
        elif name == "n_obs_B":
            X[:, j] = [r.n_obs_b for r in rows]
        else:
            X[:, j] = [r.features.get(name, np.nan) for r in rows]
    return X


def table_schema(rows: list[FeatureRow]) -> list[str]:
    """Schema inferred from rows: feature keys plus count/border columns.

    The border column appears only when border pixels were kept; every plot
    has at least one border pixel, so an all-interior table means they were
    dropped deliberately.
    """
    if not rows:
        return []
    names = list(rows[0].features)
    sensors = sorted({n.split("_", 1)[0] for n in names})
    for sensor in sensors:
        names.append(f"n_obs_{sensor}")
    if any(r.border for r in rows):
        names.append("border")
    return names


FEATURE_CSV_FIXED = ["plot_id", "pixel_id", "border", "n_obs_A", "n_obs_B"]


def write_feature_csv(path, rows: list[FeatureRow]) -> None:
    names = sorted(rows[0].features) if rows else []
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(FEATURE_CSV_FIXED + names)
        for r in rows:
            rec = [r.plot_id, r.pixel_id, int(r.border), r.n_obs_a, r.n_obs_b]
            rec += [repr(r.features[n]) for n in names]
            w.writerow(rec)


def read_feature_csv(path) -> list[FeatureRow]:
    """Rows of a feature CSV, with feature keys back in build order.

    The file stores feature columns sorted by name; reading them back in the
    canonical order of feature_schema gives table_schema the same column
    order as the table that was written.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        names = [k for k in reader.fieldnames or () if k not in FEATURE_CSV_FIXED]
        sensors = sorted({n.split("_", 1)[0] for n in names} & SENSOR_BANDS.keys())
        rank = {n: i for i, n in enumerate(feature_schema(sensors, ALL_INDICES, False))}
        names.sort(key=lambda n: rank.get(n, len(rank)))
        for rec in reader:
            features = {k: float(rec[k]) for k in names}
            rows.append(FeatureRow(rec["plot_id"], rec["pixel_id"],
                                   rec["border"] == "1", features,
                                   int(rec["n_obs_A"]), int(rec["n_obs_B"])))
    return rows
