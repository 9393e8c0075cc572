"""Raster/plot data model: observations, scene cubes, plot rasterization, masks, gaps.

plot_observed owns the rule for when a plot is observed on a pass; the gap
report reads its table, and block_plot_means the plot x pass means under it.

The common grid is a north-up raster addressed by (row, col) with row 0 at the
top. Cell centers sit at x = xll + (col + 0.5) * cellsize and
y = yll + (nrows - row - 0.5) * cellsize. All reflectance is unit scale [0, 1];
masked cells hold MASKED_FILL and must only ever be touched through valid_mask.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np

# Fill value written under invalid pixels. Every consumer must select values
# through valid_mask, never by testing against this constant; tests poison it
# to a large finite number to prove no masked value leaks into features.
MASKED_FILL = np.nan

SENSOR_BANDS = {
    "A": ("Blue", "Green", "Red", "NIR"),
    "B": ("Blue", "Green", "Red", "RedEdge1", "RedEdge2", "RedEdge3",
          "NIR", "SWIR1", "SWIR2"),
}

LABELS = ("burned", "not_burned", "unlabeled")
GROUPS = ("treatment", "control", "none")

# Fraction of a plot's pixels that must be valid for the plot to count as
# observed on a given date; read only by plot_observed.
PLOT_VALID_FRACTION = 0.5


class SceneError(ValueError):
    """Malformed scene data (geometry, bands, ordering)."""


class EmptyPlotError(SceneError):
    """Polygon covers no cell center."""


class AlignmentError(SceneError):
    """Grids that should share a geometry do not."""


@dataclass(frozen=True)
class GridGeometry:
    """Raster frame shared by every grid of a cube."""

    ncols: int
    nrows: int
    xll: float
    yll: float
    cellsize: float

    def __post_init__(self):
        if self.ncols < 1 or self.nrows < 1 or not self.cellsize > 0:
            raise SceneError("grid geometry must have positive dimensions")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def window(self, row0: int, col0: int, nrows: int, ncols: int) -> GridGeometry:
        """The geometry of the nrows x ncols block whose top-left cell is (row0, col0)."""
        return GridGeometry(ncols, nrows, self.xll + col0 * self.cellsize,
                            self.yll + (self.nrows - row0 - nrows) * self.cellsize,
                            self.cellsize)

    def cell_center(self, row, col):
        x = self.xll + (np.asarray(col) + 0.5) * self.cellsize
        y = self.yll + (self.nrows - np.asarray(row) - 0.5) * self.cellsize
        return x, y


@dataclass
class BandObservation:
    """One sensor pass: per-band reflectance grids plus a shared validity mask."""

    sensor: str
    date: dt.date
    bands: dict[str, np.ndarray]
    valid: np.ndarray
    geom: GridGeometry

    def __post_init__(self):
        if self.sensor not in SENSOR_BANDS:
            raise SceneError(f"unknown sensor {self.sensor!r}")
        expected = SENSOR_BANDS[self.sensor]
        missing = [b for b in expected if b not in self.bands]
        if missing:
            raise SceneError(f"sensor {self.sensor} observation missing bands {missing}")
        for name, grid in self.bands.items():
            if grid.shape != self.geom.shape:
                raise AlignmentError(f"band {name} shape {grid.shape} != {self.geom.shape}")
        if self.valid.shape != self.geom.shape:
            raise AlignmentError("valid mask shape mismatch")
        if self.valid.dtype != bool:
            raise SceneError("valid mask must be boolean")


@dataclass
class SceneCube:
    """Time-ordered observation stack for one sensor on a window of the common grid.

    geom is the window's geometry and origin the (row, col) of its top-left
    cell on the common grid: (0, 0) when the window is the whole grid. Plots
    address cells on the common grid; index maps them into the arrays.
    """

    observations: list[BandObservation]
    geom: GridGeometry
    origin: tuple[int, int] = (0, 0)

    def __post_init__(self):
        dates = [o.date for o in self.observations]
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise SceneError("observation dates must be strictly increasing")
        for o in self.observations:
            if o.geom != self.geom:
                raise AlignmentError("observation geometry differs from cube geometry")

    def index(self, rows, cols) -> tuple[np.ndarray, np.ndarray]:
        """Indices into the observations' arrays of common-grid cells (rows, cols)."""
        r = np.asarray(rows) - self.origin[0]
        c = np.asarray(cols) - self.origin[1]
        if r.size and (min(r.min(), c.min()) < 0 or r.max() >= self.geom.nrows
                       or c.max() >= self.geom.ncols):
            raise SceneError(f"cells outside the {self.geom.nrows}x{self.geom.ncols} "
                             f"window at {self.origin}")
        return r, c

    @property
    def sensor(self) -> str:
        return self.observations[0].sensor if self.observations else "?"

    @property
    def dates(self) -> list[dt.date]:
        return [o.date for o in self.observations]


@dataclass
class Plot:
    """A field polygon rasterized onto the common grid."""

    plot_id: str
    polygon: list[tuple[float, float]]
    rows: np.ndarray
    cols: np.ndarray
    border: np.ndarray  # bool per pixel, True when footprint touches boundary
    label: str = "unlabeled"
    group: str = "none"

    def __post_init__(self):
        if self.label not in LABELS:
            raise SceneError(f"bad label {self.label!r}")
        if self.group not in GROUPS:
            raise SceneError(f"bad group {self.group!r}")
        if self.label != "unlabeled" and self.rows.size == 0:
            raise EmptyPlotError(f"labeled plot {self.plot_id} has no pixels")

    @property
    def n_pixels(self) -> int:
        return int(self.rows.size)


def make_plot(plot_id, polygon, geom, label="unlabeled", group="none") -> Plot:
    rows, cols, border = rasterize_plot(polygon, geom)
    return Plot(plot_id, list(polygon), rows, cols, border, label, group)


def _polygon_area(polygon) -> float:
    xs = np.array([p[0] for p in polygon], dtype=float)
    ys = np.array([p[1] for p in polygon], dtype=float)
    return 0.5 * abs(np.dot(xs, np.roll(ys, -1)) - np.dot(ys, np.roll(xs, -1)))


def _points_in_polygon(px: np.ndarray, py: np.ndarray, polygon) -> np.ndarray:
    """Even-odd ray casting; points exactly on an edge may land either side."""
    inside = np.zeros(px.shape, dtype=bool)
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        crosses = (y1 > py) != (y2 > py)
        if not crosses.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (px < xint)
    return inside


def _segment_hits_rect(x1, y1, x2, y2, xmin, ymin, xmax, ymax) -> np.ndarray:
    """Vectorized segment vs axis-aligned rectangle test; touching counts.

    Rect bounds are arrays (one rect per pixel); the segment is a scalar pair.
    Uses the separating-axis test for a segment against a box.
    """
    # Quick reject on bounding boxes.
    sxmin, sxmax = min(x1, x2), max(x1, x2)
    symin, symax = min(y1, y2), max(y1, y2)
    overlap = (sxmax >= xmin) & (sxmin <= xmax) & (symax >= ymin) & (symin <= ymax)
    if not overlap.any():
        return overlap
    # Separating axis along the segment normal: all four rect corners on one
    # strict side of the segment line means no intersection.
    dx, dy = x2 - x1, y2 - y1
    s1 = dy * (xmin - x1) - dx * (ymin - y1)
    s2 = dy * (xmin - x1) - dx * (ymax - y1)
    s3 = dy * (xmax - x1) - dx * (ymin - y1)
    s4 = dy * (xmax - x1) - dx * (ymax - y1)
    all_pos = (s1 > 0) & (s2 > 0) & (s3 > 0) & (s4 > 0)
    all_neg = (s1 < 0) & (s2 < 0) & (s3 < 0) & (s4 < 0)
    return overlap & ~(all_pos | all_neg)


def rasterize_plot(polygon, geom: GridGeometry):
    """Rasterize a simple polygon: cell-center membership plus a border flag.

    Returns (rows, cols, border) where border marks member pixels whose cell
    footprint intersects the polygon boundary. Raises EmptyPlotError when no
    cell center falls inside the polygon.
    """
    if len(polygon) < 3:
        raise SceneError("polygon needs at least 3 vertices")
    if _polygon_area(polygon) <= 0.0:
        raise EmptyPlotError("degenerate polygon with zero area")

    xs = [p[0] for p in polygon]
    ys = [p[1] for p in polygon]
    cell = geom.cellsize
    c0 = max(0, int(math.floor((min(xs) - geom.xll) / cell)) - 1)
    c1 = min(geom.ncols - 1, int(math.ceil((max(xs) - geom.xll) / cell)) + 1)
    r1 = min(geom.nrows - 1, int(math.floor(geom.nrows - (min(ys) - geom.yll) / cell)) + 1)
    r0 = max(0, int(math.floor(geom.nrows - (max(ys) - geom.yll) / cell)) - 1)
    if c0 > c1 or r0 > r1:
        raise EmptyPlotError("polygon lies outside the grid extent")

    rr, cc = np.meshgrid(np.arange(r0, r1 + 1), np.arange(c0, c1 + 1), indexing="ij")
    rr = rr.ravel()
    cc = cc.ravel()
    px, py = geom.cell_center(rr, cc)
    inside = _points_in_polygon(px, py, polygon)
    rows, cols = rr[inside], cc[inside]
    if rows.size == 0:
        raise EmptyPlotError("polygon covers no cell center")

    xmin = geom.xll + cols * cell
    xmax = xmin + cell
    ymin = geom.yll + (geom.nrows - rows - 1) * cell
    ymax = ymin + cell
    border = np.zeros(rows.shape, dtype=bool)
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        border |= _segment_hits_rect(x1, y1, x2, y2, xmin, ymin, xmax, ymax)

    order = np.lexsort((cols, rows))
    return rows[order], cols[order], border[order]


def plot_pixels(plots: list[Plot]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, bounds) of every plot's pixels end to end: plot i holds
    rows[bounds[i]:bounds[i + 1]] and the same slice of cols."""
    empty = [np.zeros(0, dtype=np.intp)]
    rows = np.concatenate(empty + [p.rows for p in plots if p.n_pixels])
    cols = np.concatenate(empty + [p.cols for p in plots if p.n_pixels])
    bounds = np.concatenate(([0], np.cumsum([p.n_pixels for p in plots], dtype=np.intp)))
    return rows, cols, bounds


def observed_from_valid(valid: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """(..., n_plots) bool of a (..., n_px) valid stack whose plot i holds
    pixels bounds[i]:bounds[i + 1]: the plot_observed rule.

    A plot's valid count over its pixel count is the float its bool array's
    mean() gives, so the rule reads alike for one plot and for many."""
    counts = np.zeros(valid.shape[:-1] + (valid.shape[-1] + 1,), dtype=np.intp)
    np.cumsum(valid, axis=-1, out=counts[..., 1:])
    counts = counts[..., bounds[1:]] - counts[..., bounds[:-1]]
    sizes = np.diff(bounds)
    return (sizes > 0) & (counts / np.maximum(sizes, 1) >= PLOT_VALID_FRACTION)


def plot_blocks(bounds: np.ndarray, max_pixels: int):
    """(lo, hi) runs of consecutive plots, plot i holding pixels
    bounds[i]:bounds[i + 1], of at most max_pixels pixels together; a larger
    plot makes a run alone."""
    lo, n = 0, len(bounds) - 1
    while lo < n:
        hi = int(np.searchsorted(bounds, bounds[lo] + max_pixels, side="right")) - 1
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def segment_means(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """(n_obs, n_plots) mean() of each plot's finite values in each row of
    values (n_obs, n_px), plot i holding columns bounds[i]:bounds[i + 1]; NaN
    where a plot has none.

    mean() sums from 0.0, pairwise, so each segment is summed behind a 0.0 of
    its own: a reduceat seeded with a segment's first value groups it
    differently from the 9th value on.
    """
    finite = np.isfinite(values)
    counts = np.zeros((values.shape[0], values.shape[1] + 1), dtype=np.intp)
    np.cumsum(finite, axis=1, out=counts[:, 1:])
    counts = counts[:, bounds[1:]] - counts[:, bounds[:-1]]
    # The finite values run row by row and plot by plot; each run gets its 0.0.
    n = counts.ravel()
    summed = np.insert(values[finite], np.cumsum(n) - n, 0.0)
    sums = np.add.reduceat(summed, np.cumsum(n + 1) - (n + 1)).reshape(counts.shape)
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def block_plot_means(values: np.ndarray, observed: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """(n_plots, n_obs) segment_means of values (n_obs, n_px), NaN where
    observed, the block's (n_obs, n_plots) observed_from_valid, is False."""
    return np.where(observed, segment_means(values, bounds), np.nan).T


def plot_observed(cube: SceneCube, plots: list[Plot]) -> np.ndarray:
    """(len(plots), n_obs) bool: at least PLOT_VALID_FRACTION of the plot's
    pixels are valid in that pass; never true for a plot without pixels.
    Each pass gathers every plot's pixels at once."""
    observed = np.zeros((len(plots), len(cube.observations)), dtype=bool)
    rows, cols, bounds = plot_pixels(plots)
    if rows.size:
        at = cube.index(rows, cols)
        for t, o in enumerate(cube.observations):
            observed[:, t] = observed_from_valid(o.valid[at], bounds)
    return observed


@dataclass
class GapReport:
    """Per-plot and cross-plot windows between valid observations, in days."""

    # plot_id -> sensor -> (n_obs, mean_gap, max_gap); entry absent when the
    # plot has fewer than two valid observations for that sensor.
    per_plot: dict[str, dict[str, tuple[int, float, float]]] = field(default_factory=dict)
    summary: dict[str, dict[str, float]] = field(default_factory=dict)


def gap_statistics(cubes: dict[str, SceneCube], plots: list[Plot]) -> GapReport:
    """Observation-window report per plot and sensor.

    A plot's observed passes are its plot_observed row; a plot with fewer
    than two of them has no entry for the sensor.
    """
    report = GapReport({plot.plot_id: {} for plot in plots})
    for sensor, cube in cubes.items():
        days = np.array([d.toordinal() for d in cube.dates])
        for plot, observed in zip(plots, plot_observed(cube, plots)):
            gaps = np.diff(days[observed])
            if gaps.size:
                report.per_plot[plot.plot_id][sensor] = (
                    gaps.size + 1, float(gaps.mean()), float(gaps.max()))
    for sensor in cubes:
        means = [v[sensor][1] for v in report.per_plot.values() if sensor in v]
        maxes = [v[sensor][2] for v in report.per_plot.values() if sensor in v]
        if means:
            report.summary[sensor] = {
                "mean_of_means": float(np.mean(means)),
                "mean_of_maxes": float(np.mean(maxes)),
                "max_of_means": float(max(means)),
                "max_of_maxes": float(max(maxes)),
            }
    return report
