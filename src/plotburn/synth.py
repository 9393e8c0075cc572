"""Synthetic two-sensor scene cubes with known burn/till dates and cloud gaps.

The signal model is a per-band two-level step (pre-event stubble, post-till
bare soil) plus an additive char excursion for burned plots that decays
exponentially, fast in the visible bands and slower in the infrared. Visible
levels barely move at tilling, so char indices converge back to the tilled
baseline within days, which is the detection difficulty the generator exists
to reproduce. Everything is deterministic for a given seed.
"""

from __future__ import annotations

import datetime as dt
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .gridio import (write_endmembers_csv, write_events_csv, write_grid,
                     write_plots_csv, write_rows_csv, write_scene_manifest)
from .indices import EndmemberSet
from .scene import (MASKED_FILL, SENSOR_BANDS, BandObservation, GridGeometry,
                    Plot, SceneCube, make_plot, plot_pixels)

HA_IN_M2 = 10000.0

# Band levels before any event (rice stubble) and after tilling (bare soil).
PRE_LEVELS = {"Blue": 0.10, "Green": 0.15, "Red": 0.18, "RedEdge1": 0.20,
              "RedEdge2": 0.24, "RedEdge3": 0.27, "NIR": 0.30,
              "SWIR1": 0.30, "SWIR2": 0.25}
TILL_LEVELS = {"Blue": 0.10, "Green": 0.15, "Red": 0.18, "RedEdge1": 0.19,
               "RedEdge2": 0.21, "RedEdge3": 0.22, "NIR": 0.22,
               "SWIR1": 0.24, "SWIR2": 0.20}
# Additive excursion while char is visible, relative to the tilled level.
CHAR_DELTAS = {"Blue": -0.045, "Green": -0.065, "Red": -0.085,
               "RedEdge1": -0.05, "RedEdge2": -0.06, "RedEdge3": -0.06,
               "NIR": -0.08, "SWIR1": -0.10, "SWIR2": -0.07}
VISIBLE_BANDS = ("Blue", "Green", "Red")

# The burning season the scene spans, and the days events fall on.
SEASON_START = dt.date(2019, 10, 10)
SEASON_END = dt.date(2019, 12, 15)
BURN_WINDOW_START = dt.date(2019, 10, 18)
BURN_WINDOW_END = dt.date(2019, 12, 2)
TILL_LAG_MAX_DAYS = 2
# Each cloud event lasts 3 to 5 days and covers each plot with probability 0.5.
CLOUD_EVENT_MIN_DAYS = 3
CLOUD_EVENT_MAX_DAYS = 5
CLOUD_EVENT_COVERAGE = 0.5
NOISE_SD_B = 0.01                 # sensor-B pixel noise
CHAR_AMP_RANGE = (0.85, 1.15)     # per-plot scale of CHAR_DELTAS
TREATMENT_FRACTION = 0.5


@dataclass(frozen=True)
class ScenarioConfig:
    n_plots: int = 320
    resolution: float = 3.0
    plot_area_mean_ha: float = 1.4
    plot_area_median_ha: float = 0.9
    burn_probability: float = 0.68
    char_half_life_vis: float = 1.5
    char_half_life_ir: float = 3.0
    revisit_a: float = 1.8          # mean days between generated passes
    revisit_b: float = 5.0
    cloud_dropout_a: float = 0.08   # per plot-observation loss probability
    cloud_dropout_b: float = 0.15
    n_cloud_events: int = 3
    noise_sd_a: float = 0.02        # pixel noise, sensor A is the noisier one
    plot_jitter_common_sd: float = 0.03   # shared brightness offset per plot
    plot_jitter_band_sd: float = 0.005    # independent per-band offset
    # Per-band pre-event levels; None falls back to PRE_LEVELS.
    pre_levels: dict | None = None
    unlabeled_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_numbers(self, ("n_plots",), 1, integer=True)
        check_numbers(self, ("n_cloud_events", "seed"), 0, integer=True)
        check_numbers(self, ("resolution", "plot_area_mean_ha", "plot_area_median_ha",
                             "char_half_life_vis", "char_half_life_ir", "revisit_a",
                             "revisit_b"), 0, above=True)
        check_numbers(self, ("burn_probability", "cloud_dropout_a", "cloud_dropout_b",
                             "unlabeled_fraction"), 0, 1)
        check_numbers(self, ("noise_sd_a", "plot_jitter_common_sd", "plot_jitter_band_sd"), 0)
        levels = self.pre_levels
        if levels is not None and not (isinstance(levels, dict) and set(levels) == set(PRE_LEVELS)
                                       and all(_is_number(v) for v in levels.values())):
            raise ValueError(f"pre_levels must be null or a finite number for each of "
                             f"{', '.join(PRE_LEVELS)}, got {levels!r}")


_NUMBER = (int, float, np.integer, np.floating)


def _is_number(value, kinds=_NUMBER) -> bool:
    return type(value) is not bool and isinstance(value, kinds) and -math.inf < value < math.inf


def check_numbers(obj, names, low, high=math.inf, *, integer=False, above=False) -> None:
    """Raise a ValueError naming the first of obj's fields in names that is not
    an integer (or, unless integer, a finite number) of at least low (above
    low, where above) and at most high."""
    what = ("an integer of at least" if integer else "a number greater than" if above
            else "a number of at least") + f" {low}"
    if high < math.inf:
        what = f"a number in [{low}, {high}]"
    for name in names:
        value = getattr(obj, name)
        if (not _is_number(value, (int, np.integer) if integer else _NUMBER)
                or not (low < value if above else low <= value) or not value <= high):
            raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass
class GroundTruth:
    burned: dict[str, bool] = field(default_factory=dict)
    burn_date: dict[str, dt.date | None] = field(default_factory=dict)
    till_date: dict[str, dt.date] = field(default_factory=dict)
    # sensor -> plot_id -> dates at which the plot is validly observed
    valid_obs: dict[str, dict[str, list[dt.date]]] = field(default_factory=dict)

    def events(self) -> list[tuple[str, str, dt.date]]:
        """Burn events for burned plots, till events for unburned ones."""
        out = []
        for plot_id in sorted(self.burned):
            if self.burned[plot_id]:
                out.append((plot_id, "burn", self.burn_date[plot_id]))
            else:
                out.append((plot_id, "till", self.till_date[plot_id]))
        return out


@dataclass
class Scenario:
    cube_a: SceneCube
    cube_b: SceneCube
    plots: list[Plot]
    truth: GroundTruth
    endmembers: EndmemberSet

    def labels(self) -> dict[str, str]:
        return {p.plot_id: p.label for p in self.plots}


def default_endmembers() -> EndmemberSet:
    bands = SENSOR_BANDS["B"]
    veg = np.array([0.06, 0.10, 0.08, 0.20, 0.30, 0.35, 0.38, 0.22, 0.12])
    soil = np.array([TILL_LEVELS[b] for b in bands])
    char = np.array([TILL_LEVELS[b] + CHAR_DELTAS[b] for b in bands])
    return EndmemberSet(veg, soil, char)


def _sample_plot_dims(cfg: ScenarioConfig, rng) -> list[tuple[int, int]]:
    px_area = cfg.resolution ** 2
    median_px = cfg.plot_area_median_ha * HA_IN_M2 / px_area
    ratio = cfg.plot_area_mean_ha / cfg.plot_area_median_ha
    sigma = float(np.sqrt(max(2.0 * np.log(ratio), 1e-6)))
    areas = np.exp(rng.normal(np.log(median_px), sigma, size=cfg.n_plots))
    areas = np.clip(areas, 16, 2.6 * median_px)
    dims = []
    for area in areas:
        aspect = rng.uniform(0.7, 1.4)
        w = max(3, int(round(np.sqrt(area * aspect))))
        h = max(3, int(round(area / w)))
        dims.append((w, h))
    return dims


def _pack_plots(dims: list[tuple[int, int]], margin: int = 3):
    """Shelf packing: (col0, row0) origins and the resulting grid shape."""
    total = sum(w * h for w, h in dims)
    target_w = int(np.ceil(np.sqrt(total * 1.9))) + max(w for w, _ in dims)
    order = sorted(range(len(dims)), key=lambda i: (-dims[i][1], i))
    origins = [None] * len(dims)
    x = margin
    y = margin
    shelf_h = 0
    used_w = target_w
    for i in order:
        w, h = dims[i]
        if x + w + margin > target_w:
            x = margin
            y += shelf_h + margin
            shelf_h = 0
        origins[i] = (x, y)
        x += w + margin
        shelf_h = max(shelf_h, h)
    height = y + shelf_h + margin
    return origins, (height, used_w)


def _rect_polygon(col0, row0, w, h, geom: GridGeometry):
    x0 = geom.xll + col0 * geom.cellsize
    x1 = geom.xll + (col0 + w) * geom.cellsize
    y_top = geom.yll + (geom.nrows - row0) * geom.cellsize
    y_bot = geom.yll + (geom.nrows - row0 - h) * geom.cellsize
    return [(x0, y_bot), (x1, y_bot), (x1, y_top), (x0, y_top)]


def _obs_days(rng, n_days: int, revisit: float, regular: bool) -> list[int]:
    """Observation day offsets for one sensor.

    Irregular constellations pass on any day with probability 1/revisit;
    orbital sensors revisit on a fixed cycle of round(revisit) days.
    """
    if regular:
        step = max(1, int(round(revisit)))
        days = list(range(0, n_days, step))
    else:
        p = min(1.0, 1.0 / revisit)
        days = [0] + [d for d in range(1, n_days) if rng.random() < p]
    if len(days) < 2:
        days = [0, n_days - 1]
    return days


def _half_life(band: str, cfg: ScenarioConfig) -> float:
    return cfg.char_half_life_vis if band in VISIBLE_BANDS else cfg.char_half_life_ir


def generate(cfg: ScenarioConfig) -> Scenario:
    """Build both sensor cubes, the plot set, and the ground truth tables."""
    pre_levels = cfg.pre_levels or PRE_LEVELS
    master = np.random.SeedSequence(cfg.seed)
    (ss_geom, ss_assign, ss_jitter, ss_days_a, ss_days_b,
     ss_drop_a, ss_drop_b, ss_events, ss_noise) = master.spawn(9)
    rng_geom = np.random.Generator(np.random.PCG64(ss_geom))
    rng_assign = np.random.Generator(np.random.PCG64(ss_assign))
    rng_jitter = np.random.Generator(np.random.PCG64(ss_jitter))

    dims = _sample_plot_dims(cfg, rng_geom)
    origins, (nrows, ncols) = _pack_plots(dims)
    geom = GridGeometry(ncols, nrows, 0.0, 0.0, cfg.resolution)
    n_days = (SEASON_END - SEASON_START).days + 1

    truth = GroundTruth()
    plot_specs = []
    burn_days = {}
    win0 = (BURN_WINDOW_START - SEASON_START).days
    win1 = (BURN_WINDOW_END - SEASON_START).days
    for i in range(cfg.n_plots):
        plot_id = f"p{i:04d}"
        burned = bool(rng_assign.random() < cfg.burn_probability)
        event_day = int(rng_assign.integers(win0, win1 + 1))
        lag = int(rng_assign.integers(0, TILL_LAG_MAX_DAYS + 1))
        unlabeled = bool(rng_assign.random() < cfg.unlabeled_fraction)
        group = "treatment" if rng_assign.random() < TREATMENT_FRACTION else "control"
        truth.burned[plot_id] = burned
        if burned:
            burn_date = SEASON_START + dt.timedelta(days=event_day)
            truth.burn_date[plot_id] = burn_date
            truth.till_date[plot_id] = burn_date + dt.timedelta(days=lag)
            burn_days[plot_id] = event_day
            label = "unlabeled" if unlabeled else "burned"
            base_day = event_day        # tilling level steps in at the burn
        else:
            truth.burn_date[plot_id] = None
            truth.till_date[plot_id] = SEASON_START + dt.timedelta(days=event_day + lag)
            label = "unlabeled" if unlabeled else "not_burned"
            base_day = event_day + lag
        jitter_common = rng_jitter.normal(0.0, cfg.plot_jitter_common_sd)
        jitter_band = {b: jitter_common + rng_jitter.normal(0.0, cfg.plot_jitter_band_sd)
                       for b in SENSOR_BANDS["B"]}
        amp = rng_jitter.uniform(*CHAR_AMP_RANGE)
        plot_specs.append({
            "plot_id": plot_id, "burned": burned, "base_day": base_day,
            "burn_day": event_day if burned else None,
            "label": label, "group": group, "jitter": jitter_band, "amp": amp,
        })

    plots = []
    for spec, (w, h), (col0, row0) in zip(plot_specs, dims, origins):
        polygon = _rect_polygon(col0, row0, w, h, geom)
        plots.append(make_plot(spec["plot_id"], polygon, geom,
                               spec["label"], spec["group"]))

    days_a = _obs_days(np.random.Generator(np.random.PCG64(ss_days_a)), n_days,
                       cfg.revisit_a, regular=False)
    days_b = _obs_days(np.random.Generator(np.random.PCG64(ss_days_b)), n_days,
                       cfg.revisit_b, regular=True)

    rng_events = np.random.Generator(np.random.PCG64(ss_events))
    event_windows = []
    for _ in range(cfg.n_cloud_events):
        start = int(rng_events.integers(0, max(1, n_days - CLOUD_EVENT_MAX_DAYS)))
        length = int(rng_events.integers(CLOUD_EVENT_MIN_DAYS, CLOUD_EVENT_MAX_DAYS + 1))
        covered = rng_events.random(cfg.n_plots) < CLOUD_EVENT_COVERAGE
        event_windows.append((start, start + length, covered))

    def masked_plots(sensor, day, rng_drop):
        dropout = cfg.cloud_dropout_a if sensor == "A" else cfg.cloud_dropout_b
        lost = rng_drop.random(cfg.n_plots) < dropout
        for start, end, covered in event_windows:
            if start <= day < end:
                lost |= covered
        return lost

    # Each band adds every plot's level in one scatter over the plots' cells.
    # The flat cell indices are int32 where the grid allows, and one float64
    # grid is refilled for every band. On the default scene, intp indices
    # raised generate's peak RSS by 4 MB, and a fresh grid per band by 6 MB.
    # A sensor's bands are views of one (passes, bands, rows, cols) float32
    # array: at the default scene's size it is mapped whole, so dropping the
    # cubes returns its pages, where 2 MB grids stay in the heap.
    rows, cols, bounds = plot_pixels(plots)
    cells, sizes = np.ravel_multi_index((rows, cols), geom.shape), np.diff(bounds)
    if geom.nrows * geom.ncols <= np.iinfo(np.int32).max:
        cells = cells.astype(np.int32)
    del rows, cols
    grid = np.empty(geom.shape)
    cube_by_sensor = {}
    for sensor, days, drop_ss in (("A", days_a, ss_drop_a), ("B", days_b, ss_drop_b)):
        rng_drop = np.random.Generator(np.random.PCG64(drop_ss))
        bands = SENSOR_BANDS[sensor]
        noise_sd = cfg.noise_sd_a if sensor == "A" else NOISE_SD_B
        observations = []
        truth.valid_obs[sensor] = {p.plot_id: [] for p in plots}
        values = np.empty((len(days), len(bands), *geom.shape), dtype=np.float32)
        for day, day_values in zip(days, values):
            date = SEASON_START + dt.timedelta(days=day)
            lost = masked_plots(sensor, day, rng_drop)
            rng_noise = np.random.Generator(np.random.PCG64(ss_noise.spawn(1)[0]))
            grids = dict(zip(bands, day_values))
            valid = np.ones(geom.shape, dtype=bool)
            for band in bands:
                rng_noise.standard_normal(out=grid)    # TILL + noise_sd * z
                grid *= noise_sd
                grid += TILL_LEVELS[band]
                deltas = []
                for spec in plot_specs:
                    level = pre_levels[band] if day < spec["base_day"] else TILL_LEVELS[band]
                    if spec["burned"] and day >= spec["burn_day"]:
                        tau = _half_life(band, cfg)
                        decay = 0.5 ** ((day - spec["burn_day"]) / tau)
                        level += spec["amp"] * CHAR_DELTAS[band] * decay
                    level += spec["jitter"][band]
                    deltas.append(level - TILL_LEVELS[band])
                # Plots are disjoint, so each cell gets its plot's level once.
                np.add.at(grid.reshape(-1), cells, np.repeat(deltas, sizes))
                grids[band][...] = np.clip(grid, 0.0, 1.0, out=grid)
            for plot, is_lost in zip(plots, lost):
                if not is_lost:
                    truth.valid_obs[sensor][plot.plot_id].append(date)
            masked = cells[np.repeat(lost, sizes)]
            valid.reshape(-1)[masked] = False
            for band in bands:
                grids[band].reshape(-1)[masked] = MASKED_FILL
            observations.append(BandObservation(sensor, date, grids, valid, geom))
        cube_by_sensor[sensor] = SceneCube(observations, geom)

    return Scenario(cube_by_sensor["A"], cube_by_sensor["B"], plots, truth,
                    default_endmembers())


TRUTH_CSV_HEADER = ["plot_id", "burned", "burn_date", "till_date"]


def write_truth_csv(path, truth: GroundTruth) -> None:
    rows = []
    for plot_id in sorted(truth.burned):
        rows.append([plot_id, int(truth.burned[plot_id]),
                     truth.burn_date[plot_id].isoformat() if truth.burn_date[plot_id] else "",
                     truth.till_date[plot_id].isoformat()])
    write_rows_csv(path, TRUTH_CSV_HEADER, rows)


def write_scenario(out_dir, scenario: Scenario) -> dict[str, str]:
    """Emit the manifest/grid/plot/truth/event/endmember files for ingestion."""
    os.makedirs(out_dir, exist_ok=True)
    grids_dir = os.path.join(out_dir, "grids")
    os.makedirs(grids_dir, exist_ok=True)
    entries = []
    for cube in (scenario.cube_a, scenario.cube_b):
        for obs in cube.observations:
            for band, grid in obs.bands.items():
                name = f"{obs.sensor}_{obs.date.isoformat()}_{band}.grid"
                write_grid(os.path.join(grids_dir, name),
                           np.asarray(grid, dtype=float), obs.geom, obs.valid)
                entries.append({"sensor": obs.sensor, "date": obs.date.isoformat(),
                                "band": band, "grid": f"grids/{name}", "mask": None})
    paths = {
        "manifest": os.path.join(out_dir, "scene_manifest.json"),
        "plots": os.path.join(out_dir, "plots.csv"),
        "truth": os.path.join(out_dir, "truth.csv"),
        "events": os.path.join(out_dir, "events.csv"),
        "endmembers": os.path.join(out_dir, "endmembers.csv"),
    }
    write_scene_manifest(paths["manifest"], entries, scale=1.0)
    write_plots_csv(paths["plots"], scenario.plots)
    write_truth_csv(paths["truth"], scenario.truth)
    write_events_csv(paths["events"], scenario.truth.events())
    write_endmembers_csv(paths["endmembers"], scenario.endmembers)
    return paths

