import csv
import datetime as dt

import numpy as np
import pytest
from hypothesis import strategies as st

from plotburn.features import pixel_stack, source_values
from plotburn.forest import FOREST_MAGIC, ForestError, ForestModel, ForestParams, Tree
from plotburn.scene import (MASKED_FILL, PLOT_VALID_FRACTION, SENSOR_BANDS, BandObservation,
                            GridGeometry, Plot, SceneCube)
from plotburn.synth import GroundTruth

D0 = dt.date(2019, 10, 10)


def day(offset: int) -> dt.date:
    return D0 + dt.timedelta(days=offset)


def read_rows_csv(path):
    """(header, rows) of a CSV file the program wrote, every field a string."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def make_obs(sensor, date, geom, levels=None, valid=None):
    """Observation with constant band levels (dict or scalar) and a full mask."""
    if valid is None:
        valid = np.ones(geom.shape, dtype=bool)
    bands = {}
    for band in SENSOR_BANDS[sensor]:
        if isinstance(levels, dict):
            level = levels.get(band, 0.2)
        else:
            level = 0.2 if levels is None else levels
        grid = np.full(geom.shape, float(level))
        grid[~valid] = MASKED_FILL
        bands[band] = grid
    return BandObservation(sensor, date, bands, valid.copy(), geom)


def make_cube(sensor, geom, dated_levels, valid_by_date=None):
    """Cube from {day_offset: levels}; valid_by_date maps offsets to masks."""
    obs = []
    for off in sorted(dated_levels):
        valid = None if valid_by_date is None else valid_by_date.get(off)
        obs.append(make_obs(sensor, day(off), geom, dated_levels[off], valid))
    return SceneCube(obs, geom)


def gap_table(truth) -> dict[str, dict[str, tuple[int, float, float]]]:
    """plot_id -> sensor -> (n_obs, mean_gap, max_gap) from a synthetic scene's
    valid observation dates; plots with fewer than 2 are left out."""
    table: dict[str, dict[str, tuple[int, float, float]]] = {}
    for sensor, per_plot in truth.valid_obs.items():
        for plot_id, dates in per_plot.items():
            if len(dates) < 2:
                continue
            gaps = [(b - a).days for a, b in zip(dates, dates[1:])]
            table.setdefault(plot_id, {})[sensor] = (
                len(dates), float(np.mean(gaps)), float(max(gaps)))
    return table


def inject_gaps(cube: SceneCube, schedule, plots: list[Plot],
                truth: GroundTruth | None = None) -> tuple[SceneCube, GroundTruth | None]:
    """Invalidate per-plot regions (or whole observations) over date ranges.

    schedule entries are (plot_id | None, start_date, end_date) with the end
    exclusive; None hits every plot. Returns a new cube and, when a truth
    table is given, a copy updated to match.
    """
    by_id = {p.plot_id: p for p in plots}
    observations = []
    newly_masked: dict[dt.date, set[str]] = {}
    for obs in cube.observations:
        relevant = [(pid, start, end) for pid, start, end in schedule
                    if start <= obs.date < end]
        if not relevant:
            observations.append(obs)
            continue
        valid = obs.valid.copy()
        touched = set()
        for pid, _, _ in relevant:
            targets = [by_id[pid]] if pid is not None else plots
            for plot in targets:
                valid[cube.index(plot.rows, plot.cols)] = False
                touched.add(plot.plot_id)
        bands = {name: np.where(valid, grid, MASKED_FILL)
                 for name, grid in obs.bands.items()}
        observations.append(BandObservation(obs.sensor, obs.date, bands, valid, obs.geom))
        newly_masked[obs.date] = touched
    new_cube = SceneCube(observations, cube.geom, cube.origin)

    if truth is None:
        return new_cube, None
    new_truth = GroundTruth(dict(truth.burned), dict(truth.burn_date),
                            dict(truth.till_date),
                            {s: {p: list(ds) for p, ds in per.items()}
                             for s, per in truth.valid_obs.items()})
    sensor = cube.sensor
    for date, touched in newly_masked.items():
        for plot_id in touched:
            dates = new_truth.valid_obs[sensor].get(plot_id)
            if dates and date in dates:
                dates.remove(date)
    return new_cube, new_truth


@st.composite
def plot_scenes(draw, min_obs=0):
    """(cube, plots) of a random sensor-B scene on up to 12 x 24 cells.

    Each pass has its own valid rate, 0 and 1 among them, and a share of
    band values exactly 0, where NDVI and NBR are undefined. A plot is a
    random set of cells, none at all among them; plots may overlap, and the
    first may be listed again at the end."""
    nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(1, 24))
    rates = draw(st.lists(st.sampled_from((0.0, 0.3, 0.5, 0.9, 1.0)),
                          min_size=min_obs, max_size=4))
    sizes = draw(st.lists(st.integers(0, nrows * ncols), max_size=6))
    zero_rate = draw(st.sampled_from((0.0, 0.3)))
    twice = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    geom = GridGeometry(ncols, nrows, 0.0, 0.0, 1.0)
    plots = []
    for i, size in enumerate(sizes):
        cells = np.sort(rng.choice(nrows * ncols, size, replace=False))
        plots.append(Plot(f"p{i}", [], cells // ncols, cells % ncols, np.zeros(size, bool)))
    if twice and plots:
        plots.append(plots[0])
    observations = []
    for t, rate in enumerate(rates):
        valid = rng.random(geom.shape) < rate
        bands = {}
        for band in SENSOR_BANDS["B"]:
            grid = rng.uniform(0.0, 0.5, geom.shape).astype(np.float32)
            grid[rng.random(geom.shape) < zero_rate] = 0.0
            grid[~valid] = MASKED_FILL
            bands[band] = grid
        observations.append(BandObservation("B", day(t), bands, valid, geom))
    return SceneCube(observations, geom), plots


def oracle_plot_observed(cube: SceneCube, plots: list[Plot]) -> np.ndarray:
    """scene.plot_observed one plot at a time: a bool mean() per plot and pass."""
    observed = np.zeros((len(plots), len(cube.observations)), dtype=bool)
    for i, plot in enumerate(plots):
        if plot.n_pixels:
            at = cube.index(plot.rows, plot.cols)
            observed[i] = [o.valid[at].mean() >= PLOT_VALID_FRACTION
                           for o in cube.observations]
    return observed


def oracle_plot_means(cube: SceneCube, plots: list[Plot], source: str,
                      endmembers=None) -> np.ndarray:
    """separability.plot_means one plot at a time: a pixel stack per plot and
    the mean() of its finite values per observed pass."""
    observed = oracle_plot_observed(cube, plots)
    means = np.full(observed.shape, np.nan)
    for i, plot in enumerate(plots):
        valid, bands = pixel_stack(cube, plot.rows, plot.cols)
        values = source_values(valid, bands, source, endmembers)
        for t in np.flatnonzero(observed[i]):
            vals = values[t][np.isfinite(values[t])]
            if vals.size:
                means[i, t] = vals.mean()
    return means


def load_forest(path) -> ForestModel:
    """The model save_forest wrote; a malformed file raises ForestError."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != FOREST_MAGIC:
        raise ForestError(f"{path}: not a forest file")
    try:
        seed, min_leaf, oob, n_features = (line.split()[1] for line in lines[1:5])
        pos = 5 + int(n_features)
        features = [line.split() for line in lines[5:pos]]
        schema = [name for _, name, _ in features]
        importance = np.asarray([float(imp) for _, _, imp in features])
        n_trees = int(lines[pos].split()[1])
        trees = []
        for t in range(n_trees):
            n_nodes = int(lines[pos + 1].split()[1])
            block = lines[pos + 2:pos + 2 + n_nodes]
            if len(block) != n_nodes:
                raise ValueError(f"tree {t} has {len(block)} of its {n_nodes} node lines")
            feat, thr, left, right, v0, v1 = np.loadtxt(block, ndmin=2, unpack=True)
            trees.append(Tree(feat.astype(np.int64), thr, left.astype(np.int64),
                              right.astype(np.int64), np.column_stack((v0, v1))))
            pos += 1 + n_nodes
        params = ForestParams(n_trees, int(min_leaf), int(seed))
        oob = None if oob == "-" else float(oob)
    except (IndexError, ValueError) as exc:
        raise ForestError(f"{path}: malformed forest file: {exc}") from exc
    return ForestModel(trees, schema, importance, oob, params)


@pytest.fixture
def geom10():
    return GridGeometry(10, 10, 0.0, 0.0, 1.0)


# One summary line per acceptance criterion at the end of the session.
_criterion_results = {}


def pytest_runtest_logreport(report):
    # The call phase decides a criterion's outcome; an error in fixture setup
    # or teardown fails it too, so an erroring criterion never drops out.
    if report.when != "call" and not report.failed:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if "criterion" not in name:
        return
    key = name.split("criterion_")[-1].split("_")[0]
    ok = _criterion_results.get(key, True) and report.passed
    _criterion_results[key] = ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")

    def sort_key(k):
        return (0, int(k)) if k.isdigit() else (1, k)

    for key in sorted(_criterion_results, key=sort_key):
        status = "PASS" if _criterion_results[key] else "FAIL"
        terminalreporter.write_line(f"criterion {key}: {status}")
