import datetime as dt

import numpy as np
import pytest

from plotburn.scene import MASKED_FILL, SENSOR_BANDS, BandObservation, GridGeometry, SceneCube

D0 = dt.date(2019, 10, 10)


def day(offset: int) -> dt.date:
    return D0 + dt.timedelta(days=offset)


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
