import dataclasses
import datetime as dt
import hashlib

import numpy as np
import pytest

from conftest import gap_table, inject_gaps, table_plot_means
from plotburn.scene import SENSOR_BANDS, gap_statistics
from plotburn import synth
from plotburn.synth import ScenarioConfig, generate

SMALL = ScenarioConfig(n_plots=30, plot_area_mean_ha=0.05,
                       plot_area_median_ha=0.04, seed=1)


@pytest.fixture(scope="module")
def small_scenario():
    return generate(SMALL)


class TestGenerate:
    def test_same_seed_bit_identical(self):
        a = generate(dataclasses.replace(SMALL, n_plots=8))
        b = generate(dataclasses.replace(SMALL, n_plots=8))
        assert a.truth.burn_date == b.truth.burn_date
        assert a.truth.valid_obs == b.truth.valid_obs
        for oa, ob in zip(a.cube_a.observations, b.cube_a.observations):
            assert oa.date == ob.date
            assert np.array_equal(oa.valid, ob.valid)
            for band in oa.bands:
                assert np.array_equal(oa.bands[band], ob.bands[band],
                                      equal_nan=True)

    def test_reflectance_bounds_and_mask_fill(self, small_scenario):
        for cube in (small_scenario.cube_a, small_scenario.cube_b):
            for obs in cube.observations:
                for grid in obs.bands.values():
                    valid_vals = grid[obs.valid]
                    assert np.isfinite(valid_vals).all()
                    assert valid_vals.min() >= 0.0 and valid_vals.max() <= 1.0
                    assert np.isnan(grid[~obs.valid]).all()

    @pytest.mark.parametrize("field, value", [
        ("n_plots", 0), ("n_plots", -3), ("n_plots", 2.0), ("n_plots", True),
        ("resolution", 0.0), ("resolution", -3.0), ("plot_area_mean_ha", 0.0),
        ("plot_area_median_ha", 0), ("plot_area_median_ha", float("nan")),
        ("plot_area_mean_ha", "1.4"), ("burn_probability", "0.5"), ("burn_probability", 1.5),
        ("cloud_dropout_b", -0.1), ("unlabeled_fraction", float("nan")),
        ("char_half_life_vis", None), ("char_half_life_ir", 0.0), ("revisit_a", float("inf")),
        ("revisit_b", [5.0]), ("n_cloud_events", 1.5), ("n_cloud_events", -1),
        ("noise_sd_a", -0.01), ("plot_jitter_common_sd", True), ("plot_jitter_band_sd", "0"),
        ("seed", -1), ("seed", 2.0), ("pre_levels", {"NIR": 0.3}), ("pre_levels", [0.3]),
    ])
    def test_bad_sizes_rejected_when_made(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            dataclasses.replace(SMALL, **{field: value})

    def test_zero_burn_probability(self):
        scenario = generate(dataclasses.replace(SMALL, burn_probability=0.0))
        assert not any(scenario.truth.burned.values())
        assert all(d is None for d in scenario.truth.burn_date.values())
        assert all(p.label == "not_burned" for p in scenario.plots)

    def test_certain_burns_observed_within_a_day(self):
        cfg = dataclasses.replace(SMALL, burn_probability=1.0, revisit_a=1.0,
                                  cloud_dropout_a=0.0, cloud_dropout_b=0.0,
                                  n_cloud_events=0, char_half_life_vis=5.0)
        scenario = generate(cfg)
        for plot_id, burn_date in scenario.truth.burn_date.items():
            dates = scenario.truth.valid_obs["A"][plot_id]
            assert any(0 <= (d - burn_date).days <= 1 for d in dates)

    def test_till_after_burn_ordering(self, small_scenario):
        truth = small_scenario.truth
        for plot_id, burned in truth.burned.items():
            if burned:
                assert truth.till_date[plot_id] >= truth.burn_date[plot_id]
                assert (synth.BURN_WINDOW_START <= truth.burn_date[plot_id]
                        <= synth.BURN_WINDOW_END)

    def test_signal_levels_configurable(self):
        from plotburn.synth import PRE_LEVELS

        custom = dict(PRE_LEVELS, NIR=0.55)
        cfg = dataclasses.replace(SMALL, n_plots=4, burn_probability=0.0,
                                  noise_sd_a=0.0, plot_jitter_common_sd=0.0,
                                  plot_jitter_band_sd=0.0, pre_levels=custom)
        scenario = generate(cfg)
        plot = scenario.plots[0]
        till = scenario.truth.till_date[plot.plot_id]
        for obs in scenario.cube_a.observations:
            if obs.date < till and obs.valid[plot.rows, plot.cols].all():
                assert obs.bands["NIR"][plot.rows, plot.cols].max() == \
                    pytest.approx(0.55, abs=1e-6)
                break
        else:
            pytest.skip("no clear pre-till observation in this draw")

    def test_plot_geometry_disjoint(self, small_scenario):
        seen = set()
        for plot in small_scenario.plots:
            cells = set(zip(plot.rows.tolist(), plot.cols.tolist()))
            assert not cells & seen
            seen |= cells


# A scene with burned, unburned and unlabeled plots and cloud losses on both
# sensors, and the SHA-256 digests generate gave it when it still updated the
# grids one plot at a time.
PINNED = ScenarioConfig(n_plots=12, plot_area_mean_ha=0.03, plot_area_median_ha=0.02,
                        burn_probability=0.6, unlabeled_fraction=0.25, seed=11)
PINNED_DIGESTS = {
    "A": "d19cec16ef53a320168e3f3ceb4c7004152242a5f44060858b98ea68bab836e1",
    "B": "ac1fa9dbc339ea1be8e6e6133d1e60743e39e80c7edf84e96d311cc764a15809",
    "truth": "4778a12847f9c606e479621cc1e537aeb055aca26c89ce5defee9741343f9e48",
    "plots": "8aa3dda07f3b099f61e4722fef6716fb8a48d93ff9af3467b4b1cb60fe32fee9",
}


def scene_digests(scenario) -> dict[str, str]:
    """One SHA-256 per cube over every pass's date, band arrays (in sensor
    band order, native byte order) and valid mask; one over the truth
    tables; one over the plots' ids, labels, groups and cells."""
    out = {}
    for cube in (scenario.cube_a, scenario.cube_b):
        h = hashlib.sha256()
        for obs in cube.observations:
            h.update(obs.date.isoformat().encode())
            for band in SENSOR_BANDS[obs.sensor]:
                grid = obs.bands[band]
                h.update(f"{band} {grid.dtype} {grid.shape}".encode())
                h.update(np.ascontiguousarray(grid).tobytes())
            h.update(np.ascontiguousarray(obs.valid).tobytes())
        out[cube.sensor] = h.hexdigest()
    t = scenario.truth
    text = repr([(p, t.burned[p], t.burn_date[p], t.till_date[p]) for p in sorted(t.burned)]
                + [(s, p, dates) for s in sorted(t.valid_obs)
                   for p, dates in sorted(t.valid_obs[s].items())])
    out["truth"] = hashlib.sha256(text.encode()).hexdigest()
    h = hashlib.sha256()
    for p in scenario.plots:
        h.update(f"{p.plot_id} {p.label} {p.group}".encode())
        for cells in (p.rows, p.cols, p.border):
            h.update(np.ascontiguousarray(cells).tobytes())
    out["plots"] = h.hexdigest()
    return out


def test_pinned_scene_keeps_its_digests():
    scenario = generate(PINNED)
    # The draw covers what the digests should guard.
    assert 0 < sum(scenario.truth.burned.values()) < PINNED.n_plots
    assert any(p.label == "unlabeled" for p in scenario.plots)
    for sensor, cube in (("A", scenario.cube_a), ("B", scenario.cube_b)):
        assert sum(map(len, scenario.truth.valid_obs[sensor].values())) < (
            PINNED.n_plots * len(cube.observations))
    assert scene_digests(scenario) == PINNED_DIGESTS


class TestGapTruth:
    def test_gap_statistics_matches_truth_exactly(self, small_scenario):
        cubes = {"A": small_scenario.cube_a, "B": small_scenario.cube_b}
        report = gap_statistics(cubes, small_scenario.plots)
        table = gap_table(small_scenario.truth)
        for plot in small_scenario.plots:
            for sensor in ("A", "B"):
                got = report.per_plot[plot.plot_id].get(sensor)
                want = table.get(plot.plot_id, {}).get(sensor)
                assert got == want

    def test_default_cloud_model_hits_gap_targets(self):
        scenario = generate(dataclasses.replace(SMALL, n_plots=40, seed=0))
        table = gap_table(scenario.truth)
        targets = {"A": (2.2, 8.4), "B": (6.8, 12.2)}
        for sensor, (t_mean, t_max) in targets.items():
            means = [v[sensor][1] for v in table.values() if sensor in v]
            maxes = [v[sensor][2] for v in table.values() if sensor in v]
            assert abs(np.mean(means) / t_mean - 1) < 0.15
            assert abs(np.mean(maxes) / t_max - 1) < 0.15


class TestSignalModel:
    def test_char_excursion_decays_to_till_levels(self):
        # Well past five infrared half-lives the burned and tilled-unburned
        # NIR distributions must be indistinguishable. Needs enough plots for
        # the group means to beat per-plot brightness jitter.
        scenario = generate(dataclasses.replace(SMALL, n_plots=200))
        truth = scenario.truth
        late_b, late_u = [], []
        dates = scenario.cube_a.dates
        means = table_plot_means(scenario.cube_a, scenario.plots, "NIR")
        for plot, values in zip(scenario.plots, means):
            event = (truth.burn_date[plot.plot_id] if truth.burned[plot.plot_id]
                     else truth.till_date[plot.plot_id])
            for d, v in zip(dates, values):
                if np.isfinite(v) and (d - event).days > 16:
                    (late_b if truth.burned[plot.plot_id] else late_u).append(v)
        assert len(late_b) > 50 and len(late_u) > 50
        pooled_sd = np.sqrt((np.var(late_b) + np.var(late_u)) / 2)
        assert abs(np.mean(late_b) - np.mean(late_u)) < 0.5 * pooled_sd

    def test_fresh_burn_depresses_char_index(self, small_scenario):
        truth = small_scenario.truth
        fresh, tilled = [], []
        dates = small_scenario.cube_a.dates
        means = table_plot_means(small_scenario.cube_a, small_scenario.plots, "CI")
        for plot, values in zip(small_scenario.plots, means):
            if truth.burned[plot.plot_id]:
                burn = truth.burn_date[plot.plot_id]
                fresh += [v for d, v in zip(dates, values)
                          if np.isfinite(v) and 0 <= (d - burn).days <= 1]
            else:
                till = truth.till_date[plot.plot_id]
                tilled += [v for d, v in zip(dates, values)
                           if np.isfinite(v) and (d - till).days >= 0]
        assert np.mean(fresh) < np.mean(tilled) - 0.4


class TestInjectGaps:
    def test_empty_schedule_is_identity(self, small_scenario):
        cube, truth = inject_gaps(small_scenario.cube_a, [], small_scenario.plots,
                                  small_scenario.truth)
        for a, b in zip(cube.observations, small_scenario.cube_a.observations):
            assert np.array_equal(a.valid, b.valid)
        assert truth.valid_obs == small_scenario.truth.valid_obs

    def test_plot_region_masked_and_truth_updated(self, small_scenario):
        plot = small_scenario.plots[0]
        dates = small_scenario.truth.valid_obs["A"][plot.plot_id]
        assert len(dates) >= 2
        start, end = dates[0], dates[1] + dt.timedelta(days=1)
        schedule = [(plot.plot_id, start, end)]
        cube, truth = inject_gaps(small_scenario.cube_a, schedule,
                                  small_scenario.plots, small_scenario.truth)
        removed = [d for d in dates if start <= d < end]
        kept = truth.valid_obs["A"][plot.plot_id]
        assert all(d not in kept for d in removed)
        hit = [o for o in cube.observations if start <= o.date < end]
        for obs in hit:
            assert not obs.valid[plot.rows, plot.cols].any()
        other = small_scenario.plots[1]
        assert truth.valid_obs["A"][other.plot_id] == \
            small_scenario.truth.valid_obs["A"][other.plot_id]

    def test_whole_observation_masking_counts(self, small_scenario):
        target = small_scenario.cube_a.observations[2].date
        schedule = [(None, target, target + dt.timedelta(days=1))]
        cube, truth = inject_gaps(small_scenario.cube_a, schedule,
                                  small_scenario.plots, small_scenario.truth)
        for plot_id, dates in truth.valid_obs["A"].items():
            assert target not in dates
