"""Acceptance suite: one test (or test group) per release criterion.

Each criterion is exercised at its stated tolerance; the conftest prints a
per-criterion PASS/FAIL summary at the end of the session.
"""

import dataclasses
import datetime as dt
import itertools
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import gap_table, inject_gaps
from test_features import oracle_vdiff
from test_indices import oracle_index

from plotburn.cv import LeakageError, loocv_plot
from plotburn.features import TEMPORAL_NAMES, build_feature_table, temporal_columns
from plotburn.forest import ForestParams
from plotburn.indices import ALL_INDICES, SWIR_SET, EndmemberSet, compute_index
from plotburn.pipeline import RunConfig, compare_ablations, run_pipeline
from plotburn.scene import gap_statistics
from plotburn.separability import SampleStats, m_statistic, separability_curve
from plotburn.synth import ScenarioConfig, generate
from plotburn.thresholds import (balanced_accuracy_threshold,
                                 max_accuracy_threshold)

# --------------------------------------------------------------------------
# Criterion 1: threshold-policy reproduction of the reference accuracy table.
# --------------------------------------------------------------------------

# Reference confusion column of the max-accuracy policy:
# (false burn, false no burn, true burn, true no burn).
REFERENCE_MAX_COUNTS = (88, 38, 404, 151)

# Erratum to the reference table. Its max-policy column prints mean / burn /
# no-burn accuracy as 0.82 / 0.91 / 0.63. The counts above give exactly
# 555/681 = 0.814978, 404/442 = 0.914027 and 151/239 = 0.631799. The class
# accuracies round to their printed values, but 0.814978 rounds to 0.81; it
# reaches 0.82 only when rounded twice, half up (0.814978 -> 0.815 -> 0.82).
# 555/681 is also the best overall accuracy over every cut of these scores,
# and the same definition gives the balanced column's printed 0.78
# (529/681 = 0.7768), so the printed 0.82 is the faulty entry. The counts are
# primary: the mean-accuracy check compares against the exact fraction at
# +/-1e-12, which is tighter than the former 0.82 +/- 0.005 band, not looser.


def reference_max_scores():
    preds = [(0.1, 1)] * 38 + [(0.9, 1)] * 404
    preds += [(0.2, 0)] * 151 + [(0.95, 0)] * 88
    return preds


def reference_balanced_scores():
    preds = [(0.1, 1)] * 95 + [(0.8, 1)] * 347
    preds += [(0.2, 0)] * 182 + [(0.9, 0)] * 57
    return preds


def test_criterion_1_max_policy_counts_and_class_accuracies():
    t0 = time.monotonic()
    choice = max_accuracy_threshold(reference_max_scores())
    elapsed = time.monotonic() - t0
    c = choice.counts
    assert (c.false_burn, c.false_no_burn, c.true_burn, c.true_no_burn) == \
        REFERENCE_MAX_COUNTS
    assert abs(c.burn_accuracy - 0.91) <= 0.005
    assert abs(c.no_burn_accuracy - 0.63) <= 0.005
    assert elapsed < 1.0


def test_criterion_1_max_policy_mean_accuracy():
    _, _, true_burn, true_no_burn = REFERENCE_MAX_COUNTS
    expected = Fraction(true_burn + true_no_burn, sum(REFERENCE_MAX_COUNTS))
    choice = max_accuracy_threshold(reference_max_scores())
    assert abs(choice.counts.mean_accuracy - expected) <= 1e-12, (
        f"mean accuracy {choice.counts.mean_accuracy!r} vs reference "
        f"{expected} = {float(expected)!r}")


def test_criterion_1_balanced_policy_reproduces_reference_column():
    t0 = time.monotonic()
    choice = balanced_accuracy_threshold(reference_balanced_scores())
    elapsed = time.monotonic() - t0
    c = choice.counts
    assert (c.false_burn, c.false_no_burn, c.true_burn, c.true_no_burn) == \
        (57, 95, 347, 182)
    assert abs(c.mean_accuracy - 0.78) <= 0.005
    assert abs(c.burn_accuracy - 0.79) <= 0.005
    assert abs(c.no_burn_accuracy - 0.76) <= 0.005
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# Criterion 2: index formulas against independent scalar oracles.
# --------------------------------------------------------------------------


def _pure_python_solve(A, b):
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(M[r][col]))
        M[col], M[piv] = M[piv], M[col]
        d = M[col][col]
        for r in range(col + 1, n):
            f = M[r][col] / d
            for c in range(col, n + 1):
                M[r][c] -= f * M[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = M[r][n] - sum(M[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / M[r][r]
    return x


def _oracle_unmix_solvers(E_cols):
    """Per-support KKT inverses, computed once; E_cols is 3 lists of 9 floats."""
    n_bands = len(E_cols[0])
    solvers = []
    for r in (1, 2, 3):
        for support in itertools.combinations(range(3), r):
            Es = [[E_cols[j][i] for j in support] for i in range(n_bands)]
            G = [[2.0 * sum(Es[i][a] * Es[i][b] for i in range(n_bands))
                  for b in range(r)] + [1.0] for a in range(r)]
            G.append([1.0] * r + [0.0])
            solvers.append((support, Es, G))
    return solvers


def oracle_char_fraction(spectrum, solvers, n_bands=9):
    best = None
    for support, Es, G in solvers:
        r = len(support)
        rhs = [2.0 * sum(Es[i][a] * spectrum[i] for i in range(n_bands))
               for a in range(r)] + [1.0]
        sol = _pure_python_solve(G, rhs)
        f = sol[:r]
        if any(v < -1e-10 for v in f):
            continue
        resid = sum((spectrum[i] - sum(Es[i][a] * f[a] for a in range(r))) ** 2
                    for i in range(n_bands))
        if best is None or resid < best[0] - 1e-15:
            full = [0.0, 0.0, 0.0]
            for a, j in enumerate(support):
                full[j] = f[a]
            best = (resid, full)
    return best[1][2]


def test_criterion_2_formulas_match_independent_oracles():
    rng = np.random.default_rng(2024)
    veg = np.array([0.04, 0.09, 0.05, 0.20, 0.35, 0.45, 0.50, 0.25, 0.12])
    soil = np.array([0.16, 0.22, 0.28, 0.31, 0.34, 0.36, 0.38, 0.48, 0.45])
    char = np.array([0.06, 0.06, 0.06, 0.06, 0.06, 0.06, 0.06, 0.07, 0.07])
    endmembers = EndmemberSet(veg, soil, char)
    solvers = _oracle_unmix_solvers([veg.tolist(), soil.tolist(), char.tolist()])
    closed_form = [n for n in ALL_INDICES if n != "BASMA"]

    batch = {band: rng.uniform(0.0, 1.0, size=1000) for band in SWIR_SET}
    t0 = time.monotonic()
    got = {name: np.asarray(compute_index(name, batch)) for name in closed_form}
    got["BASMA"] = np.asarray(compute_index("BASMA", batch, endmembers=endmembers))
    elapsed_policy = time.monotonic() - t0
    assert elapsed_policy < 1.0

    for i in range(1000):
        bands = {b: float(batch[b][i]) for b in SWIR_SET}
        for name in closed_form:
            want = oracle_index(name, bands)
            if math.isnan(want):
                assert np.isnan(got[name][i])
            else:
                assert abs(got[name][i] - want) < 1e-9, name
        spectrum = [bands[b] for b in SWIR_SET]
        assert abs(got["BASMA"][i] - oracle_char_fraction(spectrum, solvers)) < 1e-9


def test_criterion_2_singular_inputs_flagged_never_clamped():
    assert np.isnan(compute_index("BAI", {"NIR": 0.06, "Red": 0.1}))
    assert np.isnan(compute_index("NDVI", {"NIR": 0.0, "Red": 0.0}))
    assert np.isnan(compute_index("SR", {"NIR": 0.4, "Red": 0.0}))
    assert np.isnan(compute_index("NBR", {"NIR": 0.0, "SWIR2": 0.0}))
    assert np.isnan(compute_index("NBR2", {"SWIR1": 0.0, "SWIR2": 0.0}))
    assert np.isnan(compute_index("BSoI", {"Blue": 0.0, "Green": 0.0,
                                           "Red": 0.0, "NIR": 0.0}))
    assert np.isnan(compute_index("BSI", {"Green": 0.0, "Red": 0.0,
                                          "NIR": 0.0, "SWIR2": 0.0}))


# --------------------------------------------------------------------------
# Criterion 3: M-statistic identities.
# --------------------------------------------------------------------------


def test_criterion_3_m_statistic_properties():
    same = SampleStats(30, 0.7, 0.2)
    assert m_statistic(same, same) == 0.0
    assert m_statistic(SampleStats(9, 2.0, 0.5), SampleStats(9, 0.0, 0.5)) == 2.0
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.normal(0, 1, 50)
        y = rng.normal(0.8, 1.5, 60)
        a = rng.uniform(0.1, 20.0) * rng.choice([-1.0, 1.0])
        b = rng.uniform(-10.0, 10.0)
        m0 = m_statistic(SampleStats.from_values(x), SampleStats.from_values(y))
        m1 = m_statistic(SampleStats.from_values(a * x + b),
                         SampleStats.from_values(a * y + b))
        assert abs(m0 - m1) < 1e-12


# --------------------------------------------------------------------------
# Criterion 4: separability decay on the default synthetic scenario.
# --------------------------------------------------------------------------


def _spearman(xs, ys):
    def ranks(v):
        order = np.argsort(v)
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        return r

    rx, ry = ranks(np.asarray(xs)), ranks(np.asarray(ys))
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx ** 2).sum() * (ry ** 2).sum()))


def test_criterion_4_char_index_separability_decay():
    t0 = time.monotonic()
    scenario = generate(ScenarioConfig())
    burned = [(p, scenario.truth.burn_date[p.plot_id])
              for p in scenario.plots if scenario.truth.burned[p.plot_id]]
    assert len(burned) >= 200
    table = build_feature_table(scenario.cube_a, None, [plot for plot, _ in burned], ["CI"])
    means = table.plot_means["A_CI"]
    curve = separability_curve("CI", means, scenario.cube_a.dates,
                               [date for _, date in burned], 8)
    elapsed = time.monotonic() - t0
    m = curve.m_values
    assert all(np.isfinite(m))
    assert m[0] > 1.5 and m[1] > 1.5
    assert all(v < 0.5 for v in m[6:])
    assert _spearman(curve.offsets, m) <= -0.8
    assert elapsed < 120.0


# --------------------------------------------------------------------------
# Criterion 5: temporal-differencing oracle equivalence.
# --------------------------------------------------------------------------


def test_criterion_5_vdiff_equals_brute_force_on_10000_series():
    # The production kernel on every series at once, each one a column padded
    # with missing values, against the scalar scan of each series.
    rng = np.random.default_rng(5)
    matrix = np.full((40, 10000), np.nan)
    lengths = []
    for j in range(matrix.shape[1]):
        n = int(rng.integers(5, 41))
        matrix[:n, j] = rng.normal(0, 1, size=n)
        lengths.append(n)
    got = temporal_columns(matrix)
    for j, n in enumerate(lengths):
        series = matrix[:n, j].tolist()
        for b in (0, 1, 2):
            for direction in ("drop", "spike"):
                want = oracle_vdiff(series, direction, b)
                assert got[j, TEMPORAL_NAMES.index(f"{direction}{b}")] == want


# --------------------------------------------------------------------------
# Criterion 6: chance level under label permutation, and the leakage probe.
# --------------------------------------------------------------------------

CHANCE_SCENARIO = ScenarioConfig(n_plots=50, plot_area_mean_ha=0.02,
                                 plot_area_median_ha=0.018,
                                 burn_probability=0.5, seed=11)
PERMUTATION_SEED = 9


@pytest.fixture(scope="module")
def chance_table():
    scenario = generate(CHANCE_SCENARIO)
    table = build_feature_table(scenario.cube_a, scenario.cube_b, scenario.plots,
                                list(ALL_INDICES), endmembers=scenario.endmembers)
    return scenario, table


def test_criterion_6_permuted_labels_score_at_chance(chance_table):
    t0 = time.monotonic()
    scenario, table = chance_table
    labels = scenario.labels()
    ids = sorted(labels)
    values = [labels[i] for i in ids]
    perm = np.random.default_rng(PERMUTATION_SEED).permutation(len(ids))
    permuted = {ids[i]: values[perm[i]] for i in range(len(ids))}
    result = loocv_plot(table, permuted, ForestParams(n_trees=40, seed=11),
                        mode="loocv")
    assert len(result.folds) == 50
    calls = {p: int(m > 0.5) for p, m in result.plot_means.items()}
    want = {p: 1 if permuted[p] == "burned" else 0 for p in calls}
    accuracy = float(np.mean([calls[p] == want[p] for p in calls]))
    assert 0.40 <= accuracy <= 0.60
    assert time.monotonic() - t0 < 300.0


def test_criterion_6_leakage_probe_trips(chance_table):
    scenario, table = chance_table
    labels = scenario.labels()
    plot_rows = table.plot_rows()
    plots = sorted(labels)
    holdout = plots[0]
    train_idx = [i for p in plots[1:] for i in plot_rows[p]]
    train_idx.append(plot_rows[holdout][0])   # the duplicated holdout pixel
    folds = [((holdout,), np.asarray(train_idx))]
    with pytest.raises(LeakageError):
        loocv_plot(table, labels, ForestParams(n_trees=5, seed=0), folds=folds)


# --------------------------------------------------------------------------
# Criterion 7: detection versus observation cadence.
# --------------------------------------------------------------------------

CADENCE_BASE = ScenarioConfig(n_plots=60, plot_area_mean_ha=0.02,
                              plot_area_median_ha=0.018, burn_probability=0.45,
                              revisit_a=1.0, revisit_b=7.0,
                              char_half_life_ir=1.5, cloud_dropout_a=0.0,
                              cloud_dropout_b=0.0, n_cloud_events=0, seed=21)


def _event_mask_schedule(truth, days):
    """Hide the post-event window for every plot (burn date or till date)."""
    schedule = []
    for plot_id, burned in truth.burned.items():
        start = truth.burn_date[plot_id] if burned else truth.till_date[plot_id]
        schedule.append((plot_id, start, start + dt.timedelta(days=days + 1)))
    return schedule


def _burned_recall(scenario):
    table = build_feature_table(scenario.cube_a, scenario.cube_b, scenario.plots,
                                list(ALL_INDICES), endmembers=scenario.endmembers)
    labels = scenario.labels()
    result = loocv_plot(table, labels, ForestParams(n_trees=40, seed=21),
                        mode="grouped:10")
    labeled = [(result.plot_means[p], 1 if labels[p] == "burned" else 0)
               for p in sorted(result.plot_means)]
    counts = balanced_accuracy_threshold(labeled).counts
    return counts.true_burn / (counts.true_burn + counts.false_no_burn)


def test_criterion_7_recall_depends_on_cadence():
    t0 = time.monotonic()
    daily = generate(CADENCE_BASE)
    recall_daily = _burned_recall(daily)

    slow = generate(dataclasses.replace(CADENCE_BASE, revisit_a=8.0))
    recall_slow = _burned_recall(slow)
    assert recall_daily - recall_slow >= 0.15

    schedule = _event_mask_schedule(daily.truth, 5)
    cube_a, truth = inject_gaps(daily.cube_a, schedule, daily.plots, daily.truth)
    cube_b, truth = inject_gaps(daily.cube_b, schedule, daily.plots, truth)
    masked = dataclasses.replace(daily, cube_a=cube_a, cube_b=cube_b, truth=truth)
    recall_masked = _burned_recall(masked)
    assert recall_daily - recall_masked >= 0.25
    assert time.monotonic() - t0 < 600.0


# --------------------------------------------------------------------------
# Criterion 8: sensor-ablation ordering on dual-signal data.
# --------------------------------------------------------------------------


def test_criterion_8_combined_sensors_dominate(tmp_path):
    scenario = ScenarioConfig(n_plots=40, plot_area_mean_ha=0.02,
                              plot_area_median_ha=0.018, burn_probability=0.5,
                              seed=31)
    runs = {}
    for mode in ("combined", "A_only", "B_only"):
        config = RunConfig(out_root=str(tmp_path), name=mode, scenario=scenario,
                           sensor_mode=mode, n_trees=40, cv_mode="grouped:8",
                           seed=31)
        runs[mode] = run_pipeline(config)
    table = compare_ablations(runs)
    accuracy = {(row[0], row[1]): row[9] for row in table}
    combined = accuracy[("combined", "max")]
    best_single = max(accuracy[("A_only", "max")], accuracy[("B_only", "max")])
    assert combined >= best_single - 0.01


# --------------------------------------------------------------------------
# Criterion 9: full-pipeline determinism.
# --------------------------------------------------------------------------


def test_criterion_9_reruns_are_byte_identical(tmp_path):
    scenario = ScenarioConfig(n_plots=16, plot_area_mean_ha=0.02,
                              plot_area_median_ha=0.018, burn_probability=0.5,
                              seed=9)
    config = RunConfig(out_root=str(tmp_path), scenario=scenario, n_trees=25,
                       cv_mode="grouped:4", min_leaf=2, seed=9)
    first = run_pipeline(config)
    second = run_pipeline(config)
    assert first != second
    for name in ("predictions.csv", "importance.csv"):
        with open(os.path.join(first, name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(second, name), "rb") as fh:
            b = fh.read()
        assert a == b, name


# --------------------------------------------------------------------------
# Criterion 10: gap-report fidelity against the generator's truth.
# --------------------------------------------------------------------------


def test_criterion_10_gap_report_matches_truth_exactly():
    scenario = generate(ScenarioConfig(n_plots=40, plot_area_mean_ha=0.02,
                                       plot_area_median_ha=0.018, seed=0))
    cubes = {"A": scenario.cube_a, "B": scenario.cube_b}
    report = gap_statistics(cubes, scenario.plots)
    truth_table = gap_table(scenario.truth)
    for plot in scenario.plots:
        for sensor in ("A", "B"):
            got = report.per_plot[plot.plot_id].get(sensor)
            want = truth_table.get(plot.plot_id, {}).get(sensor)
            assert got == want
    for plot_id, entries in report.per_plot.items():
        for sensor, (n, mean_gap, max_gap) in entries.items():
            assert max_gap >= mean_gap >= 0
    for sensor, summary in report.summary.items():
        assert summary["max_of_means"] >= summary["mean_of_means"]
        assert summary["max_of_maxes"] >= summary["mean_of_maxes"]
        assert summary["mean_of_maxes"] >= summary["mean_of_means"]
