import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plotburn.thresholds import (PERCENTILE_GRID, ConfusionCounts, ThresholdChoice,
                                 ThresholdError, _confusion_sweep,
                                 aggregate_plot, balanced_accuracy_threshold,
                                 cohens_kappa, make_predictions,
                                 max_accuracy_threshold, prediction_summary)


def confusion_at(scores, labels, threshold) -> ConfusionCounts:
    """Confusion counts at one threshold, through the policies' sorted sweep."""
    return ConfusionCounts(*map(int, _confusion_sweep(scores, labels, threshold)))


def table2_max_scores():
    """Score set whose unique optimal sweep yields FB 88 / FNB 38 / TB 404 / TNB 151."""
    preds = []
    preds += [(0.1, 1)] * 38 + [(0.9, 1)] * 404        # burned plots
    preds += [(0.2, 0)] * 151 + [(0.95, 0)] * 88        # unburned plots
    return preds


def table2_balanced_scores():
    """Score set whose accuracy curves cross at FB 57 / FNB 95 / TB 347 / TNB 182."""
    preds = []
    preds += [(0.1, 1)] * 95 + [(0.8, 1)] * 347
    preds += [(0.2, 0)] * 182 + [(0.9, 0)] * 57
    return preds


def oracle_best_accuracy(preds):
    """Brute force over every threshold position, ties to the lower threshold."""
    scores = sorted({s for s, _ in preds})
    candidates = [scores[0] - 1.0] + scores
    best_acc, best_t = -1.0, None
    for t in candidates:
        correct = sum(1 for s, lab in preds if (s > t) == bool(lab))
        acc = correct / len(preds)
        if acc > best_acc + 1e-12:
            best_acc, best_t = acc, t
    return best_acc, best_t


def oracle_confusion_at(scores, labels, threshold):
    """Confusion counts from one boolean pass over the scores."""
    called = scores > threshold
    return ConfusionCounts(
        false_burn=int((called & (labels == 0)).sum()),
        false_no_burn=int((~called & (labels == 1)).sum()),
        true_burn=int((called & (labels == 1)).sum()),
        true_no_burn=int((~called & (labels == 0)).sum()),
    )


def oracle_max_accuracy_threshold(scores, labels):
    """The max policy as one confusion pass per candidate threshold."""
    grid = np.percentile(scores, PERCENTILE_GRID)
    candidates = [(-1.0, float(scores.min()) - 1.0)]
    candidates += [(float(q), float(t)) for q, t in zip(PERCENTILE_GRID, grid)]
    best = None
    for q, t in candidates:
        counts = oracle_confusion_at(scores, labels, t)
        acc = counts.mean_accuracy
        if best is None or acc > best[0] + 1e-12:
            best = (acc, t, q, counts)
    return ThresholdChoice(best[1], best[2], best[3])


def oracle_balanced_accuracy_threshold(scores, labels):
    """The balanced policy as one confusion pass per grid threshold."""
    grid = np.percentile(scores, PERCENTILE_GRID)
    diffs = []
    for t in grid:
        c = oracle_confusion_at(scores, labels, t)
        diffs.append(c.burn_accuracy - c.no_burn_accuracy)
    diffs = np.asarray(diffs)

    cross = None
    for k in range(len(grid)):
        if diffs[k] == 0.0:
            end = k
            while end < len(grid) and diffs[end] == 0.0:
                end += 1
            q_hi = float(PERCENTILE_GRID[end]) if end < len(grid) else 100.0
            cross = ((float(PERCENTILE_GRID[k]) + q_hi) / 2.0,)
            break
        if k + 1 < len(grid) and diffs[k] > 0.0 and diffs[k + 1] < 0.0:
            frac = diffs[k] / (diffs[k] - diffs[k + 1])
            q_c = float(PERCENTILE_GRID[k] + frac * (PERCENTILE_GRID[k + 1] - PERCENTILE_GRID[k]))
            cross = (q_c, float(PERCENTILE_GRID[k]), float(PERCENTILE_GRID[k + 1]))
            break
    if cross is None:
        k = int(np.argmin(np.abs(diffs)))
        cross = (float(PERCENTILE_GRID[k]),)

    best = None
    for rank, q in enumerate(cross):
        t = float(np.percentile(scores, q))
        c = oracle_confusion_at(scores, labels, t)
        key = (abs(c.burn_accuracy - c.no_burn_accuracy), rank, q)
        if best is None or key < best[0]:
            best = (key, t, q, c)
    return ThresholdChoice(best[1], best[2], best[3])


# Plot scores with many ties (a few levels) mixed with distinct values.
tied_score_sets = st.lists(
    st.tuples(st.one_of(st.integers(0, 4).map(lambda k: k / 4),
                        st.floats(0.0, 1.0)),
              st.integers(0, 1)),
    min_size=2, max_size=60).filter(lambda preds: len({lab for _, lab in preds}) == 2)


@settings(max_examples=300, deadline=None)
@given(tied_score_sets)
def test_policies_equal_the_per_threshold_oracle(preds):
    scores = np.asarray([s for s, _ in preds])
    labels = np.asarray([lab for _, lab in preds])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert max_accuracy_threshold(preds) == oracle_max_accuracy_threshold(scores, labels)
        assert (balanced_accuracy_threshold(preds)
                == oracle_balanced_accuracy_threshold(scores, labels))
    for t in np.concatenate([scores, [-1.0, 2.0], np.percentile(scores, [12.5, 50.0])]):
        assert confusion_at(scores, labels, t) == oracle_confusion_at(scores, labels, t)


class TestAggregatePlot:
    def test_constant_scores(self):
        assert aggregate_plot([0.8, 0.8, 0.8]) == pytest.approx(0.8, abs=1e-15)

    def test_two_point_mean(self):
        assert aggregate_plot([0.0, 1.0]) == 0.5

    def test_matches_compensated_sum(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(0, 1, size=1000)
        exact = math.fsum(scores) / scores.size
        assert abs(aggregate_plot(scores) - exact) < 1e-12

    def test_non_finite_scores_skipped(self):
        assert aggregate_plot([0.1, np.nan, 0.3, np.inf]) == pytest.approx(0.2, abs=1e-15)

    def test_empty_raises(self):
        with pytest.raises(ThresholdError):
            aggregate_plot([])

    def test_border_pixels_excluded_unless_all_are_border(self):
        scores = [0.2, 0.4, 0.9, np.nan]
        assert aggregate_plot(scores, [True, False, False, False]) == \
            pytest.approx(0.65, abs=1e-15)
        assert aggregate_plot(scores, [True] * 4) == pytest.approx(0.5, abs=1e-15)


class TestMaxAccuracy:
    def test_perfect_separation(self):
        preds = [(0.9, 1)] * 5 + [(0.8, 1)] * 5 + [(0.2, 0)] * 4
        choice = max_accuracy_threshold(preds)
        assert choice.counts.mean_accuracy == 1.0
        assert 0.2 <= choice.threshold < 0.8

    def test_reference_confusion_reproduced(self):
        choice = max_accuracy_threshold(table2_max_scores())
        c = choice.counts
        assert (c.false_burn, c.false_no_burn, c.true_burn, c.true_no_burn) == \
            (88, 38, 404, 151)
        assert c.burn_accuracy == pytest.approx(404 / 442, abs=1e-12)
        assert c.no_burn_accuracy == pytest.approx(151 / 239, abs=1e-12)
        assert c.mean_accuracy == pytest.approx(555 / 681, abs=1e-12)

    def test_matches_exhaustive_oracle_on_random_data(self):
        rng = np.random.default_rng(1)
        for trial in range(25):
            n = int(rng.integers(20, 200))
            labels = (rng.random(n) < rng.uniform(0.3, 0.7)).astype(int)
            if labels.min() == labels.max():
                continue
            scores = rng.uniform(0, 1, size=n)
            scores = np.where(labels == 1, scores + rng.uniform(0, 0.4), scores)
            preds = list(zip(scores.tolist(), labels.tolist()))
            want_acc, want_t = oracle_best_accuracy(preds)
            choice = max_accuracy_threshold(preds)
            assert choice.counts.mean_accuracy == pytest.approx(want_acc, abs=1e-12)
            got = confusion_at(np.asarray([s for s, _ in preds]),
                               np.asarray([l for _, l in preds]), want_t)
            assert got.mean_accuracy == pytest.approx(want_acc, abs=1e-12)

    def test_single_label_rejected(self):
        with pytest.raises(ThresholdError):
            max_accuracy_threshold([(0.5, 1), (0.7, 1)])

    def test_nan_score_rejected(self):
        # +-inf too, before any percentile is taken: no numpy warning either.
        for bad in (np.nan, np.inf, -np.inf):
            preds = [(0.5, 1), (bad, 0), (0.2, 0)]
            for policy in (max_accuracy_threshold, balanced_accuracy_threshold):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ThresholdError, match="NaN"):
                        policy(preds)


class TestBalancedAccuracy:
    def test_symmetric_scores_balance_at_midpoint(self):
        preds = ([(0.2, 0), (0.3, 0), (0.4, 0)]
                 + [(0.6, 1), (0.7, 1), (0.8, 1)])
        choice = balanced_accuracy_threshold(preds)
        assert choice.threshold == pytest.approx(0.5, abs=1e-9)
        assert choice.counts.burn_accuracy == choice.counts.no_burn_accuracy == 1.0

    def test_reference_confusion_reproduced(self):
        choice = balanced_accuracy_threshold(table2_balanced_scores())
        c = choice.counts
        assert (c.false_burn, c.false_no_burn, c.true_burn, c.true_no_burn) == \
            (57, 95, 347, 182)
        assert c.burn_accuracy == pytest.approx(347 / 442, abs=1e-12)
        assert c.no_burn_accuracy == pytest.approx(182 / 239, abs=1e-12)

    def test_gap_at_returned_threshold_is_grid_minimal(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            n = int(rng.integers(30, 200))
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.min() == labels.max():
                continue
            scores = np.clip(rng.normal(0.4 + 0.2 * labels, 0.2), 0, 1)
            preds = list(zip(scores.tolist(), labels.tolist()))
            choice = balanced_accuracy_threshold(preds)
            got_gap = abs(choice.counts.burn_accuracy - choice.counts.no_burn_accuracy)
            arr_s = np.asarray([s for s, _ in preds])
            arr_l = np.asarray([l for _, l in preds])
            for t in np.percentile(arr_s, PERCENTILE_GRID):
                c = confusion_at(arr_s, arr_l, t)
                assert got_gap <= abs(c.burn_accuracy - c.no_burn_accuracy) + 1e-12

    def test_no_crossing_falls_back_with_warning(self):
        # Every plot scores the same, so burn accuracy never reaches no-burn
        # accuracy anywhere on the grid.
        preds = [(0.5, 1)] * 10 + [(0.5, 0)] * 10
        with pytest.warns(UserWarning, match="never cross"):
            choice = balanced_accuracy_threshold(preds)
        assert choice.counts.total == 20


class TestCohensKappa:
    def test_perfect_agreement(self):
        assert cohens_kappa(ConfusionCounts(0, 0, 40, 20)) == 1.0

    def test_chance_level_independence(self):
        # Marginal-product counts: predictions independent of labels.
        counts = ConfusionCounts(false_burn=30, false_no_burn=20,
                                 true_burn=30, true_no_burn=20)
        assert cohens_kappa(counts) == pytest.approx(0.0, abs=1e-12)

    def test_kappa_argmax_matches_accuracy_argmax_on_reference_set(self):
        preds = table2_max_scores()
        scores = np.asarray([s for s, _ in preds])
        labels = np.asarray([l for _, l in preds])
        ts = np.unique(np.concatenate([[scores.min() - 1.0],
                                       np.percentile(scores, np.arange(0, 100.5, 0.5))]))
        accs = [confusion_at(scores, labels, t).mean_accuracy for t in ts]
        kappas = [cohens_kappa(confusion_at(scores, labels, t)) for t in ts]
        t_acc = ts[int(np.argmax(accs))]
        t_kappa = ts[int(np.argmax(kappas))]
        s_at = lambda t: confusion_at(scores, labels, t)
        assert s_at(t_acc).mean_accuracy == s_at(t_kappa).mean_accuracy
        choice = max_accuracy_threshold(preds)
        assert s_at(t_kappa).mean_accuracy == pytest.approx(
            choice.counts.mean_accuracy, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ThresholdError):
            cohens_kappa(ConfusionCounts(0, 0, 0, 0))


def make_preds(scores_labels, t_max, t_bal, groups=None):
    means = {f"p{i:03d}": s for i, (s, _) in enumerate(scores_labels)}
    labels = {f"p{i:03d}": ("burned" if l else "not_burned")
              for i, (_, l) in enumerate(scores_labels)}

    class FakeChoice:
        def __init__(self, t):
            self.threshold = t
            self.percentile = 0.0

    return make_predictions(means, FakeChoice(t_max), FakeChoice(t_bal),
                            labels, groups or {})


class TestPredictionSummary:
    def test_all_burned_lands_in_one_cell(self):
        preds = make_preds([(0.9, 1)] * 6, 0.5, 0.5)
        tables = prediction_summary(preds)
        assert tables["crosstab"][(1, 1)] == 6
        assert tables["crosstab"][(0, 1)] == 0

    def test_containment_when_balanced_threshold_higher(self):
        rng = np.random.default_rng(3)
        scores = [(float(s), int(l)) for s, l in
                  zip(rng.uniform(0, 1, 60), rng.integers(0, 2, 60))]
        preds = make_preds(scores, 0.4, 0.6)
        # Balanced threshold above max threshold: balanced-burned is a subset.
        assert all(p.call_max == 1 for p in preds if p.call_balanced == 1)
        tables = prediction_summary(preds)
        assert tables["crosstab"][(1, 0)] == 0

    def test_summary_matches_direct_statistics(self):
        rng = np.random.default_rng(4)
        scores = [(float(s), int(l)) for s, l in
                  zip(rng.uniform(0, 1, 80), rng.integers(0, 2, 80))]
        preds = make_preds(scores, 0.5, 0.7)
        tables = prediction_summary(preds)
        cont = [row for row in tables["summary"] if row[0] == "continuous"][0]
        arr = np.asarray([s for s, _ in scores])
        assert cont[1] == 80
        assert cont[2] == pytest.approx(arr.mean(), abs=1e-12)
        assert cont[3] == pytest.approx(arr.std(ddof=1), abs=1e-12)
        assert cont[4] == pytest.approx(arr.max(), abs=1e-12)
        assert cont[5] == pytest.approx(arr.min(), abs=1e-12)

    def test_density_rows_split_by_group(self):
        scores = [(0.2, 0), (0.3, 0), (0.8, 1), (0.9, 1)]
        preds = make_preds(scores, 0.5, 0.5,
                           groups={"p000": "control", "p001": "treatment",
                                   "p002": "control", "p003": "treatment"})
        tables = prediction_summary(preds, n_bins=10)
        groups = {row[2] for row in tables["density"]}
        assert groups == {"control", "treatment"}
        total = sum(row[5] for row in tables["density"]
                    if row[0] == "max_accuracy")
        assert total == 4


class TestPolicyInvariants:
    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(0, 1, 100)
        labels = rng.integers(0, 2, 100)
        previous = None
        for t in np.linspace(-0.1, 1.1, 40):
            called = int((scores > t).sum())
            if previous is not None:
                assert called <= previous
            previous = called

    def test_max_policy_accuracy_dominates_balanced(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            n = int(rng.integers(30, 150))
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.min() == labels.max():
                continue
            scores = np.clip(rng.normal(0.3 + 0.3 * labels, 0.25), 0, 1)
            preds = list(zip(scores.tolist(), labels.tolist()))
            acc_max = max_accuracy_threshold(preds).counts.mean_accuracy
            acc_bal = balanced_accuracy_threshold(preds).counts.mean_accuracy
            assert acc_max >= acc_bal - 1e-12

    def test_calls_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        n = 120
        labels = (rng.random(n) < 0.6).astype(int)
        scores = np.clip(rng.normal(0.3 + 0.3 * labels, 0.2), 0.001, 0.999)
        preds = list(zip(scores.tolist(), labels.tolist()))
        for transform in (lambda s: s ** 3, lambda s: np.log1p(9 * s) / np.log(10),
                          lambda s: 0.2 + 0.5 * s):
            warped = [(float(transform(s)), l) for s, l in preds]
            for policy in (max_accuracy_threshold, balanced_accuracy_threshold):
                base = policy(preds)
                moved = policy(warped)
                base_calls = scores > base.threshold
                moved_calls = np.asarray([s for s, _ in warped]) > moved.threshold
                assert np.array_equal(base_calls, moved_calls), policy.__name__
