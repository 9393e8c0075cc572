import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import load_forest
from plotburn import forest
from plotburn.forest import (DegenerateModelError, ForestError, ForestParams,
                             SchemaMismatchError, apply_impute, fit_impute_medians,
                             predict_scores, save_forest, top_k_features, train_forest)


def separable_data(n=200, n_features=6, margin=10.0, seed=0):
    """Two clouds split by feature 0 with a wide margin; others are noise."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(np.int64)
    X = rng.normal(0, 1, size=(n, n_features))
    X[:, 0] = y * margin + rng.normal(0, 1, size=n)
    return X, y


def schema_for(n):
    return [f"f{i}" for i in range(n)]


def assert_same_trees(back, model):
    assert back.n_trees == model.n_trees
    for got, want in zip(back.trees, model.trees):
        for name in ("feature", "threshold", "left", "right", "votes"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def bits(value):
    return np.float64(value).view(np.int64)


def oracle_best_split(X, y, idx, candidates, min_leaf):
    """The split search one float column at a time: the reference the rank
    search in forest._best_split must match bit for bit."""
    n = idx.size
    y_node = y[idx]
    n1 = int(y_node.sum())
    n0 = n - n1
    parent = forest._gini(n0, n1)
    best_dec, best_f, best_thr = 0.0, -1, 0.0
    ks = np.arange(1, n)
    for f in candidates:
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        ys = y_node[order]
        usable = (vs[1:] > vs[:-1]) & (ks >= min_leaf) & (n - ks >= min_leaf)
        if not usable.any():
            continue
        c1l = np.cumsum(ys)[:-1][usable]
        kl = ks[usable]
        c0l = kl - c1l
        kr = n - kl
        gl = forest._gini(c0l, c1l)
        gr = forest._gini(n0 - c0l, n1 - c1l)
        dec = parent - (kl * gl + kr * gr) / n
        j = int(np.argmax(dec))
        if dec[j] > best_dec + 1e-15:
            vpos = int(np.nonzero(usable)[0][j]) + 1
            best_dec = float(dec[j])
            best_f = int(f)
            lo, hi = vs[vpos - 1], vs[vpos]
            best_thr = float((lo + hi) / 2.0)
            if not lo <= best_thr < hi:       # rounded up to hi, or overflowed
                best_thr = float(lo)
    return best_dec, best_f, best_thr


def adversarial_column(kind, n, rng):
    """Values that stress an exact split search: heavy ties, signed zeros,
    doubles two ulps apart and consecutive doubles (whose midpoints round to
    the upper one half of the time)."""
    if kind == "normal":
        return rng.normal(0, 1, size=n)
    if kind == "ties":
        return rng.integers(0, 4, size=n).astype(float)
    if kind == "signed-zeros":
        return rng.choice([-0.0, 0.0, 1.0, -1.0], size=n)
    if kind == "neighbours":
        base = rng.normal(0, 1e3)
        return np.nextafter(np.nextafter(base, rng.choice([-np.inf, np.inf], size=n)),
                            rng.choice([-np.inf, base, np.inf], size=n))
    if kind == "adjacent":
        values, steps = np.full(n, rng.normal()), rng.integers(0, 4, size=n)
        for k in range(1, 4):
            values = np.where(steps >= k, np.nextafter(values, np.inf), values)
        return values
    return np.full(n, rng.normal())


COLUMN_KINDS = ["normal", "ties", "signed-zeros", "neighbours", "adjacent", "constant"]


class TestTrainForest:
    def test_separable_clouds(self):
        X, y = separable_data()
        model = train_forest(X, y, schema_for(X.shape[1]), ForestParams(60, seed=1))
        assert model.oob_accuracy >= 0.99
        assert int(np.argmax(model.importance)) == 0

    def test_permuted_labels_score_at_chance(self):
        X, y = separable_data(n=300, seed=2)
        rng = np.random.default_rng(3)
        y_perm = rng.permutation(y)
        model = train_forest(X, y_perm, schema_for(X.shape[1]), ForestParams(60, seed=4))
        assert 0.4 <= model.oob_accuracy <= 0.6

    def test_same_seed_bit_identical(self):
        X, y = separable_data(seed=5)
        params = ForestParams(40, seed=9)
        m1 = train_forest(X, y, schema_for(X.shape[1]), params)
        m2 = train_forest(X, y, schema_for(X.shape[1]), params)
        assert np.array_equal(m1.importance, m2.importance)
        rng = np.random.default_rng(0)
        probe = rng.normal(0, 1, size=(50, X.shape[1]))
        assert np.array_equal(predict_scores(m1, probe), predict_scores(m2, probe))

    def test_importance_normalized_and_unused_zero(self):
        X, y = separable_data(n=150, n_features=8, seed=6)
        X[:, 7] = 1.234  # constant column can never split
        model = train_forest(X, y, schema_for(8), ForestParams(50, seed=7))
        assert abs(model.importance.sum() - 1.0) < 1e-9
        assert model.importance[7] == 0.0
        assert (model.importance >= 0).all()

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(0, 1, size=(30, 3))
        with pytest.raises(DegenerateModelError):
            train_forest(X, np.ones(30, dtype=int), schema_for(3), ForestParams(5))

    def test_nan_features_rejected(self):
        X, y = separable_data(n=40)
        X[3, 2] = np.nan
        with pytest.raises(ForestError, match="imputed"):
            train_forest(X, y, schema_for(X.shape[1]), ForestParams(5))

    def test_ensemble_stability_improves_with_more_trees(self):
        X, y = separable_data(n=150, n_features=5, margin=1.0, seed=8)
        probe = np.random.default_rng(1).normal(0.5, 1, size=(40, 5))

        def spread(n_trees):
            means = []
            for seed in range(10):
                model = train_forest(X, y, schema_for(5),
                                     ForestParams(n_trees, seed=seed))
                means.append(float(predict_scores(model, probe).mean()))
            return float(np.std(means))

        assert spread(25) > spread(400)


class TestExactSplitSearch:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5000),
           n_cols=st.integers(1, 40), min_leaf=st.integers(1, 8),
           kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=5))
    @example(seed=1, n=4000, n_cols=40, min_leaf=3, kinds=COLUMN_KINDS)
    @example(seed=2, n=5000, n_cols=20, min_leaf=8, kinds=["ties", "signed-zeros"])
    @example(seed=3, n=80000, n_cols=2, min_leaf=1, kinds=["neighbours", "normal"])
    def test_matches_the_float_oracle(self, seed, n, n_cols, min_leaf, kinds):
        assume(n >= 2 * min_leaf)                 # smaller nodes are leaves
        rng = np.random.default_rng(seed)
        X = np.column_stack([adversarial_column(kinds[j % len(kinds)], n, rng)
                             for j in range(n_cols)])
        y = (rng.random(n) < rng.random()).astype(np.int64)
        idx = rng.integers(0, n, size=n)          # a bootstrap sample, repeats included
        candidates = np.sort(rng.permutation(n_cols)[:rng.integers(1, n_cols + 1)])
        got = forest._best_split(X, forest._rank_codes(X), y, idx, candidates, min_leaf)
        want = oracle_best_split(X, y, idx, candidates, min_leaf)
        assert got[1] == want[1]
        assert bits(got[0]) == bits(want[0]) and bits(got[2]) == bits(want[2])

    def test_examples_span_several_candidate_blocks(self):
        # The explicit examples above score their candidates in more than one
        # pass, and the last one candidate per pass.
        assert 4000 * 40 > 2 * forest._BLOCK_CELLS
        assert 80000 > forest._BLOCK_CELLS

    def test_ranks_share_signed_zero_and_fit_the_row_count(self):
        X = np.array([[0.0, 3.0], [-0.0, 1.0], [2.5, 1.0], [-1.0, 3.0]])
        codes = forest._rank_codes(X)
        assert codes.dtype == np.min_scalar_type(4)
        assert codes.tolist() == [[1, 1], [1, 0], [2, 0], [0, 1]]

    @pytest.mark.parametrize("n, n_features, ties", [(200, 6, False), (300, 423, True)],
                             ids=["separable", "423-columns"])
    def test_forest_equals_the_oracle_forest(self, monkeypatch, n, n_features, ties):
        X, y = separable_data(n=n, n_features=n_features, margin=1.5, seed=17)
        if ties:
            X[:, 1::2] = np.round(X[:, 1::2], 1)
            X[:, 2::5] = np.where(X[:, 2::5] > 0, 0.0, -0.0)
        params = ForestParams(8, min_leaf=2, seed=3)
        model = train_forest(X, y, schema_for(n_features), params)
        monkeypatch.setattr(forest, "_best_split",
                            lambda X, codes, y, idx, candidates, min_leaf:
                            oracle_best_split(X, y, idx, candidates, min_leaf))
        reference = train_forest(X, y, schema_for(n_features), params)
        assert_same_trees(model, reference)
        for got, want in zip(model.trees, reference.trees):
            assert np.array_equal(bits(got.threshold), bits(want.threshold))
        assert np.array_equal(bits(model.importance), bits(reference.importance))
        assert model.oob_accuracy == reference.oob_accuracy
        assert sum(t.n_nodes for t in model.trees) > 8 * 3

    def test_adjacent_doubles_split_at_the_lower_value(self):
        # (a + b) / 2 rounds up to b; a threshold of b would send every row
        # of the node left and leave the right child empty.
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        assert (a + b) / 2.0 == b
        X = np.array([a, a, b, b] * 5)[:, None]
        y = np.array([0, 0, 1, 1] * 5)
        model = train_forest(X, y, ["f"], ForestParams(5, min_leaf=1, seed=0))
        for tree in model.trees:
            assert tree.feature[0] == 0 and tree.threshold[0] == a
        assert np.array_equal(predict_scores(model, X), y.astype(float))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 300),
           min_leaf=st.integers(1, 3),
           kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=4))
    @example(seed=5, n=200, min_leaf=1, kinds=["adjacent"])
    @example(seed=203, n=203, min_leaf=1, kinds=["ties"] * 4)
    def test_every_threshold_splits_rows_as_their_ranks_did(self, seed, n, min_leaf,
                                                            kinds):
        rng = np.random.default_rng(seed)
        X = np.column_stack([adversarial_column(k, n, rng) for k in kinds])
        y = (rng.random(n) < 0.5).astype(np.int64)
        assume(0 < y.sum() < n)
        real_best_split = forest._best_split
        checked = []

        def best_split(X, codes, y, idx, candidates, min_leaf):
            dec, f, thr = real_best_split(X, codes, y, idx, candidates, min_leaf)
            if f >= 0:
                # X <= thr splits the node's rows by rank, and into the very
                # partition that was scored: the one of the reported decrease.
                left = X[idx, f] <= thr
                assert left.any() and not left.all()
                assert codes[idx[left], f].max() < codes[idx[~left], f].min()
                # The decrease is recomputed with _best_split's numpy arithmetic
                # (int64 count arrays), so it matches bit for bit.
                n, n1 = idx.size, int(y[idx].sum())
                kl, c1l = np.array([left.sum()]), np.array([y[idx[left]].sum()])
                gl = forest._gini(kl - c1l, c1l)
                gr = forest._gini(n - n1 - kl + c1l, n1 - c1l)
                got = forest._gini(n - n1, n1) - (kl * gl + (n - kl) * gr) / n
                assert got[0] == dec
                checked.append(f)
            return dec, f, thr

        with mock.patch.object(forest, "_best_split", best_split):
            train_forest(X, y, schema_for(len(kinds)),
                         ForestParams(4, min_leaf=min_leaf, seed=seed % 1000))
        assume(checked)

class TestPrediction:
    def test_rows_route_without_a_gather(self):
        X, y = separable_data(n=120, margin=1.0, seed=18)
        model = train_forest(X, y, schema_for(X.shape[1]), ForestParams(5, seed=2))
        rows = np.random.default_rng(4).integers(0, X.shape[0], size=70)
        for tree in model.trees:
            assert np.array_equal(tree.predict_class(X, rows), tree.predict_class(X[rows]))
            assert tree.predict_class(X, rows[:0]).size == 0

    def test_scores_live_on_vote_lattice(self):
        X, y = separable_data(seed=10)
        model = train_forest(X, y, schema_for(X.shape[1]), ForestParams(40, seed=2))
        scores = predict_scores(model, X)
        lattice = np.round(scores * model.n_trees)
        assert np.allclose(scores * model.n_trees, lattice, atol=1e-9)
        assert scores.min() >= 0.0 and scores.max() <= 1.0

    def test_confident_points_score_extremes(self):
        X, y = separable_data(seed=11)
        model = train_forest(X, y, schema_for(X.shape[1]), ForestParams(60, seed=3))
        hot = np.zeros((1, X.shape[1]))
        hot[0, 0] = 10.0
        cold = np.zeros((1, X.shape[1]))
        assert predict_scores(model, hot)[0] == 1.0   # every tree votes burned
        assert predict_scores(model, cold)[0] <= 0.1

    def test_score_equals_mean_of_per_tree_votes(self):
        X, y = separable_data(n=120, margin=1.5, seed=12)
        model = train_forest(X, y, schema_for(X.shape[1]), ForestParams(30, seed=5))
        rows = X[:17]

        def tree_vote(tree, x):
            node = 0
            while tree.feature[node] >= 0:
                if x[tree.feature[node]] <= tree.threshold[node]:
                    node = int(tree.left[node])
                else:
                    node = int(tree.right[node])
            return 1 if tree.votes[node, 1] > tree.votes[node, 0] else 0

        expected = np.array([np.mean([tree_vote(t, x) for t in model.trees])
                             for x in rows])
        assert np.allclose(predict_scores(model, rows), expected, atol=1e-12)

    def test_leaf_votes_sum_to_one(self):
        X, y = separable_data(seed=13)
        model = train_forest(X, y, schema_for(X.shape[1]), ForestParams(10, seed=6))
        for tree in model.trees:
            leaves = tree.feature < 0
            assert np.allclose(tree.votes[leaves].sum(axis=1), 1.0, atol=1e-12)

    def test_schema_mismatch_errors(self):
        X, y = separable_data(seed=14)
        model = train_forest(X, y, schema_for(X.shape[1]), ForestParams(5, seed=1))
        with pytest.raises(SchemaMismatchError):
            predict_scores(model, X[:, :3])


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        X, y = separable_data(n=80, seed=15)
        model = train_forest(X, y, schema_for(X.shape[1]), ForestParams(20, seed=8))
        path = tmp_path / "model.txt"
        save_forest(path, model)
        back = load_forest(path)
        assert back.schema == model.schema
        assert np.array_equal(back.importance, model.importance)
        assert back.oob_accuracy == model.oob_accuracy
        assert back.params == model.params == ForestParams(20, seed=8)
        assert_same_trees(back, model)
        probe = np.random.default_rng(2).normal(0, 2, size=(60, X.shape[1]))
        assert np.array_equal(predict_scores(back, probe), predict_scores(model, probe))

    def test_single_leaf_trees_round_trip(self, tmp_path):
        X, y = separable_data(n=30, seed=15)
        model = train_forest(X, y, schema_for(X.shape[1]), ForestParams(4, min_leaf=20))
        assert all(t.n_nodes == 1 for t in model.trees)
        path = tmp_path / "model.txt"
        save_forest(path, model)
        back = load_forest(path)
        assert back.params == model.params
        assert_same_trees(back, model)

    @pytest.mark.parametrize("keep", [
        lambda lines: lines[:3],           # header cut short
        lambda lines: lines[:8],           # inside the feature list
        lambda lines: lines[:-1],          # last node line missing
        lambda lines: lines[:-3],          # several trailing node lines missing
        lambda lines: lines[:-1] + [lines[-1][:5]],   # last node line cut mid-way
    ], ids=["header", "features", "last-node", "tree-tail", "mid-line"])
    def test_truncated_file_raises_forest_error(self, tmp_path, keep):
        X, y = separable_data(n=80, seed=15)
        model = train_forest(X, y, schema_for(X.shape[1]), ForestParams(3, seed=8))
        path = tmp_path / "model.txt"
        save_forest(path, model)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(keep(lines)) + "\n")
        with pytest.raises(ForestError, match=re.escape(str(path))):
            load_forest(path)

    def test_top_k_selection(self):
        X, y = separable_data(n=150, n_features=7, seed=16)
        model = train_forest(X, y, schema_for(7), ForestParams(40, seed=9))
        top = top_k_features(model, 3)
        assert len(top) == 3
        assert top[0] == "f0"


class TestImpute:
    def test_median_imputation(self):
        X = np.array([[1.0, np.nan], [3.0, 4.0], [np.nan, 8.0]])
        medians = fit_impute_medians(X)
        assert medians[0] == 2.0 and medians[1] == 6.0
        filled = apply_impute(X, medians)
        assert filled[2, 0] == 2.0 and filled[0, 1] == 6.0
        assert not np.isnan(filled).any()

    def test_all_missing_column_falls_back_to_zero(self):
        X = np.full((4, 2), np.nan)
        X[:, 0] = 1.0
        medians = fit_impute_medians(X)
        assert medians[1] == 0.0
