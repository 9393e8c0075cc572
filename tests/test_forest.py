import re
import tracemalloc
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
    search in forest._best_splits must match bit for bit on every node."""
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


def oracle_predict_class(tree, X, rows=None):
    """Hard majority vote of the landing leaf for each row of X, or of
    X[rows], routed one tree at a time: the reference forest._route must
    match for every (row, tree) pair."""
    node = np.zeros(X.shape[0] if rows is None else rows.size, dtype=np.int64)
    active = tree.feature[node] >= 0
    while active.any():
        idx = np.nonzero(active)[0]
        cur = node[idx]
        f = tree.feature[cur]
        go_left = X[idx if rows is None else rows[idx], f] <= tree.threshold[cur]
        node[idx] = np.where(go_left, tree.left[cur], tree.right[cur])
        active[idx] = tree.feature[node[idx]] >= 0
    return (tree.votes[node, 1] > tree.votes[node, 0]).astype(np.int64)


def oracle_medians(X):
    """fit_impute_medians one column at a time with np.median."""
    medians = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        col = X[np.isfinite(X[:, j]), j]
        if col.size:
            medians[j] = np.median(col)
    return medians


def oracle_rank_codes(X):
    """Feature-major ranks, one np.unique per column."""
    codes = np.empty(X.shape[::-1], dtype=np.min_scalar_type(X.shape[0]))
    for j in range(X.shape[1]):
        codes[j] = np.unique(X[:, j], return_inverse=True)[1]
    return codes


def oracle_best_splits(X, codes, y, nodes, min_leaf):
    return [oracle_best_split(X, y, idx, candidates, min_leaf) for idx, candidates in nodes]


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


class TestParams:
    @pytest.mark.parametrize("field, value", [
        ("n_trees", 0), ("n_trees", -1), ("n_trees", 2.0), ("n_trees", True),
        ("min_leaf", 0), ("min_leaf", "5"), ("min_leaf", False),
        ("seed", -1), ("seed", 1.5), ("seed", "1"), ("seed", True),
    ])
    def test_bad_field_is_named(self, field, value):
        with pytest.raises(ForestError, match=f"^{field} must be an integer of at least"):
            ForestParams(**{field: value})

    def test_numpy_integers_accepted(self):
        params = ForestParams(np.int64(3), np.int32(1), np.uint64(0))
        X, y = separable_data(n=40)
        assert train_forest(X, y, schema_for(X.shape[1]), params).n_trees == 3


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
        (got,) = forest._best_splits(X, forest._rank_codes(X), y, [(idx, candidates)],
                                     min_leaf)
        want = oracle_best_split(X, y, idx, candidates, min_leaf)
        assert got[1] == want[1]
        assert bits(got[0]) == bits(want[0]) and bits(got[2]) == bits(want[2])

    def test_examples_span_several_candidate_blocks(self):
        # The explicit examples above score their candidates in more than one
        # pass, and the last one candidate per pass.
        assert 4000 * 40 > 2 * forest._PASS_CELLS
        assert 80000 > forest._PASS_CELLS

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400),
           n_cols=st.integers(1, 12), min_leaf=st.integers(1, 4),
           n_nodes=st.integers(1, 12), max_rows=st.integers(1, 3000),
           kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=5),
           cells=st.sampled_from([None, 1, 37]))
    @example(seed=4, n=300, n_cols=12, min_leaf=2, n_nodes=12, max_rows=60,
             kinds=COLUMN_KINDS, cells=None)
    @example(seed=5, n=400, n_cols=9, min_leaf=1, n_nodes=5, max_rows=3000,
             kinds=["ties", "normal", "adjacent"], cells=None)
    def test_batched_nodes_match_the_float_oracle(self, seed, n, n_cols, min_leaf, n_nodes,
                                                  max_rows, kinds, cells):
        # Passes hold many nodes (the module's cap), one node (1), or one
        # node's candidates in blocks (1 and 37, and nodes over the cap).
        rng = np.random.default_rng(seed)
        X = np.column_stack([adversarial_column(kinds[j % len(kinds)], n, rng)
                             for j in range(n_cols)])
        y = (rng.random(n) < rng.random()).astype(np.int64)
        n_cand = int(rng.integers(1, n_cols + 1))
        nodes = [(rng.integers(0, n, size=2 * min_leaf + int(rng.integers(0, max_rows))),
                  np.sort(rng.permutation(n_cols)[:n_cand])) for _ in range(n_nodes)]
        with mock.patch.object(forest, "_PASS_CELLS", cells or forest._PASS_CELLS):
            got = forest._best_splits(X, forest._rank_codes(X), y, nodes, min_leaf)
        want = oracle_best_splits(X, None, y, nodes, min_leaf)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[1] == w[1]
            assert bits(g[0]) == bits(w[0]) and bits(g[2]) == bits(w[2])

    def test_split_search_memory_is_bounded_by_the_pass(self):
        # 300 nodes of 40 rows x 20 candidates are 240,000 cells: scored in one
        # pass, each temporary alone would be 1.9 MB.
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 20)).round(1)
        y = (rng.random(200) < 0.5).astype(np.int64)
        codes = forest._rank_codes(X)
        nodes = [(rng.integers(0, 200, size=40), np.arange(20)) for _ in range(300)]
        tracemalloc.start()
        try:
            got = forest._best_splits(X, codes, y, nodes, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(f >= 0 for _, f, _ in got) > 250
        assert peak <= 24 * 8 * forest._PASS_CELLS

    def test_a_later_candidate_must_win_by_more_than_1e_15(self):
        # Both cuts decrease the Gini impurity of 3 burned rows in 10 by 0.02,
        # up to rounding: the later column's cut reads 1.1e-16 more, so only
        # the 1e-15 margin keeps the earlier column.
        X = np.array([[0, 0]] * 2 + [[1, 0]] * 3 + [[1, 1]] * 5, dtype=float)
        y = np.array([1, 0, 0, 0, 0, 1, 1, 0, 0, 0])
        rows, codes = np.arange(10), forest._rank_codes(X)
        (first,), (second,) = (forest._best_splits(X, codes, y, [(rows, [j])], 2)
                               for j in (0, 1))
        assert (first[0], second[0]) == (0.020000000000000018, 0.02000000000000013)
        (got,) = forest._best_splits(X, codes, y, [(rows, [0, 1])], 2)
        assert got == first == oracle_best_split(X, y, rows, [0, 1], 2)
        assert got[1] == 0 and got[2] == 0.5

    def test_ranks_share_signed_zero_and_fit_the_row_count(self):
        X = np.array([[0.0, 3.0], [-0.0, 1.0], [2.5, 1.0], [-1.0, 3.0]])
        codes = forest._rank_codes(X)
        assert codes.dtype == np.min_scalar_type(4)
        assert codes.tolist() == [[1, 1, 2, 0], [1, 0, 0, 1]]      # feature-major

    @pytest.mark.parametrize("n, n_features, ties", [(200, 6, False), (300, 423, True)],
                             ids=["separable", "423-columns"])
    def test_forest_equals_the_oracle_forest(self, monkeypatch, n, n_features, ties):
        X, y = separable_data(n=n, n_features=n_features, margin=1.5, seed=17)
        if ties:
            X[:, 1::2] = np.round(X[:, 1::2], 1)
            X[:, 2::5] = np.where(X[:, 2::5] > 0, 0.0, -0.0)
        params = ForestParams(8, min_leaf=2, seed=3)
        model = train_forest(X, y, schema_for(n_features), params)
        monkeypatch.setattr(forest, "_best_splits", oracle_best_splits)
        reference = train_forest(X, y, schema_for(n_features), params)
        assert_same_trees(model, reference)
        for got, want in zip(model.trees, reference.trees):
            assert np.array_equal(bits(got.threshold), bits(want.threshold))
        assert np.array_equal(bits(model.importance), bits(reference.importance))
        assert model.oob_accuracy == reference.oob_accuracy
        assert sum(t.n_nodes for t in model.trees) > 8 * 3

    def test_side_by_side_growth_equals_one_tree_at_a_time(self, monkeypatch):
        X, y = separable_data(n=300, n_features=423, margin=1.5, seed=17)
        X[:, 1::2] = np.round(X[:, 1::2], 1)
        X[:, 2::5] = np.where(X[:, 2::5] > 0, 0.0, -0.0)
        params = ForestParams(8, min_leaf=2, seed=3)
        real_grow_trees = forest._grow_trees
        groups = []

        def grow_trees(X, codes, y, samples, rngs, min_leaf):
            groups.append(len(samples))
            return real_grow_trees(X, codes, y, samples, rngs, min_leaf)

        monkeypatch.setattr(forest, "_grow_trees", grow_trees)
        model = train_forest(X, y, schema_for(423), params)
        # A group's budget of bootstrap rows is one tree's: each grows alone.
        monkeypatch.setattr(forest, "_ROUTE_PAIRS", 300)
        alone = train_forest(X, y, schema_for(423), params)
        assert groups == [8] + [1] * 8
        assert_same_trees(model, alone)
        for got, want in zip(model.trees, alone.trees):
            assert np.array_equal(bits(got.threshold), bits(want.threshold))
        assert np.array_equal(bits(model.importance), bits(alone.importance))
        assert model.oob_accuracy == alone.oob_accuracy

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
        real_best_splits = forest._best_splits
        checked = []

        def best_splits(X, codes, y, nodes, min_leaf):
            splits = real_best_splits(X, codes, y, nodes, min_leaf)
            for (idx, _), (dec, f, thr) in zip(nodes, splits):
                if f < 0:
                    continue
                # X <= thr splits the node's rows by rank, and into the very
                # partition that was scored: the one of the reported decrease.
                left = X[idx, f] <= thr
                assert left.any() and not left.all()
                assert codes[f, idx[left]].max() < codes[f, idx[~left]].min()
                # The decrease is recomputed with _best_splits' numpy arithmetic
                # (int64 count arrays), so it matches bit for bit.
                n, n1 = idx.size, int(y[idx].sum())
                kl, c1l = np.array([left.sum()]), np.array([y[idx[left]].sum()])
                gl = forest._gini(kl - c1l, c1l)
                gr = forest._gini(n - n1 - kl + c1l, n1 - c1l)
                got = forest._gini(n - n1, n1) - (kl * gl + (n - kl) * gr) / n
                assert got[0] == dec
                checked.append(f)
            return splits

        with mock.patch.object(forest, "_best_splits", best_splits):
            train_forest(X, y, schema_for(len(kinds)),
                         ForestParams(4, min_leaf=min_leaf, seed=seed % 1000))
        assume(checked)

class TestPrediction:
    def test_rows_route_without_a_gather(self):
        X, y = separable_data(n=120, margin=1.0, seed=18)
        model = train_forest(X, y, schema_for(X.shape[1]), ForestParams(5, seed=2))
        rng = np.random.default_rng(4)
        rows = rng.integers(0, X.shape[0], size=70)
        tree_of = rng.integers(0, model.n_trees, size=70)
        assert np.array_equal(forest._route(model.trees, X, rows, tree_of),
                              forest._route(model.trees, X[rows], np.arange(70), tree_of))
        assert forest._route(model.trees, X, rows[:0], tree_of[:0]).size == 0

    @pytest.mark.parametrize("n_features, min_leaf", [(6, 1), (40, 3)])
    def test_router_equals_the_oracle_on_every_pair(self, n_features, min_leaf):
        X, y = separable_data(n=150, n_features=n_features, margin=1.0, seed=19)
        X[:, 1] = np.round(X[:, 1], 1)           # ties route left at the threshold
        model = train_forest(X, y, schema_for(n_features),
                             ForestParams(12, min_leaf=min_leaf, seed=7))
        rng = np.random.default_rng(5)
        probe = np.vstack([X, rng.normal(0, 3, size=(60, n_features))])
        rows = rng.integers(0, probe.shape[0], size=(model.n_trees, 300))
        tree_of = np.repeat(np.arange(model.n_trees), 300)
        got = forest._route(model.trees, probe, rows.ravel(), tree_of)
        want = np.concatenate([oracle_predict_class(t, probe, r)
                               for t, r in zip(model.trees, rows)])
        assert np.array_equal(got, want)
        every = np.tile(np.arange(probe.shape[0]), model.n_trees)
        tree_of = np.repeat(np.arange(model.n_trees), probe.shape[0])
        assert np.array_equal(
            forest._route(model.trees, probe, every, tree_of),
            np.concatenate([oracle_predict_class(t, probe) for t in model.trees]))
        assert 0 < want.sum() < want.size
        assert max(t.n_nodes for t in model.trees) > 3

    @pytest.mark.parametrize("cap, score_passes", [
        (1, [(1, 1)] * 23 * 9),
        (100, [(92, 4), (92, 4), (23, 1)]),
    ], ids=["one-pair", "mid-forest"])
    def test_routing_passes_hold_at_most_the_cap(self, monkeypatch, cap, score_passes):
        X, y = separable_data(n=90, margin=1.0, seed=20)
        probe = np.random.default_rng(6).normal(0, 2, size=(23, X.shape[1]))
        params = ForestParams(9, min_leaf=2, seed=4)
        model = train_forest(X, y, schema_for(X.shape[1]), params)
        scores = predict_scores(model, probe)
        real_route = forest._route
        calls = []

        def route(trees, X, rows, tree_of):
            # Each pass packs only the trees its pairs use, first to last.
            assert tree_of.min() == 0 and tree_of.max() == len(trees) - 1
            calls.append((rows.size, len(trees)))
            return real_route(trees, X, rows, tree_of)

        monkeypatch.setattr(forest, "_ROUTE_PAIRS", cap)
        monkeypatch.setattr(forest, "_route", route)
        capped = train_forest(X, y, schema_for(X.shape[1]), params)
        oob_calls, calls[:] = list(calls), []
        capped_scores = predict_scores(capped, probe)
        # 90 rows grow one tree per group, and its out-of-bag pairs route in
        # passes of at most the cap; scores route groups of cap // 23 trees.
        assert max(size for size, _ in oob_calls) <= cap
        assert all(n == 1 for _, n in oob_calls) and len(oob_calls) >= params.n_trees
        assert calls == score_passes
        assert capped.oob_accuracy == model.oob_accuracy
        assert np.array_equal(bits(capped.importance), bits(model.importance))
        assert_same_trees(capped, model)
        assert np.array_equal(capped_scores, scores)

    def test_a_pass_packs_the_trees_its_pairs_span(self, monkeypatch):
        X, y = separable_data(n=90, margin=1.0, seed=20)
        model = train_forest(X, y, schema_for(X.shape[1]), ForestParams(3, seed=4))
        rows = [np.arange(23), np.arange(40, 63), np.arange(23)]
        want = forest._votes(model.trees, X, rows)
        oracle = sum(np.bincount(2 * r + oracle_predict_class(t, X, r), minlength=180)
                     for t, r in zip(model.trees, rows)).reshape(-1, 2)
        real_route = forest._route
        calls = []
        monkeypatch.setattr(forest, "_ROUTE_PAIRS", 50)
        monkeypatch.setattr(forest, "_route",
                            lambda t, *a: calls.append((a[1].size, len(t))) or real_route(t, *a))
        assert np.array_equal(forest._votes(model.trees, X, rows), want)
        assert np.array_equal(want, oracle)
        assert calls == [(50, 3), (19, 1)]

    def test_whole_forest_routes_in_one_pass_under_the_cap(self, monkeypatch):
        X, y = separable_data(n=60, seed=21)
        calls = []
        real_route = forest._route
        monkeypatch.setattr(forest, "_route", lambda *a: calls.append(a) or real_route(*a))
        model = train_forest(X, y, schema_for(X.shape[1]), ForestParams(30, seed=3))
        predict_scores(model, X[:20])
        assert [len(trees) for trees, *_ in calls] == [30, 30]

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


ODD_VALUES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308,
              1.0, -2.5]


def odd_matrix(seed, n, n_cols):
    """Columns mixing normal values with NaN, infinities, signed zeros, the
    smallest subnormals and values whose pairwise sum overflows; column 0 is
    all missing."""
    rng = np.random.default_rng(seed)
    X = np.where(rng.random((n, n_cols)) < rng.random(n_cols),
                 rng.choice(ODD_VALUES, size=(n, n_cols)),
                 rng.normal(size=(n, n_cols)).round(1))
    X[:, 0] = rng.choice([np.nan, np.inf, -np.inf], size=n)
    return X


SORT_BLOCKS = [None, 1, 7]       # the module's, one cell, and uneven column blocks


class TestColumnSorts:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), n_cols=st.integers(1, 12),
           block=st.sampled_from(SORT_BLOCKS))
    @example(seed=1, n=7, n_cols=12, block=7)
    @example(seed=2, n=8, n_cols=5, block=1)
    def test_medians_equal_np_median(self, seed, n, n_cols, block):
        X = odd_matrix(seed, n, n_cols)
        with mock.patch.object(forest, "_PASS_CELLS", block or forest._PASS_CELLS), \
                np.errstate(over="ignore"):
            got = fit_impute_medians(X)
            want = oracle_medians(X)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_median_examples_cover_every_case(self):
        # Signed-zero middles read 0.0, a halved subnormal keeps its sign,
        # and two 1.7e308 middles overflow to inf, as np.median gives.
        X = np.array([[-0.0, -0.0, -5e-324, 1.7e308, np.nan],
                      [-0.0, -0.0, 0.0, 1.7e308, np.inf],
                      [np.nan, 3.0, np.nan, np.nan, -np.inf]])
        with np.errstate(over="ignore"):
            got, want = fit_impute_medians(X), oracle_medians(X)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert got.view(np.int64).tolist() == bits([0.0, 0.0, -0.0, np.inf, 0.0]).tolist()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), n_cols=st.integers(1, 12),
           block=st.sampled_from(SORT_BLOCKS))
    @example(seed=3, n=257, n_cols=12, block=7)
    def test_ranks_equal_np_unique(self, seed, n, n_cols, block):
        X = np.nan_to_num(odd_matrix(seed, n, n_cols), nan=0.25)
        with mock.patch.object(forest, "_PASS_CELLS", block or forest._PASS_CELLS):
            got = forest._rank_codes(X)
        want = oracle_rank_codes(X)
        assert got.dtype == want.dtype == np.min_scalar_type(n)
        assert np.array_equal(got, want)

    def test_blocks_cover_the_columns_once(self, monkeypatch):
        monkeypatch.setattr(forest, "_PASS_CELLS", 20)
        X = np.arange(60.0).reshape(6, 10)
        blocks = list(forest._column_blocks(X))
        assert [(c.start, c.stop) for c, _ in blocks] == [(0, 3), (3, 6), (6, 9), (9, 12)]
        assert np.array_equal(np.vstack([b for _, b in blocks]), X.T)
        monkeypatch.setattr(forest, "_PASS_CELLS", 1)
        assert len(list(forest._column_blocks(X))) == 10


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
