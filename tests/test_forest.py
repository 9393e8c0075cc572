import re

import numpy as np
import pytest

from plotburn.forest import (DegenerateModelError, ForestError, ForestParams,
                             SchemaMismatchError, apply_impute, fit_impute_medians,
                             load_forest, predict_scores, save_forest, top_k_features,
                             train_forest)


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


class TestPrediction:
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
