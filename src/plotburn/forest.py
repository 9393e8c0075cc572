"""Random Forest for binary burn classification with Gini importance.

The split search is exact. Each forest ranks every training column once
among its distinct values, and a node scores a block of candidate columns in
one numpy pass over those integer ranks; the chosen split, threshold and
importance are the ones a column-by-column search over the float values
finds. Trees are stored as flat parallel arrays (feature, threshold,
children, leaf vote fractions). Out-of-bag votes and scores route a group of
trees at once: the group's node arrays are packed end to end and every
(row, tree) pair walks down them level by level, one numpy pass per level.
Column ranks and imputation medians come from one sort per block of columns.
Scores are the fraction of trees whose leaf majority votes burned, not a
calibrated probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ForestError(ValueError):
    pass


class DegenerateModelError(ForestError):
    """Training data contains a single class."""


class SchemaMismatchError(ForestError):
    """Prediction input does not provide the model's feature schema."""


@dataclass(frozen=True)
class ForestParams:
    """Every split draws max(1, int(sqrt(n_features))) candidate features, and
    trees grow until a node is pure or smaller than 2 * min_leaf rows."""

    n_trees: int = 300
    min_leaf: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_trees", 1), ("min_leaf", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, (int, np.integer)) or value < low:
                raise ForestError(f"{name} must be an integer of at least {low}, "
                                  f"got {value!r}")


@dataclass
class Tree:
    """Flat node arrays; feature -1 marks a leaf, votes hold class fractions."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    votes: np.ndarray          # (n_nodes, 2), rows sum to 1 at leaves

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)


@dataclass
class ForestModel:
    trees: list[Tree]
    schema: list[str]
    importance: np.ndarray     # per-feature Gini importance, sums to 1
    oob_accuracy: float | None = None
    params: ForestParams = field(default_factory=ForestParams)

    @property
    def n_trees(self) -> int:
        return len(self.trees)


# Row x candidate cells scored in one numpy pass of the split search, which
# bounds its memory; a node of more than half this many rows scores one
# candidate per pass.
_BLOCK_CELLS = 1 << 16

# Cells of X copied and sorted in one pass by _rank_codes and
# fit_impute_medians: a block of whole columns, or one column where a column
# holds more cells. Blocks of 8,192 cells raised the trees bench's peak RSS by
# about 0.2 MB over one np.unique per column; 2,048 (16 KB) came within 0.05 MB.
_SORT_CELLS = 1 << 11

# (row, tree) pairs routed in one pass, which bounds its memory whatever the
# forest's size: out-of-bag votes and scores route the pairs in tree order,
# this many at a time.
_ROUTE_PAIRS = 1 << 18


def _gini(c0, c1):
    n = c0 + c1
    return 1.0 - ((c0 / n) ** 2 + (c1 / n) ** 2)


def _column_blocks(X):
    """(cols, block) for slices of X's columns of at most _SORT_CELLS cells, or
    one column each; block is a (n_cols, n_rows) copy, so that each column's
    values are contiguous for the sort."""
    step = max(1, _SORT_CELLS // max(1, X.shape[0]))
    for j in range(0, X.shape[1], step):
        cols = slice(j, j + step)
        yield cols, X[:, cols].T.copy()


def _rank_codes(X):
    """Each column's rank among its distinct values (-0.0 and 0.0 share one)."""
    n = X.shape[0]
    codes = np.empty(X.shape, dtype=np.min_scalar_type(n))
    for cols, block in _column_blocks(X):
        # Each column's sorted order, as positions in block's flat buffer.
        order = np.argsort(block, axis=1) + n * np.arange(block.shape[0])[:, None]
        values = block.ravel()[order]
        ranks = np.zeros(block.shape, dtype=codes.dtype)
        np.cumsum(values[:, 1:] != values[:, :-1], axis=1, out=ranks[:, 1:])
        inverse = np.empty(block.size, dtype=codes.dtype)
        inverse[order] = ranks
        codes[:, cols] = inverse.reshape(block.shape).T
    return codes


def _best_split(X, codes, y, idx, candidates, min_leaf):
    """(decrease, feature, threshold) of the best Gini split of a node of at
    least 2 * min_leaf rows, or decrease 0.

    Each pass scores a block of candidates on their ranks: one stable sort,
    one cumulative class count and one Gini expression over every cut that
    leaves min_leaf rows on each side. A stable sort of ranks orders rows as a
    stable sort of their values does (tied values keep row order), so the
    split is the exact one. Candidates are compared in order, a later one
    winning only by more than 1e-15, and the threshold is the midpoint of the
    two values either side of the winning cut, or the lower value where the
    midpoint is not below the upper one.
    """
    n = idx.size
    y_node = y[idx]
    n1 = int(y_node.sum())
    n0 = n - n1
    parent = _gini(n0, n1)
    # Rows left of each cut that leaves min_leaf rows on both sides.
    kl = np.arange(min_leaf, n - min_leaf + 1)[:, None]
    kr = n - kl
    cuts = slice(min_leaf - 1, n - min_leaf)
    best_dec, best_f, best_rows = 0.0, -1, None
    step = max(1, _BLOCK_CELLS // n)
    for start in range(0, candidates.size, step):
        block = candidates[start:start + step]
        cols = np.arange(block.size)
        ranks = codes[idx[:, None], block]
        order = np.argsort(ranks, axis=0, kind="stable")
        ranks = ranks[order, cols]
        c1l = np.cumsum(y_node[order], axis=0)[cuts]
        c0l = kl - c1l
        gl = _gini(c0l, c1l)
        gr = _gini(n0 - c0l, n1 - c1l)
        dec = parent - (kl * gl + kr * gr) / n
        dec[ranks[min_leaf:n - min_leaf + 1] == ranks[cuts]] = -np.inf
        at = np.argmax(dec, axis=0)
        for c, top in enumerate(dec[at, cols].tolist()):
            if top > best_dec + 1e-15:
                r = min_leaf - 1 + int(at[c])
                best_dec, best_f = top, int(block[c])
                best_rows = idx[order[r:r + 2, c]]
    if best_f < 0:
        return 0.0, -1, 0.0
    lo, hi = X[best_rows, best_f]
    # X <= threshold must send exactly the rows ranked at or below lo left;
    # the midpoint does not where it rounds up to hi (adjacent doubles) or
    # overflows, and lo does.
    mid = (lo + hi) / 2.0
    return best_dec, best_f, float(mid if lo <= mid < hi else lo)


def _grow_tree(X, codes, y, sample_idx, rng, params: ForestParams, n_total,
               importance_acc: np.ndarray) -> Tree:
    max_feat = max(1, int(math.sqrt(X.shape[1])))
    feature, threshold, left, right, votes = [], [], [], [], []

    def add_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        votes.append((0.0, 0.0))
        return len(feature) - 1

    root = add_node()
    stack = [(sample_idx, root)]
    while stack:
        idx, node = stack.pop()
        n = idx.size
        n1 = int(y[idx].sum())
        votes[node] = ((n - n1) / n, n1 / n)
        if n1 == 0 or n1 == n or n < 2 * params.min_leaf:
            continue
        candidates = np.sort(rng.permutation(X.shape[1])[:max_feat])
        dec, f, thr = _best_split(X, codes, y, idx, candidates, params.min_leaf)
        if f < 0:
            continue
        importance_acc[f] += dec * n / n_total
        go_left = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        nl, nr = add_node(), add_node()
        left[node], right[node] = nl, nr
        stack.append((idx[go_left], nl))
        stack.append((idx[~go_left], nr))

    return Tree(np.asarray(feature, dtype=np.int64),
                np.asarray(threshold, dtype=float),
                np.asarray(left, dtype=np.int64),
                np.asarray(right, dtype=np.int64),
                np.asarray(votes, dtype=float))


def _route(trees, X, rows, tree_of):
    """Majority class of the leaf that row rows[i] of X reaches in tree
    trees[tree_of[i]], for every i.

    The trees' node arrays are packed end to end, their child indices shifted
    by each tree's offset, and all pairs walk down together: one numpy pass
    per level over the pairs not yet at a leaf.
    """
    offset = np.cumsum([0] + [t.n_nodes for t in trees[:-1]])
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    left = np.concatenate([t.left + o for t, o in zip(trees, offset)])
    right = np.concatenate([t.right + o for t, o in zip(trees, offset)])
    votes = np.concatenate([t.votes for t in trees])
    node = offset[tree_of]
    live = np.flatnonzero(feature[node] >= 0)
    while live.size:
        cur = node[live]
        go_left = X[rows[live], feature[cur]] <= threshold[cur]
        node[live] = np.where(go_left, left[cur], right[cur])
        live = live[feature[node[live]] >= 0]
    return (votes[node, 1] > votes[node, 0]).astype(np.int64)


def _vote_counts(trees, X, batches):
    """(n_rows, 2) class vote counts over the (tree index, rows) batches.

    Batches come in tree order, and trees may still be growing: a tree only
    has to exist once its batch arrives. The pairs are routed _ROUTE_PAIRS at
    a time, each pass packing just the trees its pairs use; what is left
    after the last full pass is routed at the end.
    """
    counts = np.zeros(2 * X.shape[0], dtype=np.int64)

    def route(rows, tree_of):
        first = tree_of[0]
        cls = _route(trees[first:tree_of[-1] + 1], X, rows, tree_of - first)
        counts[:] += np.bincount(2 * rows + cls, minlength=counts.size)

    held, n_held = [], 0
    for t, rows in batches:
        held.append((rows, np.full(rows.size, t)))
        n_held += rows.size
        if n_held < _ROUTE_PAIRS:
            continue
        rows, tree_of = (np.concatenate(a) for a in zip(*held))
        full = n_held - n_held % _ROUTE_PAIRS
        for start in range(0, full, _ROUTE_PAIRS):
            stop = start + _ROUTE_PAIRS
            route(rows[start:stop], tree_of[start:stop])
        held, n_held = [(rows[full:], tree_of[full:])], n_held - full
    if n_held:
        route(*(np.concatenate(a) for a in zip(*held)))
    return counts.reshape(-1, 2)


def train_forest(X: np.ndarray, y: np.ndarray, schema: list[str],
                 params: ForestParams = ForestParams()) -> ForestModel:
    """Bootstrap-sampled Gini trees; deterministic for a given seed.

    Importance is the impurity decrease summed per feature across all splits
    and trees, normalized to sum to 1. Out-of-bag accuracy is recorded when
    every class keeps at least one out-of-bag row.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ForestError("X must be (n_rows, n_features) aligned with y")
    if X.shape[1] != len(schema):
        raise ForestError("schema length does not match feature count")
    if np.isnan(X).any():
        raise ForestError("features must be imputed before training")
    if np.unique(y).size < 2:
        raise DegenerateModelError("training data contains a single class")

    n = X.shape[0]
    codes = _rank_codes(X)
    seeds = np.random.SeedSequence(params.seed).spawn(params.n_trees)
    importance = np.zeros(X.shape[1])
    trees = []

    def grow():
        for t in range(params.n_trees):
            rng = np.random.Generator(np.random.PCG64(seeds[t]))
            sample = rng.integers(0, n, size=n)
            trees.append(_grow_tree(X, codes, y, sample, rng, params, n, importance))
            oob = np.ones(n, dtype=bool)
            oob[sample] = False
            yield t, np.flatnonzero(oob)

    oob_votes = _vote_counts(trees, X, grow())
    total = importance.sum()
    if total > 0:
        importance /= total
    voted = oob_votes.sum(axis=1) > 0
    oob_accuracy = None
    if voted.any():
        oob_pred = (oob_votes[voted, 1] > oob_votes[voted, 0]).astype(np.int64)
        oob_accuracy = float((oob_pred == y[voted]).mean())
    return ForestModel(trees, list(schema), importance, oob_accuracy, params)


def predict_scores(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Fraction of trees voting burned, per row; values on a 1/n_trees lattice."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != len(model.schema):
        raise SchemaMismatchError(
            f"expected {len(model.schema)} features, got {X.shape[1]}")
    if np.isnan(X).any():
        raise ForestError("features must be imputed before prediction")
    every = np.arange(X.shape[0])
    votes = _vote_counts(model.trees, X, ((t, every) for t in range(model.n_trees)))
    return votes[:, 1] / model.n_trees


def fit_impute_medians(X: np.ndarray) -> np.ndarray:
    """Per-feature training medians; all-missing columns fall back to 0."""
    X = np.asarray(X, dtype=float)
    medians = np.full(X.shape[1], 0.0)
    for cols, block in _column_blocks(X):
        finite = np.isfinite(block)
        count = finite.sum(axis=1)
        block[~finite] = np.inf
        block.sort(axis=1)
        some = np.flatnonzero(count)
        m = count[some]
        # np.median sums its middle values from +0.0, so a -0.0 middle value
        # reads 0.0; the sum is halved after that, as np.mean divides.
        lo = 0.0 + block[some, (m - 1) // 2]
        even = m % 2 == 0
        lo[even] = (lo[even] + block[some[even], m[even] // 2]) / 2
        medians[cols.start + some] = lo
    return medians


def apply_impute(X: np.ndarray, medians: np.ndarray) -> np.ndarray:
    """Fill X's non-finite values with their column's median, in place; returns X."""
    np.copyto(X, medians, where=~np.isfinite(X))
    return X


def top_k_features(model: ForestModel, k: int) -> list[str]:
    """Feature names of the k largest importances, ties broken by schema order."""
    order = sorted(range(len(model.schema)),
                   key=lambda j: (-model.importance[j], j))
    return [model.schema[j] for j in order[:max(0, k)]]


FOREST_MAGIC = "plotburn-forest v2"


def save_forest(path, model: ForestModel) -> None:
    with open(path, "w") as fh:
        fh.write(FOREST_MAGIC + "\n")
        fh.write(f"seed {model.params.seed}\n")
        fh.write(f"min_leaf {model.params.min_leaf}\n")
        oob = "-" if model.oob_accuracy is None else repr(float(model.oob_accuracy))
        fh.write(f"oob {oob}\n")
        fh.write(f"features {len(model.schema)}\n")
        for name, imp in zip(model.schema, model.importance):
            fh.write(f"f {name} {float(imp)!r}\n")
        fh.write(f"trees {model.n_trees}\n")
        for tree in model.trees:
            fh.write(f"tree {tree.n_nodes}\n")
            for i in range(tree.n_nodes):
                fh.write(f"{tree.feature[i]} {float(tree.threshold[i])!r} "
                         f"{tree.left[i]} {tree.right[i]} "
                         f"{float(tree.votes[i, 0])!r} {float(tree.votes[i, 1])!r}\n")
