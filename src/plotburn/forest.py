"""Random Forest for binary burn classification with Gini importance.

The split search is exact. Each forest ranks every training column once
among its distinct values, and grows a group of trees side by side: each
step scores the next node of every growing tree over those integer ranks, in
numpy passes of a bounded number of cells. The splits, thresholds and
importances are the ones a search of one tree and one float column at a time
finds. Trees are stored as flat parallel arrays (feature, threshold,
children, leaf vote fractions). The tree group is the one unit of batching:
a group grows, then votes on its out-of-bag rows, and scores route a group at
a time. Routing packs the group's node arrays end to end and walks every
(row, tree) pair down them level by level, one numpy pass per level.
Column ranks and imputation medians come from one sort per block of columns,
each block capped at the split search's pass size.
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


# Row x candidate cells scored in one pass of the split search, or copied in
# one column sort (_column_blocks), which bounds their memory; a node of more
# than half this many rows scores one candidate per pass. A pass's float
# temporaries are then at most 64 KiB, under glibc's default 128 KiB mmap
# threshold, so numpy's calls reuse heap memory rather than map and fault in
# fresh pages each time. The 16 forests of one trees bench run (2 vCPUs,
# medians of 9 alternating runs) took 0.30 s at 2^13 cells, 0.34 s at 2^12
# and at 2^14, and 0.50 s searching one node at a time; with the threshold
# raised to 4 MiB, 2^14 cells ran as fast as 2^13.
_PASS_CELLS = 1 << 13

# The forest's one batching budget. Training and scoring take the trees in
# groups of max(1, _ROUTE_PAIRS // n_rows): as many trees as this many
# bootstrap rows or scored (row, tree) pairs allow, at least one. A group's
# pairs route this many per pass, so memory stays bounded whatever the
# forest's size.
_ROUTE_PAIRS = 1 << 18


def _gini(c0, c1):
    n = c0 + c1
    return 1.0 - ((c0 / n) ** 2 + (c1 / n) ** 2)


def _column_blocks(X):
    """(cols, block) for slices of X's columns of at most _PASS_CELLS cells, or
    one column each; block is a (n_cols, n_rows) copy, so that each column's
    values are contiguous for the sort."""
    step = max(1, _PASS_CELLS // max(1, X.shape[0]))
    for j in range(0, X.shape[1], step):
        cols = slice(j, j + step)
        yield cols, X[:, cols].T.copy()


def _rank_codes(X):
    """Each column's rank among its distinct values (-0.0 and 0.0 share one),
    feature-major: codes[j] holds column j's ranks."""
    n = X.shape[0]
    codes = np.empty(X.shape[::-1], dtype=np.min_scalar_type(n))
    for cols, block in _column_blocks(X):
        # Each column's sorted order, as positions in block's flat buffer.
        order = np.argsort(block, axis=1) + n * np.arange(block.shape[0])[:, None]
        values = block.ravel()[order]
        ranks = np.zeros(block.shape, dtype=codes.dtype)
        np.cumsum(values[:, 1:] != values[:, :-1], axis=1, out=ranks[:, 1:])
        codes[cols].reshape(-1)[order] = ranks
    return codes


def _score(codes, y, rows, sizes, feats, min_leaf):
    """(top, lo, hi) per column k = j * len(sizes) + i, candidate feats[i, j]
    of node i (rows end to end): the best decrease or -inf, and the rows either
    side of its first best cut. A key per cell packs node, code, position and
    class bit, so one sort orders each column as a stable sort by value does."""
    m, c = feats.shape
    starts = np.cumsum(sizes) - sizes
    pos = np.arange(rows.size) - np.repeat(starts, sizes)
    yr = y[rows]
    low_bits = int(sizes.max() - 1).bit_length() + 1       # position, class bit
    node_shift = int(codes.shape[1] - 1).bit_length() + low_bits
    # int32 keys sort in half the time of int64 ones, where they fit.
    dtype = np.int32 if (m - 1).bit_length() + node_shift < 32 else np.int64
    key = codes.ravel()[np.repeat(feats.T * codes.shape[1], sizes, axis=1) + rows]
    key = np.left_shift(key, low_bits, dtype=dtype)         # (c, len(rows))
    key += np.repeat(np.arange(m) << node_shift, sizes) | (pos << 1) | yr
    key.sort(axis=1)
    # A cut leaves min_leaf rows on each side and falls between two codes.
    kl = pos + 1.0
    n = np.repeat(sizes.astype(float), sizes)
    cut = np.zeros(key.shape, dtype=bool)
    np.not_equal(key[:, 1:] >> low_bits, key[:, :-1] >> low_bits, out=cut[:, :-1])
    cut &= (kl >= min_leaf) & (kl <= n - min_leaf)
    # Each node's class 1 count restarts the running count at its first cell.
    n1 = np.add.reduceat(yr, starts)
    c1l = key & 1
    c1l[:, starts[1:]] -= n1[:-1]
    # float64 holds the counts exactly, so this is bit for bit _gini on them:
    # parent - (kl * gini(left) + (n - kl) * gini(right)) / n.
    c1l = np.cumsum(c1l, axis=1, dtype=float)
    parent = [_gini(size - k, k) for size, k in zip(sizes.tolist(), n1.tolist())]
    parent, n1 = (np.repeat(np.array(a, dtype=float), sizes) for a in (parent, n1))
    c0l = kl - c1l
    with np.errstate(invalid="ignore"):        # a node's last cell leaves none right
        dec = _gini(c0l, c1l)
        dec *= kl
        np.subtract(n - n1, c0l, out=c0l)
        np.subtract(n1, c1l, out=c1l)
        right = _gini(c0l, c1l)
        right *= n - kl
        dec += right
    dec /= n
    np.subtract(parent, dec, out=dec)
    np.putmask(dec, ~cut, -np.inf)
    # Each column's first best cell, and the rows either side of that cut.
    first = (starts + rows.size * np.arange(c)[:, None]).reshape(-1)
    top = np.maximum.reduceat(dec.reshape(-1), first)
    hits = np.flatnonzero(dec == np.repeat(top.reshape(c, m), sizes, axis=1))
    at = hits[np.searchsorted(hits, first)]
    key, base, mask = key.reshape(-1), first % rows.size, (1 << low_bits - 1) - 1
    return top, rows[base + (key[at] >> 1 & mask)], rows[base + (key[at + 1] >> 1 & mask)]


def _passes(nodes):
    """(node indices, candidate slice) per pass: as many nodes as fit in
    _PASS_CELLS cells, or a larger node alone with its candidates in blocks."""
    group, cells = [], 0
    for i, (idx, candidates) in enumerate(nodes):
        size = idx.size * len(candidates)
        if size > _PASS_CELLS:
            step = max(1, _PASS_CELLS // idx.size)
            for start in range(0, len(candidates), step):
                yield [i], slice(start, start + step)
        elif cells + size > _PASS_CELLS:
            yield group, slice(None)
            group, cells = [i], size
        else:
            group.append(i)
            cells += size
    if group:
        yield group, slice(None)


def _best_splits(X, codes, y, nodes, min_leaf):
    """(decrease, feature, threshold) of the best Gini split of each (rows,
    candidates) node, or decrease 0. Nodes have at least 2 * min_leaf rows and
    the same number of candidates, and are scored in passes (see _score) on
    every cut leaving min_leaf rows on each side. Candidates are compared in
    order, a later one winning only by more than 1e-15; the threshold is the
    midpoint of the values either side of the cut, or the lower value where
    the midpoint is not below the upper one.
    """
    best = [(0.0, -1, 0, 0)] * len(nodes)
    for group, cols in _passes(nodes):
        rows = np.concatenate([nodes[i][0] for i in group])
        sizes = np.array([nodes[i][0].size for i in group])
        feats = np.array([nodes[i][1][cols] for i in group], dtype=np.int64)
        top, lo, hi = (a.tolist() for a in _score(codes, y, rows, sizes, feats, min_leaf))
        m, f = len(group), feats.T.reshape(-1).tolist()
        for k, dec in enumerate(top):
            i = group[k % m]
            if dec > best[i][0] + 1e-15:
                best[i] = (dec, f[k], lo[k], hi[k])
    split = [i for i, b in enumerate(best) if b[1] >= 0]
    f, below, above = (np.array([best[i][j] for i in split], dtype=np.int64)
                       for j in (1, 2, 3))
    out = [(0.0, -1, 0.0)] * len(nodes)
    for i, lo, hi in zip(split, X[below, f].tolist(), X[above, f].tolist()):
        # X <= threshold must send exactly the rows ranked at or below lo left;
        # the midpoint does not where it rounds up to hi (adjacent doubles) or
        # overflows, and lo does.
        mid = (lo + hi) / 2.0
        out[i] = (best[i][0], best[i][1], mid if lo <= mid < hi else lo)
    return out


def _grow_trees(X, codes, y, samples, rngs, min_leaf):
    """(tree, [(feature, decrease * rows / n), ...] depth-first) per bootstrap
    sample and generator. Each step pops the next splittable node of every
    growing tree, in its own depth-first order with its own generator's draws,
    and scores them in one _best_splits call: each tree is the one grown alone.
    """
    n_total, n_features = X.shape
    max_feat = max(1, int(math.sqrt(n_features)))
    # Per tree: [feature, threshold, left, right, votes] for each node.
    nodes = [[[-1, 0.0, -1, -1, None]] for _ in samples]
    gains = [[] for _ in samples]
    # Per tree: (rows, class 1 count, node) of each node not yet popped.
    stacks = [[(s, int(y[s].sum()), 0)] for s in samples]
    growing = range(len(samples))
    while growing:
        step = []
        for t in growing:
            stack = stacks[t]
            while stack:
                idx, n1, node = stack.pop()
                n = idx.size
                nodes[t][node][4] = ((n - n1) / n, n1 / n)
                if 0 < n1 < n and n >= 2 * min_leaf:
                    candidates = sorted(rngs[t].permutation(n_features)[:max_feat].tolist())
                    step.append((t, node, idx, candidates))
                    break
        splits = _best_splits(X, codes, y, [s[2:] for s in step], min_leaf)
        split = [(s, b) for s, b in zip(step, splits) if b[1] >= 0]
        children = _partition(X, y, [(s[2], b[1], b[2]) for s, b in split])
        for ((t, node, idx, _), (dec, f, thr)), (left, right) in zip(split, children):
            gains[t].append((f, dec * idx.size / n_total))
            tree = nodes[t]
            tree[node][:4] = f, thr, len(tree), len(tree) + 1
            tree += [[-1, 0.0, -1, -1, None], [-1, 0.0, -1, -1, None]]
            stacks[t] += [(*left, len(tree) - 2), (*right, len(tree) - 1)]
        growing = [t for t in growing if stacks[t]]
    dtypes = (np.int64, float, np.int64, np.int64, float)
    trees = [Tree(*(np.array(col, dtype=d) for col, d in zip(zip(*tree), dtypes)))
             for tree in nodes]
    return list(zip(trees, gains))


def _partition(X, y, splits):
    """((left rows, class 1 count), (right ...)) of each (rows, feature,
    threshold) split: X <= threshold goes left, in its parent's row order."""
    if not splits:
        return []
    sizes = [rows.size for rows, _, _ in splits]
    rows = np.concatenate([rows for rows, _, _ in splits])
    f, thr = (np.repeat([s[j] for s in splits], sizes) for j in (1, 2))
    side = np.repeat(np.arange(0, 2 * len(splits), 2), sizes) + (X[rows, f] > thr)
    counts = np.bincount(2 * side + y[rows], minlength=4 * len(splits))
    ends = np.cumsum(counts[::2] + counts[1::2]).tolist()
    rows = rows[np.argsort(side, kind="stable")]
    # Copies, so that a child waiting on a stack does not hold all the rows.
    parts = [(rows[a:b].copy(), ones)
             for a, b, ones in zip([0] + ends, ends, counts[1::2].tolist())]
    return list(zip(parts[::2], parts[1::2]))


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


def _votes(trees, X, rows):
    """(n_rows, 2) class vote counts of tree trees[t] on rows rows[t] of X, for
    every t. The (row, tree) pairs route in tree order, _ROUTE_PAIRS at a time,
    each pass packing only the trees its pairs use."""
    tree_of = np.repeat(np.arange(len(trees)), [r.size for r in rows])
    rows = np.concatenate(rows)
    counts = np.zeros(2 * X.shape[0], dtype=np.int64)
    for start in range(0, rows.size, _ROUTE_PAIRS):
        r, t = rows[start:start + _ROUTE_PAIRS], tree_of[start:start + _ROUTE_PAIRS]
        counts += np.bincount(2 * r + _route(trees[t[0]:t[-1] + 1], X, r, t - t[0]),
                              minlength=counts.size)
    return counts.reshape(-1, 2)


def train_forest(X: np.ndarray, y: np.ndarray, schema: list[str],
                 params: ForestParams = ForestParams()) -> ForestModel:
    """Bootstrap-sampled Gini trees; deterministic for a given seed.

    Trees grow in groups of max(1, _ROUTE_PAIRS // n_rows), side by side, and
    each group's out-of-bag rows are routed before the next group grows.
    Importance is the impurity decrease summed per feature across all splits
    and trees, normalized to sum to 1. Out-of-bag accuracy is over the rows
    that at least one tree left out of its bootstrap sample, each called by
    the majority of those trees (a tie calls unburned); it is None when no
    row was left out.
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
    gains = [0.0] * X.shape[1]
    trees = []
    oob_votes = np.zeros((n, 2), dtype=np.int64)
    group = max(1, _ROUTE_PAIRS // n)
    for first in range(0, params.n_trees, group):
        rngs = [np.random.Generator(np.random.PCG64(s)) for s in seeds[first:first + group]]
        samples = [rng.integers(0, n, size=n) for rng in rngs]
        for tree, splits in _grow_trees(X, codes, y, samples, rngs, params.min_leaf):
            trees.append(tree)
            for f, gain in splits:
                gains[f] += gain
        oob = [np.flatnonzero(np.bincount(s, minlength=n) == 0) for s in samples]
        oob_votes += _votes(trees[first:], X, oob)
    importance = np.array(gains)
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
    group = max(1, _ROUTE_PAIRS // max(1, every.size))
    groups = [model.trees[first:first + group] for first in range(0, model.n_trees, group)]
    votes = sum(_votes(trees, X, [every] * len(trees)) for trees in groups)
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
