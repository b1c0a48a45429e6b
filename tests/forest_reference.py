"""Random forests grown one tree at a time by recursion, with a split search
that sorts each sampled feature in turn: a reference for
``classify.train_forest``, whose trees must equal these array for array.

Every tree draws from its own generator, spawned from the seed as
``train_forest`` spawns them: its bootstrap rows, then one ``rng.choice`` of
candidate features per node that may split, in preorder.
"""
from __future__ import annotations

import math

import numpy as np

from lineage_ilp.classify import RandomForest, Tree, _downsample


def reference_threshold(a: float, b: float) -> float:
    """The threshold of a cut between values a < b: their midpoint, or a
    where the midpoint is not in [a, b)."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or -inf + inf
        mid = (a + b) / 2.0
    return mid if a <= mid < b else a


class ReferenceBuilder:
    def __init__(self, X, y, rng, max_depth, min_leaf):
        self.X = X
        self.y = y
        self.rng = rng
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        # ceil(sqrt(d)) candidate features per node
        self.n_sub = math.isqrt(X.shape[1] - 1) + 1 if X.shape[1] > 1 else 1
        self.nodes: list[list] = []  # [feature, threshold, left, right, value]

    def build(self, idx: np.ndarray) -> Tree:
        self._node(idx, 0)
        columns = list(zip(*self.nodes))
        dtypes = (np.int32, np.float64, np.int32, np.int32, np.float64)
        return Tree(*(np.array(c, dtype=dt) for c, dt in zip(columns, dtypes)))

    def _node(self, idx: np.ndarray, depth: int) -> int:
        y_sub = self.y[idx]
        n = len(idx)
        total = int(y_sub.sum())
        i = len(self.nodes)
        self.nodes.append([-1, 0.0, -1, -1, total / n])
        if depth >= self.max_depth or n < 2 * self.min_leaf or total == 0 or total == n:
            return i
        feats = self.rng.choice(self.X.shape[1], size=min(self.n_sub, self.X.shape[1]), replace=False)
        split = self._best_split(idx, y_sub, total, feats)
        if split is None:
            return i
        f, thr = split
        self.nodes[i][:2] = f, thr
        go_left = self.X[idx, f] <= thr
        self.nodes[i][2] = self._node(idx[go_left], depth + 1)
        self.nodes[i][3] = self._node(idx[~go_left], depth + 1)
        return i

    def _best_split(self, idx, y_sub, total_pos, feats):
        """The lowest weighted child Gini over the sampled features, in
        their order, and each one's cuts: between two distinct sorted
        values, at least min_leaf rows on each side.  Ties keep the earlier
        feature, then the lower cut."""
        n = len(idx)
        best = None
        positions = np.arange(1, n)
        for f in feats:
            v = self.X[idx, f]
            order = np.argsort(v, kind="stable")
            vs = v[order]
            ys = y_sub[order]
            valid = (
                (vs[1:] > vs[:-1])
                & (positions >= self.min_leaf)
                & (positions <= n - self.min_leaf)
            )
            ks = positions[valid]
            if len(ks) == 0:
                continue
            pl = np.cumsum(ys)[ks - 1]
            nl = ks.astype(np.float64)
            nr = n - nl
            pr = total_pos - pl
            gini_l = 1.0 - (pl / nl) ** 2 - ((nl - pl) / nl) ** 2
            gini_r = 1.0 - (pr / nr) ** 2 - ((nr - pr) / nr) ** 2
            score = (nl * gini_l + nr * gini_r) / n
            j = int(np.argmin(score))
            if best is None or score[j] < best[0]:
                k = ks[j]
                best = (float(score[j]), int(f), float(reference_threshold(vs[k - 1], vs[k])))
        if best is None:
            return None
        return best[1], best[2]


def reference_forest(
    data, *, n_trees=100, max_depth=12, min_leaf=2, seed=0, max_negative_ratio=20.0
) -> RandomForest:
    """``train_forest``'s forest, one tree at a time."""
    children = np.random.SeedSequence(seed).spawn(n_trees + 1)
    keep = _downsample(data.labels, max_negative_ratio, np.random.default_rng(children[0]))
    X = data.features[keep]
    y = data.labels[keep]
    forest = RandomForest(n_features=X.shape[1], max_depth=max_depth, min_leaf=min_leaf, seed=seed)
    for t in range(n_trees):
        rng = np.random.default_rng(children[t + 1])
        rows = rng.integers(0, X.shape[0], size=X.shape[0])
        forest.trees.append(ReferenceBuilder(X, y, rng, max_depth, min_leaf).build(rows))
    return forest
