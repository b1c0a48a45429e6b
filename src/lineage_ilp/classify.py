"""Training-set construction and the random-forest classifier.

Three classifiers share this machinery: one scores proposals, one scores
frame-to-frame links, one scores division triples.  Labels come from ground
truth markers; a proposal "captures" a marker when the marker's pixel lies
inside the proposal mask.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .evaluate import GroundTruth
from .io import FormatError, read_json_file, write_json_file
from .proposals import Proposal

FOREST_SCHEMA_VERSION = 1


@dataclass
class TrainingSet:
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels length must match feature rows")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_positive(self) -> int:
        return int(self.labels.sum())


def label_proposals(captured: list[int | None], features: np.ndarray) -> TrainingSet:
    """Positive iff the proposal captures exactly one ground-truth marker;
    ``captured`` is ``captured_markers`` of the proposals, in row order."""
    return TrainingSet(features, [1 if m is not None else 0 for m in captured])


def label_move_edges(captured: list[int | None], moves: np.ndarray, features: np.ndarray) -> TrainingSet:
    """Positive iff both endpoints capture exactly one marker of the same
    track; ``moves`` holds (source, destination) positions in the proposals
    whose ``captured_markers`` are ``captured``."""
    labels = [
        1 if captured[a] is not None and captured[a] == captured[b] else 0
        for a, b in np.asarray(moves).tolist()
    ]
    return TrainingSet(features, labels)


def label_mitosis_sets(
    captured: list[int | None],
    sets: np.ndarray,
    props: list[Proposal],
    gt: GroundTruth,
    features: np.ndarray,
) -> TrainingSet:
    """Positive iff the three captured markers form a recorded division.

    ``sets`` holds (parent, d1, d2) positions in ``props``, whose
    ``captured_markers`` are ``captured``.  The parent proposal must capture
    the dividing track in its final frame and the two daughter proposals
    must capture that track's two children.
    """
    by_parent = {
        (parent, t_end): {c1, c2} for parent, c1, c2, t_end in gt.divisions()
    }
    labels = []
    for p, d1, d2 in np.asarray(sets).tolist():
        mp, m1, m2 = captured[p], captured[d1], captured[d2]
        ok = (
            mp is not None
            and m1 is not None
            and m2 is not None
            and by_parent.get((mp, props[p].t)) == {m1, m2}
        )
        labels.append(1 if ok else 0)
    return TrainingSet(features, labels)


# ---------------------------------------------------------------------------
# Random forest


@dataclass
class Tree:
    """Flat node arrays in depth-first preorder; feature -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


@dataclass
class RandomForest:
    n_features: int
    max_depth: int
    min_leaf: int
    seed: int
    trees: list[Tree] = field(default_factory=list)


# (row, sampled feature) keys one split search counts at once, and column values ranked
# at once; a key holds up to about 110 bytes of temporaries.  Fits of the bench's 27
# seed-0 forests / the 6 of two 40-frame runs (2 shared CPUs, CHANGES.md): 1 << 14 keys
# 0.43 / 2.31 s, 1 << 16 0.39 / 1.95 s, 1 << 18 0.42 / 1.66 s but a 10.4 MiB heap peak.
KEYS_PER_SEARCH = 1 << 16


def _gini_score(nl, pl, n, total_pos) -> np.ndarray:
    """Weighted child Gini of cuts with nl rows (float64) and pl positives
    (int64) on the left of nodes of n rows and total_pos positives."""
    nr = n - nl
    pr = total_pos - pl
    gini_l = 1.0 - (pl / nl) ** 2 - ((nl - pl) / nl) ** 2
    gini_r = 1.0 - (pr / nr) ** 2 - ((nr - pr) / nr) ** 2
    return (nl * gini_l + nr * gini_r) / n


class _ForestBuilder:
    """Grows all trees of a forest in lockstep: each step scores the next node
    that may split of every unfinished tree, ``KEYS_PER_SEARCH`` keys (or one
    node) a batch.  Tree t draws its bootstrap rows ``rows[t * N:(t + 1) * N]``,
    then one ``rng.choice`` per such node in preorder, as if grown alone."""

    def __init__(self, X: np.ndarray, y: np.ndarray, max_depth: int, min_leaf: int):
        (N, d), self.y = X.shape, y
        self.max_depth, self.min_leaf = max_depth, min_leaf
        self.n_sub = min(math.isqrt(d - 1) + 1 if d > 1 else 1, d)  # ceil(sqrt(d))
        self.column = X.T.ravel()  # X is column-major: column f at f * N
        # each column's values ranked densely from one stable argsort: column f
        # has size[f] ranks, rank r the value of row row_of[first[f] + r]; NaN
        # is a rank after the finite ones (nan[f]), and -0.0 shares 0.0's
        self.rank = np.empty((d, N), dtype=np.min_scalar_type(max(N - 1, 0)))
        self.size, self.nan, firsts = np.empty(d, np.int64), np.empty(d, bool), []
        width = max(1, KEYS_PER_SEARCH // N)
        for lo in range(0, d, width):
            block = X[:, lo : lo + width]
            order = np.argsort(block, axis=0, kind="stable")
            ascending = np.take_along_axis(block, order, axis=0)
            nan = np.isnan(ascending)
            new = np.ones(block.shape, dtype=bool)  # a rank's first row
            new[1:] = (ascending[1:] > ascending[:-1]) | (nan[1:] & ~nan[:-1])
            rank = np.cumsum(new, axis=0) - 1
            np.put_along_axis(self.rank[lo : lo + width].T, order, rank, axis=0)
            self.size[lo : lo + width], self.nan[lo : lo + width] = rank[-1] + 1, nan[-1]
            firsts.append(order.T[new.T].astype(self.rank.dtype))
        self.row_of = np.concatenate(firsts)
        self.first = np.cumsum(self.size) - self.size

    def build(self, rngs: list[np.random.Generator]) -> list[Tree]:
        d, N = self.rank.shape
        self.rows = np.concatenate([rng.integers(0, N, size=N).astype(self.rank.dtype) for rng in rngs])
        roots = [int(self.y.take(self.rows[t * N : (t + 1) * N]).sum()) for t in range(len(rngs))]
        # pending nodes as (first row, rows, depth, positives, the node whose right child it is
        # or -1); tree t's nodes in preorder are nodes[t], as [feature, threshold, left, right, value]
        stacks = [[(t * N, N, 0, pos, -1)] for t, pos in enumerate(roots)]
        nodes = [[] for _ in rngs]
        while any(stacks):
            step = []
            for t, (stack, tree) in enumerate(zip(stacks, nodes)):
                while stack:
                    lo, n, depth, pos, parent = stack.pop()
                    if parent >= 0:
                        tree[parent][3] = len(tree)
                    tree.append([-1, 0.0, -1, -1, pos / n])
                    if depth < self.max_depth and n >= 2 * self.min_leaf and 0 < pos < n:
                        feats = rngs[t].choice(d, size=self.n_sub, replace=False)
                        step.append((t, len(tree) - 1, lo, n, depth, pos, feats))
                        break
            while step:
                keys = np.cumsum([self.n_sub * node[3] for node in step])
                j = max(1, int(np.searchsorted(keys, KEYS_PER_SEARCH, side="right")))
                self._split(step[:j], nodes, stacks)
                step = step[j:]
        dtypes = (np.int32, np.float64, np.int32, np.int32, np.float64)
        return [Tree(*(np.array(c, dtype) for c, dtype in zip(zip(*tree), dtypes))) for tree in nodes]

    def _split(self, batch, nodes, stacks) -> None:
        """Split the batch's nodes that have a valid cut; push their children."""
        lo, n, pos = (np.array([node[k] for node in batch]) for k in (2, 3, 5))
        at = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())  # node after node
        rows = self.rows.take(at)
        feature, threshold = self._best_cuts(rows, n, pos, np.array([node[6] for node in batch]))
        owner = np.repeat(np.arange(len(batch)), n)
        split = feature.take(owner) >= 0
        at, rows, owner = at[split], rows[split], owner[split]
        left = self.column.take(feature.take(owner) * len(self.y) + rows) <= threshold.take(owner)
        self.rows[at] = rows.take(np.argsort(2 * owner + ~left, kind="stable"))
        n_left = np.bincount(owner[left], minlength=len(batch)).tolist()
        pos_left = np.bincount(owner[left & (self.y.take(rows) == 1)], minlength=len(batch)).tolist()
        cuts = zip(feature.tolist(), threshold.tolist(), n_left, pos_left)
        for (t, i, lo, n, depth, pos, _), (f, thr, nl, pl) in zip(batch, cuts):
            if f >= 0:  # the left child comes next in preorder
                nodes[t][i][:3] = f, thr, i + 1
                stacks[t] += [(lo + nl, n - nl, depth + 1, pos - pl, i), (lo, nl, depth + 1, pl, -1)]

    def _best_cuts(self, rows, n, pos, feats) -> tuple[np.ndarray, np.ndarray]:
        """Each node's best cut as (feature, threshold), feature -1 if none is
        valid; node j has the next n[j] ``rows``, pos[j] positives and samples
        ``feats[j]``.  Each (node, feature) pair is a segment of a histogram
        with a bin per rank; its present bins, and the rows and positives up
        to each, come from bincounts of the keys, or from sorting them where
        there are more bins than keys.  A cut follows a present bin and leaves
        min_leaf rows each side and a finite value right.  A node takes its
        first minimum score in (sampled feature, cut) order."""
        k, min_leaf = feats.shape[1], self.min_leaf
        size = self.size.take(feats)  # (node, slot) segments
        offset = np.cumsum(size) - size.ravel()
        key = offset.reshape(size.shape).repeat(n, axis=0)
        cell = (feats * len(self.y)).repeat(n, axis=0)
        cell += rows[:, None]
        key += self.rank.take(cell)
        label = self.y.take(rows)
        if offset[-1] + size[-1, -1] <= key.size:
            count = np.bincount(key.ravel(), minlength=offset[-1] + size[-1, -1])
            rare = int(2 * pos.sum() < n.sum())  # the label fewer rows have
            counted = np.bincount(key[label == rare].ravel(), minlength=count.size)
            present = np.flatnonzero(count)
            upto = np.cumsum(count.take(present))
            pos_upto = np.cumsum((counted if rare else count - counted).take(present))
        else:  # each key with its row's label in the low bit
            keyed = np.sort((2 * key + label[:, None]).ravel())
            run = np.flatnonzero(np.diff(keyed >> 1, prepend=-1))  # each present bin's first key
            present, upto = keyed.take(run) >> 1, np.r_[run[1:], keyed.size]
            pos_upto = np.cumsum(keyed & 1).take(upto - 1)
        seg = np.searchsorted(offset, present, side="right") - 1
        seg_n, seg_pos = n.repeat(k), pos.repeat(k)  # each segment's rows and positives
        nl = upto - (np.cumsum(seg_n) - seg_n).take(seg)
        cut = np.flatnonzero((nl >= min_leaf) & (nl <= (seg_n - max(min_leaf, 1)).take(seg)))
        nan_bin = np.where(self.nan.take(feats.ravel()), offset + size.ravel() - 1, -1)  # -1: no NaN
        cut = cut[present.take(cut + 1) != nan_bin.take(seg.take(cut))]  # a finite value follows
        seg_cut = seg.take(cut)
        node = seg_cut // k
        pl = pos_upto.take(cut) - (np.cumsum(seg_pos) - seg_pos).take(seg_cut)
        score = _gini_score(nl.take(cut).astype(np.float64), pl, n.take(node), pos.take(node))
        starts = np.flatnonzero(np.diff(node, prepend=-1))
        least = np.repeat(np.minimum.reduceat(score, starts), np.diff(np.r_[starts, cut.size]))
        hit = np.flatnonzero(score == least)
        best = cut.take(hit[np.diff(node.take(hit), prepend=-1) != 0])
        seg_best = seg.take(best)
        f = feats.ravel().take(seg_best)
        a = present.take(best) + self.first.take(f) - offset.take(seg_best)
        b = a + present.take(best + 1) - present.take(best)
        low, high = (self.column.take(f * len(self.y) + self.row_of.take(r)) for r in (a, b))
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite sum, or -inf + inf
            mid = (low + high) / 2.0
        feature, threshold = np.full(len(n), -1), np.zeros(len(n))
        # low where the midpoint leaves [low, high): adjacent floats, an infinity, an overflow
        feature[seg_best // k], threshold[seg_best // k] = f, np.where((low <= mid) & (mid < high), mid, low)
        return feature, threshold


def _downsample(labels: np.ndarray, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Indices keeping all positives and at most ratio * positives negatives."""
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    cap = int(ratio * len(pos))
    if len(neg) > cap:
        neg = rng.choice(neg, size=cap, replace=False)
    return np.sort(np.concatenate([pos, neg]))


def train_forest(
    data: TrainingSet,
    *,
    n_trees: int = 100,
    max_depth: int = 12,
    min_leaf: int = 2,
    seed: int = 0,
    max_negative_ratio: float = 20.0,
) -> RandomForest:
    """Bagged Gini trees with sqrt-of-dimension feature subsampling per node.

    Raises ValueError when the training set has a single class.  Negatives are
    capped at max_negative_ratio times the positive count before bagging.
    Tree t grows from generator ``children[t + 1]`` of the seed's spawn.
    """
    if data.n_positive == 0 or data.n_positive == data.n_samples:
        raise ValueError("training set must contain both classes")
    children = np.random.SeedSequence(seed).spawn(n_trees + 1)
    keep = _downsample(data.labels, max_negative_ratio, np.random.default_rng(children[0]))
    # column-major, gathered 16 columns at a time: one gather of the whole
    # set would pass through a temporary as large as the result
    X = np.empty((len(keep), data.features.shape[1]), order="F")
    for j in range(0, X.shape[1], 16):
        X[:, j:j + 16] = data.features[keep, j:j + 16]
    y = data.labels[keep]
    builder = _ForestBuilder(X, y, max_depth, min_leaf)
    trees = builder.build([np.random.default_rng(c) for c in children[1:]])
    return RandomForest(
        n_features=X.shape[1], max_depth=max_depth, min_leaf=min_leaf, seed=seed, trees=trees
    )


@dataclass
class ConstantModel:
    """Stand-in for a forest when training saw a single class.

    Happens on pristine data (every candidate is a true cell, say); the model
    simply reports the one probability it ever saw.
    """

    p: float
    n_features: int


def predict_prob(model: RandomForest | ConstantModel, features: np.ndarray) -> np.ndarray:
    """Mean positive fraction over trees of each row of the (n, d) ``features``."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"expected {model.n_features} features, got shape {X.shape}"
        )
    if isinstance(model, ConstantModel):
        return np.full(X.shape[0], model.p)
    acc = np.zeros(X.shape[0])
    step = max(1, PAIRS_PER_WALK // max(X.shape[0], 1))
    for lo in range(0, len(model.trees), step):
        for leaf_values in _forest_leaf_values(model.trees[lo : lo + step], X):
            acc += leaf_values  # in tree order, as a tree-by-tree sum adds them
    acc /= len(model.trees)
    return acc


# (tree, row) pairs walked at once: the whole forest on a few hundred rows,
# a block of trees on more, so the walk's arrays stay a few MiB
PAIRS_PER_WALK = 1 << 16


def _forest_leaf_values(trees: list[Tree], X: np.ndarray) -> np.ndarray:
    """(trees, rows) leaf value each tree gives each row of X.

    The trees' node arrays are concatenated, children shifted to absolute
    indices, and every (tree, row) pair moves down one level per step, so a
    step is a few numpy calls over all pairs still above a leaf; pairs that
    reach a leaf leave the walk.  A row goes left when its feature value is
    at most the threshold (a NaN goes right).
    """
    n, d = X.shape
    sizes = [t.feature.size for t in trees]
    root = np.zeros(len(trees), dtype=np.intp)
    np.cumsum(sizes[:-1], out=root[1:])
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    value = np.concatenate([t.value for t in trees])
    shift = np.repeat(root, sizes)
    # node i's children at 2i (taken when the row goes right) and 2i + 1
    child = np.stack(
        [np.concatenate([t.right for t in trees]) + shift, np.concatenate([t.left for t in trees]) + shift],
        axis=1,
    ).ravel()
    out = np.empty(len(trees) * n)
    pair = np.arange(out.size)  # pair k is tree k // n, row k % n
    node = np.repeat(root, n)
    at = np.tile(np.arange(0, n * d, d), len(trees))  # offset of the pair's row in X
    x = np.ascontiguousarray(X).ravel()
    while node.size:
        f = feature.take(node)
        leaf = f < 0
        if leaf.any():
            out[pair[leaf]] = value.take(node[leaf])
            keep = np.flatnonzero(~leaf)
            pair, node, f, at = pair.take(keep), node.take(keep), f.take(keep), at.take(keep)
        go_left = x.take(at + f) <= threshold.take(node)
        node = child.take(2 * node + go_left)
    return out.reshape(len(trees), n)


def fit_model(
    data: TrainingSet, *, n_trees: int = 100, seed: int = 0
) -> RandomForest | ConstantModel:
    """train_forest at its default tree shape, degrading to a ConstantModel
    when only one class exists."""
    if data.n_positive in (0, data.n_samples):
        p = 1.0 if data.n_positive else 0.0
        return ConstantModel(p=p, n_features=data.features.shape[1])
    return train_forest(data, n_trees=n_trees, seed=seed)


def forest_to_json(forest: RandomForest) -> dict:
    return {
        "schema_version": FOREST_SCHEMA_VERSION,
        "kind": "random_forest",
        "n_features": forest.n_features,
        "max_depth": forest.max_depth,
        "min_leaf": forest.min_leaf,
        "seed": forest.seed,
        "trees": [
            {
                "feature": t.feature.tolist(),
                "threshold": t.threshold.tolist(),
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "value": t.value.tolist(),
            }
            for t in forest.trees
        ],
    }


_NODE_FIELDS = (
    ("feature", np.int32), ("threshold", np.float64), ("left", np.int32),
    ("right", np.int32), ("value", np.float64),
)


def forest_from_json(obj: dict) -> RandomForest:
    """The forest of a ``random_forest`` document.  Each node field of all
    trees is read with one ``np.array`` call and checked at once
    (``_check_trees``); the trees are views into those arrays."""
    try:
        docs = obj["trees"]
        columns = [[t[name] for t in docs] for name, _ in _NODE_FIELDS]
        fields = [_node_field(col, dtype) for col, (_, dtype) in zip(columns, _NODE_FIELDS)]
        meta = {key: int(obj[key]) for key in ("n_features", "max_depth", "min_leaf", "seed")}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed random_forest document: {exc}") from exc
    if not docs or meta["n_features"] < 1:
        raise FormatError("random_forest document needs trees and a positive n_features")
    sizes = _check_trees(fields, meta["n_features"])
    feature, threshold, left, right, value = (flat for flat, _ in fields)
    ends = np.cumsum(sizes).tolist()
    trees = [
        Tree(feature[a:b], threshold[a:b], left[a:b], right[a:b], value[a:b])
        for a, b in zip([0] + ends[:-1], ends)
    ]
    return RandomForest(trees=trees, **meta)


def _node_field(column: list, dtype) -> tuple[np.ndarray, np.ndarray]:
    """One node field of every tree as one flat array over the trees where it
    is a flat list, and each tree's length of it (-1: not a flat list).
    Element conversion errors propagate, as a tree-by-tree read raises them."""
    sizes = np.array([len(c) if type(c) is list else -1 for c in column], dtype=np.intp)
    try:
        flat = np.array(list(chain.from_iterable(c for c in column if type(c) is list)), dtype=dtype)
        if flat.ndim == 1:
            return flat, sizes
    except ValueError:
        pass  # a list that holds lists, or a bad element: find which, tree by tree
    arrays = [np.array(c, dtype=dtype) if n >= 0 else None for c, n in zip(column, sizes)]
    sizes = np.array([-1 if a is None or a.ndim != 1 else a.size for a in arrays], dtype=np.intp)
    flat = np.concatenate([np.zeros(0, dtype)] + [a for a, n in zip(arrays, sizes) if n >= 0])
    return flat, sizes


def _check_trees(fields, n_features: int) -> np.ndarray:
    """Each tree's node count, or a FormatError naming the first tree that
    prediction could not walk from node 0 to a leaf, with the first of these
    rules it breaks:

    1. its five node fields are non-empty lists of one length;
    2. every feature lies in [-1, n_features);
    3. a leaf (feature -1) has no child;
    4. each internal node i has children i < left < right < len, which
       train_forest's preorder meets, so no walk can loop or leave the arrays.

    Trees that break rule 1 drop out of ``fields`` before rules 2-4 are
    checked over all remaining nodes at once.
    """
    sizes = np.stack([n for _, n in fields])  # (field, tree)
    ok = (sizes[0] > 0) & (sizes == sizes[0]).all(axis=0)
    n_nodes = sizes[0][ok]
    feature, left, right = (flat[np.repeat(ok[n >= 0], n[n >= 0])] for flat, n in (fields[0], *fields[2:4]))
    tree = np.repeat(np.flatnonzero(ok), n_nodes)
    node = np.arange(feature.size) - np.repeat(np.cumsum(n_nodes) - n_nodes, n_nodes)
    leaf = feature == -1
    bad_trees = {
        1: np.flatnonzero(~ok),
        2: tree[(feature < -1) | (feature >= n_features)],
        3: tree[leaf & ((left != -1) | (right != -1))],
        4: tree[~leaf & ~((node < left) & (left < right) & (right < np.repeat(n_nodes, n_nodes)))],
    }
    first = {rule: int(bad.min(initial=len(ok))) for rule, bad in bad_trees.items()}
    rule = min(first, key=first.get)  # the lowest rule among those the first bad tree breaks
    t = first[rule]
    if t == len(ok):
        return n_nodes
    message = {
        1: "node arrays must be non-empty lists of one length",
        2: f"feature index outside [-1, {n_features})",
        3: "a leaf (feature -1) has a child",
        4: f"an internal node i breaks i < left < right < {int(sizes[0][t])}",
    }
    raise FormatError(f"tree {t}: {message[rule]}")


def model_to_json(model: RandomForest | ConstantModel) -> dict:
    if isinstance(model, ConstantModel):
        return {
            "schema_version": FOREST_SCHEMA_VERSION,
            "kind": "constant_model",
            "p": model.p,
            "n_features": model.n_features,
        }
    return forest_to_json(model)


def model_from_json(obj: dict) -> RandomForest | ConstantModel:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "constant_model":
        p = obj.get("p")
        n_features = obj.get("n_features")
        if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
            raise FormatError(f"constant_model p must be a probability, got {p!r}")
        if isinstance(n_features, bool) or not isinstance(n_features, int) or n_features < 1:
            raise FormatError(f"constant_model n_features must be a positive integer, got {n_features!r}")
        return ConstantModel(p=float(p), n_features=n_features)
    if kind == "random_forest":
        return forest_from_json(obj)
    raise FormatError(f"expected a classifier document, got kind {kind!r}")


def save_model(model: RandomForest | ConstantModel, path) -> None:
    """One line of compact JSON, which the C encoder writes: a forest's node
    arrays are most of a model directory."""
    write_json_file(path, model_to_json(model), indent=None)


def load_model(path) -> RandomForest | ConstantModel:
    kinds = ("random_forest", "constant_model")
    return model_from_json(read_json_file(path, kinds, (FOREST_SCHEMA_VERSION,)))


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via tie-averaged ranks."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both classes")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    avg_rank = (starts + ends - 1) / 2.0 + 1.0
    ranks = avg_rank[inverse]
    pos_rank_sum = ranks[labels == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
