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

from .evaluate import GroundTruth, captured_markers
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


def _captured_by_identity(props, gt: GroundTruth) -> dict[int, int | None]:
    """``captured_markers`` of each distinct proposal object, keyed by ``id``;
    a proposal held by many pairs or triples is looked up once."""
    distinct = list({id(p): p for p in props}.values())
    return {id(p): m for p, m in zip(distinct, captured_markers(distinct, gt))}


def label_proposals(
    props: list[Proposal], gt: GroundTruth, features: np.ndarray
) -> TrainingSet:
    """Positive iff the proposal captures exactly one ground-truth marker."""
    labels = [1 if m is not None else 0 for m in captured_markers(props, gt)]
    return TrainingSet(features, labels)


def label_move_edges(
    pairs: list[tuple[Proposal, Proposal]], gt: GroundTruth, features: np.ndarray
) -> TrainingSet:
    """Positive iff both endpoints capture exactly one marker of the same track."""
    marker = _captured_by_identity([p for pair in pairs for p in pair], gt)
    labels = []
    for p_i, p_j in pairs:
        a = marker[id(p_i)]
        b = marker[id(p_j)]
        labels.append(1 if a is not None and a == b else 0)
    return TrainingSet(features, labels)


def label_mitosis_sets(
    triples: list[tuple[Proposal, Proposal, Proposal]],
    gt: GroundTruth,
    features: np.ndarray,
) -> TrainingSet:
    """Positive iff the three captured markers form a recorded division.

    The parent proposal must capture the dividing track in its final frame and
    the two daughter proposals must capture that track's two children.
    """
    by_parent = {
        (parent, t_end): {c1, c2} for parent, c1, c2, t_end in gt.divisions()
    }
    marker = _captured_by_identity([p for triple in triples for p in triple], gt)
    labels = []
    for p, d1, d2 in triples:
        mp = marker[id(p)]
        m1 = marker[id(d1)]
        m2 = marker[id(d2)]
        ok = (
            mp is not None
            and m1 is not None
            and m2 is not None
            and by_parent.get((mp, p.t)) == {m1, m2}
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


# A node of n rows (duplicates counted) takes the count search when
# n * COUNT_SEARCH_SHARE >= N, with N the rows of the forest's training set;
# smaller nodes sort.  The count search costs about k * N whatever n is, the
# sort k * n * log n.  Timed node by node with both searches on the forests
# of four mt-exact scenes, four truth-degraded scenes and a 40-frame 256x256
# run (N 159 to 5,434; one core of a shared 2-CPU machine), the count
# search breaks even at n / N of about 1/12 when N >= 2,000 and about 1/6
# below, and at n >= N / 2 takes 0.37 and 0.68 of the sort's time.
COUNT_SEARCH_SHARE = 8


def _gini_score(nl, pl, n: int, total_pos: int) -> np.ndarray:
    """Weighted child Gini of cuts with nl rows (float64) and pl positives
    (int64) on the left of a node of n rows and total_pos positives."""
    nr = n - nl
    pr = total_pos - pl
    gini_l = 1.0 - (pl / nl) ** 2 - ((nl - pl) / nl) ** 2
    gini_r = 1.0 - (pr / nr) ** 2 - ((nr - pr) / nr) ** 2
    return (nl * gini_l + nr * gini_r) / n


class _TreeBuilder:
    def __init__(self, X, y, order, rng, max_depth, min_leaf):
        self.X = X
        self.y = y
        self.order = order  # (d, N): each column's stable argsort, see _presort
        self.rng = rng
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        # ceil(sqrt(d)) candidate features per node
        self.n_sub = math.isqrt(X.shape[1] - 1) + 1 if X.shape[1] > 1 else 1
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def build(self, idx: np.ndarray) -> Tree:
        self._node(idx, 0)
        return Tree(
            feature=np.array(self.feature, dtype=np.int32),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int32),
            right=np.array(self.right, dtype=np.int32),
            value=np.array(self.value, dtype=np.float64),
        )

    def _emit(self, feature, threshold, value) -> int:
        i = len(self.feature)
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return i

    def _node(self, idx: np.ndarray, depth: int) -> int:
        y_sub = self.y[idx]
        n = len(idx)
        total = int(y_sub.sum())
        mean = total / n  # equals y_sub.mean() on 0/1 labels
        if (
            depth >= self.max_depth
            or n < 2 * self.min_leaf
            or total == 0
            or total == n
        ):
            return self._emit(-1, 0.0, mean)
        feats = self.rng.choice(self.X.shape[1], size=min(self.n_sub, self.X.shape[1]), replace=False)
        split = self._best_split(idx, y_sub, total, feats)
        if split is None:
            return self._emit(-1, 0.0, mean)
        f, thr = split
        i = self._emit(f, thr, mean)
        go_left = self.X[idx, f] <= thr
        self.left[i] = self._node(idx[go_left], depth + 1)
        self.right[i] = self._node(idx[~go_left], depth + 1)
        return i

    def _best_split(self, idx, y_sub, total_pos, feats) -> tuple[int, float] | None:
        """Minimum weighted child Gini over sampled features and cut points.

        A cut puts every row whose value is at most the cut's on the left; it
        must fall between two distinct values and leave at least min_leaf
        rows on each side.  Ties keep the earliest sampled feature, then the
        lowest cut.  Both searches below see the same cuts with the same
        integer counts, so they return the same split bit for bit.
        """
        if len(idx) * COUNT_SEARCH_SHARE >= len(self.y):
            return self._count_split(idx, total_pos, feats)
        return self._sort_split(idx, y_sub, total_pos, feats)

    def _sort_split(self, idx, y_sub, total_pos, feats) -> tuple[int, float] | None:
        """Sorts the node's (k, n) block of sampled columns with one stable
        argsort; cut c of row i puts the c + 1 smallest values of feature
        feats[i] on the left."""
        v = self.X[np.ix_(idx, feats)].T
        order = np.argsort(v, axis=1, kind="stable")
        vs = np.take_along_axis(v, order, axis=1)
        pl = np.cumsum(y_sub[order], axis=1)[:, :-1]
        return self._pick(len(idx), total_pos, feats, vs, np.arange(1, len(idx)), pl)

    def _count_split(self, idx, total_pos, feats) -> tuple[int, float] | None:
        """Reads the node's row counts in each sampled column's presorted
        order.  Every row of the node appears once per column with its count,
        so the cumulative count and positive count after a present row are
        the left side of the cut that follows it; cuts lie between
        consecutive present rows."""
        cnt = np.bincount(idx, minlength=len(self.y))
        order = self.order[feats]
        # present rows by value; take and compress gather faster than indexing
        rows = order.compress(cnt.take(order).ravel() > 0).reshape(len(feats), -1)
        c = cnt.take(rows)
        nl = c.cumsum(axis=1)[:, :-1]
        pl = (cnt * self.y).take(rows).cumsum(axis=1)[:, :-1]
        vs = self.X.T.take(feats[:, None] * len(self.y) + rows)  # X is column-major
        return self._pick(len(idx), total_pos, feats, vs, nl, pl)

    def _pick(self, n, total_pos, feats, vs, nl, pl) -> tuple[int, float] | None:
        """The first minimum, in (sampled feature, cut) order, of the score of
        the valid cuts, as (feature, midpoint of the values around the cut).

        ``vs`` holds each sampled feature's values in ascending order and
        ``nl``, ``pl`` the rows and positives left of the cut after each
        value but the last; ``nl`` may be one row shared by all features.
        A cut is valid between two distinct values with at least min_leaf
        rows on each side, and only valid cuts are scored.
        """
        valid = (vs[:, 1:] > vs[:, :-1]) & (nl >= self.min_leaf) & (nl <= n - self.min_leaf)
        row, cut = valid.nonzero()
        if len(row) == 0:
            return None
        nl = (nl[cut] if nl.ndim == 1 else nl[row, cut]).astype(np.float64)
        j = int(_gini_score(nl, pl[row, cut], n, total_pos).argmin())
        row, cut = row[j], cut[j]
        return int(feats[row]), float((vs[row, cut] + vs[row, cut + 1]) / 2.0)


def _presort(X: np.ndarray) -> np.ndarray:
    """(d, N) stable argsort of every column of X, in the smallest unsigned
    dtype that holds a row index."""
    order = np.empty((X.shape[1], X.shape[0]), dtype=np.min_scalar_type(max(X.shape[0] - 1, 0)))
    for f in range(X.shape[1]):
        order[f] = np.argsort(X[:, f], kind="stable")
    return order


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
    """
    if data.n_positive == 0 or data.n_positive == data.n_samples:
        raise ValueError("training set must contain both classes")
    children = np.random.SeedSequence(seed).spawn(n_trees + 1)
    keep = _downsample(data.labels, max_negative_ratio, np.random.default_rng(children[0]))
    X = np.take(data.features.T, keep, axis=1).T  # column-major: each column contiguous
    y = data.labels[keep]
    forest = RandomForest(
        n_features=X.shape[1], max_depth=max_depth, min_leaf=min_leaf, seed=seed
    )
    n = X.shape[0]
    order = _presort(X)
    for t in range(n_trees):
        rng = np.random.default_rng(children[t + 1])
        rows = rng.integers(0, n, size=n)
        builder = _TreeBuilder(X, y, order, rng, max_depth, min_leaf)
        forest.trees.append(builder.build(rows))
    return forest


@dataclass
class ConstantModel:
    """Stand-in for a forest when training saw a single class.

    Happens on pristine data (every candidate is a true cell, say); the model
    simply reports the one probability it ever saw.
    """

    p: float
    n_features: int


def predict_prob(model: RandomForest | ConstantModel, features: np.ndarray) -> np.ndarray:
    """Mean positive fraction over trees; accepts (n, d) or a single (d,) row."""
    X = np.asarray(features, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"expected {model.n_features} features, got shape {X.shape}"
        )
    if isinstance(model, ConstantModel):
        acc = np.full(X.shape[0], model.p)
        return acc[0] if single else acc
    acc = np.zeros(X.shape[0])
    step = max(1, PAIRS_PER_WALK // max(X.shape[0], 1))
    for lo in range(0, len(model.trees), step):
        for leaf_values in _forest_leaf_values(model.trees[lo : lo + step], X):
            acc += leaf_values  # in tree order, as a tree-by-tree sum adds them
    acc /= len(model.trees)
    return acc[0] if single else acc


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
