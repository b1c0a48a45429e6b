"""Training-set construction and the random-forest classifier.

Three classifiers share this machinery: one scores proposals, one scores
frame-to-frame links, one scores division triples.  Labels come from ground
truth markers; a proposal "captures" a marker when the marker's pixel lies
inside the proposal mask.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evaluate import GroundTruth, captured_marker, markers_inside
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


def _single_marker(p: Proposal, gt: GroundTruth) -> int | None:
    return captured_marker(p, gt.markers_at(p.t))


def label_proposals(
    props: list[Proposal], gt: GroundTruth, features: np.ndarray
) -> TrainingSet:
    """Positive iff the proposal captures exactly one ground-truth marker."""
    labels = [1 if _single_marker(p, gt) is not None else 0 for p in props]
    return TrainingSet(features, labels)


def label_move_edges(
    pairs: list[tuple[Proposal, Proposal]], gt: GroundTruth, features: np.ndarray
) -> TrainingSet:
    """Positive iff both endpoints capture exactly one marker of the same track."""
    labels = []
    for p_i, p_j in pairs:
        a = _single_marker(p_i, gt)
        b = _single_marker(p_j, gt)
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
    labels = []
    for p, d1, d2 in triples:
        mp = _single_marker(p, gt)
        m1 = _single_marker(d1, gt)
        m2 = _single_marker(d2, gt)
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


class _TreeBuilder:
    def __init__(self, X, y, rng, max_depth, min_leaf):
        self.X = X
        self.y = y
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
        mean = float(y_sub.mean())
        if (
            depth >= self.max_depth
            or len(idx) < 2 * self.min_leaf
            or mean == 0.0
            or mean == 1.0
        ):
            return self._emit(-1, 0.0, mean)
        feats = self.rng.choice(self.X.shape[1], size=min(self.n_sub, self.X.shape[1]), replace=False)
        split = self._best_split(idx, y_sub, feats)
        if split is None:
            return self._emit(-1, 0.0, mean)
        f, thr = split
        i = self._emit(f, thr, mean)
        go_left = self.X[idx, f] <= thr
        self.left[i] = self._node(idx[go_left], depth + 1)
        self.right[i] = self._node(idx[~go_left], depth + 1)
        return i

    def _best_split(self, idx, y_sub, feats) -> tuple[int, float] | None:
        """Minimum weighted child Gini over sampled features and cut points.

        Ties keep the earliest sampled feature, then the lowest cut.
        """
        n = len(idx)
        total_pos = int(y_sub.sum())
        best: tuple[float, int, float] | None = None
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
            pos_left = np.cumsum(ys)[ks - 1]
            nl = ks.astype(np.float64)
            nr = n - nl
            pl = pos_left
            pr = total_pos - pos_left
            gini_l = 1.0 - (pl / nl) ** 2 - ((nl - pl) / nl) ** 2
            gini_r = 1.0 - (pr / nr) ** 2 - ((nr - pr) / nr) ** 2
            score = (nl * gini_l + nr * gini_r) / n
            j = int(np.argmin(score))
            if best is None or score[j] < best[0]:
                k = ks[j]
                best = (float(score[j]), int(f), float((vs[k - 1] + vs[k]) / 2.0))
        if best is None:
            return None
        return best[1], best[2]


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
    X = data.features[keep]
    y = data.labels[keep]
    forest = RandomForest(
        n_features=X.shape[1], max_depth=max_depth, min_leaf=min_leaf, seed=seed
    )
    n = X.shape[0]
    for t in range(n_trees):
        rng = np.random.default_rng(children[t + 1])
        rows = rng.integers(0, n, size=n)
        builder = _TreeBuilder(X, y, rng, max_depth, min_leaf)
        forest.trees.append(builder.build(rows))
    return forest


def _tree_predict(tree: Tree, X: np.ndarray) -> np.ndarray:
    n = X.shape[0]
    node = np.zeros(n, dtype=np.int64)
    out = np.empty(n, dtype=np.float64)
    active = np.arange(n)
    while len(active) > 0:
        cur = node[active]
        feat = tree.feature[cur]
        at_leaf = feat < 0
        leaves = active[at_leaf]
        out[leaves] = tree.value[node[leaves]]
        active = active[~at_leaf]
        if len(active) == 0:
            break
        cur = node[active]
        go_left = X[active, tree.feature[cur]] <= tree.threshold[cur]
        node[active] = np.where(go_left, tree.left[cur], tree.right[cur])
    return out


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
    for tree in model.trees:
        acc += _tree_predict(tree, X)
    acc /= len(model.trees)
    return acc[0] if single else acc


def fit_model(
    data: TrainingSet,
    *,
    n_trees: int = 100,
    max_depth: int = 12,
    min_leaf: int = 2,
    seed: int = 0,
    max_negative_ratio: float = 20.0,
) -> RandomForest | ConstantModel:
    """train_forest, degrading to a ConstantModel when only one class exists."""
    if data.n_positive in (0, data.n_samples):
        p = 1.0 if data.n_positive else 0.0
        return ConstantModel(p=p, n_features=data.features.shape[1])
    return train_forest(
        data,
        n_trees=n_trees,
        max_depth=max_depth,
        min_leaf=min_leaf,
        seed=seed,
        max_negative_ratio=max_negative_ratio,
    )


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


def forest_from_json(obj: dict) -> RandomForest:
    try:
        trees = [
            Tree(
                feature=np.array(t["feature"], dtype=np.int32),
                threshold=np.array(t["threshold"], dtype=np.float64),
                left=np.array(t["left"], dtype=np.int32),
                right=np.array(t["right"], dtype=np.int32),
                value=np.array(t["value"], dtype=np.float64),
            )
            for t in obj["trees"]
        ]
        forest = RandomForest(
            n_features=int(obj["n_features"]),
            max_depth=int(obj["max_depth"]),
            min_leaf=int(obj["min_leaf"]),
            seed=int(obj["seed"]),
            trees=trees,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed random_forest document: {exc}") from exc
    if not forest.trees or forest.n_features < 1:
        raise FormatError("random_forest document needs trees and a positive n_features")
    return forest


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
    write_json_file(path, model_to_json(model))


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
