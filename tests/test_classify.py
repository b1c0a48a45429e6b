"""Labeling rules, the random forest, and AUC."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from forest_reference import reference_forest
from support import positions
from lineage_ilp import classify
from lineage_ilp.classify import (
    TrainingSet,
    forest_from_json,
    forest_to_json,
    label_mitosis_sets,
    label_move_edges,
    label_proposals,
    load_model,
    predict_prob,
    roc_auc,
    save_model,
    train_forest,
)
from lineage_ilp.evaluate import GroundTruth, captured_markers, markers_inside, markers_inside_each
from lineage_ilp.features import move_feature_matrix, proposal_feature_matrix
from lineage_ilp.geometry import Mask
from lineage_ilp.io import FormatError, TrackRow
from lineage_ilp.proposals import Proposal
from lineage_ilp.sim import SimConfig, ideal_proposals, simulate


def square(pid, t, x0, y0, size):
    return Proposal(id=pid, t=t, mask=Mask(x0, y0, np.ones((size, size), bool)), raw_score=0.5)


@pytest.fixture()
def division_gt():
    tracks = [
        TrackRow(1, 0, 1, 0),
        TrackRow(2, 0, 0, 0),
        TrackRow(3, 1, 1, 2),
        TrackRow(4, 1, 1, 2),
    ]
    markers = {
        0: [(1, 5.0, 5.0), (2, 20.0, 20.0)],
        1: [(1, 6.0, 5.0), (3, 18.0, 18.0), (4, 23.0, 22.0)],
    }
    return GroundTruth(tracks=tracks, markers=markers)


class TestLabeling:
    def test_markers_inside(self, division_gt):
        p = square(0, 0, 3, 3, 5)
        assert markers_inside(p, division_gt.markers_at(0)) == [1]
        big = square(1, 0, 0, 0, 30)
        assert sorted(markers_inside(big, division_gt.markers_at(0))) == [1, 2]

    def test_label_proposals(self, division_gt):
        props = [
            square(0, 0, 3, 3, 5),    # one marker
            square(1, 0, 0, 0, 30),   # two markers
            square(2, 0, 40, 40, 5),  # none
        ]
        ts = label_proposals(captured_markers(props, division_gt), np.zeros((3, 2)))
        np.testing.assert_array_equal(ts.labels, [1, 0, 0])

    def test_label_move_edges(self, division_gt):
        a = square(0, 0, 3, 3, 5)        # track 1 at t=0
        b = square(1, 1, 4, 3, 5)        # track 1 at t=1
        c = square(2, 1, 16, 16, 5)      # track 3 at t=1
        double = square(3, 0, 0, 0, 30)  # both markers at t=0
        props = [a, b, c, double]
        moves = positions(props, [(0, 1), (0, 2), (3, 1)])
        ts = label_move_edges(captured_markers(props, division_gt), moves, np.zeros((3, 2)))
        np.testing.assert_array_equal(ts.labels, [1, 0, 0])

    def test_label_mitosis_sets(self, division_gt):
        parent = square(0, 0, 18, 18, 5)  # track 2 in its final frame
        d1 = square(1, 1, 16, 16, 5)      # track 3
        d2 = square(2, 1, 21, 20, 5)      # track 4
        not_parent = square(3, 0, 3, 3, 5)  # track 1, which does not divide
        props = [parent, d1, d2, not_parent]
        sets = positions(props, [(0, 1, 2), (0, 2, 1), (3, 1, 2), (0, 1, 1)])
        ts = label_mitosis_sets(captured_markers(props, division_gt), sets, props, division_gt, np.zeros((4, 2)))
        np.testing.assert_array_equal(ts.labels, [1, 1, 0, 0])


def _reference_captured(p, gt):
    inside = markers_inside(p, gt.markers_at(p.t))
    return inside[0] if len(inside) == 1 else None


class TestLabelsByLookup:
    """The per-frame lookup gives every label the per-proposal marker scan
    gives it."""

    @staticmethod
    def scene(rng):
        markers = {}
        for t in range(3):
            n = int(rng.integers(0, 12))
            # half-pixel coordinates sit on the rounding edge
            xs = rng.integers(-4, 40, size=n) / 2.0 + rng.choice([0.0, 0.25, 0.5], size=n)
            ys = rng.integers(-4, 40, size=n) / 2.0 + rng.choice([0.0, 0.25, 0.5], size=n)
            markers[t] = [(int(tid), float(x), float(y)) for tid, x, y in zip(rng.permutation(n) + 1, xs, ys)]
        tracks = [TrackRow(tid, 0, 2, 0) for tid in range(1, 13)]
        gt = GroundTruth(tracks=tracks, markers=markers)
        props = []
        for pid in range(int(rng.integers(1, 30))):
            h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            bits = rng.random((h, w)) < 0.6
            bits[0, 0] = True
            mask = Mask(int(rng.integers(-2, 20)), int(rng.integers(-2, 20)), bits)
            props.append(Proposal(id=pid, t=int(rng.integers(0, 4)), mask=mask, raw_score=0.5))
        return gt, props

    def test_random_scenes(self):
        """60 distinct scenes."""
        seen = set()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            gt, props = self.scene(rng)
            seen.add(repr(gt.markers) + repr([(p.t, p.mask.x0, p.mask.y0, p.mask.bits.tolist()) for p in props]))
            assert markers_inside_each(props, gt) == [markers_inside(p, gt.markers_at(p.t)) for p in props]
            want = [1 if _reference_captured(p, gt) is not None else 0 for p in props]
            captured = captured_markers(props, gt)
            assert label_proposals(captured, np.zeros((len(props), 1))).labels.tolist() == want
            moves = rng.integers(0, len(props), size=(20, 2))
            pairs = [(props[i], props[j]) for i, j in moves]
            want = []
            for a, b in pairs:
                ma, mb = _reference_captured(a, gt), _reference_captured(b, gt)
                want.append(1 if ma is not None and ma == mb else 0)
            assert label_move_edges(captured, moves, np.zeros((20, 1))).labels.tolist() == want
        assert len(seen) == 60


class TestTrainingSet:
    def test_rejects_mismatched_rows(self):
        with pytest.raises(ValueError):
            TrainingSet(np.zeros((3, 2)), np.array([0, 1]))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            TrainingSet(np.zeros((2, 2)), np.array([0, 2]))

    def test_counts(self):
        ts = TrainingSet(np.zeros((4, 2)), np.array([0, 1, 1, 0]))
        assert ts.n_samples == 4
        assert ts.n_positive == 2


def separable_set(n=200, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, 2))
    y = (X[:, 0] + X[:, 1] > 1.0).astype(int)
    return TrainingSet(X, y)


class TestForest:
    def test_separable_auc(self):
        ts = separable_set()
        forest = train_forest(ts, n_trees=50, seed=7)
        probs = predict_prob(forest, ts.features)
        assert roc_auc(ts.labels, probs) >= 0.99

    def test_deterministic(self):
        ts = separable_set()
        a = train_forest(ts, n_trees=10, seed=3)
        b = train_forest(ts, n_trees=10, seed=3)
        assert forest_to_json(a) == forest_to_json(b)

    def test_seed_changes_forest(self):
        ts = separable_set()
        a = train_forest(ts, n_trees=10, seed=3)
        b = train_forest(ts, n_trees=10, seed=4)
        assert forest_to_json(a) != forest_to_json(b)

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            train_forest(TrainingSet(np.zeros((5, 2)), np.zeros(5, int)), n_trees=2)

    def test_dimension_mismatch_raises(self):
        forest = train_forest(separable_set(), n_trees=2, seed=0)
        with pytest.raises(ValueError):
            predict_prob(forest, np.zeros((3, 5)))

    def test_single_row_predict(self):
        ts = separable_set()
        forest = train_forest(ts, n_trees=10, seed=0)
        p = predict_prob(forest, ts.features[:1])
        assert p.shape == (1,) and 0.0 <= p[0] <= 1.0
        with pytest.raises(ValueError, match="expected 2 features, got shape"):
            predict_prob(forest, ts.features[0])  # a (d,) row, not an (n, d) matrix

    def test_roundtrip_bit_exact(self, tmp_path):
        ts = separable_set()
        forest = train_forest(ts, n_trees=10, seed=5)
        path = tmp_path / "forest.json"
        save_model(forest, path)
        loaded = load_model(path)
        assert forest_to_json(loaded) == forest_to_json(forest)
        np.testing.assert_array_equal(
            predict_prob(loaded, ts.features), predict_prob(forest, ts.features)
        )

    def test_downsampling_is_deterministic_and_trains(self):
        rng = np.random.default_rng(0)
        X = np.concatenate([rng.normal(3, 0.3, (5, 1)), rng.normal(0, 0.3, (500, 1))])
        y = np.array([1] * 5 + [0] * 500)
        ts = TrainingSet(X, y)
        a = train_forest(ts, n_trees=5, seed=9, max_negative_ratio=20.0)
        b = train_forest(ts, n_trees=5, seed=9, max_negative_ratio=20.0)
        assert forest_to_json(a) == forest_to_json(b)
        probs = predict_prob(a, ts.features)
        assert roc_auc(y, probs) >= 0.99


def _tree_predict(tree, X):
    """One tree's leaf value for each row of X, walking the rows still above
    a leaf down one level per step."""
    n = X.shape[0]
    node = np.zeros(n, dtype=np.int64)
    out = np.empty(n, dtype=np.float64)
    active = np.arange(n)
    while len(active) > 0:
        cur = node[active]
        at_leaf = tree.feature[cur] < 0
        leaves = active[at_leaf]
        out[leaves] = tree.value[node[leaves]]
        active = active[~at_leaf]
        if len(active) == 0:
            break
        cur = node[active]
        go_left = X[active, tree.feature[cur]] <= tree.threshold[cur]
        node[active] = np.where(go_left, tree.left[cur], tree.right[cur])
    return out


def reference_predict(forest, X):
    """predict_prob as the sum of the trees' walks, one tree at a time."""
    acc = np.zeros(X.shape[0])
    for tree in forest.trees:
        acc += _tree_predict(tree, X)
    acc /= len(forest.trees)
    return acc


def tree_depth(tree):
    depth = np.zeros(tree.feature.size, dtype=int)
    for i in np.flatnonzero(tree.feature >= 0):  # preorder: a parent before its children
        depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
    return int(depth.max())


def on_thresholds(forest, rng, n):
    """n rows whose every value is a threshold the forest compares that
    column with (0.0 for a column it never splits on)."""
    feature = np.concatenate([t.feature for t in forest.trees])
    threshold = np.concatenate([t.threshold for t in forest.trees])
    X = np.zeros((n, forest.n_features))
    for f in range(forest.n_features):
        cuts = threshold[feature == f]
        if cuts.size:
            X[:, f] = rng.choice(cuts, size=n)
    return X


class TestForestWidePrediction:
    """predict_prob walks every tree of a forest at once; it equals the sum
    of the tree-by-tree walks bit for bit."""

    SHAPES = {"one-node": dict(max_depth=0), "shallow": dict(max_depth=2), "deep": dict(max_depth=12, min_leaf=1)}

    @staticmethod
    def training_set(rng):
        n, d = int(rng.integers(300, 600)), int(rng.integers(3, 20))
        X = rng.normal(size=(n, d))
        X[:, 0] = np.round(X[:, 0], 1)  # a tied column
        y = (X[:, 1] + rng.normal(scale=1.5, size=n) > 0).astype(int)
        return TrainingSet(X, y)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_the_tree_by_tree_walk(self, shape):
        """12 distinct forests: fresh rows, rows on thresholds, rows with NaN,
        no rows, and one row."""
        seen, depths = set(), set()
        for seed in range(12):
            rng = np.random.default_rng(seed)
            data = self.training_set(rng)
            seen.add(data.features.tobytes())
            forest = train_forest(data, n_trees=int(rng.integers(1, 40)), seed=seed, **self.SHAPES[shape])
            depths.add(max(tree_depth(t) for t in forest.trees))
            fresh = np.round(rng.normal(size=(200, forest.n_features)), 2)
            nan = fresh[:50].copy()
            nan[rng.uniform(size=nan.shape) < 0.2] = np.nan
            for X in (fresh, on_thresholds(forest, rng, 200), nan, fresh[:0], fresh[:1], data.features):
                got = predict_prob(forest, X)
                assert got.dtype == np.float64 and np.array_equal(got, reference_predict(forest, X))
        assert len(seen) == 12
        assert max(depths) == self.SHAPES[shape]["max_depth"]

    def test_blocks_of_trees_add_up_in_tree_order(self, monkeypatch):
        rng = np.random.default_rng(5)
        forest = train_forest(self.training_set(rng), n_trees=25, seed=5, min_leaf=1)
        X = rng.normal(size=(40, forest.n_features))
        want = reference_predict(forest, X)
        for pairs in (1, 40, 41, 130, 1 << 30):  # one tree a walk up to the whole forest
            monkeypatch.setattr(classify, "PAIRS_PER_WALK", pairs)
            assert np.array_equal(predict_prob(forest, X), want)

    def test_a_value_on_the_threshold_goes_left_and_nan_goes_right(self):
        tree = classify.Tree(
            feature=np.array([0, -1, -1], np.int32), threshold=np.array([0.5, 0.0, 0.0]),
            left=np.array([1, -1, -1], np.int32), right=np.array([2, -1, -1], np.int32),
            value=np.array([0.5, 0.25, 1.0]),
        )
        forest = classify.RandomForest(n_features=1, max_depth=1, min_leaf=1, seed=0, trees=[tree])
        got = predict_prob(forest, np.array([[0.5], [np.nextafter(0.5, 1.0)], [np.nan], [-np.inf]]))
        assert got.tolist() == [0.25, 1.0, 1.0, 0.25]


def assert_same_trees(a, b):
    assert len(a.trees) == len(b.trees)
    for ta, tb in zip(a.trees, b.trees):
        for name in ("feature", "threshold", "left", "right", "value"):
            x, y = getattr(ta, name), getattr(tb, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name


def random_training_set(rng, single_positive=False):
    """Few distinct values per column (ties), some constant columns."""
    n = int(rng.integers(4, 60))
    d = int(rng.integers(1, 12))
    levels = rng.integers(1, 8, size=d)  # 1 level: a constant column
    X = rng.integers(0, levels, size=(n, d)) * rng.uniform(0.1, 3.0, size=d)
    if single_positive:
        y = np.zeros(n, dtype=int)
        y[int(rng.integers(0, n))] = 1
    else:
        y = (rng.uniform(size=n) < rng.uniform(0.1, 0.9)).astype(int)
        y[:2] = (0, 1)  # both classes
    return TrainingSet(X, y)


def tied_training_set(seed):
    """A few hundred rows with few distinct values per column and some
    constant ones; bagging adds duplicate rows."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(200, 400)), int(rng.integers(4, 30))
    levels = rng.integers(1, 9, size=d)
    X = rng.integers(0, levels, size=(n, d)) * rng.uniform(0.1, 3.0, size=d)
    y = (X[:, 0] + rng.normal(0.0, 1.0, size=n) > X[:, 0].mean()).astype(int)
    return TrainingSet(X, y)


class TestSplitSearchMatchesReference:
    """The lockstep builder grows the trees the recursive reference grows,
    bit for bit, including its tie rule, in batches of any size."""

    def test_random_training_sets(self):
        """80 distinct training sets; every min_leaf from 1 to 4 with and
        without a single positive."""
        seen = set()
        for seed in range(80):
            rng = np.random.default_rng(seed)
            data = random_training_set(rng, single_positive=seed // 4 % 2 == 1)
            seen.add(data.features.tobytes() + data.labels.tobytes())
            kwargs = dict(n_trees=4, max_depth=int(rng.integers(1, 8)), min_leaf=1 + seed % 4, seed=seed)
            assert_same_trees(train_forest(data, **kwargs), reference_forest(data, **kwargs))
        assert len(seen) == 80

    def test_tied_features_keep_the_first_sampled(self):
        # both columns separate the classes perfectly, at different cuts
        X = np.array([[0.0, 10.0], [1.0, 11.0], [2.0, 12.0], [3.0, 13.0]])
        data = TrainingSet(X, np.array([0, 0, 1, 1]))
        kwargs = dict(n_trees=6, min_leaf=1, max_negative_ratio=20.0)
        forest = train_forest(data, **kwargs)
        assert_same_trees(forest, reference_forest(data, **kwargs))
        children = np.random.SeedSequence(0).spawn(7)
        for t, tree in enumerate(forest.trees):
            rng = np.random.default_rng(children[t + 1])
            rows = rng.integers(0, 4, size=4)
            first = int(rng.choice(2, size=2, replace=False)[0])
            labels = data.labels[rows]
            if labels.min() == labels.max():
                assert tree.feature[0] == -1
                continue
            assert tree.feature[0] == first
            below = X[rows[labels == 0], first].max()
            above = X[rows[labels == 1], first].min()
            assert tree.threshold[0] == (below + above) / 2.0

    @pytest.mark.parametrize("seed", range(6))
    def test_count_and_sort_searches_in_one_forest(self, seed):
        """A few hundred tied rows with bootstrap duplicates: batches whose
        histograms are counted and (seeds 0 and 4) one that sorts its keys."""
        data = tied_training_set(seed)
        kwargs = dict(n_trees=3, max_depth=10, min_leaf=1 + seed % 4, seed=seed)
        assert_same_trees(train_forest(data, **kwargs), reference_forest(data, **kwargs))

    @pytest.mark.parametrize("keys", [1, 1 << 12, 1 << 30])
    def test_any_batch_size(self, keys, monkeypatch):
        """One node per batch, several batches per step, one whole step."""
        monkeypatch.setattr(classify, "KEYS_PER_SEARCH", keys)
        for seed in (0, 1):
            data = tied_training_set(seed)
            kwargs = dict(n_trees=12, max_depth=12, min_leaf=1 + seed, seed=seed)
            assert_same_trees(train_forest(data, **kwargs), reference_forest(data, **kwargs))

    def test_nan_signed_zeros_infinities_and_constant_columns(self):
        """NaN rows go right with no cut next to them; -0.0 ties 0.0."""
        specials = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 1.0, -1.0, 2.5, 1.7e308, -1.5e308])
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n, d = int(rng.integers(20, 120)), int(rng.integers(2, 9))
            X = rng.choice(specials, size=(n, d))
            X[:, 0] = 3.0  # a constant column
            y = (rng.uniform(size=n) < 0.5).astype(int)
            y[:2] = (0, 1)
            data = TrainingSet(X, y)
            kwargs = dict(n_trees=5, max_depth=8, min_leaf=1 + seed % 3, seed=seed)
            forest = train_forest(data, **kwargs)
            assert_same_trees(forest, reference_forest(data, **kwargs))
            assert any((t.feature >= 0).any() for t in forest.trees)

    @pytest.mark.parametrize("decimals", [0, None])
    def test_few_values_and_a_value_per_row(self, decimals):
        """Few values per column make fewer histogram bins than keys in most
        batches, which the search counts; a value per row makes more in all
        but the first, which it sorts."""
        rng = np.random.default_rng(4)
        X = rng.normal(size=(300, 12))
        X = X if decimals is None else np.round(X, decimals)
        data = TrainingSet(X, (X[:, 0] + rng.normal(scale=0.5, size=300) > 0).astype(int))
        kwargs = dict(n_trees=6, min_leaf=1, seed=4)
        assert_same_trees(train_forest(data, **kwargs), reference_forest(data, **kwargs))

    def test_one_feature(self):
        rng = np.random.default_rng(3)
        X = np.round(rng.normal(size=(150, 1)), 1)
        y = (X[:, 0] + rng.normal(scale=0.5, size=150) > 0).astype(int)
        data = TrainingSet(X, y)
        for min_leaf in (1, 2, 5):
            kwargs = dict(n_trees=8, min_leaf=min_leaf, seed=min_leaf)
            assert_same_trees(train_forest(data, **kwargs), reference_forest(data, **kwargs))


class TestCutThresholds:
    """A split sends each row the way the cut it scored does, also where the
    midpoint of the values around the cut rounds onto the upper one."""

    @staticmethod
    def assert_splits_as_cut(forest, X):
        for tree in forest.trees:
            for i in np.flatnonzero(tree.feature >= 0):
                column = X[:, tree.feature[i]]
                below = column[column <= tree.threshold[i]]
                assert below.size and below.size < column.size

    def test_adjacent_floats(self):
        b = 0.1 + 0.2  # the float after 0.3
        assert np.nextafter(0.3, 1.0) == b and (0.3 + b) / 2.0 == b
        X = np.array([[0.3], [0.3], [b], [b], [2.0]])
        data = TrainingSet(X, [0, 0, 1, 1, 1])
        forest = train_forest(data, n_trees=3, min_leaf=1)
        assert_same_trees(forest, reference_forest(data, n_trees=3, min_leaf=1))
        thresholds = {float(t.threshold[0]) for t in forest.trees if t.feature[0] == 0}
        assert 0.3 in thresholds
        self.assert_splits_as_cut(forest, X)
        assert predict_prob(forest, np.array([[0.3], [b]])).tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("low, high", [(1.0, np.inf), (1.5e308, 1.7e308), (-1.7e308, -1.5e308)])
    def test_midpoint_out_of_range(self, low, high):
        """An infinite upper value, and sums that overflow either way."""
        X = np.array([[low], [low], [high], [high]])
        data = TrainingSet(X, [0, 0, 1, 1])
        forest = train_forest(data, n_trees=4, min_leaf=1)
        assert_same_trees(forest, reference_forest(data, n_trees=4, min_leaf=1))
        assert {float(t.threshold[0]) for t in forest.trees if t.feature[0] == 0} == {low}
        self.assert_splits_as_cut(forest, X)
        assert predict_prob(forest, X).tolist() == [0.0, 0.0, 1.0, 1.0]


class TestBatchBoundAtScale:
    """KEYS_PER_SEARCH bounds the fit's temporaries.  On 5,000 rows of 195
    columns one root is 70 k keys, and a step of all roots at once holds
    several."""

    @staticmethod
    def heap_peak(data, keys, monkeypatch):
        monkeypatch.setattr(classify, "KEYS_PER_SEARCH", keys)
        tracemalloc.start()
        try:
            train_forest(data, n_trees=4, max_depth=3, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_heap_peak(self, monkeypatch):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5000, 195))
        X[:, ::3] = np.round(X[:, ::3], 1)  # some tied columns
        data = TrainingSet(X, (X[:, 0] + rng.normal(size=5000) > 0).astype(int))
        keys = classify.KEYS_PER_SEARCH
        # one node per batch holds the temporaries of the largest node alone;
        # a batch may add at most 128 bytes a key
        bound = self.heap_peak(data, 1, monkeypatch) + 128 * keys
        assert self.heap_peak(data, keys, monkeypatch) <= bound
        assert self.heap_peak(data, 1 << 30, monkeypatch) > bound  # unbounded batches break it


def _forest_doc(**tree):
    doc = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
           "right": [2, -1, -1], "value": [0.5, 0.0, 1.0]}
    doc.update(tree)
    return {"kind": "random_forest", "n_features": 2, "max_depth": 3, "min_leaf": 1, "seed": 0,
            "trees": [_TREE_OK, doc]}


_TREE_OK = {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1], "value": [0.5]}


class TestForestDocumentChecks:
    """A forest document whose trees prediction could not walk to a leaf is
    a FormatError that names the tree."""

    def test_trained_forest_passes(self):
        forest = train_forest(separable_set(), n_trees=5, seed=1)
        assert_same_trees(forest_from_json(forest_to_json(forest)), forest)
        forest_from_json(_forest_doc())

    @pytest.mark.parametrize("tree, message", [
        (dict(value=[0.5, 0.0]), "of one length"),
        (dict(feature=0), "of one length"),
        (dict(left=[[1, -1, -1]]), "of one length"),
        (dict(feature=[], threshold=[], left=[], right=[], value=[]), "non-empty"),
        (dict(feature=[2, -1, -1]), r"feature index outside \[-1, 2\)"),
        (dict(feature=[-2, -1, -1]), r"feature index outside \[-1, 2\)"),
        (dict(left=[1, 2, -1]), "a leaf"),
        (dict(right=[2, -1, 0]), "a leaf"),
        (dict(left=[0, -1, -1]), "breaks i < left < right"),   # a self-loop
        (dict(left=[2, -1, -1], right=[1, -1, -1]), "breaks i < left < right"),
        (dict(left=[1, -1, -1], right=[3, -1, -1]), "breaks i < left < right"),
        (dict(left=[1, -1, -1], right=[1, -1, -1]), "breaks i < left < right"),
    ])
    def test_bad_tree(self, tree, message):
        with pytest.raises(FormatError, match=f"tree 1: .*{message}"):
            forest_from_json(_forest_doc(**tree))


_TREE_5 = {"feature": [0, -1, 1, -1, -1], "threshold": [0.5, 0.0, 0.25, 0.0, 0.0],
           "left": [1, -1, 3, -1, -1], "right": [2, -1, 4, -1, -1], "value": [0.5, 0.0, 0.5, 1.0, 0.0]}

# per rule, a way to break it in the 3-node tree of _forest_doc and in _TREE_5
_BREAKS = {
    "1-length": ("of one length", dict(value=[0.5, 0.0]), dict(value=[0.5] * 4)),
    "1-nested": ("of one length", dict(left=[[1, -1, -1]]), dict(right=[[2, -1, 4, -1, -1]])),
    "1-scalar": ("of one length", dict(feature=0), dict(threshold=0.5)),
    "2": (r"feature index outside \[-1, 2\)", dict(feature=[2, -1, -1]), dict(feature=[0, -1, -3, -1, -1])),
    "3": ("a leaf", dict(left=[1, 2, -1]), dict(right=[2, -1, 4, 2, -1])),
    "3-and-4": ("a leaf", dict(left=[0, 2, -1]), dict(left=[1, 4, 2, -1, -1])),
    "4": ("breaks i < left < right < 3", dict(left=[0, -1, -1]), dict(right=[2, -1, 2, -1, -1])),
}


class TestFirstBadTreeIsNamed:
    """Two bad trees after a good one: the first is named, with the first
    rule it breaks, whichever rules the two break."""

    @pytest.mark.parametrize("first", _BREAKS)
    @pytest.mark.parametrize("second", _BREAKS)
    def test_two_bad_trees(self, first, second):
        message, breaks_3, _ = _BREAKS[first]
        doc = _forest_doc(**breaks_3)
        doc["trees"].append({**_TREE_5, **_BREAKS[second][2]})
        with pytest.raises(FormatError, match=f"^tree 1: .*{message}"):
            forest_from_json(doc)
        doc["trees"][1] = _forest_doc()["trees"][1]  # tree 1 mended: tree 2 is named
        message = _BREAKS[second][0].replace("< 3", "< 5")
        with pytest.raises(FormatError, match=f"^tree 2: .*{message}"):
            forest_from_json(doc)

    def test_the_good_forest_of_these_trees_loads_as_views(self):
        doc = _forest_doc()
        doc["trees"].append(dict(_TREE_5))
        forest = forest_from_json(doc)
        assert [t.feature.size for t in forest.trees] == [1, 3, 5]
        assert forest.trees[2].left.base is forest.trees[0].left.base
        assert forest_to_json(forest)["trees"] == doc["trees"]


class TestRocAuc:
    def test_oracle(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) == pytest.approx(0.75)

    def test_perfect(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.3, 0.4]) == 1.0

    def test_all_tied(self):
        assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            roc_auc([1, 1], [0.1, 0.2])


class TestMoveClassifierOnSimulation:
    def test_auc_at_least_090(self):
        cfg = SimConfig(frames=16, initial_cells=7)
        res = simulate(cfg, 5)
        props_by_t: dict[int, list[Proposal]] = {}
        pid = 0
        for t, regions in enumerate(ideal_proposals(res.gt)):
            lst = []
            for _, mask in regions:
                lst.append(Proposal(id=pid, t=t, mask=mask, raw_score=0.9))
                pid += 1
            props_by_t[t] = lst
        pairs = [
            (p_i, p_j)
            for t in range(cfg.frames - 1)
            for p_i in props_by_t[t]
            for p_j in props_by_t.get(t + 1, [])
        ]
        props = [p for lst in props_by_t.values() for p in lst]
        moves = positions(props, [(p_i.id, p_j.id) for p_i, p_j in pairs])
        feats = proposal_feature_matrix(props, res.frames)
        rows = move_feature_matrix(props, feats, np.full(len(props), 0.9), moves)
        ts = label_move_edges(captured_markers(props, res.gt), moves, rows)
        split = np.array([p_i.t < 10 for p_i, _ in pairs])
        train = TrainingSet(ts.features[split], ts.labels[split])
        forest = train_forest(train, n_trees=40, seed=2)
        probs = predict_prob(forest, ts.features[~split])
        assert roc_auc(ts.labels[~split], probs) >= 0.9
