"""Labeling rules, the random forest, and AUC."""
from __future__ import annotations

import numpy as np
import pytest

from lineage_ilp.classify import (
    TrainingSet,
    forest_to_json,
    label_mitosis_sets,
    label_move_edges,
    label_proposals,
    load_model,
    markers_inside,
    predict_prob,
    roc_auc,
    save_model,
    train_forest,
)
from lineage_ilp.evaluate import GroundTruth
from lineage_ilp.features import move_features, proposal_features
from lineage_ilp.geometry import Mask
from lineage_ilp.io import TrackRow
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
        ts = label_proposals(props, division_gt, np.zeros((3, 2)))
        np.testing.assert_array_equal(ts.labels, [1, 0, 0])

    def test_label_move_edges(self, division_gt):
        a = square(0, 0, 3, 3, 5)        # track 1 at t=0
        b = square(1, 1, 4, 3, 5)        # track 1 at t=1
        c = square(2, 1, 16, 16, 5)      # track 3 at t=1
        double = square(3, 0, 0, 0, 30)  # both markers at t=0
        pairs = [(a, b), (a, c), (double, b)]
        ts = label_move_edges(pairs, division_gt, np.zeros((3, 2)))
        np.testing.assert_array_equal(ts.labels, [1, 0, 0])

    def test_label_mitosis_sets(self, division_gt):
        parent = square(0, 0, 18, 18, 5)  # track 2 in its final frame
        d1 = square(1, 1, 16, 16, 5)      # track 3
        d2 = square(2, 1, 21, 20, 5)      # track 4
        not_parent = square(3, 0, 3, 3, 5)  # track 1, which does not divide
        triples = [
            (parent, d1, d2),
            (parent, d2, d1),
            (not_parent, d1, d2),
            (parent, d1, d1),
        ]
        ts = label_mitosis_sets(triples, division_gt, np.zeros((4, 2)))
        np.testing.assert_array_equal(ts.labels, [1, 1, 0, 0])


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
        p = predict_prob(forest, ts.features[0])
        assert np.isscalar(p) or p.ndim == 0
        assert 0.0 <= float(p) <= 1.0

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
        cfg = SimConfig(seed=5, frames=16, initial_cells=7)
        res = simulate(cfg)
        props_by_t: dict[int, list[Proposal]] = {}
        pid = 0
        for t, regions in enumerate(ideal_proposals(res.gt)):
            lst = []
            for _, mask in regions:
                lst.append(Proposal(id=pid, t=t, mask=mask, raw_score=0.9))
                pid += 1
            props_by_t[t] = lst
        member_feats = {
            p.id: proposal_features(p, res.frames[t])
            for t, lst in props_by_t.items()
            for p in lst
        }
        pairs = []
        rows = []
        for t in range(cfg.frames - 1):
            for p_i in props_by_t[t]:
                for p_j in props_by_t.get(t + 1, []):
                    pairs.append((p_i, p_j))
                    rows.append(
                        move_features(
                            p_i, p_j, 0.9, 0.9,
                            res.frames[t], res.frames[t + 1],
                            feat_i=member_feats[p_i.id],
                            feat_j=member_feats[p_j.id],
                        )
                    )
        ts = label_move_edges(pairs, res.gt, np.array(rows))
        split = np.array([p_i.t < 10 for p_i, _ in pairs])
        train = TrainingSet(ts.features[split], ts.labels[split])
        forest = train_forest(train, n_trees=40, seed=2)
        probs = predict_prob(forest, ts.features[~split])
        assert roc_auc(ts.labels[~split], probs) >= 0.9
