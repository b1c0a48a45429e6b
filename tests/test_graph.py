"""Graph assembly: costs, gating, division candidates, conflicts."""
from __future__ import annotations

import math

import numpy as np
import pytest

from lineage_ilp.evaluate import GroundTruth
from lineage_ilp.features import centroid_distance
from lineage_ilp.geometry import Mask
from lineage_ilp.graph import (
    build_graph,
    enumerate_mitoses,
    enumerate_moves,
    gating_radius_from_truth,
    graph_stats,
    graph_to_json,
    log_odds_cost,
)
from lineage_ilp.io import TrackRow, dumps_json
from lineage_ilp.proposals import Proposal


def prop(pid, t, x, y, size=3):
    return Proposal(
        id=pid, t=t, mask=Mask(x, y, np.ones((size, size), bool)), raw_score=0.5
    )


class TestLogOddsCost:
    def test_half_is_zero(self):
        assert log_odds_cost(0.5) == 0.0

    def test_point_nine(self):
        assert log_odds_cost(0.9) == pytest.approx(-2.1972246, abs=1e-6)

    def test_symmetry(self):
        assert log_odds_cost(0.2) == pytest.approx(-log_odds_cost(0.8))

    def test_clamped_at_extremes(self):
        assert log_odds_cost(0.0) == pytest.approx(-math.log(1e-6 / (1 - 1e-6)))
        assert math.isfinite(log_odds_cost(0.0))
        assert math.isfinite(log_odds_cost(1.0))
        assert log_odds_cost(0.0) > 0
        assert log_odds_cost(1.0) < 0


class TestEnumerateMoves:
    def test_gating_inclusive(self):
        frames = [[prop(0, 0, 10, 10)], [prop(1, 1, 15, 10), prop(2, 1, 30, 10)]]
        # centroids are at x+1 for a 3x3 mask, distances 5 and 20
        pairs = enumerate_moves(frames, gating_radius=5.0)
        assert [(a.id, b.id) for a, b in pairs] == [(0, 1)]
        pairs = enumerate_moves(frames, gating_radius=20.0)
        assert [(a.id, b.id) for a, b in pairs] == [(0, 1), (0, 2)]

    def test_single_frame_no_moves(self):
        assert enumerate_moves([[prop(0, 0, 5, 5)]], 10.0) == []


class TestEnumerateMitoses:
    def test_three_nearest_all_pairs(self):
        frames = [
            [prop(0, 0, 20, 20)],
            [
                prop(1, 1, 24, 20),
                prop(2, 1, 16, 20),
                prop(3, 1, 20, 26),
                prop(4, 1, 48, 20),  # out of radius
            ],
        ]
        triples = enumerate_mitoses(frames, mitosis_radius=15.0, n_neighbors=3)
        got = [(p.id, a.id, b.id) for p, a, b in triples]
        assert got == [(0, 1, 2), (0, 1, 3), (0, 2, 3)]

    def test_fewer_candidates_than_neighbors(self):
        frames = [[prop(0, 0, 20, 20)], [prop(1, 1, 22, 20), prop(2, 1, 18, 20)]]
        triples = enumerate_mitoses(frames, mitosis_radius=15.0)
        assert [(p.id, a.id, b.id) for p, a, b in triples] == [(0, 1, 2)]

    def test_nearest_selection_prefers_closer(self):
        frames = [
            [prop(0, 0, 20, 20)],
            [
                prop(1, 1, 21, 20),
                prop(2, 1, 22, 20),
                prop(3, 1, 23, 20),
                prop(4, 1, 24, 20),
            ],
        ]
        triples = enumerate_mitoses(frames, mitosis_radius=30.0, n_neighbors=2)
        assert [(p.id, a.id, b.id) for p, a, b in triples] == [(0, 1, 2)]


def reference_moves(props_by_frame, radius):
    """Every ordered pair of adjacent frames, tested one at a time."""
    out = []
    for t in range(len(props_by_frame) - 1):
        for p_i in sorted(props_by_frame[t], key=lambda p: p.id):
            for p_j in sorted(props_by_frame[t + 1], key=lambda p: p.id):
                if centroid_distance(p_i, p_j) <= radius:
                    out.append((p_i.id, p_j.id))
    return out


def reference_mitoses(props_by_frame, radius, n_neighbors=3):
    out = []
    for t in range(len(props_by_frame) - 1):
        for parent in sorted(props_by_frame[t], key=lambda p: p.id):
            near = [
                (d, centroid_distance(parent, d))
                for d in props_by_frame[t + 1]
                if centroid_distance(parent, d) <= radius
            ]
            near.sort(key=lambda item: (item[1], item[0].id))
            chosen = sorted(d.id for d, _ in near[:n_neighbors])
            out.extend(
                (parent.id, chosen[a], chosen[b])
                for a in range(len(chosen))
                for b in range(a + 1, len(chosen))
            )
    return out


def random_frames(rng, n_frames=4):
    """Frames of random masks with shuffled ids, so list order is not id order."""
    frames = []
    pid = 0
    for t in range(n_frames):
        frame = []
        for _ in range(int(rng.integers(0, 9))):
            bits = rng.random((int(rng.integers(1, 6)), int(rng.integers(1, 6)))) < 0.6
            bits[0, 0] = True
            x, y = (int(v) for v in rng.integers(0, 40, size=2))
            frame.append(Proposal(id=pid, t=t, mask=Mask(x, y, bits), raw_score=0.5))
            pid += 1
        rng.shuffle(frame)
        frames.append(frame)
    return frames


class TestGatingMatchesPairwiseLoop:
    def test_random_frames(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            frames = random_frames(rng)
            radius = float(rng.uniform(0.0, 30.0))
            moves = enumerate_moves(frames, radius)
            assert [(a.id, b.id) for a, b in moves] == reference_moves(frames, radius)
            n = int(rng.integers(1, 5))
            triples = enumerate_mitoses(frames, radius, n_neighbors=n)
            got = [(p.id, a.id, b.id) for p, a, b in triples]
            assert got == reference_mitoses(frames, radius, n)

    def test_pair_exactly_at_radius(self):
        frames = [[prop(0, 0, 0, 0, size=1)], [prop(1, 1, 3, 4, size=1), prop(2, 1, 7, 1, size=1)]]
        radius = centroid_distance(frames[0][0], frames[1][0])
        assert radius == 5.0
        assert [(a.id, b.id) for a, b in enumerate_moves(frames, radius)] == [(0, 1)]
        assert [(a.id, b.id) for a, b in enumerate_moves(frames, math.nextafter(radius, 0.0))] == []
        # fractional centroids: squared distances round differently from
        # math.hypot, and a pair at exactly the radius must still be kept
        rng = np.random.default_rng(2)
        for _ in range(5):
            frames = random_frames(rng, n_frames=2)
            for p_i in frames[0]:
                for p_j in frames[1]:
                    r = centroid_distance(p_i, p_j)
                    got = [(a.id, b.id) for a, b in enumerate_moves(frames, r)]
                    assert got == reference_moves(frames, r)
                    assert (p_i.id, p_j.id) in got

    def test_equal_distance_daughters_tie_broken_by_id(self):
        parent = prop(0, 0, 20, 20, size=1)
        # four daughters at distance 5; with room for two, ids 3 and 5 win
        daughters = [
            prop(7, 1, 25, 20, size=1),
            prop(5, 1, 20, 25, size=1),
            prop(9, 1, 15, 20, size=1),
            prop(3, 1, 20, 15, size=1),
        ]
        frames = [[parent], daughters]
        triples = enumerate_mitoses(frames, mitosis_radius=5.0, n_neighbors=2)
        assert [(p.id, a.id, b.id) for p, a, b in triples] == [(0, 3, 5)]
        assert reference_mitoses(frames, 5.0, 2) == [(0, 3, 5)]


class TestBuildGraph:
    def simple_graph(self):
        frames = [
            [prop(0, 0, 10, 10)],
            [prop(1, 1, 12, 10), prop(2, 1, 13, 11)],
        ]
        node_probs = {0: 0.9, 1: 0.8, 2: 0.6}
        move_probs = {(0, 1): 0.7, (0, 2): 0.4}
        mitosis_probs = {(0, 1, 2): 0.3}
        return build_graph(
            frames, node_probs, move_probs, mitosis_probs,
            p_enter=0.01, p_exit=0.02,
        )

    def test_node_costs_are_log_odds(self):
        g = self.simple_graph()
        assert g.node_cost[0] == pytest.approx(log_odds_cost(0.9))
        assert g.node_cost[2] == pytest.approx(log_odds_cost(0.6))

    def test_every_proposal_has_enter_and_exit(self):
        g = self.simple_graph()
        enters = {e.dst for e in g.edges if e.kind == "enter"}
        exits = {e.src for e in g.edges if e.kind == "exit"}
        assert enters == exits == {0, 1, 2}
        assert all(e.src is None for e in g.edges if e.kind == "enter")
        assert all(e.dst is None for e in g.edges if e.kind == "exit")

    def test_mitosis_set_cost_split(self):
        g = self.simple_graph()
        pair = [e for e in g.edges if e.kind == "mitosis"]
        assert len(pair) == 2
        assert {e.k for e in pair} == {1, 2}
        assert pair[0].set_id == pair[1].set_id == 0
        total = pair[0].cost + pair[1].cost
        assert total == pytest.approx(log_odds_cost(0.3))
        assert len(g.mitosis_sets) == 1
        assert (g.mitosis_sets[0].d1, g.mitosis_sets[0].d2) == (1, 2)

    def test_conflicts_found_for_overlapping(self):
        g = self.simple_graph()
        # proposals 1 and 2 are 3x3 squares offset by (1, 1): IoU 4/14 < 0.5
        # and cover 4/9 < 0.8, so no conflict
        assert g.conflicts == []
        frames = [[prop(5, 0, 10, 10), prop(6, 0, 10, 10)]]
        g2 = build_graph(frames, {5: 0.5, 6: 0.5}, {}, {})
        assert g2.conflicts == [(5, 6)]

    def test_rejects_unknown_ids(self):
        frames = [[prop(0, 0, 10, 10)], [prop(1, 1, 12, 10)]]
        with pytest.raises(ValueError):
            build_graph(frames, {0: 0.5, 1: 0.5}, {(0, 9): 0.5}, {})
        with pytest.raises(ValueError):
            build_graph(frames, {0: 0.5}, {}, {})

    def test_rejects_non_adjacent_move(self):
        frames = [[prop(0, 0, 10, 10)], [], [prop(1, 2, 12, 10)]]
        with pytest.raises(ValueError):
            build_graph(frames, {0: 0.5, 1: 0.5}, {(0, 1): 0.5}, {})

    def test_rejects_unordered_daughters(self):
        frames = [[prop(0, 0, 10, 10)], [prop(1, 1, 12, 10), prop(2, 1, 8, 10)]]
        with pytest.raises(ValueError):
            build_graph(frames, {0: 0.5, 1: 0.5, 2: 0.5}, {}, {(0, 2, 1): 0.5})

    def test_stats_and_json(self):
        g = self.simple_graph()
        stats = graph_stats(g)
        assert stats["n_proposals"] == 3
        assert stats["edges_by_kind"]["enter"] == 3
        assert stats["edges_by_kind"]["mitosis"] == 2
        obj = graph_to_json(g)
        assert obj["kind"] == "tracking_graph"
        assert len(obj["edges"]) == stats["n_edges"]
        dumps_json(obj)  # serializable


class TestGatingRadius:
    def test_from_displacements(self):
        tracks = [TrackRow(1, 0, 2, 0)]
        markers = {0: [(1, 0.0, 0.0)], 1: [(1, 3.0, 4.0)], 2: [(1, 3.0, 4.0)]}
        gt = GroundTruth(tracks=tracks, markers=markers)
        # displacements are 5 and 0; the 99th percentile is close to 5
        r = gating_radius_from_truth(gt, percentile=99.0, factor=1.25)
        assert r == pytest.approx(np.percentile([5.0, 0.0], 99) * 1.25)

    def test_fallback_without_moves(self):
        gt = GroundTruth(tracks=[TrackRow(1, 0, 0, 0)], markers={0: [(1, 1.0, 1.0)]})
        assert gating_radius_from_truth(gt, fallback=12.5) == 12.5

    def test_fallback_when_no_cell_moves(self):
        # a radius of 0 would be written to meta.json, which load_models refuses
        tracks = [TrackRow(1, 0, 2, 0)]
        markers = {t: [(1, 4.0, 6.0)] for t in range(3)}
        gt = GroundTruth(tracks=tracks, markers=markers)
        assert gating_radius_from_truth(gt, fallback=12.5) == 12.5
