"""Graph assembly: costs, gating, division candidates, conflicts."""
from __future__ import annotations

import dataclasses
import math

import graph_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import keyed_graph, positions

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


def flat(frames):
    return [p for frame in frames for p in frame]


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
        assert pairs.tolist() == positions(flat(frames), [(0, 1)]).tolist()
        pairs = enumerate_moves(frames, gating_radius=20.0)
        assert pairs.tolist() == positions(flat(frames), [(0, 1), (0, 2)]).tolist()

    def test_single_frame_no_moves(self):
        assert enumerate_moves([[prop(0, 0, 5, 5)]], 10.0).shape == (0, 2)


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
        assert triples.tolist() == positions(flat(frames), [(0, 1, 2), (0, 1, 3), (0, 2, 3)]).tolist()

    def test_fewer_candidates_than_neighbors(self):
        frames = [[prop(0, 0, 20, 20)], [prop(1, 1, 22, 20), prop(2, 1, 18, 20)]]
        triples = enumerate_mitoses(frames, mitosis_radius=15.0)
        assert triples.tolist() == positions(flat(frames), [(0, 1, 2)]).tolist()

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
        assert triples.tolist() == positions(flat(frames), [(0, 1, 2)]).tolist()


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
            assert moves.tolist() == positions(flat(frames), reference_moves(frames, radius)).tolist()
            n = int(rng.integers(1, 5))
            triples = enumerate_mitoses(frames, radius, n_neighbors=n)
            assert triples.tolist() == positions(flat(frames), reference_mitoses(frames, radius, n)).tolist()

    def test_pair_exactly_at_radius(self):
        frames = [[prop(0, 0, 0, 0, size=1)], [prop(1, 1, 3, 4, size=1), prop(2, 1, 7, 1, size=1)]]
        radius = centroid_distance(frames[0][0], frames[1][0])
        assert radius == 5.0
        assert enumerate_moves(frames, radius).tolist() == [[0, 1]]  # the proposals with ids 0 and 1
        assert enumerate_moves(frames, math.nextafter(radius, 0.0)).tolist() == []
        # fractional centroids: squared distances round differently from
        # math.hypot, and a pair at exactly the radius must still be kept
        rng = np.random.default_rng(2)
        for _ in range(5):
            frames = random_frames(rng, n_frames=2)
            for p_i in frames[0]:
                for p_j in frames[1]:
                    r = centroid_distance(p_i, p_j)
                    got = enumerate_moves(frames, r).tolist()
                    assert got == positions(flat(frames), reference_moves(frames, r)).tolist()
                    assert positions(flat(frames), [(p_i.id, p_j.id)]).tolist()[0] in got

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
        assert triples.tolist() == positions(flat(frames), [(0, 3, 5)]).tolist()
        assert reference_mitoses(frames, 5.0, 2) == [(0, 3, 5)]


@st.composite
def scenes(draw):
    """Frames of square proposals with integer centroids on a small grid, so
    that many centroid distances tie and masks overlap; frames may be empty
    or hold one proposal, list order is not id order, and ids are a random
    permutation, so they may fall from one frame to the next.  Then a
    radius, often exactly a distance between two adjacent-frame centroids,
    a neighbour count and a seed for the probabilities."""
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    ids = iter(draw(st.permutations(range(sum(sizes)))))
    frames = [
        [
            Proposal(
                id=next(ids), t=t, raw_score=0.5,
                mask=Mask(draw(st.integers(0, 12)), draw(st.integers(0, 12)), np.ones((side, side), bool)),
            )
            for side in draw(st.lists(st.sampled_from([1, 3]), min_size=size, max_size=size))
        ]
        for t, size in enumerate(sizes)
    ]
    ties = sorted({centroid_distance(a, b) for f, g in zip(frames, frames[1:]) for a in f for b in g})
    radius = draw(st.sampled_from(ties) if ties and draw(st.booleans()) else st.floats(0.0, 20.0))
    return frames, radius, draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1))


def _fields(graph) -> dict:
    """Every field of a graph: proposals by id, int arrays as lists with
    their shape, floats as ``float.hex``."""
    out = {}
    for field in dataclasses.fields(graph):
        v = getattr(graph, field.name)
        if field.name == "proposals":
            v = [p.id for p in v]
        elif isinstance(v, np.ndarray):
            v = (v.shape, [x.hex() for x in v.tolist()] if v.dtype.kind == "f" else v.tolist())
        out[field.name] = v
    return out


class TestPositionsMatchReference:
    """Enumeration and assembly by position name the same candidates, in the
    same order, and give the same graph, bit for bit, as the id-keyed
    object form in ``graph_reference``."""

    @settings(max_examples=300)
    @given(scenes())
    def test_random_frames(self, scene):
        frames, radius, n, seed = scene
        flat = [p for frame in frames for p in frame]
        moves = enumerate_moves(frames, radius)
        want = graph_reference.enumerate_moves(frames, radius)
        assert [[flat[k].id for k in row] for row in moves.tolist()] == [[p.id for p in key] for key in want]
        sets = enumerate_mitoses(frames, radius, n)
        want = graph_reference.enumerate_mitoses(frames, radius, n)
        assert [[flat[k].id for k in row] for row in sets.tolist()] == [[p.id for p in key] for key in want]

        # the pipeline's proposal list, in (t, id) order
        frames = [sorted(frame, key=lambda p: p.id) for frame in frames]
        props = [p for frame in frames for p in frame]
        moves, sets = enumerate_moves(frames, radius), enumerate_mitoses(frames, radius, n)
        rng = np.random.default_rng(seed)
        node_prob, move_prob, set_prob = (
            np.where(rng.random(k) < 0.2, rng.choice([0.0, 0.5, 1.0], size=k), rng.random(k))
            for k in (len(props), len(moves), len(sets))
        )
        kwargs = {"p_enter": float(rng.uniform(0.01, 0.5)), "p_exit": float(rng.uniform(0.01, 0.5))}
        got = build_graph(props, node_prob, moves, move_prob, sets, set_prob, len(frames), **kwargs)
        ids = [p.id for p in props]
        want = graph_reference.build_graph(
            frames, dict(zip(ids, node_prob.tolist())),
            {(ids[a], ids[b]): p for (a, b), p in zip(moves.tolist(), move_prob.tolist())},
            {tuple(ids[k] for k in key): p for key, p in zip(sets.tolist(), set_prob.tolist())},
            **kwargs,
        )
        assert _fields(got) == _fields(want)


class TestBuildGraph:
    def simple_graph(self):
        frames = [
            [prop(0, 0, 10, 10)],
            [prop(1, 1, 12, 10), prop(2, 1, 13, 11)],
        ]
        node_probs = {0: 0.9, 1: 0.8, 2: 0.6}
        move_probs = {(0, 1): 0.7, (0, 2): 0.4}
        mitosis_probs = {(0, 1, 2): 0.3}
        return keyed_graph(
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
        assert g.mitosis_sets.tolist() == [[0, 1, 2]]  # proposal indices, here the ids

    def test_conflicts_found_for_overlapping(self):
        g = self.simple_graph()
        # proposals 1 and 2 are 3x3 squares offset by (1, 1): IoU 4/14 < 0.5
        # and cover 4/9 < 0.8, so no conflict
        assert g.conflicts.tolist() == []
        frames = [[prop(5, 0, 10, 10), prop(6, 0, 10, 10)]]
        g2 = keyed_graph(frames, {5: 0.5, 6: 0.5}, {}, {})
        assert g2.conflicts.tolist() == [[0, 1]]  # the proposals with ids 5 and 6

    @staticmethod
    def build(props, node_prob, moves=(), move_prob=(), sets=(), set_prob=()):
        return build_graph(props, node_prob, moves, move_prob, sets, set_prob, 3)

    a, b, c = prop(0, 0, 10, 10), prop(1, 1, 12, 10), prop(2, 1, 8, 10)

    def test_accepts_positions(self):
        g = self.build([self.a, self.b, self.c], [0.5] * 3, [[0, 1]], [0.5], [[0, 1, 2]], [0.5])
        assert (g.moves.tolist(), g.mitosis_sets.tolist()) == ([[0, 1]], [[0, 1, 2]])

    def test_rejects_unknown_ids(self):
        """Positions outside the proposal list."""
        a, b, c = self.a, self.b, self.c
        with pytest.raises(ValueError, match="position"):
            self.build([a, b], [0.5] * 2, [[0, 9]], [0.5])
        with pytest.raises(ValueError, match="position"):
            self.build([a, b], [0.5] * 2, [[-1, 1]], [0.5])
        with pytest.raises(ValueError, match="position"):
            self.build([a, b, c], [0.5] * 3, sets=[[0, 1, 3]], set_prob=[0.5])

    def test_rejects_non_adjacent_move(self):
        with pytest.raises(ValueError, match="adjacent"):
            self.build([self.a, prop(1, 2, 12, 10)], [0.5] * 2, [[0, 1]], [0.5])
        with pytest.raises(ValueError, match="mitosis set .* adjacent"):
            self.build([self.a, self.b, prop(2, 2, 8, 10)], [0.5] * 3, sets=[[0, 1, 2]], set_prob=[0.5])

    def test_rejects_unordered_daughters(self):
        with pytest.raises(ValueError, match="id-ordered"):
            self.build([self.a, self.b, self.c], [0.5] * 3, sets=[[0, 2, 1]], set_prob=[0.5])

    def test_rejects_probabilities_of_the_wrong_length(self):
        a, b, c = self.a, self.b, self.c
        with pytest.raises(ValueError, match="node probabilities"):
            self.build([a, b], [0.5])
        with pytest.raises(ValueError, match="move probabilities"):
            self.build([a, b], [0.5] * 2, [[0, 1]], [])
        with pytest.raises(ValueError, match="mitosis probabilities"):
            self.build([a, b, c], [0.5] * 3, sets=[[0, 1, 2]], set_prob=[0.5, 0.5])

    def test_rejects_proposals_out_of_order(self):
        with pytest.raises(ValueError, match=r"\(t, id\) order"):
            self.build([self.b, self.a], [0.5] * 2)
        with pytest.raises(ValueError, match=r"\(t, id\) order"):
            self.build([self.c, self.b], [0.5] * 2)
        with pytest.raises(ValueError, match="duplicate"):
            self.build([self.a, prop(0, 1, 12, 10)], [0.5] * 2)

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
