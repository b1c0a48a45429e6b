import math

import numpy as np
import pytest

from lineage_ilp.evaluate import (
    EvalReport,
    GroundTruth,
    captured_marker,
    detection_pr,
    division_metrics,
    evaluate_tracking,
    graph_recall,
    gt_cell_masks,
    markers_inside,
    match_iou,
    match_marker,
    mitosis_f1,
    pr_curve_and_ap,
    report_text,
    report_to_json,
    seg_score,
    tra_score,
)
from lineage_ilp.geometry import Mask
from lineage_ilp.graph import build_graph
from lineage_ilp.io import TrackRow, dumps_json
from lineage_ilp.proposals import Proposal
from lineage_ilp.sim import SimConfig, ideal_proposals, simulate
from lineage_ilp.solve import Lineage


def square(pid, t, x, y, size=1, score=0.9):
    bits = np.ones((size, size), dtype=bool)
    return Proposal(id=pid, t=t, mask=Mask(x, y, bits), raw_score=score)


class TestPRCurve:
    def test_pinned_sweep(self):
        curve = pr_curve_and_ap([True, False, True], n_gt=2)
        np.testing.assert_allclose(curve.recalls, [0.0, 0.5, 0.5, 1.0])
        np.testing.assert_allclose(curve.precisions, [1.0, 1.0, 0.5, 2.0 / 3.0])
        assert curve.ap == pytest.approx(19.0 / 24.0)
        assert round(curve.ap, 5) == 0.79167

    def test_all_correct_is_perfect(self):
        curve = pr_curve_and_ap([True, True], n_gt=2)
        assert curve.ap == pytest.approx(1.0)

    def test_no_detections(self):
        curve = pr_curve_and_ap([], n_gt=3)
        assert curve.ap == 0.0
        assert list(curve.recalls) == [0.0]

    def test_rejects_empty_reference(self):
        with pytest.raises(ValueError):
            pr_curve_and_ap([True], n_gt=0)


class TestMarkerMatching:
    @pytest.fixture
    def gt(self):
        return GroundTruth(
            tracks=[TrackRow(1, 0, 0, 0), TrackRow(2, 0, 0, 0)],
            markers={0: [(1, 2.0, 2.0), (2, 10.0, 10.0)]},
        )

    def test_containment_helpers(self, gt):
        big = square(0, 0, 0, 0, size=14)
        lone = square(1, 0, 1, 1, size=3)
        assert markers_inside(big, gt.markers_at(0)) == [1, 2]
        assert captured_marker(big, gt.markers_at(0)) is None
        assert captured_marker(lone, gt.markers_at(0)) == 1

    def test_double_capture_and_duplicates(self, gt):
        props = [
            square(0, 0, 0, 0, size=14),  # swallows both markers
            square(1, 0, 1, 1, size=3),  # marker 1
            square(2, 0, 1, 1, size=3),  # marker 1 again, lower score
            square(3, 0, 9, 9, size=3),  # marker 2
        ]
        scores = np.array([0.95, 0.9, 0.8, 0.7])
        flags = match_marker(props, scores, gt)
        assert flags.tolist() == [False, True, False, True]
        curve = detection_pr(props, scores, gt)
        assert curve.ap == pytest.approx(1.0 / 3.0)

    def test_score_tie_prefers_lower_id(self, gt):
        props = [square(5, 0, 1, 1, size=3), square(4, 0, 1, 1, size=3)]
        scores = np.array([0.9, 0.9])
        flags = match_marker(props, scores, gt)
        assert flags.tolist() == [False, True]


class TestIoUMatching:
    @pytest.fixture
    def gt(self):
        grid = np.zeros((20, 20), dtype=np.int32)
        grid[0:10, 0:10] = 1
        grid[0:10, 10:20] = 2
        return GroundTruth(
            tracks=[TrackRow(1, 0, 0, 0), TrackRow(2, 0, 0, 0)],
            markers={0: [(1, 4.0, 4.0), (2, 14.0, 4.0)]},
            label_grids=[grid],
        )

    def test_cell_masks(self, gt):
        cells = gt_cell_masks(gt)
        assert sorted(cells[0]) == [1, 2]
        assert cells[0][1].area == 100

    def test_cell_masks_label_present_in_one_frame_only(self):
        first = np.zeros((4, 4), dtype=np.int32)
        first[0:2, 0:2] = 1
        first[3, 3] = 7
        second = np.zeros((4, 4), dtype=np.int32)
        second[1:3, 1:3] = 1
        gt = GroundTruth(
            tracks=[TrackRow(1, 0, 1, 0), TrackRow(7, 0, 0, 0)],
            markers={},
            label_grids=[first, second],
        )
        cells = gt_cell_masks(gt)
        assert {t: list(frame) for t, frame in cells.items()} == {0: [1, 7], 1: [1]}
        assert cells[1][1] == Mask(1, 1, np.ones((2, 2), dtype=bool))
        assert cells[0][7] == Mask(3, 3, np.ones((1, 1), dtype=bool))

    def test_exact_and_claimed(self, gt):
        exact = square(0, 0, 0, 0, size=10)
        shifted = square(1, 0, 2, 0, size=10)  # IoU 2/3 with cell 1, but claimed
        flags = match_iou([exact, shifted], np.array([0.9, 0.8]), gt)
        assert flags.tolist() == [True, False]

    def test_below_threshold(self, gt):
        weak = square(0, 0, 4, 0, size=10)  # IoU 60/140 with cell 1
        flags = match_iou([weak], np.array([0.9]), gt)
        assert flags.tolist() == [False]

    def test_overlap_tie_takes_lower_label(self, gt):
        both = square(0, 0, 0, 0, size=20)  # IoU 100/300 with each cell
        again = square(1, 0, 0, 0, size=20)
        flags = match_iou([both, again], np.array([0.9, 0.8]), gt, min_iou=0.2)
        assert flags.tolist() == [True, True]  # labels 1 then 2


def two_track_fixture(missing_last: bool = False):
    """Two cells drifting right for five frames; 1-pixel proposals per marker."""
    tracks = [TrackRow(1, 0, 4, 0), TrackRow(2, 0, 4, 0)]
    markers = {t: [(1, 2.0 + t, 2.0), (2, 10.0 + t, 10.0)] for t in range(5)}
    gt = GroundTruth(tracks=tracks, markers=markers)
    props = []
    for t in range(5):
        props.append(square(2 * t, t, 2 + t, 2))
        props.append(square(2 * t + 1, t, 10 + t, 10))
    members = {1: [2 * t for t in range(5)], 2: [2 * t + 1 for t in range(5)]}
    rows = [TrackRow(1, 0, 4, 0), TrackRow(2, 0, 4, 0)]
    if missing_last:
        members[2] = members[2][:-1]
        rows[1] = TrackRow(2, 0, 3, 0)
    lineage = Lineage(tracks=rows, members=members, end_reason={1: "exit", 2: "exit"})
    return gt, props, lineage


class TestTra:
    def test_perfect(self):
        gt, props, lineage = two_track_fixture()
        res = tra_score(props, lineage, gt)
        assert res.tra == 1.0
        assert (res.fn, res.fp, res.ns, res.ea, res.ed2, res.ec) == (0, 0, 0, 0, 0, 0)

    def test_missing_terminal_node(self):
        gt, props, lineage = two_track_fixture(missing_last=True)
        res = tra_score(props, lineage, gt)
        assert (res.fn, res.fp, res.ns, res.ea, res.ed2, res.ec) == (1, 0, 0, 1, 0, 0)
        assert res.aogm == pytest.approx(11.5)
        assert res.aogm0 == pytest.approx(112.0)
        assert round(res.tra, 5) == 0.89732

    def test_empty_result_scores_zero(self):
        gt, props, _ = two_track_fixture()
        empty = Lineage(tracks=[], members={}, end_reason={})
        assert tra_score(props, empty, gt).tra == 0.0

    def test_degradation_is_monotone(self):
        gt, props, full = two_track_fixture()
        stages = [full]
        _, _, short = two_track_fixture(missing_last=True)
        stages.append(short)
        only_one = Lineage(
            tracks=[TrackRow(1, 0, 4, 0)],
            members={1: full.members[1]},
            end_reason={1: "exit"},
        )
        stages.append(only_one)
        stages.append(Lineage(tracks=[], members={}, end_reason={}))
        scores = [tra_score(props, ln, gt).tra for ln in stages]
        assert scores[0] == 1.0
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_merged_detection_counts_splits(self):
        gt, props, lineage = two_track_fixture()
        # replace the two frame-0 singles with one blob holding both markers
        merged = square(20, 0, 0, 0, size=12)
        props = [merged] + props[2:]
        members = {1: [20] + lineage.members[1][1:], 2: lineage.members[2][1:]}
        rows = [TrackRow(1, 0, 4, 0), TrackRow(2, 1, 4, 0)]
        ln = Lineage(tracks=rows, members=members, end_reason={1: "exit", 2: "exit"})
        res = tra_score(props, ln, gt)
        assert res.ns == 1
        assert res.fn == 0
        # the blob matches no single node, so its outgoing link is spurious and
        # both frame-0 reference links go missing
        assert res.ed2 == 1
        assert res.ea == 2
        assert res.tra < 1.0

    def test_wrong_edge_class(self):
        tracks = [TrackRow(1, 0, 0, 0), TrackRow(2, 1, 1, 1), TrackRow(3, 1, 1, 1)]
        markers = {0: [(1, 5.0, 5.0)], 1: [(2, 3.0, 3.0), (3, 8.0, 8.0)]}
        gt = GroundTruth(tracks=tracks, markers=markers)
        props = [square(0, 0, 5, 5), square(1, 1, 3, 3), square(2, 1, 8, 8)]
        # parent continues into daughter 2 as a plain track; daughter 3 enters fresh
        ln = Lineage(
            tracks=[TrackRow(1, 0, 1, 0), TrackRow(2, 1, 1, 0)],
            members={1: [0, 1], 2: [2]},
            end_reason={1: "exit", 2: "exit"},
        )
        res = tra_score(props, ln, gt)
        assert res.ec == 1
        assert res.ea == 1
        assert res.ed2 == 0
        assert (res.fn, res.fp, res.ns) == (0, 0, 0)
        assert res.aogm == pytest.approx(2.5)

    def test_majority_coverage_matching(self):
        grid = np.zeros((12, 12), dtype=np.int32)
        grid[0:10, 0:10] = 1
        gt = GroundTruth(
            tracks=[TrackRow(1, 0, 0, 0)],
            markers={0: [(1, 4.0, 4.0)]},
            label_grids=[grid],
        )
        thin = square(0, 0, 0, 0, size=7)  # 49 of 100 pixels: not a majority
        fat = square(1, 0, 0, 0, size=8)  # 64 of 100 pixels
        ln_thin = Lineage(tracks=[TrackRow(1, 0, 0, 0)], members={1: [0]}, end_reason={1: "exit"})
        res = tra_score([thin, fat], ln_thin, gt)
        assert (res.fp, res.fn) == (1, 1)
        ln_fat = Lineage(tracks=[TrackRow(1, 0, 0, 0)], members={1: [1]}, end_reason={1: "exit"})
        res = tra_score([thin, fat], ln_fat, gt)
        assert (res.fp, res.fn) == (0, 0)
        assert res.tra == 1.0


class TestSeg:
    def test_pinned_overlap(self):
        grid = np.zeros((20, 20), dtype=np.int32)
        grid[0:10, 0:10] = 1
        grid[12:20, 12:20] = 2
        gt = GroundTruth(
            tracks=[TrackRow(1, 0, 0, 0), TrackRow(2, 0, 0, 0)],
            markers={0: [(1, 4.0, 4.0), (2, 15.0, 15.0)]},
            label_grids=[grid],
        )
        # covers 60 of cell 1's 100 pixels, union 140; cell 2 left unmatched
        shifted = square(0, 0, 4, 0, size=10)
        ln = Lineage(tracks=[TrackRow(1, 0, 0, 0)], members={1: [0]}, end_reason={1: "exit"})
        val = seg_score([shifted], ln, gt)
        assert val == pytest.approx((60.0 / 140.0 + 0.0) / 2.0)

    def test_needs_label_grids(self):
        gt, props, lineage = two_track_fixture()
        with pytest.raises(ValueError):
            seg_score(props, lineage, gt)


def division_scene():
    tracks = [TrackRow(1, 0, 0, 0), TrackRow(2, 1, 1, 1), TrackRow(3, 1, 1, 1)]
    markers = {0: [(1, 5.0, 5.0)], 1: [(2, 3.0, 3.0), (3, 8.0, 8.0)]}
    gt = GroundTruth(tracks=tracks, markers=markers)
    props = [square(0, 0, 5, 5), square(1, 1, 3, 3), square(2, 1, 8, 8)]
    return gt, props


class TestDivisionMetrics:
    def test_perfect(self):
        gt, props = division_scene()
        ln = Lineage(
            tracks=[TrackRow(1, 0, 0, 0), TrackRow(2, 1, 1, 1), TrackRow(3, 1, 1, 1)],
            members={1: [0], 2: [1], 3: [2]},
            end_reason={1: "division", 2: "exit", 3: "exit"},
        )
        assert division_metrics(props, ln, gt) == (1.0, 1.0, 1.0)

    def test_missed_division(self):
        gt, props = division_scene()
        ln = Lineage(
            tracks=[TrackRow(1, 0, 1, 0), TrackRow(2, 1, 1, 0)],
            members={1: [0, 1], 2: [2]},
            end_reason={1: "exit", 2: "exit"},
        )
        precision, recall, f1 = division_metrics(props, ln, gt)
        assert (precision, recall, f1) == (1.0, 0.0, 0.0)

    def test_spurious_division(self):
        tracks = [TrackRow(1, 0, 0, 0), TrackRow(2, 1, 1, 1), TrackRow(3, 1, 1, 1),
                  TrackRow(4, 0, 1, 0)]
        markers = {
            0: [(1, 5.0, 5.0), (4, 20.0, 20.0)],
            1: [(2, 3.0, 3.0), (3, 8.0, 8.0), (4, 20.0, 20.0)],
        }
        gt = GroundTruth(tracks=tracks, markers=markers)
        props = [square(0, 0, 5, 5), square(1, 1, 3, 3), square(2, 1, 8, 8),
                 square(3, 0, 20, 20), square(4, 1, 20, 20)]
        # one real division plus a fabricated one under track 4
        ln = Lineage(
            tracks=[TrackRow(1, 0, 0, 0), TrackRow(2, 1, 1, 1), TrackRow(3, 1, 1, 1),
                    TrackRow(4, 0, 0, 0), TrackRow(5, 1, 1, 4)],
            members={1: [0], 2: [1], 3: [2], 4: [3], 5: [4]},
            end_reason={1: "division", 2: "exit", 3: "exit", 4: "division", 5: "exit"},
        )
        # track 4 has a single child, which lineage_divisions ignores; make it two
        ln.tracks.append(TrackRow(6, 1, 1, 4))
        ln.members[6] = [4]
        precision, recall, f1 = division_metrics(props, ln, gt)
        assert precision == pytest.approx(0.5)
        assert recall == pytest.approx(1.0)
        assert f1 == pytest.approx(mitosis_f1(0.5, 1.0))

    def test_f1_pins(self):
        f1 = mitosis_f1(0.91, 0.82)
        assert f1 == pytest.approx(0.8626589595375723, rel=1e-12)
        assert f"{f1:.2f}" == "0.86"
        assert mitosis_f1(0.0, 0.0) == 0.0
        assert mitosis_f1(1.0, 1.0) == 1.0


class TestGraphRecall:
    def moving_pair(self):
        tracks = [TrackRow(1, 0, 1, 0), TrackRow(2, 0, 1, 0)]
        markers = {
            0: [(1, 2.0, 2.0), (2, 12.0, 12.0)],
            1: [(1, 3.0, 2.0), (2, 13.0, 12.0)],
        }
        gt = GroundTruth(tracks=tracks, markers=markers)
        frames = [
            [square(0, 0, 2, 2), square(1, 0, 12, 12)],
            [square(2, 1, 3, 2), square(3, 1, 13, 12)],
        ]
        return gt, frames

    def test_full_coverage(self):
        gt, frames = self.moving_pair()
        node_probs = {i: 0.9 for i in range(4)}
        graph = build_graph(frames, node_probs, {(0, 2): 0.9, (1, 3): 0.9}, {})
        rec = graph_recall(graph, gt)
        assert rec == {"R": 1.0, "R_NS": 1.0, "move_recall": 1.0, "mitosis_recall": 1.0}

    def test_missing_link(self):
        gt, frames = self.moving_pair()
        node_probs = {i: 0.9 for i in range(4)}
        graph = build_graph(frames, node_probs, {(0, 2): 0.9}, {})
        rec = graph_recall(graph, gt)
        assert rec["move_recall"] == 0.5
        assert rec["R"] == 1.0

    def test_merged_proposal_splits_r_and_rns(self):
        gt, frames = self.moving_pair()
        frames[0] = [square(0, 0, 0, 0, size=16)]  # one blob over both markers
        node_probs = {0: 0.9, 2: 0.9, 3: 0.9}
        graph = build_graph(frames, node_probs, {}, {})
        rec = graph_recall(graph, gt)
        assert rec["R"] == pytest.approx(0.5)  # only frame-1 singles
        assert rec["R_NS"] == 1.0
        assert rec["move_recall"] == 0.0

    def test_division_coverage(self):
        gt, props = division_scene()
        frames = [[props[0]], [props[1], props[2]]]
        node_probs = {0: 0.9, 1: 0.9, 2: 0.9}
        with_set = build_graph(frames, node_probs, {}, {(0, 1, 2): 0.8})
        assert graph_recall(with_set, gt)["mitosis_recall"] == 1.0
        without = build_graph(frames, node_probs, {}, {})
        assert graph_recall(without, gt)["mitosis_recall"] == 0.0


class TestReport:
    def test_text_columns(self):
        gt, props, lineage = two_track_fixture(missing_last=True)
        report = evaluate_tracking(props, lineage, gt)
        text = report_text(report)
        lines = text.splitlines()
        assert lines[0] == "TRA SEG FN FP NS EA EC ED2"
        values = lines[1].split()
        assert values[0] == "0.8973"
        assert values[1] == "-"  # no label grids
        assert values[2:] == ["1", "0", "0", "1", "0", "0"]

    def test_json_payload(self):
        gt, props, lineage = two_track_fixture()
        report = evaluate_tracking(props, lineage, gt)
        payload = report_to_json(report)
        assert payload["kind"] == "eval_report"
        assert payload["schema_version"] == 1
        assert payload["tra"]["score"] == 1.0
        assert payload["seg"] is None
        dumps_json(payload)  # must serialise cleanly

    def test_report_with_graph_recalls(self):
        gt, props = division_scene()
        frames = [[props[0]], [props[1], props[2]]]
        node_probs = {0: 0.9, 1: 0.9, 2: 0.9}
        graph = build_graph(frames, node_probs, {}, {(0, 1, 2): 0.8})
        ln = Lineage(
            tracks=[TrackRow(1, 0, 0, 0), TrackRow(2, 1, 1, 1), TrackRow(3, 1, 1, 1)],
            members={1: [0], 2: [1], 3: [2]},
            end_reason={1: "division", 2: "exit", 3: "exit"},
        )
        report = evaluate_tracking(props, ln, gt, graph=graph)
        assert report.recalls is not None
        assert report.recalls["mitosis_recall"] == 1.0
        assert "R-NS=" in report_text(report)
        assert report.tra.tra == 1.0
        assert report.division_f1 == 1.0


class TestOnSimulation:
    def test_perfect_lineage_scores_perfectly(self):
        cfg = SimConfig(
            seed=4,
            frames=10,
            width=96,
            height=96,
            initial_cells=5,
            division_rate=0.04,
        )
        res = simulate(cfg)
        assert res.counts["divisions"] >= 1
        gt = res.gt
        per_frame = ideal_proposals(gt)
        props = []
        members: dict[int, list[int]] = {}
        pid = 0
        for t, frame_masks in enumerate(per_frame):
            for label, mask in frame_masks:
                props.append(Proposal(id=pid, t=t, mask=mask, raw_score=0.9))
                members.setdefault(label, []).append(pid)
                pid += 1
        children: dict[int, int] = {}
        for row in gt.tracks:
            if row.parent:
                children[row.parent] = children.get(row.parent, 0) + 1
        end_reason = {
            row.label: "division" if children.get(row.label) == 2 else "exit"
            for row in gt.tracks
        }
        lineage = Lineage(tracks=list(gt.tracks), members=members, end_reason=end_reason)
        report = evaluate_tracking(props, lineage, gt)
        assert report.tra.tra == 1.0
        assert report.seg == pytest.approx(1.0)
        assert report.division_f1 == 1.0
        assert report.n_tracks == report.n_gt_tracks


class TestMatchingDependsOnScoreOrder:
    def test_high_scorer_claims_first(self):
        gt = GroundTruth(
            tracks=[TrackRow(1, 0, 0, 0)],
            markers={0: [(1, 2.0, 2.0)]},
        )
        props = [square(0, 0, 1, 1, size=3), square(1, 0, 1, 1, size=3)]
        first = match_marker(props, np.array([0.3, 0.9]), gt)
        assert first.tolist() == [False, True]
        second = match_marker(props, np.array([0.9, 0.3]), gt)
        assert second.tolist() == [True, False]
