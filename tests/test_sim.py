import hashlib

import numpy as np
import pytest
from scipy import ndimage

from lineage_ilp.evaluate import GroundTruth
from lineage_ilp.geometry import Mask
from lineage_ilp.io import TrackRow
from lineage_ilp.sim import (
    CorruptionConfig,
    SimConfig,
    _union,
    corrupt,
    ideal_proposals,
    simulate,
)
from overlap_reference import mask_intersection_area


def busy_config():
    return SimConfig(
        frames=24,
        width=128,
        height=128,
        initial_cells=8,
        motion_sigma=1.5,
        division_rate=0.02,
        enter_rate=0.15,
        noise_sigma=0.02,
    )


class TestSimulate:
    def test_deterministic(self):
        a = simulate(busy_config(), 42)
        b = simulate(busy_config(), 42)
        assert len(a.frames) == len(b.frames)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.intensity, fb.intensity)
        assert a.gt.tracks == b.gt.tracks
        assert a.gt.markers == b.gt.markers

    def test_seed_changes_output(self):
        a = simulate(busy_config(), 1)
        b = simulate(busy_config(), 2)
        assert not np.array_equal(a.frames[0].intensity, b.frames[0].intensity)

    def test_ground_truth_is_consistent(self):
        res = simulate(busy_config(), 42)
        # GroundTruth.__post_init__ validates spans and parent links; check grids too.
        assert len(res.gt.label_grids) == len(res.frames)

    def test_markers_inside_own_region(self):
        res = simulate(busy_config(), 42)
        for t, rows in res.gt.markers.items():
            grid = res.gt.label_grids[t]
            for track_id, x, y in rows:
                r = int(np.floor(y + 0.5))
                c = int(np.floor(x + 0.5))
                assert grid[r, c] == track_id

    def test_divisions_produce_two_daughters(self):
        res = simulate(busy_config(), 42)
        divisions = res.gt.divisions()
        assert len(divisions) == res.counts["divisions"]
        spans = {row.label: row for row in res.gt.tracks}
        for parent, d1, d2, t_end in divisions:
            assert spans[d1].birth == t_end + 1
            assert spans[d2].birth == t_end + 1

    def test_intensity_range(self):
        res = simulate(busy_config(), 42)
        for f in res.frames:
            assert f.intensity.min() >= 0.0
            assert f.intensity.max() <= 1.0

    def test_reflect_border_never_exits(self):
        cfg = busy_config()
        cfg.border = "reflect"
        cfg.enter_rate = 0.0
        cfg.division_rate = 0.0
        res = simulate(cfg, 42)
        assert res.counts["exits"] == 0
        assert all(row.end == cfg.frames - 1 for row in res.gt.tracks)


def tiny_gt():
    """Two touching 2x2 regions plus one far region, single frame."""
    grid = np.zeros((10, 10), dtype=np.int64)
    grid[2:4, 2:4] = 1
    grid[2:4, 4:6] = 2
    grid[7:9, 7:9] = 3
    tracks = [TrackRow(1, 0, 0, 0), TrackRow(2, 0, 0, 0), TrackRow(3, 0, 0, 0)]
    markers = {0: [(1, 2.5, 2.5), (2, 4.5, 2.5), (3, 7.5, 7.5)]}
    return GroundTruth(tracks=tracks, markers=markers, label_grids=[grid])


class TestCorrupt:
    def test_zero_rates_reproduce_regions(self):
        res = simulate(busy_config(), 42)
        props = corrupt(res.gt, CorruptionConfig(), 0)
        per_frame = ideal_proposals(res.gt)
        by_t = {}
        for p in props:
            by_t.setdefault(p.t, []).append(p)
        for t, frame_masks in enumerate(per_frame):
            got = by_t.get(t, [])
            assert len(got) == len(frame_masks)
            for p, (_label, m) in zip(got, frame_masks):
                assert p.mask == m

    def test_deterministic(self):
        res = simulate(busy_config(), 42)
        ccfg = CorruptionConfig(drop_rate=0.1, clutter_rate=0.1, jitter_px=0.5)
        a = corrupt(res.gt, ccfg, 9)
        b = corrupt(res.gt, ccfg, 9)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert pa.id == pb.id and pa.t == pb.t and pa.mask == pb.mask
            assert pa.raw_score == pb.raw_score

    def test_merge_creates_single_two_marker_proposal(self):
        gt = tiny_gt()
        props = corrupt(gt, CorruptionConfig(merge_rate=1.0), 1)
        two_marker = [
            p
            for p in props
            if sum(p.mask.contains_point(x, y) for _id, x, y in gt.markers_at(0)) == 2
        ]
        assert len(two_marker) == 1
        assert len(props) == 2  # merged pair plus the far region

    def test_drop_everything(self):
        gt = tiny_gt()
        assert corrupt(gt, CorruptionConfig(drop_rate=1.0), 1) == []

    def test_split_bisects(self):
        gt = tiny_gt()
        props = corrupt(gt, CorruptionConfig(split_rate=1.0), 1)
        assert len(props) == 6
        assert all(p.mask.area == 2 for p in props)

    def test_jitter_stays_in_frame(self):
        res = simulate(busy_config(), 42)
        props = corrupt(res.gt, CorruptionConfig(jitter_px=2.0), 3)
        h, w = res.gt.label_grids[0].shape
        for p in props:
            assert p.mask.x0 >= 0 and p.mask.y0 >= 0
            assert p.mask.x0 + p.mask.bits.shape[1] <= w
            assert p.mask.y0 + p.mask.bits.shape[0] <= h

    def test_clutter_adds_disks(self):
        gt = tiny_gt()
        props = corrupt(gt, CorruptionConfig(clutter_rate=1.0), 2)
        assert len(props) > 3
        scores = sorted({round(p.raw_score, 2) for p in props})
        assert scores == [0.35, 0.9]


def _reference_touching(a: Mask, b: Mask) -> bool:
    """True when some pixel of a is 8-adjacent to (or overlaps) a pixel of b."""
    grown = Mask(
        a.x0 - 1, a.y0 - 1,
        ndimage.binary_dilation(np.pad(a.bits, 1), structure=np.ones((3, 3), dtype=bool)),
    )
    return mask_intersection_area(grown, b) > 0


def _reference_merged(gt, seed, merge_rate):
    """The merge pass with a dilation per candidate pair: (t, mask, score)
    of every proposal ``corrupt`` makes when merging is its only pass."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    for t, frame_masks in enumerate(ideal_proposals(gt)):
        masks = [(m, 0.9) for _label, m in frame_masks]
        consumed = [False] * len(masks)
        for i in range(len(masks)):
            if consumed[i]:
                continue
            for j in range(i + 1, len(masks)):
                if consumed[j] or not _reference_touching(masks[i][0], masks[j][0]):
                    continue
                if rng.uniform() < merge_rate:
                    out.append((t, _union(masks[i][0], masks[j][0]), 0.75))
                    consumed[i] = consumed[j] = True
                    break
            if not consumed[i]:
                out.append((t, *masks[i]))
                consumed[i] = True
    return out


def box_scene(rng):
    """Label grids of small boxes with labels far above their count, in no
    order of position; many pairs meet only corner to corner."""
    frames, size = int(rng.integers(1, 4)), int(rng.integers(10, 40))
    n = int(rng.integers(2, 40))
    labels = (10**6 + rng.permutation(n) * int(rng.integers(1000, 10**5))).tolist()
    grids = []
    for _ in range(frames):
        grid = np.zeros((size, size), dtype=np.int64)
        boxes = []
        for label in labels:
            h, w = (int(v) for v in rng.integers(1, 4, size=2))
            if boxes and rng.random() < 0.6:  # at a corner of an earlier box
                r, c, bh, bw = boxes[int(rng.integers(0, len(boxes)))]
                r = r + bh if rng.random() < 0.5 else r - h
                c = c + bw if rng.random() < 0.5 else c - w
            else:
                r, c = (int(v) for v in rng.integers(0, size, size=2))
            if r < 0 or c < 0 or r + h > size or c + w > size or grid[r : r + h, c : c + w].any():
                continue
            grid[r : r + h, c : c + w] = label
            boxes.append((r, c, h, w))
        grids.append(grid)
    tracks = [TrackRow(label, 0, frames - 1, 0) for label in sorted(labels)]
    return GroundTruth(tracks=tracks, markers={}, label_grids=grids)


def _diagonal_only_pairs(gt) -> int:
    """Region pairs that touch 8-adjacently but share no 4-adjacent pixels."""
    cross = ndimage.generate_binary_structure(2, 1)
    count = 0
    for per_frame in ideal_proposals(gt):
        masks = [m for _label, m in per_frame]
        for i, a in enumerate(masks):
            plus = Mask(a.x0 - 1, a.y0 - 1, ndimage.binary_dilation(np.pad(a.bits, 1), structure=cross))
            for b in masks[i + 1 :]:
                count += _reference_touching(a, b) and mask_intersection_area(plus, b) == 0
    return count


class TestMergeMatchesReference:
    """Adjacency read off the label grid merges the pairs, in the order and
    with the random draws, of one dilation per pair."""

    @staticmethod
    def assert_same_merges(gt, seed, merge_rate):
        """``corrupt`` with merging alone equals the reference; returns the merges."""
        props = corrupt(gt, CorruptionConfig(merge_rate=merge_rate), seed)
        want = _reference_merged(gt, seed, merge_rate)
        assert [(p.id, p.t, p.raw_score) for p in props] == [
            (i, t, score) for i, (t, _m, score) in enumerate(want)
        ]
        assert all(p.mask == m for p, (_t, m, _s) in zip(props, want))
        return sum(score == 0.75 for _t, _m, score in want)

    def test_corner_contacts_and_large_labels(self):
        """60 distinct box scenes; corner-only contacts merge as edge contacts do."""
        seen, merges, diagonal = set(), 0, 0
        for seed in range(60):
            gt = box_scene(np.random.default_rng(seed))
            seen.add(b"".join(grid.tobytes() for grid in gt.label_grids))
            merges += self.assert_same_merges(gt, seed, [1.0, 0.5][seed % 2])
            diagonal += _diagonal_only_pairs(gt)
        assert len(seen) == 60
        assert merges > 100 and diagonal > 50

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("merge_rate", [1.0, 0.5])
    def test_crowded_scenes(self, seed, merge_rate):
        cfg = SimConfig(
            frames=4, width=48, height=48, initial_cells=14,
            placement_margin=4.0, initial_min_separation=6.0, division_rate=0.1,
        )
        merges = self.assert_same_merges(simulate(cfg, seed).gt, seed + 10, merge_rate)
        assert merges >= 2  # the scene has merges


# sha256 of simulate + corrupt on busy_config() with every corruption pass on
# at seed 42.  A change to any simulator rule, constant or draw order changes
# it, so only a change meant to alter the synthetic data may update it.
PINNED_DIGEST = "c0a6a8c69f229ae93571aecc18d22de8da3a8c137e7e41241cb30f685cfb0b76"


class TestOutputsPinned:
    def test_simulate_and_corrupt_digest(self):
        res = simulate(busy_config(), 42)
        ccfg = CorruptionConfig(
            drop_rate=0.1, clutter_rate=0.2, merge_rate=0.3, split_rate=0.1, jitter_px=1.0
        )
        props = corrupt(res.gt, ccfg, 42)
        assert res.counts["divisions"] >= 1
        assert {p.raw_score for p in props} == {0.9, 0.75, 0.6, 0.35}  # merge, split, clutter
        h = hashlib.sha256()
        for f in res.frames:
            h.update(f.intensity.tobytes())
        for grid in res.gt.label_grids:
            h.update(grid.tobytes())
        h.update(repr(sorted(res.gt.markers.items())).encode())
        for p in props:
            h.update(repr((p.id, p.t, p.mask.x0, p.mask.y0, p.mask.bits.shape, p.raw_score)).encode())
            h.update(p.mask.bits.tobytes())
        assert h.hexdigest() == PINNED_DIGEST
