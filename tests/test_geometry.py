import math

import numpy as np
import pytest

from lineage_ilp.geometry import (
    BBox,
    BoxDelta,
    Mask,
    anchor_decode,
    anchor_encode,
    boundary_and_dilations,
    boundary_mask,
    connected_components,
    disk_offsets,
    expand_box,
    iou_box,
    iou_mask,
    label_masks,
    nms,
)


def full_mask(x0, y0, w, h):
    return Mask(x0, y0, np.ones((h, w), dtype=bool))


class TestBoxIoU:
    def test_half_overlap(self):
        a = BBox(0, 0, 10, 10)
        b = BBox(0, 5, 10, 10)
        assert iou_box(a, b) == pytest.approx(50.0 / 150.0)

    def test_disjoint(self):
        assert iou_box(BBox(0, 0, 1, 1), BBox(5, 5, 1, 1)) == 0.0

    def test_touching_edges_count_as_disjoint(self):
        assert iou_box(BBox(0, 0, 10, 10), BBox(10, 0, 10, 10)) == 0.0

    def test_identity(self):
        b = BBox(3.5, 2.25, 7.0, 4.5)
        assert iou_box(b, b) == pytest.approx(1.0)

    def test_fuzz_symmetric_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            a = BBox(*rng.uniform(0, 50, 2), *rng.uniform(0.1, 30, 2))
            b = BBox(*rng.uniform(0, 50, 2), *rng.uniform(0.1, 30, 2))
            v = iou_box(a, b)
            assert v == iou_box(b, a)
            assert 0.0 <= v <= 1.0


class TestMaskIoU:
    def test_partial_overlap(self):
        a = full_mask(0, 0, 2, 2)
        b = full_mask(1, 0, 2, 2)
        assert iou_mask(a, b) == pytest.approx(2.0 / 6.0)

    def test_disjoint_grids(self):
        assert iou_mask(full_mask(0, 0, 2, 2), full_mask(10, 10, 2, 2)) == 0.0

    def test_overlapping_grids_disjoint_bits(self):
        a = Mask(0, 0, np.array([[1, 0], [0, 0]], dtype=bool))
        b = Mask(0, 0, np.array([[0, 0], [0, 1]], dtype=bool))
        assert iou_mask(a, b) == 0.0

    def test_same_pixels_different_anchor(self):
        a = Mask(2, 3, np.ones((2, 2), dtype=bool))
        b = Mask(1, 2, np.pad(np.ones((2, 2), dtype=bool), ((1, 0), (1, 0))))
        assert iou_mask(a, b) == pytest.approx(1.0)


class TestMask:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Mask(0, 0, np.zeros((3, 3), dtype=bool))

    def test_tighten(self):
        bits = np.zeros((5, 5), dtype=bool)
        bits[2, 3] = True
        m = Mask(10, 20, bits).tighten()
        assert (m.x0, m.y0) == (13, 22)
        assert m.bits.shape == (1, 1)

    def test_centroid(self):
        m = full_mask(4, 6, 3, 3)
        assert m.centroid == (5.0, 7.0)

    def test_area_and_centroid_computed_once(self):
        m = Mask(3, 4, np.array([[True, False], [True, True]]))
        first = m.centroid
        assert m.centroid is first
        assert first == pytest.approx((3 + 1 / 3, 4 + 2 / 3))
        assert m.area == 3 and m.area == 3

    def test_bits_are_read_only(self):
        source = np.ones((2, 2), dtype=bool)
        m = Mask(0, 0, source)
        with pytest.raises(ValueError):
            m.bits[0, 0] = False
        with pytest.raises(ValueError):
            m.translated(1, 1).bits[0, 0] = False
        # the caller's own array is left writable
        source[0, 0] = False

    def test_contains_point_rounds_to_pixel(self):
        m = full_mask(2, 2, 2, 2)
        assert m.contains_point(2.0, 2.0)
        assert m.contains_point(3.4, 3.4)
        assert not m.contains_point(3.6, 3.0)
        assert not m.contains_point(1.4, 2.0)


class TestNms:
    def test_greedy_sweep(self):
        a = (1, 0.9, BBox(0, 0, 10, 10))
        b = (2, 0.8, BBox(1, 1, 10, 10))  # IoU with a = 81/119 ~ 0.68
        c = (3, 0.7, BBox(30, 30, 5, 5))
        assert nms([a, b, c], threshold=0.5) == [1, 3]
        assert nms([a, b, c], threshold=0.7) == [1, 2, 3]

    def test_exact_threshold_kept(self):
        a = (1, 0.9, BBox(0, 0, 10, 10))
        b = (2, 0.8, BBox(0, 5, 10, 10))  # IoU exactly 1/3
        assert nms([a, b], threshold=1.0 / 3.0) == [1, 2]

    def test_score_tie_prefers_lower_id(self):
        a = (7, 0.5, BBox(0, 0, 10, 10))
        b = (3, 0.5, BBox(0, 1, 10, 10))
        assert nms([a, b], threshold=0.5) == [3]

    def test_mask_mode(self):
        a = (1, 0.9, full_mask(0, 0, 4, 4))
        b = (2, 0.5, full_mask(0, 0, 4, 4))
        assert nms([a, b], threshold=0.99, mode="mask") == [1]

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        items = [
            (i, float(rng.uniform()), BBox(*rng.uniform(0, 40, 2), *rng.uniform(1, 20, 2)))
            for i in range(60)
        ]
        kept = nms(items, threshold=0.4)
        again = nms([it for it in items if it[0] in set(kept)], threshold=0.4)
        assert kept == again


class TestAnchors:
    def test_known_encoding(self):
        d = anchor_encode(BBox(2, 0, 20, 10), BBox(0, 0, 10, 10))
        assert d.dx == pytest.approx(0.2)
        assert d.dy == 0.0
        assert d.dw == pytest.approx(math.log(2.0))
        assert d.dh == 0.0

    def test_zero_delta_is_anchor(self):
        a = BBox(5, 6, 7, 8)
        assert anchor_decode(BoxDelta(0, 0, 0, 0), a) == a

    def test_roundtrip_fuzz(self):
        rng = np.random.default_rng(23)
        anchor = BBox(10, 10, 16, 16)
        for _ in range(2000):
            b = BBox(*rng.uniform(0, 100, 2), *rng.uniform(0.5, 60, 2))
            out = anchor_decode(anchor_encode(b, anchor), anchor)
            for got, want in ((out.x, b.x), (out.y, b.y), (out.w, b.w), (out.h, b.h)):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_degenerate_anchor_rejected(self):
        with pytest.raises(ValueError):
            anchor_encode(BBox(0, 0, 1, 1), BBox(0, 0, 0, 1))


class TestExpandBox:
    def test_interior(self):
        assert expand_box(BBox(5, 5, 10, 10), 3, 100, 100) == BBox(2, 2, 16, 16)

    def test_clipped_at_origin(self):
        assert expand_box(BBox(0, 0, 10, 10), 3, 100, 100) == BBox(0, 0, 13, 13)

    def test_clipped_at_far_edge(self):
        assert expand_box(BBox(95, 90, 5, 10), 3, 100, 100) == BBox(92, 87, 8, 13)


class TestConnectedComponents:
    def test_diagonal_pixels_are_one_component(self):
        grid = np.array([[1, 0], [0, 1]], dtype=bool)
        comps = connected_components(grid)
        assert len(comps) == 1
        assert comps[0].area == 2

    def test_empty_grid(self):
        assert connected_components(np.zeros((4, 4), dtype=bool)) == []

    def test_scanline_order_and_tight_boxes(self):
        grid = np.zeros((10, 10), dtype=bool)
        grid[6:8, 1:3] = True
        grid[0, 7] = True
        grid[2:4, 4] = True
        comps = connected_components(grid)
        firsts = [(m.y0, m.x0) for m in comps]
        assert firsts == [(0, 7), (2, 4), (6, 1)]
        assert comps[2].bits.shape == (2, 2)


class TestBoundaryAndDilations:
    def test_boundary_of_3x3_block(self):
        b = boundary_mask(full_mask(0, 0, 3, 3))
        assert b.area == 8
        assert not b.bits[1, 1]

    def test_single_pixel_is_its_own_boundary(self):
        assert boundary_mask(full_mask(5, 5, 1, 1)).area == 1

    def test_disk_r1_is_plus_shape(self):
        d = disk_offsets(1)
        assert d.sum() == 5
        assert d[1, 1] and d[0, 1] and d[1, 0] and d[2, 1] and d[1, 2]
        assert not d[0, 0]

    def test_ring_r1_of_single_pixel_has_4_pixels(self):
        _, rings = boundary_and_dilations(full_mask(5, 5, 1, 1), (1,))
        ring = rings[1]
        assert ring.area == 4
        rows, cols = ring.pixels()
        assert sorted(zip(rows.tolist(), cols.tolist())) == [(4, 5), (5, 4), (5, 6), (6, 5)]

    def test_ring_disjoint_from_mask(self):
        m = full_mask(3, 3, 4, 2)
        _, rings = boundary_and_dilations(m, (1, 3))
        for ring in rings.values():
            assert iou_mask(ring, m) == 0.0

    def test_ring_r3_uses_euclidean_disk(self):
        _, rings = boundary_and_dilations(full_mask(10, 10, 1, 1), (3,))
        assert rings[3].area == int(disk_offsets(3).sum()) - 1


def reference_label_masks(grid):
    """Per-label full-frame scan: the definition ``label_masks`` must match."""
    out = {}
    for label in np.unique(grid):
        if label > 0:
            out[int(label)] = Mask(0, 0, grid == label).tighten()
    return out


class TestLabelMasks:
    def assert_matches_reference(self, grid):
        got = label_masks(grid)
        want = reference_label_masks(grid)
        assert list(got) == list(want)
        assert all(type(label) is int for label in got)
        for label, m in got.items():
            assert m == want[label]
            assert m.bits.base.size == m.bits.size  # owns its pixels, not a frame view

    def test_gaps_and_ascending_order(self):
        grid = np.zeros((12, 14), dtype=np.int32)
        grid[1:4, 2:5] = 9
        grid[6:8, 0:3] = 2
        grid[5, 10:14] = 40
        grid[9:12, 6] = 5
        got = label_masks(grid)
        assert list(got) == [2, 5, 9, 40]
        assert (got[9].x0, got[9].y0, got[9].bits.shape) == (2, 1, (3, 3))
        self.assert_matches_reference(grid)

    def test_background_only_frame(self):
        assert label_masks(np.zeros((5, 7), dtype=np.uint16)) == {}

    def test_largest_16_bit_label(self):
        grid = np.zeros((6, 6), dtype=np.uint16)
        grid[0, 0] = 65535
        grid[2:4, 2:5] = 1
        grid[5, 1:3] = 300
        assert list(label_masks(grid)) == [1, 300, 65535]
        self.assert_matches_reference(grid)

    def test_non_convex_and_disconnected_regions(self):
        grid = np.zeros((8, 8), dtype=np.int64)
        grid[0, 0] = 3
        grid[7, 7] = 3  # one label, two separate pieces
        grid[2:6, 2] = 4
        grid[5, 2:6] = 4
        grid[3, 4] = 4
        self.assert_matches_reference(grid)

    def test_random_grids(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            grid = rng.integers(0, 6, size=(9, 11)) * rng.integers(0, 2, size=(9, 11))
            self.assert_matches_reference(grid)
