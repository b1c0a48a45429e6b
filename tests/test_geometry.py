import importlib.util
import math
import threading
import time

import numpy as np
import pytest
from scipy import ndimage

from lineage_ilp.compiled import load_compiled
from lineage_ilp.geometry import (
    BBox,
    BoxDelta,
    Mask,
    anchor_decode,
    anchor_encode,
    find_objects,
    iou_box,
    iou_mask,
    label,
    label_masks,
    mask_intersections,
    nms,
)
from lineage_ilp.features import _pixels
from lineage_ilp.proposals import _PLANES, Proposal
from log_reference import _EIGHT
from overlap_reference import mask_intersection_area


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


def _random_bits(rng, h, w):
    bits = rng.random((h, w)) < rng.uniform(0.2, 1.0)
    bits[int(rng.integers(0, h)), int(rng.integers(0, w))] = True
    return bits


def _related_mask(rng, a: Mask, kind: str) -> Mask:
    """A mask placed against ``a``: inside it, clear of its box, against one
    of its box's edges (touching from outside or overlapping one column or
    row), or anywhere near it; widths run past 64 px."""
    h, w = a.bits.shape
    if kind == "nested":
        r0, c0 = int(rng.integers(0, h)), int(rng.integers(0, w))
        r1, c1 = int(rng.integers(r0, h)) + 1, int(rng.integers(c0, w)) + 1
        bits = a.bits[r0:r1, c0:c1] & (rng.random((r1 - r0, c1 - c0)) < 0.8)
        if not bits.any():
            bits = a.bits[r0:r1, c0:c1] | ~a.bits[r0:r1, c0:c1]
        return Mask(a.x0 + c0, a.y0 + r0, bits)
    bh, bw = int(rng.integers(1, 12)), int(rng.integers(1, 140))
    bits = _random_bits(rng, bh, bw)
    if kind == "disjoint":
        return Mask(a.x0 + w + int(rng.integers(0, 70)), a.y0 - bh - int(rng.integers(0, 5)), bits)
    if kind == "edge":
        side = int(rng.integers(0, 4))
        inset = int(rng.integers(0, 2))  # 0: touching from outside, 1: one px over
        y = a.y0 + int(rng.integers(-bh, h))
        x = a.x0 + int(rng.integers(-bw, w))
        if side == 0:
            x = a.x0 - bw + inset
        elif side == 1:
            x = a.x0 + w - inset
        elif side == 2:
            y = a.y0 - bh + inset
        else:
            y = a.y0 + h - inset
        return Mask(x, y, bits)
    return Mask(a.x0 + int(rng.integers(-bw, w)), a.y0 + int(rng.integers(-bh, h)), bits)


class TestMaskIntersections:
    """The bit-row kernel counts what the pairwise ``mask_intersection_area``
    of ``overlap_reference`` counts."""

    def test_random_pairs(self):
        """150 distinct scenes of 1 to 8 masks and 1 to 40 pairs, every shift range alike often."""
        seen = set()
        for seed in range(150):
            rng = np.random.default_rng(seed)
            n_masks, n_pairs = int(rng.integers(1, 9)), int(rng.integers(1, 41))
            seen.add(self.check_pairs(rng, n_masks, n_pairs, [0, 3, 70][seed % 3]))
        assert len(seen) == 150

    def check_pairs(self, rng, n_masks, n_pairs, max_shift) -> bytes:
        """Check one scene; returns its masks and pairs as bytes."""
        masks = []
        for _ in range(n_masks):
            if masks and rng.random() < 0.7:
                kind = str(rng.choice(["nested", "disjoint", "edge", "near"]))
                masks.append(_related_mask(rng, masks[int(rng.integers(0, len(masks)))], kind))
            else:
                h, w = int(rng.integers(1, 20)), int(rng.integers(1, 200))
                m = Mask(int(rng.integers(-80, 80)), int(rng.integers(-30, 30)), _random_bits(rng, h, w))
                masks.append(m.tighten() if rng.random() < 0.5 else m)
        a = rng.integers(0, n_masks, size=n_pairs)
        b = rng.integers(0, n_masks, size=n_pairs)
        dx = rng.integers(-max_shift, max_shift + 1, size=n_pairs)
        dy = rng.integers(-max_shift // 3, max_shift // 3 + 1, size=n_pairs)
        got = mask_intersections(masks, a, b, dx, dy)
        want = [
            mask_intersection_area(masks[i], masks[j].translated(x, y))
            for i, j, x, y in zip(a.tolist(), b.tolist(), dx.tolist(), dy.tolist())
        ]
        assert got.dtype == np.int64
        assert got.tolist() == want
        placed = b"".join(m.bits.tobytes() + np.array([m.x0, m.y0, *m.bits.shape]).tobytes() for m in masks)
        return placed + np.stack([a, b, dx, dy]).tobytes()

    def test_every_pair_both_ways(self):
        """40 distinct scenes of 2 to 12 masks, every pair i < j counted at
        a shift d and again as (j, i) at -d: both counts equal and equal the
        reference, so a shift applied to the wrong mask or with the wrong
        sign shows."""
        seen, nonzero = set(), 0
        for seed in range(40):
            rng = np.random.default_rng(1000 + seed)
            masks = [Mask(int(rng.integers(-20, 20)), 0, _random_bits(rng, 6, int(rng.integers(1, 130))))]
            for _ in range(int(rng.integers(1, 12))):
                kind = str(rng.choice(["nested", "edge", "near"]))
                masks.append(_related_mask(rng, masks[int(rng.integers(0, len(masks)))], kind))
            i, j = np.triu_indices(len(masks), 1)
            dx = rng.integers(-4, 5, size=len(i)) * rng.choice([1, 1, 1, 20], size=len(i))
            dy = rng.integers(-2, 3, size=len(i))
            got = mask_intersections(masks, np.r_[i, j], np.r_[j, i], np.r_[dx, -dx], np.r_[dy, -dy])
            want = [
                mask_intersection_area(masks[a], masks[b].translated(x, y))
                for a, b, x, y in zip(i.tolist(), j.tolist(), dx.tolist(), dy.tolist())
            ]
            assert got.tolist() == want + want
            placed = b"".join(m.bits.tobytes() + np.array([m.x0, m.y0]).tobytes() for m in masks)
            seen.add(placed + dx.tobytes())
            nonzero += int(np.count_nonzero(want))
        assert len(seen) == 40
        assert nonzero > 100

    @pytest.mark.parametrize("shift", [-130, -65, -64, -63, -1, 0, 1, 63, 64, 65, 130])
    def test_wide_masks_across_strip_edges(self, shift):
        # 130 px wide: three strips, the last of 2 px
        full = Mask(-7, 2, np.ones((3, 130), dtype=bool))
        holes = Mask(-7, 3, np.arange(130)[None, :] % 3 == 0)
        masks = [full, holes]
        got = mask_intersections(masks, [0, 0, 1, 1], [0, 1, 0, 1], [shift] * 4, [0, 0, 1, -1])
        want = [
            mask_intersection_area(masks[i], masks[j].translated(shift, y))
            for i, j, y in ((0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, -1))
        ]
        assert got.tolist() == want

    def test_no_pairs(self):
        assert mask_intersections([full_mask(0, 0, 2, 2)], [], [], [], []).shape == (0,)


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


def disk_offsets(radius: int) -> np.ndarray:
    """Euclidean disk structuring element: offsets (i, j) with i*i + j*j <= r*r."""
    span = np.arange(-radius, radius + 1)
    ii, jj = np.meshgrid(span, span, indexing="ij")
    return (ii * ii + jj * jj) <= radius * radius


def boundary_and_dilations(m: Mask, radii: tuple[int, ...]) -> tuple[Mask, dict[int, Mask]]:
    """Boundary of ``m`` plus, per radius, the dilation ring dilate(m, r)
    minus m, in plane coordinates: the per-mask definition the feature
    pass's stacked boundary and rings must match."""
    pad = max((1, *radii))
    h, w = m.bits.shape
    padded = np.zeros((h + 2 * pad, w + 2 * pad), dtype=bool)
    padded[pad : pad + h, pad : pad + w] = m.bits

    def shifted(dy: int, dx: int) -> np.ndarray:
        return padded[pad + dy : pad + dy + h, pad + dx : pad + dx + w]

    inner = m.bits & shifted(-1, 0) & shifted(1, 0) & shifted(0, -1) & shifted(0, 1)
    rings = {
        r: Mask(m.x0 - pad, m.y0 - pad, ndimage.binary_dilation(padded, structure=disk_offsets(r)) & ~padded)
        for r in radii
    }
    return Mask(m.x0, m.y0, m.bits & ~inner), rings


def boundary_mask(m: Mask) -> Mask:
    """Set pixels with at least one unset 4-neighbour (pixels outside count as unset)."""
    return boundary_and_dilations(m, ())[0]


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

    @pytest.mark.parametrize("seed", range(5))
    def test_frame_stack_matches_per_mask(self, seed):
        # the feature pass's stacked masks and boundaries, pixel for pixel
        # and in each mask's row-major order
        rng = np.random.default_rng(seed)
        height, width = 30, 36
        masks = []
        for _ in range(12):
            h, w = int(rng.integers(1, height + 1)), int(rng.integers(1, 12))
            bits = rng.random((h, w)) < 0.6
            bits[0, 0] = True
            masks.append(Mask(int(rng.integers(0, width - w + 1)), int(rng.integers(0, height - h + 1)), bits))
        m_k, m_rows, m_cols, _, b_k, b_rows, b_cols, _, _ = _pixels(
            masks, np.zeros(len(masks), dtype=np.intp), [np.zeros((height, width))]
        )
        for k, m in enumerate(masks):
            for (kk, rows, cols), want in [((m_k, m_rows, m_cols), m), ((b_k, b_rows, b_cols), boundary_mask(m))]:
                assert np.array_equal(rows[kk == k], want.pixels()[0])
                assert np.array_equal(cols[kk == k], want.pixels()[1])


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


def _binary_arrays(shape, seeds=range(12)):
    """Random boolean arrays of ``shape`` from sparse to dense, and all-False."""
    arrays = [np.zeros(shape, dtype=bool)]
    for seed in seeds:
        rng = np.random.default_rng(seed)
        arrays.append(rng.random(shape) < rng.uniform(0.05, 0.95))
    return arrays


class TestLabelWrappersMatchScipy:
    """``label`` and ``find_objects`` call scipy's compiled routines directly
    and return what scipy.ndimage returns: the same grid, dtype, count and
    slices."""

    def assert_same(self, binary, structure):
        got, count = label(binary, structure)
        want, want_count = ndimage.label(binary, structure=structure)
        assert got.dtype == want.dtype == np.int32
        assert np.array_equal(got, want)
        assert count == want_count
        assert find_objects(got, count) == ndimage.find_objects(want)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 40), (33, 1), (40, 50), (128, 128)])
    def test_frames_with_eight_connectivity(self, shape):
        for binary in _binary_arrays(shape):
            self.assert_same(binary, _EIGHT)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (5, 13, 13), (40, 7, 7), (3, 25, 25)])
    def test_blocks_with_planes_apart(self, shape):
        for binary in _binary_arrays(shape):
            self.assert_same(binary, _PLANES)

    def test_planes_never_join(self):
        binary = np.ones((4, 5, 5), dtype=bool)
        labels, count = label(binary, _PLANES)
        assert count == 4
        assert [sl[0] for sl in find_objects(labels, count)] == [slice(p, p + 1) for p in range(4)]

    def test_empty_array(self):
        labels, count = label(np.zeros((0, 6), dtype=bool), _EIGHT)
        assert (labels.shape, labels.dtype, count) == ((0, 6), np.int32, 0)
        assert find_objects(labels, count) == []


class TestCompiledLoader:
    def test_missing_module_or_name_gives_none(self):
        assert load_compiled("ndimage._no_such_module", ("find_objects",)) is None
        assert load_compiled("ndimage._nd_image", ("find_objects", "no_such_name")) is None

    def test_loads_take_turns(self, monkeypatch):
        # proposal frames label on threads; a module loaded by two threads at
        # once can come back half initialised, or raise, so loads are serial
        real = importlib.util.module_from_spec
        active, peak = [], []

        def slow(spec):
            active.append(spec.name)
            peak.append(len(active))
            time.sleep(0.02)
            try:
                return real(spec)
            finally:
                active.pop()

        monkeypatch.setattr(importlib.util, "module_from_spec", slow)
        loaded = []
        threads = [
            threading.Thread(target=lambda: loaded.append(load_compiled("ndimage._nd_image", ("find_objects",))))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert len(loaded) == 4 and None not in loaded
        assert max(peak) == 1
