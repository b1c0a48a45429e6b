"""Feature vector oracles and invariance checks."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import ndimage

from lineage_ilp import features as features_mod
from lineage_ilp.features import (
    MITOSIS_DIM,
    MOVE_DIM,
    N_ANGULAR_BINS,
    N_CONTRAST_BINS,
    N_INTENSITY_BINS,
    N_RADIAL_BINS,
    PROPOSAL_DIM,
    _bin_index,
    centroid_distance,
    mitosis_feature_rows,
    mitosis_features,
    move_feature_rows,
    move_features,
    proposal_feature_rows,
    proposal_features,
)
from lineage_ilp.geometry import Mask
from lineage_ilp.proposals import Frame, Proposal
from link_reference import aligned_iou, mitosis_row, move_row
from test_geometry import disk_offsets
from lineage_ilp.pipeline import mitosis_feature_matrix, move_feature_matrix


def blob_frame(width=40, height=40, seed=3):
    rng = np.random.default_rng(seed)
    patch = rng.uniform(0.2, 1.0, size=(7, 7))
    bits = rng.random((7, 7)) < 0.6
    bits[3, 3] = True
    return patch, bits


def embed(patch, bits, x0, y0, width=40, height=40, pid=0, t=0):
    img = np.zeros((height, width))
    img[y0 : y0 + patch.shape[0], x0 : x0 + patch.shape[1]] = patch
    prop = Proposal(id=pid, t=t, mask=Mask(x0, y0, bits.copy()), raw_score=0.5)
    return Frame(t=t, intensity=img), prop


class TestProposalFeatures:
    def test_length_and_range(self):
        patch, bits = blob_frame()
        frame, prop = embed(patch, bits, 12, 15)
        f = proposal_features(prop, frame)
        assert f.shape == (PROPOSAL_DIM,)
        assert np.all(f >= 0.0)

    def test_histogram_blocks_sum_to_one(self):
        patch, bits = blob_frame()
        frame, prop = embed(patch, bits, 12, 15)
        f = proposal_features(prop, frame)
        assert f[0:15].sum() == pytest.approx(1.0)
        assert f[15:23].sum() == pytest.approx(1.0)
        assert f[23:31].sum() == pytest.approx(1.0)
        assert f[31:91].sum() == pytest.approx(1.0)

    def test_intensity_histogram_oracle(self):
        # Two pixels at 0.1 and one at 0.95: bins 1 and 14 of 15 on [0, 1].
        img = np.zeros((10, 10))
        img[4, 4] = 0.1
        img[4, 5] = 0.1
        img[5, 4] = 0.95
        prop = Proposal(id=0, t=0, mask=Mask(4, 4, np.array([[True, True], [True, False]])), raw_score=1.0)
        f = proposal_features(prop, Frame(t=0, intensity=img))
        expected = np.zeros(15)
        expected[1] = 2 / 3
        expected[14] = 1 / 3
        np.testing.assert_allclose(f[0:15], expected)

    def test_area_fraction(self):
        img = np.zeros((20, 25))
        prop = Proposal(id=0, t=0, mask=Mask(3, 3, np.ones((3, 3), bool)), raw_score=1.0)
        f = proposal_features(prop, Frame(t=0, intensity=img))
        assert f[91] == pytest.approx(9 / 500)

    def test_contrast_oracle_single_pixel(self):
        # Bright pixel on a dark background: ring mean - center = -1, clipped
        # to -0.5, so everything lands in the first contrast bin.
        img = np.zeros((12, 12))
        img[5, 5] = 1.0
        prop = Proposal(id=0, t=0, mask=Mask(5, 5, np.ones((1, 1), bool)), raw_score=1.0)
        f = proposal_features(prop, Frame(t=0, intensity=img))
        for lo in (15, 23):
            block = f[lo : lo + 8]
            assert block[0] == pytest.approx(1.0)
            assert block[1:].sum() == 0.0

    def test_polar_single_pixel_lands_in_one_bin(self):
        img = np.zeros((12, 12))
        img[5, 5] = 1.0
        prop = Proposal(id=0, t=0, mask=Mask(5, 5, np.ones((1, 1), bool)), raw_score=1.0)
        f = proposal_features(prop, Frame(t=0, intensity=img))
        polar = f[31:91]
        # r_max is zero, angle atan2(0, 0) = 0 -> angular bin 6, radial bin 0.
        assert polar[6 * 5 + 0] == pytest.approx(1.0)
        assert polar.sum() == pytest.approx(1.0)

    def test_ring_clipped_to_empty_gives_zero_block(self):
        img = np.full((4, 4), 0.5)
        prop = Proposal(id=0, t=0, mask=Mask(0, 0, np.ones((4, 4), bool)), raw_score=1.0)
        f = proposal_features(prop, Frame(t=0, intensity=img))
        np.testing.assert_array_equal(f[15:23], np.zeros(8))
        np.testing.assert_array_equal(f[23:31], np.zeros(8))

    def test_translation_invariance(self):
        patch, bits = blob_frame()
        frame_a, prop_a = embed(patch, bits, 10, 10)
        frame_b, prop_b = embed(patch, bits, 17, 13)
        fa = proposal_features(prop_a, frame_a)
        fb = proposal_features(prop_b, frame_b)
        np.testing.assert_allclose(fa, fb, atol=1e-9)


# dilation radii of the two boundary-contrast blocks, entries 15:23 and 23:31
BOUNDARY_RADII = (1, 3)


def _reference_proposal_features(p: Proposal, frame: Frame) -> np.ndarray:
    """The proposal vector computed proposal by proposal: ``np.histogram``
    per block, ``ndimage`` erosion and dilations on padded copies of the
    mask, each contrast block from its own ring, the polar histogram by
    ``np.add.at``.  A nearest-ring mean adds its terms left to right in the
    ring's row-major order, as the frame pass does, so the two agree bit for
    bit on every machine (a BLAS product sums in an order of its own)."""
    intensity = frame.intensity
    height, width = intensity.shape
    rows, cols = p.mask.pixels()
    vals = intensity[rows, cols]
    int_hist, _ = np.histogram(vals, bins=N_INTENSITY_BINS, range=(0.0, 1.0))
    int_hist = int_hist / len(vals)

    plus = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    inner = ndimage.binary_erosion(p.mask.bits, structure=plus, border_value=0)
    b_rows, b_cols = Mask(p.mask.x0, p.mask.y0, p.mask.bits & ~inner).pixels()
    contrast = []
    for r in BOUNDARY_RADII:
        padded = np.pad(p.mask.bits, r)
        ring = ndimage.binary_dilation(padded, structure=disk_offsets(r)) & ~padded
        r_rows, r_cols = Mask(p.mask.x0 - r, p.mask.y0 - r, ring).pixels()
        keep = (r_rows >= 0) & (r_rows < height) & (r_cols >= 0) & (r_cols < width)
        r_rows, r_cols = r_rows[keep], r_cols[keep]
        if len(r_rows) == 0:
            contrast.append(np.zeros(N_CONTRAST_BINS))
            continue
        d2 = (b_rows[:, None] - r_rows[None, :]) ** 2 + (b_cols[:, None] - r_cols[None, :]) ** 2
        nearest = d2 == d2.min(axis=1, keepdims=True)
        r_values = intensity[r_rows, r_cols]
        means = []
        for row in nearest:
            total = 0.0
            for v in r_values[row].tolist():
                total += v
            means.append(total / int(row.sum()))
        means = np.array(means)
        diffs = np.clip(means - intensity[b_rows, b_cols], -0.5, 0.5)
        hist, _ = np.histogram(diffs, bins=N_CONTRAST_BINS, range=(-0.5, 0.5))
        contrast.append(hist / len(b_rows))

    cx, cy = p.mask.centroid
    dy = b_rows.astype(np.float64) - cy
    dx = b_cols.astype(np.float64) - cx
    radius = np.hypot(dx, dy)
    r_max = radius.max()
    unit = radius / r_max if r_max > 0 else np.zeros_like(radius)
    ang_bin = np.floor((np.arctan2(dy, dx) + math.pi) / (2.0 * math.pi / N_ANGULAR_BINS))
    ang_bin = np.clip(ang_bin.astype(int), 0, N_ANGULAR_BINS - 1)
    rad_bin = np.minimum((unit * N_RADIAL_BINS).astype(int), N_RADIAL_BINS - 1)
    polar = np.zeros(N_ANGULAR_BINS * N_RADIAL_BINS)
    np.add.at(polar, ang_bin * N_RADIAL_BINS + rad_bin, 1.0)
    polar = polar / len(b_rows)

    area = np.array([p.area / float(width * height)])
    return np.concatenate([int_hist, contrast[0], contrast[1], polar, area])


def assert_rows_match_reference(props, frame):
    got = proposal_feature_rows(props, frame)
    # the pass leaves each mask's centroid in its cache, bit for bit the one
    # a fresh mask computes from its own pixels
    for p in props:
        fresh = Mask(p.mask.x0, p.mask.y0, p.mask.bits).centroid
        assert [c.hex() for c in p.mask._centroid] == [c.hex() for c in fresh]
    want = np.stack([_reference_proposal_features(p, frame) for p in props])
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(want[:, 15:23], want[:, 23:31])  # the two rings' blocks agree
    for p, row in zip(props, got):
        assert np.array_equal(proposal_features(p, frame), row)


def _random_mask(rng, height, width, kind):
    if kind == "pixel":
        y, x = int(rng.integers(0, height)), int(rng.integers(0, width))
        return Mask(x, y, np.ones((1, 1), dtype=bool))
    if kind == "frame":
        return Mask(0, 0, np.ones((height, width), dtype=bool))
    h, w = int(rng.integers(1, height + 1)), int(rng.integers(1, width + 1))
    # against the top/left border, the bottom/right border, or anywhere
    y0 = int(rng.choice([0, height - h, rng.integers(0, height - h + 1)]))
    x0 = int(rng.choice([0, width - w, rng.integers(0, width - w + 1)]))
    bits = rng.random((h, w)) < rng.uniform(0.3, 1.0)
    bits[int(rng.integers(0, h)), int(rng.integers(0, w))] = True
    m = Mask(x0, y0, bits)
    return m.tighten() if rng.random() < 0.5 else m


class TestFramePassMatchesReference:
    """The frame pass gives every proposal the vector the per-proposal code
    gives it, bit for bit."""

    def test_random_frames(self):
        """150 distinct frames of 1 to 16 px a side, every quantum alike often."""
        seen = set()
        for seed in range(150):
            # k / quantum puts pixels on 0.0, 1.0 and the intensity edges
            # (multiples of 1/15), and contrast differences on theirs (1/8)
            quantum = [1, 2, 8, 15, 16, 30, 45, 255, 65535][seed % 9]
            rng = np.random.default_rng(seed)
            height, width = (int(n) for n in rng.integers(1, 17, size=2))
            intensity = rng.integers(0, quantum + 1, size=(height, width)) / quantum
            frame = Frame(t=0, intensity=intensity)
            kinds = rng.choice(["pixel", "frame", "box"], size=int(rng.integers(1, 7)), p=[0.25, 0.15, 0.6])
            props = [
                Proposal(id=i, t=0, mask=_random_mask(rng, height, width, kind), raw_score=0.5)
                for i, kind in enumerate(kinds)
            ]
            seen.add(repr((intensity.tolist(), [(p.mask.x0, p.mask.y0, p.mask.bits.tolist()) for p in props])))
            assert_rows_match_reference(props, frame)
        assert len(seen) == 150

    def test_borders_single_pixels_and_the_whole_frame(self):
        img = np.tile(np.linspace(0.0, 1.0, 16), (9, 1))[:, :12]
        img[0, 0], img[-1, -1] = 0.0, 1.0
        frame = Frame(t=0, intensity=img)
        masks = [
            Mask(0, 0, np.ones((9, 12), dtype=bool)),  # the whole frame: both rings clipped away
            Mask(0, 0, np.ones((1, 1), dtype=bool)),
            Mask(11, 8, np.ones((1, 1), dtype=bool)),
            Mask(5, 4, np.ones((1, 1), dtype=bool)),
            Mask(0, 2, np.ones((3, 2), dtype=bool)),  # left edge
            Mask(10, 2, np.ones((3, 2), dtype=bool)),  # right edge
            Mask(3, 0, np.ones((2, 4), dtype=bool)),  # top edge
            Mask(3, 7, np.ones((2, 4), dtype=bool)),  # bottom edge
        ]
        props = [Proposal(id=i, t=0, mask=m, raw_score=0.5) for i, m in enumerate(masks)]
        assert_rows_match_reference(props, frame)

    def test_masks_of_widely_different_sizes(self):
        # one mask nearly fills the frame and sets the stack's slice size;
        # the rest are single pixels and small blobs, some at the borders
        rng = np.random.default_rng(5)
        frame = Frame(t=0, intensity=rng.integers(0, 16, size=(48, 56)) / 15)
        big = rng.random((46, 53)) < 0.9
        big[0, 0] = big[-1, -1] = True
        masks = [Mask(1, 1, big), Mask(0, 0, np.ones((1, 1), dtype=bool))]
        masks += [_random_mask(rng, 48, 56, "pixel") for _ in range(10)]
        for x0, y0 in ((0, 20), (52, 3), (25, 43), (30, 30)):
            bits = rng.random((5, 4)) < 0.7
            bits[2, 2] = True
            masks.append(Mask(x0, y0, bits))
        masks.append(Mask(0, 0, np.ones((48, 56), dtype=bool)))
        props = [Proposal(id=i, t=0, mask=m, raw_score=0.5) for i, m in enumerate(masks)]
        assert_rows_match_reference(props, frame)

    @pytest.mark.parametrize("cells", [1, 400, 3000])
    def test_more_masks_than_one_stack_holds(self, monkeypatch, cells):
        # cells=1 puts every mask alone in its stack; the others make runs of
        # several masks, and a mask whose padded box alone exceeds the limit
        # goes alone
        rng = np.random.default_rng(cells)
        frame = Frame(t=0, intensity=rng.random((40, 40)))
        kinds = ["pixel", "box", "box", "frame", "box", "pixel", "pixel"] * 5
        props = [
            Proposal(id=i, t=0, mask=_random_mask(rng, 40, 40, kind), raw_score=0.5)
            for i, kind in enumerate(kinds)
        ]
        runs = []
        stack_pixels = features_mod._stack_pixels
        monkeypatch.setattr(features_mod, "STACK_CELLS", cells)
        monkeypatch.setattr(
            features_mod, "_stack_pixels", lambda masks, *args: runs.append(len(masks)) or stack_pixels(masks, *args)
        )
        proposal_feature_rows(props, frame)
        assert sum(runs) == len(props)
        assert len(runs) == len(props) if cells == 1 else 1 < len(runs) < len(props)
        assert_rows_match_reference(props, frame)

    def test_no_proposals(self):
        assert proposal_feature_rows([], Frame(t=0, intensity=np.zeros((3, 3)))).shape == (0, PROPOSAL_DIM)

    def test_mask_past_the_frame_is_refused(self):
        p = Proposal(id=7, t=0, mask=Mask(3, 0, np.ones((1, 2), dtype=bool)), raw_score=0.5)
        with pytest.raises(ValueError, match="proposal 7 extends past its 4x3 frame"):
            proposal_feature_rows([p], Frame(t=0, intensity=np.zeros((3, 4))))


def _stored_frame(rng, height, width) -> Frame:
    """Intensities k / 65535, as the pipeline stores frames, from a few
    levels, so equal pixels and equal sums of them are common."""
    levels = rng.integers(0, 65536, size=int(rng.integers(2, 6)))
    return Frame(t=0, intensity=rng.choice(levels, size=(height, width)) / 65535)


def _scene_key(frame: Frame, masks: list[Mask]) -> bytes:
    key = frame.intensity.tobytes() + bytes(frame.intensity.shape)
    return key + b"".join(m.bits.tobytes() + bytes(m.bits.shape) + bytes((m.x0, m.y0)) for m in masks)


def _proposals(masks: list[Mask]) -> list[Proposal]:
    return [Proposal(id=i, t=0, mask=m, raw_score=0.5) for i, m in enumerate(masks)]


def _check_scene(frame: Frame, masks: list[Mask]) -> bytes:
    """Check every mask's row against the reference; returns the scene as bytes."""
    assert_rows_match_reference(_proposals(masks), frame)
    return _scene_key(frame, masks)


def _outside_d2(frame: Frame, mask: Mask) -> np.ndarray:
    """Per boundary pixel whose unset 4-neighbours all lie off the frame,
    the squared distance to the nearest in-frame pixel outside the mask, by
    ``ndimage``'s exact distance transform."""
    inside = np.zeros(frame.intensity.shape, dtype=bool)
    h, w = mask.bits.shape
    inside[mask.y0 : mask.y0 + h, mask.x0 : mask.x0 + w] = mask.bits
    d2 = np.rint(ndimage.distance_transform_edt(inside) ** 2).astype(int)
    interior = ndimage.binary_erosion(inside, structure=ndimage.generate_binary_structure(2, 1), border_value=0)
    return d2[inside & ~interior & (d2 > 1)]


class TestNearestOutsidePixels:
    """Where a boundary pixel's nearest pixels outside its mask lie: the
    unset in-frame 4-neighbours, or, on the frame's edge, farther away; on
    frames quantised as the pipeline stores them."""

    def test_masks_against_every_edge_and_corner(self):
        """60 distinct frames of 2 to 12 px a side, each with one mask against
        each edge and one in each corner."""
        seen = set()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            height, width = (int(n) for n in rng.integers(2, 13, size=2))
            frame = _stored_frame(rng, height, width)
            masks = []
            # 0: against the top (left) edge, 1: the bottom (right) edge, None: anywhere
            for vert, horiz in [(0, None), (1, None), (None, 0), (None, 1), (0, 0), (0, 1), (1, 0), (1, 1)]:
                h, w = int(rng.integers(1, height + 1)), int(rng.integers(1, width + 1))
                y0 = {0: 0, 1: height - h, None: int(rng.integers(0, height - h + 1))}[vert]
                x0 = {0: 0, 1: width - w, None: int(rng.integers(0, width - w + 1))}[horiz]
                bits = rng.random((h, w)) < rng.uniform(0.4, 1.0)
                r = {0: 0, 1: h - 1, None: int(rng.integers(0, h))}[vert]
                c = {0: 0, 1: w - 1, None: int(rng.integers(0, w))}[horiz]
                bits[r, c] = True  # the mask touches the edges it is against
                masks.append(Mask(x0, y0, bits))
            seen.add(_check_scene(frame, masks))
        assert len(seen) == 60

    def test_masks_thick_along_an_edge(self):
        """80 distinct frames of 3 to 9 px a side whose masks leave only a
        few pixels out, or fill a band along an edge, so that edge pixels'
        nearest outside pixels lie at squared distances 2, 4, 5 and beyond."""
        seen, d2_seen = set(), set()
        for seed in range(80):
            rng = np.random.default_rng(seed)
            height, width = (int(n) for n in rng.integers(3, 10, size=2))
            frame = _stored_frame(rng, height, width)
            masks = []
            for _ in range(3):
                bits = np.ones((height, width), dtype=bool)
                if rng.random() < 0.5:  # the frame less a few pixels
                    n_out = int(rng.integers(1, 4))
                    bits[rng.integers(0, height, size=n_out), rng.integers(0, width, size=n_out)] = False
                else:  # a band along one edge, of random depth
                    depth = int(rng.integers(1, max(height, width)))
                    edge = int(rng.integers(0, 4))
                    if edge == 0:
                        bits[depth:] = False
                    elif edge == 1:
                        bits[: height - depth] = False
                    elif edge == 2:
                        bits[:, depth:] = False
                    else:
                        bits[:, : width - depth] = False
                if bits.all() or not bits.any():
                    bits[int(rng.integers(0, height)), int(rng.integers(0, width))] ^= True
                mask = Mask(0, 0, bits).tighten()
                masks.append(mask)
                d2_seen.update(_outside_d2(frame, mask).tolist())
            seen.add(_check_scene(frame, masks))
        assert len(seen) == 80
        assert {2, 4, 5} <= d2_seen and max(d2_seen) >= 8

    def test_masks_with_holes(self):
        """60 distinct frames of 4 to 14 px a side holding solid boxes with
        holes punched in, some against the frame's edges."""
        seen = set()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            height, width = (int(n) for n in rng.integers(4, 15, size=2))
            frame = _stored_frame(rng, height, width)
            masks = []
            for _ in range(4):
                h, w = int(rng.integers(3, height + 1)), int(rng.integers(3, width + 1))
                bits = np.ones((h, w), dtype=bool)
                n_holes = int(rng.integers(1, 4))
                bits[rng.integers(1, h - 1, size=n_holes), rng.integers(1, w - 1, size=n_holes)] = False
                y0 = int(rng.choice([0, height - h, rng.integers(0, height - h + 1)]))
                x0 = int(rng.choice([0, width - w, rng.integers(0, width - w + 1)]))
                masks.append(Mask(x0, y0, bits))
            seen.add(_check_scene(frame, masks))
        assert len(seen) == 60

    def test_one_row_and_one_column_frames(self):
        """60 distinct frames of one row or one column, 1 to 16 px long."""
        seen = set()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            length = int(rng.integers(1, 17))
            height, width = (1, length) if seed % 2 == 0 else (length, 1)
            frame = _stored_frame(rng, height, width)
            kinds = rng.choice(["pixel", "frame", "box"], size=int(rng.integers(1, 6)), p=[0.3, 0.2, 0.5])
            seen.add(_check_scene(frame, [_random_mask(rng, height, width, kind) for kind in kinds]))
        assert len(seen) == 60

    def test_single_pixels_in_the_corners(self):
        """36 distinct frames of 1 to 6 px a side, a one-pixel mask in each
        corner (one mask, the whole frame, on a 1x1 frame)."""
        seen = set()
        for height in range(1, 7):
            for width in range(1, 7):
                rng = np.random.default_rng(10 * height + width)
                frame = _stored_frame(rng, height, width)
                corners = {(0, 0), (width - 1, 0), (0, height - 1), (width - 1, height - 1)}
                seen.add(_check_scene(frame, [Mask(x, y, np.ones((1, 1), dtype=bool)) for x, y in sorted(corners)]))
        assert len(seen) == 36

    def test_whole_frame_mask(self):
        """40 distinct frames of 1 to 10 px a side: the whole frame's mask
        has no pixel outside it and zero contrast blocks; the frame less one
        pixel has one."""
        seen = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            height, width = (int(n) for n in rng.integers(1, 11, size=2))
            frame = _stored_frame(rng, height, width)
            masks = [Mask(0, 0, np.ones((height, width), dtype=bool))]
            if height * width > 1:
                bits = np.ones((height, width), dtype=bool)
                bits[int(rng.integers(0, height)), int(rng.integers(0, width))] = False
                masks.append(Mask(0, 0, bits))
            seen.add(_check_scene(frame, masks))
            rows = proposal_feature_rows(_proposals(masks), frame)
            assert not rows[0, 15:31].any()
            if len(masks) > 1:
                assert rows[1, 15:23].sum() == pytest.approx(1.0)
        assert len(seen) == 40


class TestBinIndex:
    @pytest.mark.parametrize("lo, hi, n", [(0.0, 1.0, 15), (-0.5, 0.5, 8)])
    def test_counts_as_np_histogram(self, lo, hi, n):
        edges = np.linspace(lo, hi, n + 1)
        values = np.concatenate([
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            np.arange(0, 61) / 60 * (hi - lo) + lo,
            [np.nan, -np.inf, np.inf, lo - 1.0, hi + 1.0],
        ])
        idx = _bin_index(values, lo, hi, n)
        for v, i in zip(values, idx):
            want, _ = np.histogram([v], bins=n, range=(lo, hi))
            got = np.bincount([i], minlength=n + 1)[:n]
            assert np.array_equal(got, want), (v, i)


class TestMoveFeatures:
    def setup_method(self):
        patch, bits = blob_frame(seed=7)
        self.frame_i, self.p_i = embed(patch, bits, 10, 10, pid=1, t=0)
        patch2, bits2 = blob_frame(seed=8)
        self.frame_j, self.p_j = embed(patch2, bits2, 13, 11, pid=2, t=1)

    def test_length(self):
        f = move_features(self.p_i, self.p_j, 0.8, 0.7, self.frame_i, self.frame_j)
        assert f.shape == (MOVE_DIM,)

    def test_member_blocks_and_probs(self):
        fi = proposal_features(self.p_i, self.frame_i)
        fj = proposal_features(self.p_j, self.frame_j)
        f = move_features(self.p_i, self.p_j, 0.8, 0.7, self.frame_i, self.frame_j)
        np.testing.assert_array_equal(f[0:92], fi)
        np.testing.assert_array_equal(f[92:184], fj)
        assert f[193] == 0.8
        assert f[194] == 0.7

    def test_relational_entries(self):
        f = move_features(self.p_i, self.p_j, 0.8, 0.7, self.frame_i, self.frame_j)
        assert f[184] == pytest.approx(centroid_distance(self.p_i, self.p_j))
        assert 0.0 <= f[185] <= 1.0
        assert 0.0 <= f[186] <= 1.0

    def test_precomputed_vectors_match(self):
        fi = proposal_features(self.p_i, self.frame_i)
        fj = proposal_features(self.p_j, self.frame_j)
        a = move_features(self.p_i, self.p_j, 0.8, 0.7, self.frame_i, self.frame_j)
        b = move_features(
            self.p_i, self.p_j, 0.8, 0.7, self.frame_i, self.frame_j, feat_i=fi, feat_j=fj
        )
        np.testing.assert_array_equal(a, b)

    def test_identical_proposals_zero_diff(self):
        f = move_features(self.p_i, self.p_i, 0.5, 0.5, self.frame_i, self.frame_i)
        assert f[184] == 0.0
        assert f[185] == 1.0
        assert f[186] == 1.0
        np.testing.assert_allclose(f[187:193], np.zeros(6), atol=1e-12)


def _link_scene(rng, n_props):
    """Proposals of distinct, unordered ids with masks that overlap, nest,
    touch or lie apart, some wider than 64 px, and vectors holding zeros and
    repeated values."""
    ids = rng.permutation(1000)[:n_props]
    props = []
    for pid in ids.tolist():
        if props and rng.random() < 0.5:
            base = props[int(rng.integers(0, len(props)))].mask
            h, w = base.bits.shape
            r0, c0 = int(rng.integers(0, h)), int(rng.integers(0, w))
            bits = base.bits[r0:, c0:].copy()
            bits[0, 0] = True
            mask = Mask(base.x0 + c0 + int(rng.integers(-3, 4)), base.y0 + r0 + int(rng.integers(-3, 4)), bits)
        else:
            h, w = int(rng.integers(1, 15)), int(rng.choice([int(rng.integers(1, 15)), int(rng.integers(60, 140))]))
            bits = rng.random((h, w)) < rng.uniform(0.3, 1.0)
            bits[int(rng.integers(0, h)), int(rng.integers(0, w))] = True
            mask = Mask(int(rng.integers(0, 60)), int(rng.integers(0, 30)), bits)
        props.append(Proposal(id=pid, t=int(rng.integers(0, 2)), mask=mask, raw_score=0.5))
    feats = rng.integers(0, 4, size=(n_props, PROPOSAL_DIM)) / rng.choice([1.0, 3.0, 7.0])
    feats[rng.random(n_props) < 0.2] = 0.0
    probs = rng.integers(0, 9, size=n_props) / 8.0
    return props, feats, probs


class TestLinkRowsMatchReference:
    """The matrix rows are the per-link reference rows, byte for byte."""

    def test_random_links(self):
        """100 distinct scenes of 1 to 9 proposals and 1 to 25 links of each kind."""
        seen = set()
        for seed in range(100):
            rng = np.random.default_rng(seed)
            seen.add(self.check_links(rng, int(rng.integers(1, 10)), int(rng.integers(1, 26))))
        assert len(seen) == 100

    def check_links(self, rng, n_props, n_links) -> bytes:
        """Check one scene; returns its masks, vectors and links as bytes."""
        props, feats, probs = _link_scene(rng, n_props)
        node_probs = {p.id: float(probs[k]) for k, p in enumerate(props)}
        feats_by_pid = {p.id: feats[k] for k, p in enumerate(props)}

        src, dst = rng.integers(0, n_props, size=(2, n_links))
        want = np.stack([
            move_row(props[i], props[j], probs[i], probs[j], feats[i], feats[j])
            for i, j in zip(src.tolist(), dst.tolist())
        ])
        assert move_feature_rows(props, feats, probs, src, dst).tobytes() == want.tobytes()
        pairs = [(props[i], props[j]) for i, j in zip(src.tolist(), dst.tolist())]
        assert move_feature_matrix(pairs, node_probs, feats_by_pid).tobytes() == want.tobytes()
        i, j = int(src[0]), int(dst[0])
        one = move_features(props[i], props[j], probs[i], probs[j], None, None, feat_i=feats[i], feat_j=feats[j])
        assert one.tobytes() == want[0].tobytes()

        # daughters in either order, a parent may be one of them
        parent, d1, d2 = rng.integers(0, n_props, size=(3, n_links))
        want = np.stack([
            mitosis_row(props[i], props[j], props[k], probs[i], probs[j], probs[k], feats[i], feats[j], feats[k])
            for i, j, k in zip(parent.tolist(), d1.tolist(), d2.tolist())
        ])
        assert mitosis_feature_rows(props, feats, probs, parent, d1, d2).tobytes() == want.tobytes()
        triples = [(props[i], props[j], props[k]) for i, j, k in zip(parent.tolist(), d1.tolist(), d2.tolist())]
        assert mitosis_feature_matrix(triples, node_probs, feats_by_pid).tobytes() == want.tobytes()
        i, j, k = int(parent[0]), int(d1[0]), int(d2[0])
        one = mitosis_features(
            props[i], props[j], props[k], probs[i], probs[j], probs[k], None, None,
            feat_p=feats[i], feat_d1=feats[j], feat_d2=feats[k],
        )
        assert one.tobytes() == want[0].tobytes()
        masks = b"".join(p.mask.bits.tobytes() + bytes(p.mask.bits.shape) for p in props)
        return masks + feats.tobytes() + probs.tobytes() + np.stack([src, dst, parent, d1, d2]).tobytes()

    def test_daughters_in_descending_id_order(self):
        rng = np.random.default_rng(11)
        props, feats, probs = _link_scene(rng, 6)
        order = np.argsort([p.id for p in props])
        lo, hi, parent = int(order[0]), int(order[-1]), int(order[2])
        rows = mitosis_feature_rows(props, feats, probs, [parent, parent], [hi, lo], [lo, hi])
        want = mitosis_row(props[parent], props[lo], props[hi], *probs[[parent, lo, hi]], *feats[[parent, lo, hi]])
        assert rows[0].tobytes() == rows[1].tobytes() == want.tobytes()
        assert np.array_equal(rows[0, 92:184], feats[lo])

    def test_no_links(self):
        assert move_feature_matrix([], {}, {}).shape == (0, MOVE_DIM)
        assert mitosis_feature_matrix([], {}, {}).shape == (0, MITOSIS_DIM)


class TestAlignedIou:
    def test_identical_shape_far_apart(self):
        bits = np.ones((3, 3), bool)
        a = Mask(2, 2, bits)
        b = Mask(20, 14, bits)
        assert a.centroid != b.centroid
        assert aligned_iou(a, b) == 1.0

    def test_in_place_overlap_preserved_when_centroids_match(self):
        a = Mask(2, 2, np.ones((3, 3), bool))
        b = Mask(2, 2, np.ones((3, 3), bool))
        assert aligned_iou(a, b) == 1.0


class TestMitosisFeatures:
    def setup_method(self):
        patch, bits = blob_frame(seed=20)
        self.frame_t, self.p = embed(patch, bits, 15, 15, pid=5, t=3)
        p1, b1 = blob_frame(seed=21)
        p2, b2 = blob_frame(seed=22)
        img = np.zeros((40, 40))
        img[10:17, 8:15] = p1
        img[22:29, 20:27] = p2
        self.frame_t1 = Frame(t=4, intensity=img)
        self.d1 = Proposal(id=7, t=4, mask=Mask(8, 10, b1), raw_score=0.5)
        self.d2 = Proposal(id=9, t=4, mask=Mask(20, 22, b2), raw_score=0.5)

    def test_length(self):
        f = mitosis_features(
            self.p, self.d1, self.d2, 0.9, 0.8, 0.7, self.frame_t, self.frame_t1
        )
        assert f.shape == (MITOSIS_DIM,)

    def test_daughter_order_invariance(self):
        a = mitosis_features(
            self.p, self.d1, self.d2, 0.9, 0.8, 0.7, self.frame_t, self.frame_t1
        )
        b = mitosis_features(
            self.p, self.d2, self.d1, 0.9, 0.7, 0.8, self.frame_t, self.frame_t1
        )
        np.testing.assert_array_equal(a, b)

    def test_distance_block_sorted(self):
        f = mitosis_features(
            self.p, self.d1, self.d2, 0.9, 0.8, 0.7, self.frame_t, self.frame_t1
        )
        dists = f[276:279]
        assert np.all(np.diff(dists) >= 0)
        expected = sorted(
            [
                centroid_distance(self.p, self.d1),
                centroid_distance(self.p, self.d2),
                centroid_distance(self.d1, self.d2),
            ]
        )
        np.testing.assert_allclose(dists, expected)

    def test_member_blocks(self):
        fp = proposal_features(self.p, self.frame_t)
        f1 = proposal_features(self.d1, self.frame_t1)
        f2 = proposal_features(self.d2, self.frame_t1)
        f = mitosis_features(
            self.p, self.d1, self.d2, 0.9, 0.8, 0.7, self.frame_t, self.frame_t1
        )
        np.testing.assert_array_equal(f[0:92], fp)
        np.testing.assert_array_equal(f[92:184], f1)
        np.testing.assert_array_equal(f[184:276], f2)
        np.testing.assert_array_equal(f[287:290], [0.9, 0.8, 0.7])

    def test_collinearity_entries(self):
        # Parent exactly between its daughters: zero line distance and the
        # triangle gap |d(d1,d2) - (d(p,d1) + d(p,d2))| is zero as well.
        bits = np.ones((1, 1), bool)
        img = np.zeros((30, 30))
        p = Proposal(id=0, t=0, mask=Mask(10, 10, bits), raw_score=1.0)
        d1 = Proposal(id=1, t=1, mask=Mask(6, 10, bits), raw_score=1.0)
        d2 = Proposal(id=2, t=1, mask=Mask(14, 10, bits), raw_score=1.0)
        frame = Frame(t=0, intensity=img)
        f = mitosis_features(p, d1, d2, 0.5, 0.5, 0.5, frame, Frame(t=1, intensity=img))
        assert f[285] == pytest.approx(0.0, abs=1e-12)
        assert f[286] == pytest.approx(0.0, abs=1e-12)
