import importlib.machinery
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from lineage_ilp import geometry as geometry_mod
from lineage_ilp import proposals as proposals_mod
from lineage_ilp.geometry import Mask, find_objects, label, label_masks
from lineage_ilp.io import write_proposals
from lineage_ilp.proposals import (
    _EIGHT,
    _PLANES,
    CONFLICT_COVER,
    CONFLICT_IOU,
    DEFAULT_AREA_BOUNDS,
    LOG_RESPONSE_GRID,
    LOG_RESPONSE_THRESHOLD,
    MASK_NMS_IOU,
    STABILITY_IOU,
    Frame,
    Proposal,
    _box_pairs,
    _grow_peaks,
    _log_spectra,
    _local_maxima,
    _log_stack,
    conflicts,
    log_blob_proposals,
    multi_threshold_proposals,
    otsu_threshold,
)
from lineage_ilp.sim import SimConfig, simulate
import log_reference
import overlap_reference
from support import positions


@pytest.fixture(scope="module")
def separated_scene():
    """Bright, well separated blobs: separation >= 3x blob diameter."""
    cfg = SimConfig(
        frames=1,
        width=160,
        height=160,
        initial_cells=9,
        radius_range=(3.0, 4.0),
        amplitude_range=(0.8, 0.95),
        noise_sigma=0.01,
        placement_margin=16.0,
        initial_min_separation=26.0,
    )
    return simulate(cfg, 11)


def single_marker_recall(props, markers):
    found = 0
    for track_id, x, y in markers:
        for p in props:
            if not p.mask.contains_point(x, y):
                continue
            inside = sum(p.mask.contains_point(mx, my) for _t, mx, my in markers)
            if inside == 1:
                found += 1
                break
    return found / len(markers)


class TestOtsu:
    def test_separates_bimodal(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([
            rng.normal(0.2, 0.02, 4000),
            rng.normal(0.8, 0.02, 1000),
        ]).clip(0, 1)
        thr = otsu_threshold(values.reshape(50, 100))
        assert 0.3 < thr < 0.7

    def test_constant_image(self):
        thr = otsu_threshold(np.full((8, 8), 0.25))
        assert 0.0 <= thr <= 1.0


class TestMultiThreshold:
    def test_recall_on_separated_blobs(self, separated_scene):
        frame = separated_scene.frames[0]
        markers = separated_scene.gt.markers_at(0)
        props = multi_threshold_proposals(frame)
        assert single_marker_recall(props, markers) >= 0.99

    def test_scores_in_unit_range_and_stable_blobs_score_high(self, separated_scene):
        props = multi_threshold_proposals(separated_scene.frames[0])
        assert all(0.0 <= p.raw_score <= 1.0 for p in props)
        assert max(p.raw_score for p in props) > 0.8

    def test_deterministic(self, separated_scene):
        a = multi_threshold_proposals(separated_scene.frames[0])
        b = multi_threshold_proposals(separated_scene.frames[0])
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert pa.id == pb.id and pa.mask == pb.mask and pa.raw_score == pb.raw_score

    def test_ids_sequential_from_start(self, separated_scene):
        props = multi_threshold_proposals(separated_scene.frames[0])
        assert [p.id for p in props] == list(range(len(props)))

    def test_area_bounds_respected(self, separated_scene):
        props = multi_threshold_proposals(separated_scene.frames[0], area_bounds=(9, 10000))
        assert all(9 <= p.area <= 10000 for p in props)

    def test_blank_frame_yields_nothing(self):
        frame = Frame(t=0, intensity=np.zeros((64, 64)))
        assert multi_threshold_proposals(frame) == []

    def test_surviving_nested_pairs_are_conflicts(self, separated_scene):
        props = multi_threshold_proposals(separated_scene.frames[0])
        pairs = set(map(tuple, conflicts(props).tolist()))
        by_id = {p.id: p for p in props}
        for a in props:
            for b in props:
                if a.id >= b.id or a.t != b.t:
                    continue
                inter = overlap_reference.mask_intersection_area(by_id[a.id].mask, by_id[b.id].mask)
                if inter == min(a.area, b.area):  # strict nesting or equality
                    assert tuple(positions(props, [(a.id, b.id)])[0].tolist()) in pairs


def _reference_components(binary):
    """8-connected components as tight masks, ordered by the row-major
    position of each component's first pixel."""
    labels, count = ndimage.label(np.asarray(binary, dtype=bool), structure=np.ones((3, 3), bool))
    comps = []
    for idx, sl in enumerate(ndimage.find_objects(labels), start=1):
        bits = labels[sl] == idx
        rows, cols = np.nonzero(bits)
        first = (rows[0] + sl[0].start) * labels.shape[1] + (cols[0] + sl[1].start)
        comps.append((int(first), Mask(sl[1].start, sl[0].start, bits)))
    comps.sort(key=lambda rc: rc[0])
    return [m for _, m in comps]


def _reference_multi_threshold(frame, *, levels=8, span=(0.5, 1.5), area_bounds=DEFAULT_AREA_BOUNDS):
    """The ladder scored and suppressed pair by pair: the IoU of a candidate
    with every component of every level, then mask NMS over all pairs."""
    theta = otsu_threshold(frame.intensity)
    thresholds = np.linspace(span[0] * theta, span[1] * theta, levels)
    per_level = [_reference_components(frame.intensity > thr) for thr in thresholds]
    candidates = [m for comps in per_level for m in comps if area_bounds[0] <= m.area <= area_bounds[1]]
    scores = [
        sum(any(overlap_reference.iou(c, o) > STABILITY_IOU for o in comps) for comps in per_level) / levels
        for c in candidates
    ]
    items = [(idx, scores[idx], c) for idx, c in enumerate(candidates)]
    kept = sorted(overlap_reference.mask_nms(items, MASK_NMS_IOU))
    return [
        Proposal(id=rank, t=frame.t, mask=candidates[idx], raw_score=scores[idx])
        for rank, idx in enumerate(kept)
    ]


def assert_same_proposals(got, want):
    assert [(p.id, p.t, p.raw_score) for p in got] == [(p.id, p.t, p.raw_score) for p in want]
    assert all(a.mask == b.mask for a, b in zip(got, want))


def assert_close_proposals(got, want, rel=1e-12):
    """Same ids, frames and masks; scores equal up to ``rel`` relative."""
    assert [(p.id, p.t) for p in got] == [(p.id, p.t) for p in want]
    assert all(a.mask == b.mask for a, b in zip(got, want))
    assert all(abs(a.raw_score - b.raw_score) <= rel * abs(b.raw_score) for a, b in zip(got, want))


def plateau_image(rng, size):
    """Blobs and boxes quantised to a few grey levels: wide plateaus, so
    neighbouring thresholds often cut identical components."""
    yy, xx = np.mgrid[:size, :size]
    img = np.zeros((size, size))
    for _ in range(int(rng.integers(1, 12))):
        y, x = rng.uniform(0, size, 2)
        r = rng.uniform(1.0, size / 4)
        img = np.maximum(img, rng.uniform(0.2, 1.0) * np.exp(-((yy - y) ** 2 + (xx - x) ** 2) / (2 * r * r)))
    for _ in range(int(rng.integers(0, 4))):
        y0, x0 = rng.integers(0, size - 2, 2)
        img[y0 : y0 + int(rng.integers(2, 8)), x0 : x0 + int(rng.integers(2, 8))] = rng.uniform(0.1, 1.0)
    img += rng.normal(0.0, rng.choice([0.0, 0.03, 0.1]), img.shape)
    q = int(rng.choice([3, 5, 8, 256]))
    return np.clip(np.round(img * q) / q, 0.0, 1.0)


SPANS = [(0.5, 1.5), (0.2, 1.9), (0.9, 1.1), (0.999, 1.001), (1.0, 1.0), (1.5, 0.5)]


class TestMultiThresholdMatchesReference:
    """Containment scoring and NMS keep every candidate, score and mask the
    pairwise code keeps, including equal (plateau) and reversed ladders."""

    def test_plateau_images(self):
        """80 distinct frames of 12 to 40 px a side; every level count from 2
        to 10, every span and every area bound alike often."""
        seen = set()
        for seed in range(80):
            levels, span, min_area = 2 + seed % 9, SPANS[seed % len(SPANS)], [1, 4, 9][seed % 3]
            frame = Frame(t=2, intensity=plateau_image(np.random.default_rng(seed), 12 + seed * 11 % 29))
            seen.add(frame.intensity.tobytes())
            bounds = (min_area, 10000)
            got = multi_threshold_proposals(frame, levels=levels, span=span, area_bounds=bounds)
            want = _reference_multi_threshold(frame, levels=levels, span=span, area_bounds=bounds)
            assert_same_proposals(got, want)
        assert len(seen) == 80

    @pytest.mark.parametrize("levels", [2, 5, 8, 10])
    @pytest.mark.parametrize("span", SPANS[:4])
    def test_simulated_frames(self, levels, span):
        cfg = SimConfig(frames=2, width=64, height=64, initial_cells=6, division_rate=0.1)
        for frame in simulate(cfg, levels).frames:
            got = multi_threshold_proposals(frame, levels=levels, span=span)
            assert_same_proposals(got, _reference_multi_threshold(frame, levels=levels, span=span))


class TestReferenceComponents:
    def test_diagonal_pixels_are_one_component(self):
        grid = np.array([[1, 0], [0, 1]], dtype=bool)
        comps = _reference_components(grid)
        assert len(comps) == 1
        assert comps[0].area == 2

    def test_empty_grid(self):
        assert _reference_components(np.zeros((4, 4), dtype=bool)) == []

    def test_scanline_order_and_tight_boxes(self):
        grid = np.zeros((10, 10), dtype=bool)
        grid[6:8, 1:3] = True
        grid[0, 7] = True
        grid[2:4, 4] = True
        comps = _reference_components(grid)
        firsts = [(m.y0, m.x0) for m in comps]
        assert firsts == [(0, 7), (2, 4), (6, 1)]
        assert comps[2].bits.shape == (2, 2)


class TestLogBlobs:
    def test_recall_on_separated_blobs(self, separated_scene):
        frame = separated_scene.frames[0]
        markers = separated_scene.gt.markers_at(0)
        props = log_blob_proposals(frame)
        assert single_marker_recall(props, markers) >= 0.99

    def test_blank_frame(self):
        assert log_blob_proposals(Frame(t=0, intensity=np.zeros((32, 32)))) == []

    def test_deterministic(self, separated_scene):
        a = log_blob_proposals(separated_scene.frames[0])
        b = log_blob_proposals(separated_scene.frames[0])
        assert [(p.id, p.raw_score) for p in a] == [(p.id, p.raw_score) for p in b]

    @pytest.mark.parametrize("sigmas", [(-1.0,), (0.0,), (2.0, -1.0), (float("nan"),)])
    def test_non_positive_sigma_rejected(self, separated_scene, sigmas):
        with pytest.raises(ValueError, match="positive"):
            log_blob_proposals(separated_scene.frames[0], sigmas=sigmas)


DEFAULT_SIGMAS = (1.5, 2.0, 3.0, 4.0, 6.0)


def _reference_log_stack(img, sigmas):
    return np.stack([-(s ** 2) * ndimage.gaussian_laplace(img, sigma=s, mode="nearest") for s in sigmas])


class TestLogStackMatchesReference:
    """The FFT scale stack equals scipy's nearest-mode LoG up to rounding, and
    the generator built on it keeps every id, frame and mask."""

    @pytest.mark.parametrize("sigmas", [(2.0,), DEFAULT_SIGMAS])
    @pytest.mark.parametrize("shape", [(1, 1), (2, 30), (13, 17), (64, 80), (200, 200)])
    def test_random_frames(self, sigmas, shape):
        img = np.random.default_rng(shape[0] * 7 + len(sigmas)).random(shape)
        got = _log_stack(img, sigmas)
        assert got.shape == (len(sigmas),) + shape
        assert np.abs(got - _reference_log_stack(img, sigmas)).max() <= 1e-12

    @pytest.mark.parametrize("sigmas", [(2.0,), DEFAULT_SIGMAS])
    @pytest.mark.parametrize("seed", range(6))
    def test_plateau_frames(self, sigmas, seed):
        img = plateau_image(np.random.default_rng(seed), 12 + 6 * seed)
        assert np.abs(_log_stack(img, sigmas) - _reference_log_stack(img, sigmas)).max() <= 1e-12

    def test_cached_spectra_match_fresh(self):
        img = np.random.default_rng(3).random((21, 34))
        _log_spectra.cache_clear()
        fresh = _log_stack(img, DEFAULT_SIGMAS)
        assert np.array_equal(_log_stack(img, DEFAULT_SIGMAS), fresh)
        assert _log_spectra.cache_info().hits >= 1
        assert not _log_spectra((21, 34), DEFAULT_SIGMAS).flags.writeable

    @pytest.mark.parametrize("sigmas", [(2.0,), DEFAULT_SIGMAS])
    def test_generator_on_separated_scene(self, separated_scene, monkeypatch, sigmas):
        frame = separated_scene.frames[0]
        got = log_blob_proposals(frame, sigmas=sigmas)
        monkeypatch.setattr(proposals_mod, "_log_stack", _reference_log_stack)
        want = log_blob_proposals(frame, sigmas=sigmas)
        assert len(got) > 0
        assert_close_proposals(got, want)

    def test_generator_on_plateau_frames(self):
        """Quantised frames give exactly tied responses, which scipy's
        passes reproduce bit for bit and the FFT only up to rounding.
        100 distinct frames, every size from 8 to 72."""
        seen = set()
        for seed in range(100):
            frame = Frame(t=3, intensity=plateau_image(np.random.default_rng(seed), 8 + seed * 37 % 65))
            seen.add(frame.intensity.tobytes())
            got = log_blob_proposals(frame, area_bounds=(1, 10000))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(proposals_mod, "_log_stack", _reference_log_stack)
                want = log_blob_proposals(frame, area_bounds=(1, 10000))
            assert_close_proposals(got, want)
        assert len(seen) == 100

    def test_written_proposals_repeat_byte_for_byte(self, tmp_path):
        frames = simulate(SimConfig(frames=3, width=64, height=64, initial_cells=6), 5).frames
        _log_spectra.cache_clear()  # the first run builds the spectra, the second reads them
        outputs = []
        for run in range(2):
            props = []
            for frame in frames:
                new = log_blob_proposals(frame)
                for q in new:
                    q.id += len(props)  # ids run on across frames, as the pipeline numbers them
                props += new
            path = tmp_path / f"run{run}.jsonl"
            write_proposals(path, props)
            outputs.append(path.read_bytes())
        assert len(outputs[0]) > 0
        assert outputs[0] == outputs[1]


class TestLogSpectraMatchReference:
    """The kernels built in numpy give bit for bit the spectra of the kernels
    scipy's ``gaussian_laplace`` makes from a delta.  Spectra are compared,
    not kernel grids: the grids are equal by value, but scipy leaves -0.0 in
    many zero cells of each kernel smaller than the widest, where the numpy
    build holds +0.0."""

    @staticmethod
    def assert_bitwise(shape, sigmas):
        got = _log_spectra(shape, sigmas)
        want = log_reference.log_spectra(shape, sigmas)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("shape", [(200, 200), (128, 128)])
    def test_default_sigmas(self, shape):
        self.assert_bitwise(shape, DEFAULT_SIGMAS)

    @settings(max_examples=80)
    @given(
        sigmas=st.lists(st.floats(0.3, 12.0), min_size=1, max_size=5).map(tuple),
        shape=st.tuples(st.integers(1, 90), st.integers(1, 90)),
    )
    def test_drawn_sigmas_and_shapes(self, sigmas, shape):
        self.assert_bitwise(shape, sigmas)


class TestNdimageFallback:
    """With scipy's compiled labelling modules not loadable, the wrappers
    call scipy.ndimage, and every label, slice and proposal stays the same."""

    @staticmethod
    def outputs():
        rng = np.random.default_rng(4)
        labelled = []
        for binary, structure in [
            (rng.random((40, 50)) < 0.4, _EIGHT),
            (np.zeros((9, 7), dtype=bool), _EIGHT),
            (rng.random((6, 11, 11)) < 0.5, _PLANES),
            (np.zeros((3, 5, 5), dtype=bool), _PLANES),
        ]:
            grid, count = label(binary, structure)
            labelled.append((grid.dtype, grid.tobytes(), count, find_objects(grid, count)))
        masks = label_masks(rng.integers(0, 9, size=(30, 30)) * (rng.random((30, 30)) < 0.5))
        frames = simulate(SimConfig(frames=2, width=64, height=64, initial_cells=6), 2).frames
        props = [multi_threshold_proposals(f) for f in frames]
        props += [log_blob_proposals(f) for f in frames]
        return labelled, masks, props

    def test_same_labels_slices_and_proposals(self, monkeypatch):
        compiled = self.outputs()
        assert geometry_mod._ndimage()[0] is not ndimage.label
        # with no extension suffix to try, the loader finds no module
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        geometry_mod._ndimage.cache_clear()
        try:
            assert geometry_mod._ndimage() == (ndimage.label, ndimage.find_objects)
            public = self.outputs()
        finally:
            geometry_mod._ndimage.cache_clear()  # loaded again once the patch is undone
        assert compiled[0] == public[0]
        assert compiled[1] == public[1] and len(compiled[1]) == 8
        assert sum(map(len, compiled[2])) > 0
        for got, want in zip(compiled[2], public[2]):
            assert_same_proposals(got, want)


def _reference_log_blobs(frame, **kwargs):
    """``log_blob_proposals`` with its suppression left out, then the
    candidates suppressed by the pairwise mask NMS of ``overlap_reference``;
    also returns the number of candidates."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(proposals_mod, "_suppress", lambda score, a, b: list(range(len(score))))
        candidates = log_blob_proposals(frame, **kwargs)
    items = [(k, p.raw_score, p.mask) for k, p in enumerate(candidates)]
    kept = sorted(overlap_reference.mask_nms(items, MASK_NMS_IOU))
    out = [
        Proposal(id=rank, t=frame.t, mask=candidates[k].mask, raw_score=candidates[k].raw_score)
        for rank, k in enumerate(kept)
    ]
    return out, len(candidates)


class TestLogNmsMatchesReference:
    """The LoG suppression, one kernel call and the shared greedy loop, keeps
    every id, score and mask that the pairwise mask NMS keeps."""

    @pytest.mark.parametrize("sigmas", [(2.0,), DEFAULT_SIGMAS])
    def test_separated_scene(self, separated_scene, sigmas):
        frame = separated_scene.frames[0]
        want, _ = _reference_log_blobs(frame, sigmas=sigmas)
        assert len(want) > 0
        assert_same_proposals(log_blob_proposals(frame, sigmas=sigmas), want)

    def test_plateau_frames(self):
        """60 distinct quantised frames, every size from 8 to 72."""
        seen, dropped = set(), 0
        for seed in range(60):
            frame = Frame(t=1, intensity=plateau_image(np.random.default_rng(seed), 8 + seed * 37 % 65))
            seen.add(frame.intensity.tobytes())
            want, n = _reference_log_blobs(frame, area_bounds=(1, 10000))
            assert_same_proposals(log_blob_proposals(frame, area_bounds=(1, 10000)), want)
            dropped += n - len(want)
        assert len(seen) == 60
        assert dropped > 0

    def test_simulated_frames(self):
        """Crowded, dividing scenes: many candidates grow into each other."""
        seen, dropped = set(), 0
        for seed in range(4):
            cfg = SimConfig(
                frames=3, width=80, height=80, initial_cells=14, initial_min_separation=7.0,
                placement_margin=6.0, division_rate=0.2, noise_sigma=0.04,
            )
            for frame in simulate(cfg, seed).frames:
                seen.add(frame.intensity.tobytes())
                want, n = _reference_log_blobs(frame)
                assert_same_proposals(log_blob_proposals(frame), want)
                dropped += n - len(want)
        assert len(seen) == 12
        assert dropped > 0


def _blob(shape, y, x, b, amplitude=0.9):
    """A Gaussian blob of standard deviation ``b`` centred at (y, x)."""
    yy, xx = np.mgrid[: shape[0], : shape[1]]
    return amplitude * np.exp(-((yy - y) ** 2 + (xx - x) ** 2) / (2 * b * b))


def _edge_blobs(shape, b=2.0):
    """Blobs on the four corners and the middle of each edge of a frame."""
    h, w = shape
    img = np.zeros(shape)
    corners = [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)]
    for y, x in corners + [(0, w // 2), (h - 1, w // 2), (h // 2, 0), (h // 2, w - 1)]:
        img = np.maximum(img, _blob(shape, y, x, b))
    return img


def _log_frames():
    """Simulated frames of the ``log`` generator's scenes: crowded, dividing,
    some cells entering over the edges."""
    cfg = SimConfig(
        frames=4, width=120, height=96, initial_cells=12, division_rate=0.1, enter_rate=0.2,
        placement_margin=4.0, initial_min_separation=9.0,
    )
    return [f for seed in range(3) for f in simulate(cfg, seed).frames]


def _odd_shapes():
    """Non-square, 1-row and 1-column frames, random and with edge blobs."""
    rng = np.random.default_rng(17)
    frames = []
    for shape in [(1, 1), (1, 60), (60, 1), (2, 33), (33, 2), (23, 61), (61, 23)]:
        frames.append(rng.random(shape))
        frames.append(_edge_blobs(shape))
        frames.append(plateau_image(rng, max(8, *shape))[: shape[0], : shape[1]])
    return frames


class TestLogStackMatchesBatched:
    """One inverse per sigma into a contiguous stack gives bit for bit the
    stack of one batched inverse over all sigmas."""

    @staticmethod
    def assert_same_stack(img, sigmas=DEFAULT_SIGMAS):
        got = _log_stack(img, sigmas)
        assert got.flags.c_contiguous
        assert np.array_equal(got, log_reference.batched_log_stack(img, sigmas))

    @pytest.mark.parametrize("sigmas", [(2.0,), (6.0, 1.5), DEFAULT_SIGMAS])
    def test_simulated_log_frames(self, sigmas):
        for frame in _log_frames():
            self.assert_same_stack(frame.intensity, sigmas)

    def test_plateau_frames(self):
        for seed in range(30):
            self.assert_same_stack(plateau_image(np.random.default_rng(seed), 8 + seed * 37 % 65))

    @pytest.mark.parametrize("sigmas", [(2.0,), DEFAULT_SIGMAS])
    def test_odd_shapes(self, sigmas):
        for img in _odd_shapes():
            self.assert_same_stack(img, sigmas)


class TestLogGrowthMatchesReference:
    """Every block of peaks grown by one labelling call, and only the
    candidates with overlapping boxes compared, keep every id, box, bit and
    score of the generator that grew each peak alone and compared every pair."""

    @staticmethod
    def assert_same_as_reference(frame, **kwargs):
        got = log_blob_proposals(frame, **kwargs)
        assert_same_proposals(got, log_reference.log_blob_proposals(frame, **kwargs))
        return got

    def test_simulated_log_frames(self):
        frames = _log_frames()
        assert len({f.intensity.tobytes() for f in frames}) == len(frames)
        assert sum(len(self.assert_same_as_reference(f)) for f in frames) > 100

    def test_plateau_frames(self):
        """60 distinct quantised frames, every size from 8 to 72."""
        count = 0
        for seed in range(60):
            frame = Frame(t=2, intensity=plateau_image(np.random.default_rng(seed), 8 + seed * 37 % 65))
            count += len(self.assert_same_as_reference(frame, area_bounds=(1, 10000)))
        assert count > 60

    def test_odd_shapes(self):
        count = 0
        for img in _odd_shapes():
            count += len(self.assert_same_as_reference(Frame(t=0, intensity=img), area_bounds=(1, 10000)))
        assert count > 20

    @pytest.mark.parametrize("shape", [(40, 57), (57, 40), (1, 60), (60, 1), (2, 33)])
    def test_peaks_in_every_corner_and_on_every_edge(self, shape):
        """Each peak's window is clipped by the frame on one or two sides."""
        img = _edge_blobs(shape)
        _, rows, cols, _ = _local_maxima(_log_stack(img, DEFAULT_SIGMAS))
        corners = {(0, 0), (0, shape[1] - 1), (shape[0] - 1, 0), (shape[0] - 1, shape[1] - 1)}
        assert corners <= set(zip(rows.tolist(), cols.tolist()))
        for sigmas in [(2.0,), DEFAULT_SIGMAS]:
            got = self.assert_same_as_reference(Frame(t=0, intensity=img), sigmas=sigmas, area_bounds=(1, 10000))
            assert len(got) >= 3

    def test_peaks_at_every_sigma(self):
        """One blob per scale, of that scale's own width: the windows of all
        five sizes in one block, and blocks of every sigma set."""
        img = np.zeros((40, 200))
        for k, s in enumerate(DEFAULT_SIGMAS):
            img = np.maximum(img, _blob(img.shape, 20, 15 + 38 * k, s))
        scales, _, _, _ = _local_maxima(_log_stack(img, DEFAULT_SIGMAS))
        assert sorted(set(scales.tolist())) == list(range(len(DEFAULT_SIGMAS)))
        for sigmas in [DEFAULT_SIGMAS, DEFAULT_SIGMAS[::-1], (6.0,), (1.5, 6.0)]:
            assert len(self.assert_same_as_reference(Frame(t=1, intensity=img), sigmas=sigmas)) >= 1

    def test_peak_pixel_below_its_own_level(self):
        """On a negative frame the peak's own pixel is below half its value,
        so it grows no candidate; the other blob still does."""
        img = -1.0 + _blob((30, 50), 15, 12, 2.5, amplitude=0.6) + _blob((30, 50), 15, 38, 2.5, amplitude=1.4)
        got = self.assert_same_as_reference(Frame(t=0, intensity=img), area_bounds=(1, 10000))
        assert len(got) == 1 and got[0].mask.contains_point(38, 15)
        noise = -np.random.default_rng(1).random((16, 16))  # maxima, none on a pixel of its own level
        assert len(_local_maxima(_log_stack(noise, DEFAULT_SIGMAS))[0]) > 0
        assert self.assert_same_as_reference(Frame(t=0, intensity=noise), area_bounds=(1, 10000)) == []

    def test_signed_noise_frames(self):
        """Frames of signed noise, where many peaks lie on negative pixels
        and grow nothing, between peaks that grow: 20 frames, 1 to 60 px a side."""
        skipped_between = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            img = rng.normal(size=(int(rng.integers(1, 61)), int(rng.integers(1, 61))))
            self.assert_same_as_reference(Frame(t=0, intensity=img), area_bounds=(1, 10000))
            s, r, c, value = _local_maxima(_log_stack(img, DEFAULT_SIGMAS))
            grown = [
                log_reference.grow_peak(img, int(r[k]), int(c[k]), int(np.ceil(3.0 * DEFAULT_SIGMAS[s[k]]))) is not None
                for k in np.lexsort((c, r, -value))
            ]
            skipped_between += sum(not g and any(grown[n + 1 :]) for n, g in enumerate(grown))
        assert skipped_between > 20

    def test_frames_with_no_maximum(self):
        faint = _blob((30, 30), 15, 15, 3.0, amplitude=0.03)  # responses above 0, all below the threshold
        raw = _log_stack(faint, DEFAULT_SIGMAS)
        assert 0 < raw.max() <= LOG_RESPONSE_THRESHOLD
        nan = np.full((12, 14), 0.5)
        nan[3, 4] = np.nan
        for img in (np.zeros((20, 20)), np.full((9, 31), 0.6), faint, nan):
            assert _local_maxima(_log_stack(img, DEFAULT_SIGMAS))[0].size == 0
            assert self.assert_same_as_reference(Frame(t=0, intensity=img)) == []

    def test_blocks_of_peaks(self, monkeypatch):
        """Blocks of one, of a few and of every peak give the same proposals."""
        frame = _log_frames()[0]
        want = log_blob_proposals(frame)
        for cells in (1, 5 * 37 * 37, 1 << 30):
            monkeypatch.setattr(proposals_mod, "_GROW_BLOCK_CELLS", cells)
            assert_same_proposals(log_blob_proposals(frame), want)


class TestGrowPeaks:
    def test_each_peak_as_grown_alone(self):
        """Peaks in any order, anywhere on signed frames (corners and edges
        too), each with its own window: entry p is ``grow_peak``'s mask for
        peak p, or None, and its area."""
        nones = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            h, w = int(rng.integers(1, 50)), int(rng.integers(1, 50))
            img = rng.normal(size=(h, w)) + rng.uniform(-1.0, 1.0)
            n = int(rng.integers(1, 40))
            rows = np.concatenate([[0, h - 1], rng.integers(0, h, n)])
            cols = np.concatenate([[w - 1, 0], rng.integers(0, w, n)])
            windows = rng.integers(0, 12, len(rows))
            for (r, c, win), got in zip(zip(rows, cols, windows), _grow_peaks(img, rows, cols, windows)):
                want = log_reference.grow_peak(img, int(r), int(c), int(win))
                if want is None:
                    assert got is None
                    nones += 1
                else:
                    assert got[0] == want and got[1] == want.area
        assert nones > 50


def _traced_peak(fn, *args, **kwargs):
    """The peak of memory traced by ``tracemalloc`` during one call, in MiB."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestLogMemory:
    def test_stack_peak_below_batched(self):
        """On a 200x200 frame the per-sigma inverse holds one grid of
        temporaries, the batched one a grid per sigma: 3.45 against 5.29 MiB
        traced with numpy 2.4."""
        img = np.random.default_rng(0).random((200, 200))
        _log_spectra(img.shape, DEFAULT_SIGMAS)  # cached, outside both peaks
        assert _traced_peak(_log_stack, img, DEFAULT_SIGMAS) < _traced_peak(
            log_reference.batched_log_stack, img, DEFAULT_SIGMAS
        )

    def test_uniform_noise_frame(self):
        """About 1,480 maxima, whose grown regions crowd each other: the
        peaks grow in blocks and only box-overlapping pairs are counted.
        Traced peak 11-14 MiB with numpy 2.4 over three seeds; every pair
        counted at once, as the reference does, took 164-171 MiB."""
        frame = Frame(t=0, intensity=np.random.default_rng(0).random((200, 200)))
        got = log_blob_proposals(frame)
        assert len(got) > 1000
        assert_same_proposals(got, log_reference.log_blob_proposals(frame))
        assert _traced_peak(log_blob_proposals, frame) < 32.0


def _max_filter_3(stack):
    """``ndimage.maximum_filter(stack, size=3, mode="nearest")`` on a 3-d
    stack, as three shifted maxima per axis over an edge-padded copy; unlike
    scipy's filter, a NaN in a window makes its maximum NaN."""
    p = np.pad(stack, 1, mode="edge")
    p = np.maximum(np.maximum(p[:-2], p[1:-1]), p[2:])
    p = np.maximum(np.maximum(p[:, :-2], p[:, 1:-1]), p[:, 2:])
    return np.maximum(np.maximum(p[:, :, :-2], p[:, :, 1:-1]), p[:, :, 2:])


def _reference_max_filter(stack):
    return ndimage.maximum_filter(stack, size=3, mode="nearest")


def _dense_local_maxima(raw, max_filter=_max_filter_3):
    """The dense form of ``_local_maxima``: snap the whole stack and keep the
    responses above the threshold that equal their 3x3x3 maximum."""
    stack = np.rint(raw / LOG_RESPONSE_GRID) * LOG_RESPONSE_GRID
    s, r, c = np.nonzero((max_filter(stack) == stack) & (stack > LOG_RESPONSE_THRESHOLD))
    return s, r, c, stack[s, r, c]


def assert_same_maxima(raw, filters=(_max_filter_3, _reference_max_filter)):
    """``_local_maxima`` equals the dense test over each filter; returns it."""
    got = _local_maxima(raw)
    for max_filter in filters:
        want = _dense_local_maxima(raw, max_filter)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
    return got


class TestLogMaxFilterMatchesReference:
    """The support-only local-maximum test finds exactly the peaks, values
    and order of the dense 3x3x3 maximum filter over the snapped stack."""

    @pytest.mark.parametrize("depth", [1, 2, 5])
    @pytest.mark.parametrize("quantum", [2, 7, None])
    def test_stacks_with_ties(self, depth, quantum):
        rng = np.random.default_rng(depth * 31 + (quantum or 0))
        for shape in [(depth, 1, 1), (depth, 1, 9), (depth, 7, 1), (depth, 13, 17)]:
            stack = rng.normal(size=shape)
            if quantum is not None:  # many equal neighbours
                stack = np.round(stack * quantum) / quantum
            assert np.array_equal(_max_filter_3(stack), _reference_max_filter(stack))
            assert_same_maxima(stack)
            # every scale the same plane: each response ties its neighbours across scales
            assert_same_maxima(np.broadcast_to(stack[:1], shape))

    def test_plateau_stacks(self):
        """The scale stacks of 100 distinct quantised frames, every size from 8 to 72."""
        seen, peaks = set(), 0
        for seed in range(100):
            img = plateau_image(np.random.default_rng(seed), 8 + seed * 37 % 65)
            seen.add(img.tobytes())
            peaks += len(assert_same_maxima(_log_stack(img, DEFAULT_SIGMAS))[0])
        assert len(seen) == 100
        assert peaks > 100

    @pytest.mark.parametrize(
        "shape", [(1, 1, 1), (1, 1, 6), (1, 6, 1), (4, 1, 1), (1, 4, 5), (3, 1, 5), (3, 4, 1), (3, 4, 5)]
    )
    def test_peak_on_every_face(self, shape):
        """A single peak at every position of the box, corners and faces
        included, over a blank stack and over an above-threshold plateau
        (where every response ties its neighbours and is a maximum)."""
        for pos in np.ndindex(*shape):
            for ground in (0.0, 0.5):
                stack = np.full(shape, ground)
                stack[pos] = 1.0
                s, r, c, value = assert_same_maxima(stack)
                if ground == 0.0:
                    assert list(zip(s, r, c)) == [pos]
                    assert value.tolist() == [1.0]
                else:
                    assert pos in set(zip(s, r, c))
                    assert value.max() == 1.0

    def test_responses_at_the_threshold(self):
        """Responses within a few grid steps either side of the threshold:
        the support keeps every one whose snap clears it, and snap midpoints
        round as in the dense stack."""
        g, step = LOG_RESPONSE_GRID, np.floor(LOG_RESPONSE_THRESHOLD / LOG_RESPONSE_GRID)
        band = np.concatenate([
            (step + np.arange(-4, 7) / 2) * g,  # grid points and the midpoints between them
            LOG_RESPONSE_THRESHOLD + np.arange(-4, 5) * g / 4,
            [np.nextafter(LOG_RESPONSE_THRESHOLD - g, 1.0), LOG_RESPONSE_THRESHOLD],
        ])
        assert np.abs(band - LOG_RESPONSE_THRESHOLD).max() < 3 * g
        above = below = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            stack = rng.choice(band, size=(3, 6, 7))
            _, _, _, value = assert_same_maxima(stack)
            above += len(value)
            below += int((np.rint(stack / g) * g <= LOG_RESPONSE_THRESHOLD).sum())
        assert above > 0 and below > 0
        for ground in (band.min(), band.max()):  # one flat stack: every response a maximum or none
            assert_same_maxima(np.full((2, 3, 4), ground))

    def test_blank_and_negative_frames(self):
        rng = np.random.default_rng(5)
        for stack in (np.zeros((5, 9, 8)), -rng.random((5, 9, 8)), np.full((1, 1, 1), -1.0)):
            s, r, c, value = assert_same_maxima(stack)
            assert len(s) == len(r) == len(c) == len(value) == 0
        for level in (0.0, 0.7, 1.0):  # flat frames: every response rounds to about 0
            frame = Frame(t=0, intensity=np.full((20, 20), level))
            assert _local_maxima(_log_stack(frame.intensity, DEFAULT_SIGMAS))[0].size == 0
            assert log_blob_proposals(frame) == []

    def test_nan_responses(self):
        """A NaN is no maximum and keeps every neighbour from being one, as
        in the dense filter built from ``np.maximum``."""
        rng = np.random.default_rng(11)
        peaks = 0
        for _ in range(10):
            stack = np.round(rng.normal(size=(3, 8, 9)) * 4) / 4
            stack[tuple(rng.integers(0, (3, 8, 9), size=(4, 3)).T)] = np.nan
            peaks += len(assert_same_maxima(stack, filters=(_max_filter_3,))[0])
        for pos in [(0, 0, 0), (1, 2, 3), (2, 7, 8), (1, 4, 0)]:  # in a plateau, every neighbour is hit
            plateau = np.full((3, 8, 9), 0.5)
            plateau[pos] = np.nan
            peaks += len(assert_same_maxima(plateau, filters=(_max_filter_3,))[0])
        assert peaks > 0

    def test_cropped_view(self):
        """``_log_stack`` returns a contiguous stack, but ``_local_maxima``
        reads any stack it is given, a strided crop as well."""
        full = np.round(np.random.default_rng(2).normal(size=(4, 15, 24)) * 3) / 3
        assert_same_maxima(full[:, 2:-3, 5:-6])

    @pytest.mark.parametrize("sigmas", [(2.0,), (1.5, 2.0, 3.0, 4.0, 6.0)])
    def test_generator_unchanged(self, separated_scene, monkeypatch, sigmas):
        frame = separated_scene.frames[0]
        got = log_blob_proposals(frame, sigmas=sigmas)
        monkeypatch.setattr(proposals_mod, "_local_maxima", _dense_local_maxima)
        want = log_blob_proposals(frame, sigmas=sigmas)
        assert len(got) > 0
        assert_same_proposals(got, want)


def box_prop(id, t, x0, y0, w, h):
    return Proposal(id=id, t=t, mask=Mask(x0, y0, np.ones((h, w), dtype=bool)), raw_score=0.5)


class TestConflicts:
    def test_nested_flagged_by_containment(self):
        outer = box_prop(1, 0, 0, 0, 10, 10)
        inner = box_prop(2, 0, 2, 2, 4, 4)  # IoU 0.16 but fully contained
        assert conflicts([outer, inner]).tolist() == [[0, 1]]

    def test_high_iou_flagged(self):
        a = box_prop(1, 0, 0, 0, 10, 10)
        b = box_prop(2, 0, 1, 0, 10, 10)  # IoU 90/110 ~ 0.82
        assert conflicts([a, b]).tolist() == [[0, 1]]

    def test_mild_overlap_not_flagged(self):
        a = box_prop(1, 0, 0, 0, 10, 10)
        b = box_prop(2, 0, 6, 0, 10, 10)  # IoU 40/160 = 0.25, cover 0.4
        assert conflicts([a, b]).tolist() == []

    def test_different_frames_never_conflict(self):
        a = box_prop(1, 0, 0, 0, 10, 10)
        b = box_prop(2, 1, 0, 0, 10, 10)
        assert conflicts([a, b]).tolist() == []

    def test_thresholds_are_strict(self):
        assert (CONFLICT_IOU, CONFLICT_COVER) == (0.5, 0.8)
        # two 3x10 boxes one column apart: IoU exactly 0.5, cover 2/3
        a = box_prop(1, 0, 0, 0, 3, 10)
        assert conflicts([a, box_prop(2, 0, 1, 0, 3, 10)]).tolist() == []
        assert conflicts([a, box_prop(2, 0, 0, 0, 3, 10)]).tolist() == [[0, 1]]
        # a 5x10 box hanging one column outside a 10x10 box: cover exactly 0.8, IoU 40/110
        outer = box_prop(1, 0, 0, 0, 10, 10)
        assert conflicts([outer, box_prop(2, 0, 6, 0, 5, 10)]).tolist() == []
        assert conflicts([outer, box_prop(2, 0, 5, 0, 5, 10)]).tolist() == [[0, 1]]


def _random_bits(rng, h, w):
    bits = rng.random((h, w)) < rng.uniform(0.3, 1.0)
    bits[int(rng.integers(0, h)), int(rng.integers(0, w))] = True
    return bits


def _placed_mask(rng, masks):
    """A new mask: on its own, or nested in, shifted from, clear of or
    against an edge of one of ``masks``; widths run past 64 px."""
    kind = str(rng.choice(["own", "nested", "shifted", "disjoint", "edge"])) if masks else "own"
    if kind == "own":
        h, w = int(rng.integers(1, 16)), int(rng.integers(1, 150))
        return Mask(int(rng.integers(-40, 40)), int(rng.integers(-20, 20)), _random_bits(rng, h, w))
    a = masks[int(rng.integers(0, len(masks)))]
    h, w = a.bits.shape
    if kind == "nested":
        r0, c0 = int(rng.integers(0, h)), int(rng.integers(0, w))
        r1, c1 = int(rng.integers(r0, h)) + 1, int(rng.integers(c0, w)) + 1
        bits = a.bits[r0:r1, c0:c1] & (rng.random((r1 - r0, c1 - c0)) < 0.9)
        if not bits.any():
            bits = a.bits[r0:r1, c0:c1] | ~a.bits[r0:r1, c0:c1]
        return Mask(a.x0 + c0, a.y0 + r0, bits)
    if kind == "shifted":
        return Mask(a.x0 + int(rng.integers(-3, 4)), a.y0 + int(rng.integers(-3, 4)), a.bits)
    bh, bw = int(rng.integers(1, 10)), int(rng.integers(1, 100))
    bits = _random_bits(rng, bh, bw)
    if kind == "disjoint":
        return Mask(a.x0 + w + int(rng.integers(0, 40)), a.y0 + int(rng.integers(-bh, h)), bits)
    inset = int(rng.integers(0, 2))  # 0: touching from outside, 1: one px over
    if rng.random() < 0.5:
        return Mask(a.x0 + w - inset, a.y0 + int(rng.integers(-bh + 1, h)), bits)
    return Mask(a.x0 + int(rng.integers(-bw + 1, w)), a.y0 - bh + inset, bits)


class TestConflictsMatchReference:
    """One kernel call per frame flags exactly the pairs that the pairwise
    IoU and cover tests of ``overlap_reference`` flag."""

    def test_random_multi_frame_lists(self):
        """80 distinct lists of 1 to 40 proposals over up to 4 frames, with
        ids out of frame order and the list shuffled."""
        seen, flagged, overlapping = set(), 0, 0
        for seed in range(80):
            rng = np.random.default_rng(seed)
            frames = sorted(rng.choice(10, size=int(rng.integers(1, 5)), replace=False).tolist())
            per_frame = {t: [] for t in frames}
            n = int(rng.integers(1, 41))
            for t in rng.choice(frames, size=n).tolist():
                per_frame[t].append(_placed_mask(rng, per_frame[t]))
            ids = rng.permutation(np.arange(n) * 3 + 7).tolist()
            props = [Proposal(id=ids.pop(), t=t, mask=m, raw_score=0.5) for t in frames for m in per_frame[t]]
            rng.shuffle(props)
            seen.add(repr([(p.id, p.t, p.mask.x0, p.mask.y0, p.mask.bits.tobytes()) for p in props]))
            want = overlap_reference.conflicts(props, CONFLICT_IOU, CONFLICT_COVER)
            assert conflicts(props).tolist() == positions(props, want).tolist()
            flagged += len(want)
            overlapping += len(overlap_reference.conflicts(props, 0.0, 0.0))
        assert len(seen) == 80
        assert 100 < flagged < overlapping - 100  # pairs both flagged and overlapping unflagged
        assert conflicts([]).shape == (0, 2)


def _grids_share_a_pixel(a, b):
    return (
        max(a.x0, b.x0) < min(a.x0 + a.bits.shape[1], b.x0 + b.bits.shape[1])
        and max(a.y0, b.y0) < min(a.y0 + a.bits.shape[0], b.y0 + b.bits.shape[0])
    )


class TestBoxPairs:
    """The prefilter before the overlap kernel drops only the pairs whose
    grids share no pixel, so no pair that overlaps is lost."""

    def test_edge_touching_boxes(self):
        a = box_prop(1, 0, 10, 10, 5, 4)
        for x0, y0, w, h, shared in [
            (15, 10, 3, 4, False), (5, 10, 5, 4, False), (10, 14, 5, 2, False), (10, 6, 5, 4, False),
            (15, 14, 2, 2, False), (5, 6, 5, 4, False),  # corners
            (14, 10, 3, 4, True), (5, 10, 6, 4, True), (10, 13, 5, 2, True), (14, 13, 2, 2, True),
        ]:
            b = box_prop(2, 0, x0, y0, w, h)
            i, j = _box_pairs([a.mask, b.mask])
            assert (len(i) == 1) == shared == _grids_share_a_pixel(a.mask, b.mask)
            assert (overlap_reference.mask_intersection_area(a.mask, b.mask) > 0) == shared
            want = overlap_reference.conflicts([a, b], CONFLICT_IOU, CONFLICT_COVER)
            assert conflicts([a, b]).tolist() == positions([a, b], want).tolist()

    def test_random_lists_against_every_pair(self):
        """60 lists of up to 40 masks, nested, shifted, disjoint and touching
        at an edge: the pairs are exactly those whose grids share a pixel,
        each once with i < j, and hold every pair whose masks share one."""
        touching = overlapping = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            masks = []
            for _ in range(int(rng.integers(1, 41))):
                masks.append(_placed_mask(rng, masks))
            i, j = _box_pairs(masks)
            got = list(zip(i.tolist(), j.tolist()))
            assert len(got) == len(set(got))
            want = {(a, b) for a in range(len(masks)) for b in range(a + 1, len(masks))
                    if _grids_share_a_pixel(masks[a], masks[b])}
            assert set(got) == want
            for a in range(len(masks)):
                for b in range(a + 1, len(masks)):
                    inter = overlap_reference.mask_intersection_area(masks[a], masks[b])
                    assert inter == 0 or (a, b) in want
                    overlapping += inter > 0
                    touching += not _grids_share_a_pixel(masks[a], masks[b]) and (
                        masks[a].x0 + masks[a].bits.shape[1] == masks[b].x0
                        or masks[b].x0 + masks[b].bits.shape[1] == masks[a].x0
                    )
        assert overlapping > 100 and touching > 20
