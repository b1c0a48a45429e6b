import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from lineage_ilp import proposals as proposals_mod
from lineage_ilp.geometry import Mask, iou_mask, nms
from lineage_ilp.io import write_proposals
from lineage_ilp.proposals import (
    DEFAULT_AREA_BOUNDS,
    MASK_NMS_IOU,
    STABILITY_IOU,
    Frame,
    Proposal,
    _log_spectra,
    _log_stack,
    _max_filter_3,
    conflicts,
    log_blob_proposals,
    multi_threshold_proposals,
    otsu_threshold,
)
from lineage_ilp.sim import SimConfig, simulate


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
        props = multi_threshold_proposals(separated_scene.frames[0], start_id=100)
        assert [p.id for p in props] == list(range(100, 100 + len(props)))

    def test_area_bounds_respected(self, separated_scene):
        props = multi_threshold_proposals(separated_scene.frames[0], area_bounds=(9, 10000))
        assert all(9 <= p.area <= 10000 for p in props)

    def test_blank_frame_yields_nothing(self):
        frame = Frame(t=0, intensity=np.zeros((64, 64)))
        assert multi_threshold_proposals(frame) == []

    def test_surviving_nested_pairs_are_conflicts(self, separated_scene):
        props = multi_threshold_proposals(separated_scene.frames[0])
        pairs = set(conflicts(props))
        by_id = {p.id: p for p in props}
        for a in props:
            for b in props:
                if a.id >= b.id or a.t != b.t:
                    continue
                inter = _inter(by_id[a.id].mask, by_id[b.id].mask)
                if inter == min(a.area, b.area):  # strict nesting or equality
                    assert (a.id, b.id) in pairs


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
        sum(any(iou_mask(c, o) > STABILITY_IOU for o in comps) for comps in per_level) / levels
        for c in candidates
    ]
    items = [(idx, scores[idx], c) for idx, c in enumerate(candidates)]
    kept = sorted(nms(items, threshold=MASK_NMS_IOU, mode="mask"))
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

    @settings(max_examples=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        levels=st.integers(2, 10),
        span=st.sampled_from(SPANS),
        size=st.integers(12, 40),
        min_area=st.sampled_from([1, 4, 9]),
    )
    def test_plateau_images(self, seed, levels, span, size, min_area):
        frame = Frame(t=2, intensity=plateau_image(np.random.default_rng(seed), size))
        bounds = (min_area, 10000)
        got = multi_threshold_proposals(frame, levels=levels, span=span, area_bounds=bounds)
        want = _reference_multi_threshold(frame, levels=levels, span=span, area_bounds=bounds)
        assert_same_proposals(got, want)

    @pytest.mark.parametrize("levels", [2, 5, 8, 10])
    @pytest.mark.parametrize("span", SPANS[:4])
    def test_simulated_frames(self, levels, span):
        cfg = SimConfig(frames=2, width=64, height=64, initial_cells=6, division_rate=0.1)
        for frame in simulate(cfg, levels).frames:
            got = multi_threshold_proposals(frame, levels=levels, span=span, start_id=40)
            want = _reference_multi_threshold(frame, levels=levels, span=span)
            assert_same_proposals(got, [
                Proposal(id=40 + p.id, t=p.t, mask=p.mask, raw_score=p.raw_score) for p in want
            ])


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


def _inter(a, b):
    from lineage_ilp.geometry import mask_intersection_area

    return mask_intersection_area(a, b)


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
        got = log_blob_proposals(frame, sigmas=sigmas, start_id=5)
        monkeypatch.setattr(proposals_mod, "_log_stack", _reference_log_stack)
        want = log_blob_proposals(frame, sigmas=sigmas, start_id=5)
        assert len(got) > 0
        assert_close_proposals(got, want)

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(8, 72))
    def test_generator_on_plateau_frames(self, seed, size):
        """Quantised frames give exactly tied responses, which scipy's
        passes reproduce bit for bit and the FFT only up to rounding."""
        frame = Frame(t=3, intensity=plateau_image(np.random.default_rng(seed), size))
        got = log_blob_proposals(frame, area_bounds=(1, 10000))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(proposals_mod, "_log_stack", _reference_log_stack)
            want = log_blob_proposals(frame, area_bounds=(1, 10000))
        assert_close_proposals(got, want)

    def test_written_proposals_repeat_byte_for_byte(self, tmp_path):
        frames = simulate(SimConfig(frames=3, width=64, height=64, initial_cells=6), 5).frames
        _log_spectra.cache_clear()  # the first run builds the spectra, the second reads them
        outputs = []
        for run in range(2):
            props = []
            for frame in frames:
                props += log_blob_proposals(frame, start_id=len(props))
            path = tmp_path / f"run{run}.jsonl"
            write_proposals(path, props)
            outputs.append(path.read_bytes())
        assert len(outputs[0]) > 0
        assert outputs[0] == outputs[1]


def _reference_max_filter(stack):
    return ndimage.maximum_filter(stack, size=3, mode="nearest")


class TestLogMaxFilterMatchesReference:
    @pytest.mark.parametrize("depth", [1, 2, 5])
    @pytest.mark.parametrize("quantum", [2, 7, None])
    def test_stacks_with_ties(self, depth, quantum):
        rng = np.random.default_rng(depth * 31 + (quantum or 0))
        for shape in [(depth, 1, 1), (depth, 1, 9), (depth, 7, 1), (depth, 13, 17)]:
            stack = rng.normal(size=shape)
            if quantum is not None:  # many equal neighbours
                stack = np.round(stack * quantum) / quantum
            assert np.array_equal(_max_filter_3(stack), _reference_max_filter(stack))

    @pytest.mark.parametrize("sigmas", [(2.0,), (1.5, 2.0, 3.0, 4.0, 6.0)])
    def test_generator_unchanged(self, separated_scene, monkeypatch, sigmas):
        frame = separated_scene.frames[0]
        got = log_blob_proposals(frame, sigmas=sigmas)
        monkeypatch.setattr(proposals_mod, "_max_filter_3", _reference_max_filter)
        want = log_blob_proposals(frame, sigmas=sigmas)
        assert len(got) > 0
        assert_same_proposals(got, want)


def box_prop(id, t, x0, y0, w, h):
    return Proposal(id=id, t=t, mask=Mask(x0, y0, np.ones((h, w), dtype=bool)), raw_score=0.5)


class TestConflicts:
    def test_nested_flagged_by_containment(self):
        outer = box_prop(1, 0, 0, 0, 10, 10)
        inner = box_prop(2, 0, 2, 2, 4, 4)  # IoU 0.16 but fully contained
        assert conflicts([outer, inner]) == [(1, 2)]

    def test_high_iou_flagged(self):
        a = box_prop(1, 0, 0, 0, 10, 10)
        b = box_prop(2, 0, 1, 0, 10, 10)  # IoU 90/110 ~ 0.82
        assert conflicts([a, b]) == [(1, 2)]

    def test_mild_overlap_not_flagged(self):
        a = box_prop(1, 0, 0, 0, 10, 10)
        b = box_prop(2, 0, 6, 0, 10, 10)  # IoU 40/160 = 0.25, cover 0.4
        assert conflicts([a, b]) == []

    def test_different_frames_never_conflict(self):
        a = box_prop(1, 0, 0, 0, 10, 10)
        b = box_prop(2, 1, 0, 0, 10, 10)
        assert conflicts([a, b]) == []

    def test_thresholds_are_strict(self):
        a = box_prop(1, 0, 0, 0, 10, 10)
        b = box_prop(2, 0, 0, 5, 10, 10)  # cover exactly 0.5 each, IoU 1/3
        assert conflicts([a, b], c1=1.0 / 3.0, c2=0.5) == []
