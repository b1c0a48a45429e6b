"""Segmentation proposals: multi-threshold and blob generators plus conflict pairs."""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .geometry import Mask, mask_intersection_area, nms

# Overlap threshold for candidate pruning.
MASK_NMS_IOU = 0.7
# IoU above which a component counts as recurring at another threshold level.
STABILITY_IOU = 0.5

# Scale-normalized LoG response below which an extremum is not a blob.
LOG_RESPONSE_THRESHOLD = 0.02
# Responses are snapped to multiples of this (about 1.5e-11), far above FFT
# rounding (about 1e-15 on [0, 1] frames).
LOG_RESPONSE_GRID = 2.0 ** -36

DEFAULT_AREA_BOUNDS = (9, 10000)
_EIGHT = np.ones((3, 3), dtype=bool)
DEFAULT_CONFLICT_IOU = 0.5      # c1
DEFAULT_CONFLICT_COVER = 0.8    # c2


@dataclass
class Frame:
    """One image of a sequence, intensities in [0, 1]."""

    t: int
    intensity: np.ndarray

    def __post_init__(self):
        self.intensity = np.asarray(self.intensity, dtype=np.float64)
        if self.intensity.ndim != 2:
            raise ValueError("frame intensity must be 2-d")


@dataclass
class Proposal:
    """Candidate cell region: tight mask plus the generator's confidence."""

    id: int
    t: int
    mask: Mask
    raw_score: float

    @property
    def centroid(self) -> tuple[float, float]:
        return self.mask.centroid

    @property
    def area(self) -> int:
        return self.mask.area


def otsu_threshold(intensity: np.ndarray) -> float:
    """Between-class variance maximizer over a 256-bin histogram of [0, 1]."""
    hist, edges = np.histogram(np.asarray(intensity, dtype=np.float64), bins=256, range=(0.0, 1.0))
    total = hist.sum()
    if total == 0:
        return 0.5
    centers = (edges[:-1] + edges[1:]) / 2.0
    p = hist / total
    omega = np.cumsum(p)
    mu = np.cumsum(p * centers)
    mu_total = mu[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma_b = (mu_total * omega - mu) ** 2 / (omega * (1.0 - omega))
    sigma_b = np.nan_to_num(sigma_b, nan=-1.0, posinf=-1.0, neginf=-1.0)
    if sigma_b.max() < 0:
        return float(centers[int(np.argmax(hist))])
    # The criterion is flat wherever the histogram is empty; take the middle
    # of the plateau so the threshold sits between the modes.
    plateau = np.flatnonzero(sigma_b == sigma_b.max())
    return float(centers[int(plateau[(len(plateau) - 1) // 2])])


def multi_threshold_proposals(
    frame: Frame,
    *,
    levels: int = 8,
    span: tuple[float, float] = (0.5, 1.5),
    area_bounds: tuple[int, int] = DEFAULT_AREA_BOUNDS,
    start_id: int = 0,
) -> list[Proposal]:
    """Components over a ladder of thresholds around Otsu's level.

    A candidate's raw score is the fraction of threshold levels at which a
    component recurs with IoU above ``STABILITY_IOU``; near-duplicates are
    removed with mask NMS at ``MASK_NMS_IOU``.

    The level sets of a ladder are nested, so its components form a tree: a
    component lies inside exactly one component of each level with a lower
    (or equal) threshold and is disjoint from all the others there.  Two
    components therefore overlap only when one contains the other, and then
    their IoU is ``area_small / area_big``.  Scoring and NMS read only the
    component areas and this containment map, never a pair of masks.
    """
    if levels < 2:
        raise ValueError("need at least 2 threshold levels")
    theta = otsu_threshold(frame.intensity)
    thresholds = np.linspace(span[0] * theta, span[1] * theta, levels)
    ladder = [_Components(frame.intensity > thr) for thr in thresholds]

    # candidates are the components within the area bounds, level by level;
    # index[l] maps each component of level l to its candidate number or -1
    members, index, n = [], [], 0
    for lv in ladder:
        ok = np.flatnonzero((lv.area >= area_bounds[0]) & (lv.area <= area_bounds[1]))
        index.append(np.full(len(lv.area), -1))
        index[-1][ok] = np.arange(n, n + len(ok))
        members.append(ok)
        n += len(ok)
    if n == 0:
        return []

    hits = [np.ones(len(lv.area), dtype=np.int64) for lv in ladder]  # each recurs at its own level
    overlapping: list[list[int]] = [[] for _ in range(n)]
    for l, j in itertools.permutations(range(levels), 2):
        if thresholds[j] > thresholds[l]:
            continue
        fine, coarse = ladder[l], ladder[j]
        up = coarse.labels.ravel()[fine.pixel] - 1  # the component of level j holding each of level l
        iou = fine.area / coarse.area[up]
        hits[l] += iou > STABILITY_IOU
        if thresholds[j] < thresholds[l]:
            largest = np.zeros(len(coarse.area), dtype=np.int64)
            np.maximum.at(largest, up, fine.area)
            hits[j] += largest / coarse.area > STABILITY_IOU
        pairs = (index[l] >= 0) & (index[j][up] >= 0) & (iou > MASK_NMS_IOU)
        for a, b in zip(index[l][pairs].tolist(), index[j][up[pairs]].tolist()):
            overlapping[a].append(b)
            overlapping[b].append(a)
    score = np.concatenate([hit[ok] for hit, ok in zip(hits, members)]) / levels

    # greedy NMS: by descending score, ties to the lower index
    dropped = [False] * n
    kept = []
    for k in np.argsort(-score, kind="stable").tolist():
        if not dropped[k]:
            kept.append(k)
            for other in overlapping[k]:
                dropped[other] = True

    level_of = np.repeat(np.arange(levels), [len(ok) for ok in members])
    label_of = np.concatenate(members) + 1
    objects: dict[int, list] = {}
    out = []
    for rank, k in enumerate(sorted(kept)):
        l, label = int(level_of[k]), int(label_of[k])
        if l not in objects:
            objects[l] = ndimage.find_objects(ladder[l].labels)
        sl = objects[l][label - 1]
        mask = Mask(sl[1].start, sl[0].start, ladder[l].labels[sl] == label)
        out.append(Proposal(id=start_id + rank, t=frame.t, mask=mask, raw_score=float(score[k])))
    return out


class _Components:
    """8-connected components of one threshold level: the label grid, each
    component's area and one of its pixels (flat index), by label - 1.

    ``ndimage.label`` numbers components in raster order of their first
    pixel, so label order is the row-major scan order of the components.
    """

    def __init__(self, binary: np.ndarray):
        self.labels, count = ndimage.label(binary, structure=_EIGHT)
        flat = self.labels.ravel()
        fg = np.flatnonzero(flat)
        self.area = np.bincount(flat[fg], minlength=count + 1)[1:]
        self.pixel = np.empty(count, dtype=np.intp)
        self.pixel[flat[fg] - 1] = fg  # any pixel of a component will do


def _fft_size(n: int) -> int:
    """The smallest 5-smooth length >= n (only factors 2, 3 and 5): fast for the FFT."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _log_grid(shape: tuple[int, ...], sigmas: tuple[float, ...]) -> tuple[int, tuple[int, int]]:
    """Padding radius R of the widest kernel (scipy's ``truncate=4.0``) and
    the FFT grid, at least H + 2R by W + 2R."""
    radius = max(int(4.0 * s + 0.5) for s in sigmas)
    return radius, (_fft_size(shape[0] + 2 * radius), _fft_size(shape[1] + 2 * radius))


@functools.lru_cache(maxsize=8)
def _log_spectra(shape: tuple[int, ...], sigmas: tuple[float, ...]) -> np.ndarray:
    """Half-spectra of the kernels ``-(s**2) * LoG_s`` for frames of ``shape``.

    Each kernel is scipy's own: its response to a centred delta, rolled so
    the centre sits at the origin of the FFT grid.  Read-only, because the
    cache hands the same array to every caller.
    """
    radius, size = _log_grid(shape, sigmas)
    width = 2 * radius + 1
    delta = np.zeros((width, width))
    delta[radius, radius] = 1.0
    kernels = np.zeros((len(sigmas),) + size)
    for k, s in enumerate(sigmas):
        kernels[k, :width, :width] = -(s ** 2) * ndimage.gaussian_laplace(delta, sigma=s, mode="constant")
    spectra = np.fft.rfft2(np.roll(kernels, (-radius, -radius), axis=(1, 2)))
    spectra.flags.writeable = False
    return spectra


def _log_stack(img: np.ndarray, sigmas: tuple[float, ...]) -> np.ndarray:
    """``-(s**2) * gaussian_laplace(img, s, mode="nearest")`` for every sigma,
    as one ``(len(sigmas), H, W)`` stack from one forward FFT and one batched
    inverse.

    The frame is edge-padded once by the widest kernel radius R.  Edge
    padding commutes with a separable filter, so the linear convolution of
    the padded frame equals scipy's nearest-mode passes up to rounding; the
    FFT grid is at least H + 2R per axis, so the crop reads no wrapped value.
    """
    radius, size = _log_grid(img.shape, sigmas)
    h, w = img.shape
    spectrum = np.fft.rfft2(np.pad(img, radius, mode="edge"), s=size)
    # irfft2's two steps, apart, so that the rows outside the crop skip the second
    rows = np.fft.ifft(_log_spectra(img.shape, sigmas) * spectrum, axis=1)[:, radius : radius + h]
    return np.fft.irfft(rows, n=size[1], axis=2)[:, :, radius : radius + w]


def _max_filter_3(stack: np.ndarray) -> np.ndarray:
    """``ndimage.maximum_filter(stack, size=3, mode="nearest")`` on a 3-d
    stack, as three shifted maxima per axis over an edge-padded copy."""
    p = np.pad(stack, 1, mode="edge")
    p = np.maximum(np.maximum(p[:-2], p[1:-1]), p[2:])
    p = np.maximum(np.maximum(p[:, :-2], p[:, 1:-1]), p[:, 2:])
    return np.maximum(np.maximum(p[:, :, :-2], p[:, :, 1:-1]), p[:, :, 2:])


def log_blob_proposals(
    frame: Frame,
    *,
    sigmas: tuple[float, ...] = (1.5, 2.0, 3.0, 4.0, 6.0),
    area_bounds: tuple[int, int] = DEFAULT_AREA_BOUNDS,
    start_id: int = 0,
) -> list[Proposal]:
    """Scale-normalized Laplacian-of-Gaussian extrema grown to the half-peak level.

    A blob of radius r responds strongest near sigma = r / sqrt(2).  Scores are
    responses normalized by the frame's strongest response.
    """
    if not sigmas:
        raise ValueError("need at least one sigma")
    if not all(s > 0 for s in sigmas):
        raise ValueError("sigmas must be positive")
    img = frame.intensity
    # Responses equal in exact arithmetic (a quantised frame has many) stay
    # equal after the snap, whatever order the FFT summed them in, so local
    # maxima and the strongest-first order break ties by position alone.
    stack = np.rint(_log_stack(img, tuple(sigmas)) / LOG_RESPONSE_GRID) * LOG_RESPONSE_GRID
    local_max = (_max_filter_3(stack) == stack) & (stack > LOG_RESPONSE_THRESHOLD)
    peak_best = stack.max()
    if peak_best <= 0:
        return []
    sidx, rows, cols = np.nonzero(local_max)
    order = np.lexsort((cols, rows, -stack[sidx, rows, cols]))  # strongest first, stable
    candidates: list[Mask] = []
    scores: list[float] = []
    for k in order:
        si, r, c = int(sidx[k]), int(rows[k]), int(cols[k])
        window = int(math.ceil(3.0 * sigmas[si]))
        r0, r1 = max(0, r - window), min(img.shape[0], r + window + 1)
        c0, c1 = max(0, c - window), min(img.shape[1], c + window + 1)
        patch = img[r0:r1, c0:c1]
        grown = patch >= img[r, c] / 2.0
        labels, count = ndimage.label(grown, structure=_EIGHT)
        lab = labels[r - r0, c - c0]
        if lab == 0:
            continue
        bits = labels == lab
        m = Mask(c0, r0, bits).tighten()
        if not area_bounds[0] <= m.area <= area_bounds[1]:
            continue
        candidates.append(m)
        scores.append(min(1.0, float(stack[si, r, c] / peak_best)))
    if not candidates:
        return []
    items = [(idx, scores[idx], cand) for idx, cand in enumerate(candidates)]
    kept = sorted(nms(items, threshold=MASK_NMS_IOU, mode="mask"))
    return [
        Proposal(id=start_id + rank, t=frame.t, mask=candidates[idx], raw_score=scores[idx])
        for rank, idx in enumerate(kept)
    ]


def conflicts(
    props: list[Proposal],
    c1: float = DEFAULT_CONFLICT_IOU,
    c2: float = DEFAULT_CONFLICT_COVER,
) -> list[tuple[int, int]]:
    """Same-frame pairs that may not coexist in a solution.

    A pair conflicts when mask IoU exceeds c1 or when either mask's covered
    fraction |i & j| / |i| (or / |j|) exceeds c2.  Pairs come back sorted with
    id_i < id_j.
    """
    by_frame: dict[int, list[Proposal]] = {}
    for p in props:
        by_frame.setdefault(p.t, []).append(p)
    pairs: list[tuple[int, int]] = []
    for t in sorted(by_frame):
        group = sorted(by_frame[t], key=lambda p: p.id)
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                a, b = group[i], group[j]
                inter = mask_intersection_area(a.mask, b.mask)
                if inter == 0:
                    continue
                iou = inter / float(a.area + b.area - inter)
                if iou > c1 or inter / a.area > c2 or inter / b.area > c2:
                    pairs.append((a.id, b.id))
    return sorted(pairs)
