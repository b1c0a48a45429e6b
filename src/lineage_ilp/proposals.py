"""Segmentation proposals: multi-threshold and blob generators plus conflict pairs."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .geometry import Mask, connected_components, iou_mask, nms

# Overlap threshold for candidate pruning.
MASK_NMS_IOU = 0.7

DEFAULT_AREA_BOUNDS = (9, 10000)
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

    @property
    def height(self) -> int:
        return self.intensity.shape[0]

    @property
    def width(self) -> int:
        return self.intensity.shape[1]


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
    stability_iou: float = 0.5,
    nms_iou: float = MASK_NMS_IOU,
    area_bounds: tuple[int, int] = DEFAULT_AREA_BOUNDS,
    start_id: int = 0,
) -> list[Proposal]:
    """Components over a ladder of thresholds around Otsu's level.

    A candidate's raw score is the fraction of threshold levels at which a
    component recurs with IoU above ``stability_iou``; near-duplicates are
    removed with mask NMS.
    """
    if levels < 2:
        raise ValueError("need at least 2 threshold levels")
    theta = otsu_threshold(frame.intensity)
    thresholds = np.linspace(span[0] * theta, span[1] * theta, levels)
    per_level = [connected_components(frame.intensity > thr) for thr in thresholds]

    candidates: list[Mask] = []
    for comps in per_level:
        for m in comps:
            if area_bounds[0] <= m.area <= area_bounds[1]:
                candidates.append(m)
    if not candidates:
        return []

    scores = []
    for cand in candidates:
        hit_levels = 0
        for comps in per_level:
            if any(iou_mask(cand, other) > stability_iou for other in comps):
                hit_levels += 1
        scores.append(hit_levels / len(per_level))

    items = [(idx, scores[idx], cand) for idx, cand in enumerate(candidates)]
    kept = sorted(nms(items, threshold=nms_iou, mode="mask"))
    return [
        Proposal(id=start_id + rank, t=frame.t, mask=candidates[idx], raw_score=scores[idx])
        for rank, idx in enumerate(kept)
    ]


def log_blob_proposals(
    frame: Frame,
    *,
    sigmas: tuple[float, ...] = (1.5, 2.0, 3.0, 4.0, 6.0),
    response_threshold: float = 0.02,
    nms_iou: float = MASK_NMS_IOU,
    area_bounds: tuple[int, int] = DEFAULT_AREA_BOUNDS,
    start_id: int = 0,
) -> list[Proposal]:
    """Scale-normalized Laplacian-of-Gaussian extrema grown to the half-peak level.

    A blob of radius r responds strongest near sigma = r / sqrt(2).  Scores are
    responses normalized by the frame's strongest response.
    """
    if not sigmas:
        raise ValueError("need at least one sigma")
    img = frame.intensity
    stack = np.stack([
        -(s ** 2) * ndimage.gaussian_laplace(img, sigma=s, mode="nearest") for s in sigmas
    ])
    local_max = (ndimage.maximum_filter(stack, size=3, mode="nearest") == stack) & (
        stack > response_threshold
    )
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
        labels, count = ndimage.label(grown, structure=np.ones((3, 3), dtype=bool))
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
    kept = sorted(nms(items, threshold=nms_iou, mode="mask"))
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
    from .geometry import mask_intersection_area

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
