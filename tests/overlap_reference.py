"""Mask overlaps counted pair by pair, on the masks' own grids: references
for ``geometry.mask_intersections`` and everything built on it, independent
of its packed bit rows."""
from __future__ import annotations

from lineage_ilp.geometry import Mask


def mask_intersection_area(a: Mask, b: Mask) -> int:
    """Pixels set in both masks, read off the overlap of their grids."""
    x0, y0 = max(a.x0, b.x0), max(a.y0, b.y0)
    x1 = min(a.x0 + a.bits.shape[1], b.x0 + b.bits.shape[1])
    y1 = min(a.y0 + a.bits.shape[0], b.y0 + b.bits.shape[0])
    if x0 >= x1 or y0 >= y1:
        return 0
    sa = a.bits[y0 - a.y0 : y1 - a.y0, x0 - a.x0 : x1 - a.x0]
    sb = b.bits[y0 - b.y0 : y1 - b.y0, x0 - b.x0 : x1 - b.x0]
    return int((sa & sb).sum())


def iou(a: Mask, b: Mask) -> float:
    """Pixel-set intersection over union; 0.0 for disjoint masks."""
    inter = mask_intersection_area(a, b)
    if inter == 0:
        return 0.0
    return inter / float(a.area + b.area - inter)


def mask_nms(items: list[tuple[int, float, Mask]], threshold: float) -> list[int]:
    """Greedy mask NMS: by descending score, ties to the lower id, a
    candidate is dropped when its IoU with a kept mask is strictly above
    ``threshold``.  Returns kept ids in keep order."""
    kept: list[tuple[int, Mask]] = []
    for ident, _score, mask in sorted(items, key=lambda it: (-it[1], it[0])):
        if all(iou(mask, k_mask) <= threshold for _, k_mask in kept):
            kept.append((ident, mask))
    return [ident for ident, _ in kept]


def conflicts(props, c1: float = 0.5, c2: float = 0.8) -> list[tuple[int, int]]:
    """Same-frame id pairs (i < j) whose IoU is above ``c1`` or whose
    intersection covers more than ``c2`` of either mask, sorted."""
    pairs = []
    for a in props:
        for b in props:
            if a.t != b.t or a.id >= b.id:
                continue
            inter = mask_intersection_area(a.mask, b.mask)
            if inter == 0:
                continue
            if inter / float(a.area + b.area - inter) > c1 or inter / a.area > c2 or inter / b.area > c2:
                pairs.append((a.id, b.id))
    return sorted(pairs)
