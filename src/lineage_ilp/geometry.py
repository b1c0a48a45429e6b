"""Axis-aligned boxes, pixel masks, and the raster primitives built on them."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

_PLUS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_EIGHT = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box with corner (x, y) and non-negative extent (w, h)."""

    x: float
    y: float
    w: float
    h: float

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h


@dataclass(frozen=True)
class BoxDelta:
    """Offset of a box relative to an anchor: shift scaled by anchor size, log size ratio."""

    dx: float
    dy: float
    dw: float
    dh: float


class Mask:
    """Pixel set stored as a boolean grid anchored at integer offset (x0, y0).

    The grid may be loose; ``tighten`` crops it to the minimal bounding box.
    An empty pixel set is not representable on purpose.

    A mask is immutable: ``bits`` is a read-only view, so writing through it
    raises, and ``area`` and ``centroid`` are computed once on first use.
    Code that needs other pixels builds a new mask.
    """

    __slots__ = ("x0", "y0", "bits", "_area", "_centroid")

    def __init__(self, x0: int, y0: int, bits: np.ndarray):
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 2:
            raise ValueError("mask bits must be a 2-d grid")
        if not bits.any():
            raise ValueError("mask must contain at least one set pixel")
        self.x0 = int(x0)
        self.y0 = int(y0)
        self.bits = bits.view()
        self.bits.flags.writeable = False
        self._area: int | None = None
        self._centroid: tuple[float, float] | None = None

    @property
    def area(self) -> int:
        if self._area is None:
            self._area = int(self.bits.sum())
        return self._area

    @property
    def bbox(self) -> BBox:
        return BBox(float(self.x0), float(self.y0), float(self.bits.shape[1]), float(self.bits.shape[0]))

    @property
    def centroid(self) -> tuple[float, float]:
        """(cx, cy) mean of set pixel coordinates, pixels sampling integer points."""
        if self._centroid is None:
            rows, cols = np.nonzero(self.bits)
            self._centroid = (self.x0 + float(cols.mean()), self.y0 + float(rows.mean()))
        return self._centroid

    def pixels(self) -> tuple[np.ndarray, np.ndarray]:
        """Absolute (rows, cols) of the set pixels."""
        rows, cols = np.nonzero(self.bits)
        return rows + self.y0, cols + self.x0

    def tighten(self) -> "Mask":
        rows, cols = np.nonzero(self.bits)
        r0, r1 = rows.min(), rows.max() + 1
        c0, c1 = cols.min(), cols.max() + 1
        return Mask(self.x0 + int(c0), self.y0 + int(r0), self.bits[r0:r1, c0:c1])

    def contains_point(self, x: float, y: float) -> bool:
        """True when the pixel covering point (x, y) is set; pixel (r, c) covers
        [c-0.5, c+0.5) x [r-0.5, r+0.5)."""
        c = math.floor(x + 0.5) - self.x0
        r = math.floor(y + 0.5) - self.y0
        if r < 0 or c < 0 or r >= self.bits.shape[0] or c >= self.bits.shape[1]:
            return False
        return bool(self.bits[r, c])

    def translated(self, dx: int, dy: int) -> "Mask":
        return Mask(self.x0 + int(dx), self.y0 + int(dy), self.bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mask):
            return NotImplemented
        return (
            self.x0 == other.x0
            and self.y0 == other.y0
            and self.bits.shape == other.bits.shape
            and bool((self.bits == other.bits).all())
        )

    def __repr__(self) -> str:
        return f"Mask(x0={self.x0}, y0={self.y0}, shape={self.bits.shape}, area={self.area})"


def iou_box(a: BBox, b: BBox) -> float:
    """Continuous intersection over union of two boxes."""
    ix = min(a.x2, b.x2) - max(a.x, b.x)
    iy = min(a.y2, b.y2) - max(a.y, b.y)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def _overlap_slices(a: Mask, b: Mask):
    x0 = max(a.x0, b.x0)
    y0 = max(a.y0, b.y0)
    x1 = min(a.x0 + a.bits.shape[1], b.x0 + b.bits.shape[1])
    y1 = min(a.y0 + a.bits.shape[0], b.y0 + b.bits.shape[0])
    if x0 >= x1 or y0 >= y1:
        return None
    sa = (slice(y0 - a.y0, y1 - a.y0), slice(x0 - a.x0, x1 - a.x0))
    sb = (slice(y0 - b.y0, y1 - b.y0), slice(x0 - b.x0, x1 - b.x0))
    return sa, sb


def mask_intersection_area(a: Mask, b: Mask) -> int:
    sl = _overlap_slices(a, b)
    if sl is None:
        return 0
    sa, sb = sl
    return int((a.bits[sa] & b.bits[sb]).sum())


def iou_mask(a: Mask, b: Mask) -> float:
    """Pixel-set intersection over union; 0.0 for disjoint grids."""
    inter = mask_intersection_area(a, b)
    if inter == 0:
        return 0.0
    return inter / float(a.area + b.area - inter)


def nms(items: list[tuple[int, float, object]], threshold: float, mode: str = "box") -> list[int]:
    """Greedy non-maximum suppression.

    ``items`` holds (id, score, shape) with shape a BBox (mode="box") or Mask
    (mode="mask").  Candidates are visited by descending score, ties broken by
    lower id; a candidate is dropped when its IoU with an already kept item is
    strictly above ``threshold``.  Returns kept ids in keep order.
    """
    if mode == "box":
        overlap = iou_box
    elif mode == "mask":
        overlap = iou_mask
    else:
        raise ValueError(f"unknown nms mode {mode!r}")
    order = sorted(items, key=lambda it: (-it[1], it[0]))
    kept: list[tuple[int, object]] = []
    for ident, _score, shape in order:
        if all(overlap(shape, k_shape) <= threshold for _, k_shape in kept):
            kept.append((ident, shape))
    return [ident for ident, _ in kept]


def anchor_encode(b: BBox, anchor: BBox) -> BoxDelta:
    """Box offsets relative to an anchor: corner shift scaled by anchor size, log size ratios."""
    if anchor.w <= 0 or anchor.h <= 0:
        raise ValueError("anchor must have positive extent")
    if b.w <= 0 or b.h <= 0:
        raise ValueError("box must have positive extent")
    return BoxDelta(
        (b.x - anchor.x) / anchor.w,
        (b.y - anchor.y) / anchor.h,
        math.log(b.w / anchor.w),
        math.log(b.h / anchor.h),
    )


def anchor_decode(d: BoxDelta, anchor: BBox) -> BBox:
    return BBox(
        anchor.x + d.dx * anchor.w,
        anchor.y + d.dy * anchor.h,
        anchor.w * math.exp(d.dw),
        anchor.h * math.exp(d.dh),
    )


def expand_box(b: BBox, margin: float, frame_w: float, frame_h: float) -> BBox:
    """Grow a box by ``margin`` on every side, clipped to the frame."""
    x1 = max(0.0, b.x - margin)
    y1 = max(0.0, b.y - margin)
    x2 = min(float(frame_w), b.x2 + margin)
    y2 = min(float(frame_h), b.y2 + margin)
    return BBox(x1, y1, x2 - x1, y2 - y1)


def connected_components(binary: np.ndarray) -> list[Mask]:
    """8-connected components of a boolean grid as tight masks, ordered by the
    row-major position of each component's first pixel."""
    binary = np.asarray(binary, dtype=bool)
    labels, count = ndimage.label(binary, structure=_EIGHT)
    if count == 0:
        return []
    objects = ndimage.find_objects(labels)
    comps: list[tuple[int, Mask]] = []
    for idx, sl in enumerate(objects, start=1):
        bits = labels[sl] == idx
        rows, cols = np.nonzero(bits)
        first = (rows[0] + sl[0].start) * binary.shape[1] + (cols[0] + sl[1].start)
        comps.append((int(first), Mask(sl[1].start, sl[0].start, bits)))
    comps.sort(key=lambda rc: rc[0])
    return [m for _, m in comps]


def label_masks(grid: np.ndarray) -> dict[int, Mask]:
    """Positive label -> tight mask of its pixels, in ascending label order.

    Labels are renumbered densely before one ``find_objects`` pass, so cost
    and memory follow the number of labels present, not the largest value.
    Each mask owns a fresh array cropped to its bounding box.
    """
    grid = np.asarray(grid)
    fg = grid > 0
    values = grid[fg]
    labels = np.unique(values)
    dense = np.zeros(grid.shape, dtype=np.int32)
    dense[fg] = np.searchsorted(labels, values) + 1
    return {
        int(label): Mask(sl[1].start, sl[0].start, dense[sl] == idx)
        for idx, (label, sl) in enumerate(zip(labels, ndimage.find_objects(dense)), start=1)
    }


def disk_offsets(radius: int) -> np.ndarray:
    """Euclidean disk structuring element: offsets (i, j) with i*i + j*j <= r*r."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    span = np.arange(-radius, radius + 1)
    ii, jj = np.meshgrid(span, span, indexing="ij")
    return (ii * ii + jj * jj) <= radius * radius


# Structuring elements by radius, built on first use and read-only, so the
# shared arrays cannot change under a later caller.
_DISKS: dict[int, np.ndarray] = {}


def _disk(radius: int) -> np.ndarray:
    disk = _DISKS.get(radius)
    if disk is None:
        disk = disk_offsets(radius)
        disk.flags.writeable = False
        _DISKS[radius] = disk
    return disk


def boundary_mask(m: Mask) -> Mask:
    """Set pixels with at least one unset 4-neighbour (pixels outside count as unset)."""
    inner = ndimage.binary_erosion(m.bits, structure=_PLUS, border_value=0)
    return Mask(m.x0, m.y0, m.bits & ~inner)


def boundary_and_dilations(m: Mask, radii: tuple[int, ...]) -> tuple[Mask, dict[int, Mask]]:
    """Boundary of ``m`` plus, per radius, the dilation ring dilate(m, r) minus m.

    Rings are returned in plane coordinates and may extend beyond any frame;
    callers clip.  Ring masks are never empty because dilation by a disk of
    radius >= 1 always adds pixels.
    """
    rings: dict[int, Mask] = {}
    for r in radii:
        pad = int(r)
        padded = np.pad(m.bits, pad)
        grown = ndimage.binary_dilation(padded, structure=_disk(r))
        ring = grown & ~padded
        rings[r] = Mask(m.x0 - pad, m.y0 - pad, ring)
    return boundary_mask(m), rings
