"""Axis-aligned boxes, pixel masks, and the raster primitives built on them."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .compiled import load_compiled


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


# set bits of each byte value; a word's are the sum over its eight bytes
_BYTE_BITS = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)
_BYTE_SUM = np.uint64(0x0101010101010101)
_STRIP = 64  # columns per packed word


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For ``counts[k]`` entries per k: each entry's k and its rank within k."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


def _pack_strips(masks: list[Mask]):
    """Every mask as column strips of at most 64 px, one uint64 word per row.

    Bit j of a strip's word is the pixel j columns right of the strip's left
    edge.  A mask's words go row by row and, within a row, strip by strip;
    masks of one width are packed together by one ``packbits``.  Returns the
    words; per strip its left column, top row, height, first word and the
    step between its rows' words; per mask its first strip and strip count.
    """
    x0 = np.array([m.x0 for m in masks], dtype=np.intp)
    y0 = np.array([m.y0 for m in masks], dtype=np.intp)
    h, w = np.array([m.bits.shape for m in masks], dtype=np.intp).reshape(-1, 2).T
    count = -(-w // _STRIP)
    by_width: dict[int, list[int]] = {}
    for i, width in enumerate(w.tolist()):
        by_width.setdefault(width, []).append(i)
    base = np.zeros(len(masks), dtype=np.intp)  # each mask's first word
    words, size = [], 0
    for width, members in by_width.items():
        grid = np.concatenate([masks[i].bits for i in members])
        n = -(-width // _STRIP)
        packed = np.zeros((len(grid), n * 8), dtype=np.uint8)
        packed[:, : -(-width // 8)] = np.packbits(grid, axis=1, bitorder="little")
        words.append(packed.view("<u8").ravel())
        rows = h[members]
        base[members] = size + (np.cumsum(rows) - rows) * n
        size += len(grid) * n
    strip_of, k = _expand(count)
    return (
        np.concatenate(words).astype(np.uint64),
        x0[strip_of] + k * _STRIP,
        y0[strip_of],
        h[strip_of],
        base[strip_of] + k,
        count[strip_of],
        np.cumsum(count) - count,
        count,
    )


def mask_intersections(masks: list[Mask], a, b, dx, dy) -> np.ndarray:
    """The number of pixels that ``masks[a[k]]`` shares with ``masks[b[k]]``
    translated by ``(dx[k], dy[k])``, for every k at once.

    The masks are packed into 64-px column strips of one uint64 word per row
    (``_pack_strips``).  Two strips share pixels only in shared rows and
    where less than 64 columns part their left edges; per shared row, the
    pair's count grows by the set bits of a's word AND b's word shifted onto
    a's columns.
    """
    a, b, dx, dy = (np.asarray(v, dtype=np.intp) for v in (a, b, dx, dy))
    if len(a) == 0:
        return np.zeros(0, dtype=np.int64)
    words, sx, sy, sh, start, step, first, count = _pack_strips(masks)
    # every strip of a's mask against every strip of b's mask
    pair, rank = _expand(count[a] * count[b])
    per_b = count[b][pair]
    sa, sb = first[a][pair] + rank // per_b, first[b][pair] + rank % per_b
    yb = sy[sb] + dy[pair]
    shift = sx[sb] + dx[pair] - sx[sa]  # b's bit j lands on a's bit j + shift
    top = np.maximum(sy[sa], yb)
    rows = np.minimum(sy[sa] + sh[sa], yb + sh[sb]) - top
    rows = np.where(np.abs(shift) < _STRIP, np.maximum(rows, 0), 0)
    # one entry per shared row of a strip pair, from the pair's first words
    first_a = start[sa] + (top - sy[sa]) * step[sa]
    first_b = start[sb] + (top - yb) * step[sb]
    sp, r = _expand(rows)
    wa = words[first_a[sp] + r * step[sa][sp]]
    wb = words[first_b[sp] + r * step[sb][sp]]
    left = np.maximum(shift, 0).astype(np.uint64)[sp]
    right = np.maximum(-shift, 0).astype(np.uint64)[sp]
    both = wa & ((wb << left) >> right)
    # the byte counts of a word summed into its top byte
    bits = (_BYTE_BITS.take(both.view(np.uint8)).view(np.uint64) * _BYTE_SUM) >> np.uint64(56)
    return np.bincount(pair[sp], weights=bits, minlength=len(a)).astype(np.int64)


def iou_mask(a: Mask, b: Mask) -> float:
    """Pixel-set intersection over union; 0.0 for disjoint masks."""
    inter = int(mask_intersections([a, b], [0], [1], [0], [0])[0])
    if inter == 0:
        return 0.0
    return inter / float(a.area + b.area - inter)


def nms(items: list[tuple[int, float, BBox]], threshold: float) -> list[int]:
    """Greedy non-maximum suppression over boxes.

    ``items`` holds (id, score, box).  Candidates are visited by descending
    score, ties broken by lower id; a candidate is dropped when its IoU with
    an already kept box is strictly above ``threshold``.  Returns kept ids in
    keep order.
    """
    order = sorted(items, key=lambda it: (-it[1], it[0]))
    kept: list[tuple[int, BBox]] = []
    for ident, _score, box in order:
        if all(iou_box(box, k_box) <= threshold for _, k_box in kept):
            kept.append((ident, box))
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


@functools.cache
def _ndimage():
    """(label into a given grid, find_objects): scipy.ndimage's compiled
    routines, loaded on first use (see ``compiled``), or its public ones,
    which take the same arguments, when either module cannot be loaded."""
    labels = load_compiled("ndimage._ni_label", ("_label",))
    objects = load_compiled("ndimage._nd_image", ("find_objects",))
    if labels and objects:
        return labels._label, objects.find_objects
    from scipy import ndimage
    return ndimage.label, ndimage.find_objects


def label(binary: np.ndarray, structure: np.ndarray) -> tuple[np.ndarray, int]:
    """``scipy.ndimage.label(binary, structure)`` for a boolean array and a
    boolean structure of its rank: the label grid, int32 below 2**31 - 2
    cells as scipy's, and the number of components."""
    out = np.empty(binary.shape, np.intp if binary.size >= 2**31 - 2 else np.int32)
    return out, _ndimage()[0](binary, structure, out) if binary.size else 0


def find_objects(labels: np.ndarray, count: int) -> list:
    """``scipy.ndimage.find_objects(labels, count)``, given the count the
    caller holds, so that no pass over ``labels`` looks for its maximum."""
    return _ndimage()[1](labels, count)


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
        int(value): Mask(sl[1].start, sl[0].start, dense[sl] == idx)
        for idx, (value, sl) in enumerate(zip(labels, find_objects(dense, len(labels))), start=1)
    }

