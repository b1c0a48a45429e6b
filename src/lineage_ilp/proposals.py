"""Segmentation proposals: multi-threshold and blob generators plus conflict pairs."""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import Mask, _expand, find_objects, label, mask_intersections

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
# 8-connectivity within each plane of a 3-d block, and none across planes
_PLANES = np.zeros((3, 3, 3), dtype=bool)
_PLANES[1] = True
# Frame cells of the peak windows grown per label call.
_GROW_BLOCK_CELLS = 1 << 18
# Same-frame pairs above either limit may not both be selected (strictly above).
CONFLICT_IOU = 0.5
CONFLICT_COVER = 0.8


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


# Centres of the 256 equal bins of [0, 1] that Otsu's threshold is chosen among.
_OTSU_CENTERS = (np.arange(256) + 0.5) / 256.0


def otsu_threshold(intensity: np.ndarray) -> float:
    """Between-class variance maximizer over a 256-bin histogram of [0, 1].

    The histogram is ``np.histogram(intensity, 256, (0.0, 1.0))``'s, by one
    ``bincount``: for x in [0, 1], ``x * 256`` is exact, so its floor is x's
    bin, and 1.0 goes in the last bin.  NaN and values outside [0, 1] are
    dropped.
    """
    x = np.asarray(intensity, dtype=np.float64).ravel()
    x = x[(x >= 0.0) & (x <= 1.0)]
    if len(x) == 0:
        return 0.5
    hist = np.bincount(np.minimum((x * 256.0).astype(np.intp), 255), minlength=256)
    p = hist / len(x)
    omega = np.cumsum(p)
    mu = np.cumsum(p * _OTSU_CENTERS)
    mu_total = mu[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma_b = (mu_total * omega - mu) ** 2 / (omega * (1.0 - omega))
    sigma_b = np.nan_to_num(sigma_b, nan=-1.0, posinf=-1.0, neginf=-1.0)
    if sigma_b.max() < 0:
        return float(_OTSU_CENTERS[int(np.argmax(hist))])
    # The criterion is flat wherever the histogram is empty; take the middle
    # of the plateau so the threshold sits between the modes.
    plateau = np.flatnonzero(sigma_b == sigma_b.max())
    return float(_OTSU_CENTERS[int(plateau[(len(plateau) - 1) // 2])])


def multi_threshold_proposals(
    frame: Frame,
    *,
    levels: int = 8,
    span: tuple[float, float] = (0.5, 1.5),
    area_bounds: tuple[int, int] = DEFAULT_AREA_BOUNDS,
) -> list[Proposal]:
    """Components over a ladder of thresholds around Otsu's level; with
    ``levels`` 1, the components above Otsu's threshold alone (``span``
    unused), each scored 1.

    A candidate's raw score is the fraction of threshold levels at which a
    component recurs with IoU above ``STABILITY_IOU``; near-duplicates are
    removed with mask NMS at ``MASK_NMS_IOU``.

    The level sets of a ladder are nested, so its components form a tree: a
    component lies inside exactly one component of each level with a lower
    (or equal) threshold and is disjoint from all the others there.  Two
    components therefore overlap only when one contains the other, and then
    their IoU is ``area_small / area_big``.  Scoring and NMS read only the
    component areas and this containment map, never a pair of masks.

    One ``label`` call labels every level, a plane each.  Every level's
    foreground lies inside the lowest threshold's, so the areas, the
    containment map and the boxes of the kept components are read from
    those pixels alone, and every ordered pair of levels is scored at once.
    """
    if levels < 1:
        raise ValueError("need at least 1 threshold level")
    img = frame.intensity
    theta = otsu_threshold(img)
    thresholds = np.linspace(span[0] * theta, span[1] * theta, levels) if levels > 1 else np.array([theta])
    fg = np.flatnonzero(img > thresholds.min())
    if len(fg) == 0:
        return []
    # planes are labelled in order, each in raster order, so the components
    # are numbered level by level and, within a level, in scan order
    labels, count = label(img > thresholds[:, None, None], _PLANES)
    on = labels.reshape(levels, -1)[:, fg]  # every level's labels on the lowest foreground
    flat = on.ravel()
    area = np.bincount(flat, minlength=count + 1)[1:]
    seen = np.flatnonzero(flat)
    at = np.empty(count, dtype=np.intp)
    at[flat[seen] - 1] = seen  # any pixel of a component will do
    level_of, pixel = np.divmod(at, len(fg))

    # containment map: up[j, c] is the component of level j holding
    # component c, for each level j whose threshold is at most c's own
    up = on[:, pixel] - 1
    own = thresholds[level_of]
    j, c = np.nonzero((thresholds[:, None] <= own) & (np.arange(levels)[:, None] != level_of))
    u = up[j, c]
    iou = area[c] / area[u]
    stable = iou > STABILITY_IOU
    # a container recurs at a higher level when one of that level's
    # components fills more than half of it; being disjoint, at most one can
    hits = 1 + np.bincount(c[stable], minlength=count)
    hits += np.bincount(u[stable & (thresholds[j] < own[c])], minlength=count)

    # candidates are the components within the area bounds, in label order
    ok = (area >= area_bounds[0]) & (area <= area_bounds[1])
    members = np.flatnonzero(ok)
    if len(members) == 0:
        return []
    index = np.cumsum(ok) - 1
    near = ok[c] & ok[u] & (iou > MASK_NMS_IOU)
    score = hits[members] / levels
    kept = members[_suppress(score, index[c[near]], index[u[near]])]

    # the boxes of the kept components, from their pixels in scan order
    slot = np.full(count + 1, -1)
    slot[kept + 1] = np.arange(len(kept))
    mine = np.flatnonzero(slot[flat] >= 0)
    mine = mine[np.argsort(slot[flat[mine]], kind="stable")]
    rows, cols = np.divmod(fg[mine % len(fg)], img.shape[1])
    first = np.cumsum(area[kept]) - area[kept]
    top, bottom = rows[first], rows[first + area[kept] - 1] + 1
    left, right = np.minimum.reduceat(cols, first), np.maximum.reduceat(cols, first) + 1
    boxes = zip(kept.tolist(), level_of[kept].tolist(), top.tolist(), bottom.tolist(), left.tolist(), right.tolist())
    out = []
    for rank, (k, lv, y0, y1, x0, x1) in enumerate(boxes):
        mask = Mask(x0, y0, labels[lv, y0:y1, x0:x1] == k + 1)
        out.append(Proposal(id=rank, t=frame.t, mask=mask, raw_score=float(score[index[k]])))
    return out


def _suppress(score: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[int]:
    """Greedy NMS over candidates ``0 .. len(score) - 1`` whose pairs
    ``(a[k], b[k])`` overlap above the threshold: by descending score, ties
    to the lower index, each kept candidate drops its partners.  So one is
    dropped exactly when an earlier kept one overlaps it, as in
    ``geometry.nms``.  Returns the kept indices in ascending order.
    """
    partners: list[list[int]] = [[] for _ in range(len(score))]
    for i, j in zip(a.tolist(), b.tolist()):
        partners[i].append(j)
        partners[j].append(i)
    dropped = [False] * len(score)
    kept = []
    for k in np.argsort(-score, kind="stable").tolist():
        if not dropped[k]:
            kept.append(k)
            for other in partners[k]:
                dropped[other] = True
    return sorted(kept)


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

    Each kernel is scipy's own by value: its ``gaussian_laplace`` of a delta
    is two outer products of its 1-d kernels, one rounding each, summed.  It
    is rolled so its centre sits at the origin of the FFT grid.  Read-only,
    because the cache hands the same array to every caller.
    """
    radius, size = _log_grid(shape, sigmas)
    kernels = np.zeros((len(sigmas),) + size)
    for k, s in enumerate(sigmas):
        # scipy's 1-d kernels of order 0 and 2 by the operations of its
        # _gaussian_kernel1d: g2 = q(x) * g0, q = 1 stepped twice by q' - q * x / s**2
        r = int(4.0 * s + 0.5)
        x = np.arange(-r, r + 1)
        g0 = np.exp(-0.5 / (s * s) * x ** 2)
        g0 = g0 / g0.sum()
        q_deriv = np.diag(np.arange(1, 3), 1) + np.diag(np.ones(2) / -(s * s), -1)
        g2 = (x[:, None] ** np.arange(3)).dot(q_deriv.dot(q_deriv.dot([1.0, 0.0, 0.0]))) * g0
        window = slice(radius - r, radius + r + 1)
        kernels[k, window, window] = -(s ** 2) * (np.outer(g2, g0) + np.outer(g0, g2))
    spectra = np.fft.rfft2(np.roll(kernels, (-radius, -radius), axis=(1, 2)))
    spectra.flags.writeable = False
    return spectra


def _log_stack(img: np.ndarray, sigmas: tuple[float, ...]) -> np.ndarray:
    """``-(s**2) * gaussian_laplace(img, s, mode="nearest")`` for every sigma,
    as one C-contiguous ``(len(sigmas), H, W)`` stack from one forward FFT
    and one inverse per sigma.

    The frame is edge-padded once by the widest kernel radius R.  Edge
    padding commutes with a separable filter, so the linear convolution of
    the padded frame equals scipy's nearest-mode passes up to rounding; the
    FFT grid is at least H + 2R per axis, so the crop reads no wrapped value.
    Each sigma's inverse is irfft2's two steps apart, so that the rows
    outside the crop skip the second, and its temporaries stay one grid in
    size whatever the number of sigmas.
    """
    radius, size = _log_grid(img.shape, sigmas)
    h, w = img.shape
    spectrum = np.fft.rfft2(np.pad(img, radius, mode="edge"), s=size)
    spectra = _log_spectra(img.shape, sigmas)
    stack = np.empty((len(sigmas), h, w))
    for k, kernel in enumerate(spectra):
        rows = np.fft.ifft(kernel * spectrum, axis=0)[radius : radius + h]
        stack[k] = np.fft.irfft(rows, n=size[1], axis=1)[:, radius : radius + w]
    return stack


# (scale, row, col) offsets of the 24 neighbours beyond the row pair (0, 0, +-1):
# in-plane first, fewer axes moved first, opposite offsets together
_NEIGHBOURS = sorted(
    (o for o in itertools.product((-1, 0, 1), repeat=3) if o[:2] != (0, 0)),
    key=lambda o: (o[0] != 0, sum(map(abs, o)), tuple(map(abs, o)), o),
)


def _local_maxima(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scale, row, col and snapped value of every response of the stack
    ``raw`` whose snap is above ``LOG_RESPONSE_THRESHOLD`` and at least the
    snap of each of its 26 neighbours (indices clamped to the stack, as
    ``mode="nearest"``), in C order: ``maximum_filter(snap(raw)) == snap(raw)``.

    Only the support is read: the responses not at or below the threshold
    less one grid step (NaN too).  The others snap below any snap above the
    threshold and reject nothing, so the row pair is compared among adjacent
    support entries; each other neighbour is gathered, and snapped, per survivor.
    """
    g = LOG_RESPONSE_GRID
    support = ~(raw <= LOG_RESPONSE_THRESHOLD - g)
    flat = np.flatnonzero(support)
    q = np.rint(raw[support] / g)  # snaps, in grid steps
    pair = (np.diff(flat) == 1) & (flat[1:] % raw.shape[2] != 0)  # entry k + 1 is right of entry k
    keep = q * g > LOG_RESPONSE_THRESHOLD
    keep[1:] &= ~pair | (q[:-1] <= q[1:])
    keep[:-1] &= ~pair | (q[1:] <= q[:-1])
    (s, r, c), q = np.unravel_index(flat[keep], raw.shape), q[keep]
    # per axis, the index one step down and one step up, clamped to the stack
    step = [(np.maximum(np.arange(n) - 1, 0), None, np.minimum(np.arange(n) + 1, n - 1)) for n in raw.shape]
    for offset in _NEIGHBOURS:
        at = [x if d == 0 else step[axis][d + 1][x] for axis, (x, d) in enumerate(zip((s, r, c), offset))]
        keep = np.rint(raw[tuple(at)] / g) <= q
        s, r, c, q = s[keep], r[keep], c[keep], q[keep]
    return s, r, c, q * g


def log_blob_proposals(
    frame: Frame,
    *,
    sigmas: tuple[float, ...] = (1.5, 2.0, 3.0, 4.0, 6.0),
    area_bounds: tuple[int, int] = DEFAULT_AREA_BOUNDS,
) -> list[Proposal]:
    """Scale-normalized Laplacian-of-Gaussian extrema grown to the half-peak level.

    A blob of radius r responds strongest near sigma = r / sqrt(2).  An
    extremum is a snapped response above ``LOG_RESPONSE_THRESHOLD`` that is at
    least each of its 26 (scale, row, col) neighbours, edges nearest; only the
    responses that can clear the threshold are tested.  Scores are responses
    normalized by the frame's strongest response.  Peaks are grown strongest
    first, a block of a few hundred per ``label`` call, and only the
    candidates whose boxes overlap are compared for suppression.
    """
    if not sigmas:
        raise ValueError("need at least one sigma")
    if not all(s > 0 for s in sigmas):
        raise ValueError("sigmas must be positive")
    img = frame.intensity
    # Responses equal in exact arithmetic (a quantised frame has many) stay
    # equal after the snap, whatever order the FFT summed them in, so local
    # maxima and the strongest-first order break ties by position alone.
    raw = _log_stack(img, tuple(sigmas))
    peak_best = np.rint(raw.max() / LOG_RESPONSE_GRID) * LOG_RESPONSE_GRID  # the snap is monotone
    if peak_best <= 0:
        return []
    sidx, rows, cols, value = _local_maxima(raw)
    if len(value) == 0:
        return []
    order = np.lexsort((cols, rows, -value))  # strongest first, stable
    windows = np.ceil(3.0 * np.asarray(sigmas, dtype=np.float64)).astype(np.intp)
    candidates: list[Mask] = []
    areas: list[int] = []
    scores: list[float] = []
    per_block = max(1, _GROW_BLOCK_CELLS // (2 * int(windows.max()) + 1) ** 2)
    for start in range(0, len(order), per_block):
        k = order[start : start + per_block]
        for p, grown in zip(k.tolist(), _grow_peaks(img, rows[k], cols[k], windows[sidx[k]])):
            if grown is not None and area_bounds[0] <= grown[1] <= area_bounds[1]:
                candidates.append(grown[0])
                areas.append(grown[1])
                scores.append(min(1.0, float(value[p] / peak_best)))
    if not candidates:
        return []
    i, j = _box_pairs(candidates)
    inter = mask_intersections(candidates, i, j, np.zeros_like(i), np.zeros_like(i))
    area = np.array(areas)
    over = inter / (area[i] + area[j] - inter) > MASK_NMS_IOU
    kept = _suppress(np.array(scores), i[over], j[over])
    return [
        Proposal(id=rank, t=frame.t, mask=candidates[idx], raw_score=scores[idx])
        for rank, idx in enumerate(kept)
    ]


def _grow_peaks(
    img: np.ndarray, rows: np.ndarray, cols: np.ndarray, windows: np.ndarray
) -> list[tuple[Mask, int] | None]:
    """Per peak ``(rows[p], cols[p])``, the 8-connected region around it of
    pixels at least half its intensity, within ``windows[p]`` pixels of it
    and inside the frame: its tight mask and area, or None when the peak's
    own pixel is not in it.

    Each peak's clipped window is cut from the frame into one plane of a
    ``(P, 2R+1, 2R+1)`` block, R the widest window, centred on the plane,
    with False outside the window; one ``label`` call, whose
    structure joins no two planes, labels every plane at once.
    """
    h, w = img.shape
    half = int(windows.max())
    offset = np.arange(-half, half + 1)
    near = np.abs(offset) <= windows[:, None]
    r = rows[:, None] + offset
    c = cols[:, None] + offset
    in_r = near & (r >= 0) & (r < h)
    in_c = near & (c >= 0) & (c < w)
    patch = img[np.clip(r, 0, h - 1)[:, :, None], np.clip(c, 0, w - 1)[:, None, :]]
    block = patch >= (img[rows, cols] / 2.0)[:, None, None]
    block &= in_r[:, :, None] & in_c[:, None, :]
    labels, count = label(block, _PLANES)
    area = np.bincount(labels.ravel(), minlength=count + 1)
    objects = find_objects(labels, count)
    out: list[tuple[Mask, int] | None] = []
    for p, lab in enumerate(labels[:, half, half].tolist()):
        if lab == 0:
            out.append(None)
            continue
        _, sr, sc = objects[lab - 1]
        x0, y0 = int(cols[p]) - half + sc.start, int(rows[p]) - half + sr.start
        out.append((Mask(x0, y0, labels[p, sr, sc] == lab), int(area[lab])))
    return out


def _box_pairs(masks: list[Mask], x_shift=0) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j of the masks whose grids share a pixel: the only
    pairs whose masks can.  The grids are first moved right by ``x_shift``
    columns (one shift per grid, or one for all).

    A sweep over the grids sorted by left column pairs each grid with the
    ones after it that start left of its right edge, so only the pairs that
    share columns are ever listed.
    """
    x0 = np.array([m.x0 for m in masks], dtype=np.intp) + x_shift
    y0 = np.array([m.y0 for m in masks], dtype=np.intp)
    h, w = np.array([m.bits.shape for m in masks], dtype=np.intp).reshape(-1, 2).T
    by_x = np.argsort(x0, kind="stable")
    left = x0[by_x]
    end = np.searchsorted(left, left + w[by_x], side="left")
    a, rank = _expand(end - np.arange(len(masks)) - 1)
    i, j = by_x[a], by_x[a + 1 + rank]
    near = (y0[i] < y0[j] + h[j]) & (y0[j] < y0[i] + h[i])
    return np.minimum(i, j)[near], np.maximum(i, j)[near]


def conflicts(props: list[Proposal]) -> np.ndarray:
    """Same-frame pairs that may not coexist in a solution, as (c, 2)
    positions in ``props``.

    A pair conflicts when mask IoU exceeds ``CONFLICT_IOU`` or when either
    mask's covered fraction |i & j| / |i| (or / |j|) exceeds
    ``CONFLICT_COVER``.  The frames are laid side by side on x, so one
    ``_box_pairs`` sweep finds every same-frame pair whose boxes overlap,
    and one ``mask_intersections`` call, over the masks of those pairs
    alone, counts them; with no such pair there is no call.  Each pair
    names the lower id first, and pairs come in id order, ties in the
    order the frames first appear.
    """
    if not props:
        return np.zeros((0, 2), dtype=np.intp)
    masks = [p.mask for p in props]
    _, first, slot = np.unique([p.t for p in props], return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))[slot]  # each proposal's frame, by first appearance
    width = max(m.x0 + m.bits.shape[1] for m in masks) - min(m.x0 for m in masks)
    i, j = _box_pairs(masks, rank * width)
    if len(i) == 0:
        return np.zeros((0, 2), dtype=np.intp)
    ids = np.array([p.id for p in props], dtype=np.int64)
    used, pair = np.unique(np.concatenate([i, j]), return_inverse=True)
    still = np.zeros_like(i)
    inter = mask_intersections([masks[k] for k in used.tolist()], pair[: len(i)], pair[len(i) :], still, still)
    area = np.array([m.area for m in masks])
    a_i, a_j = area[i], area[j]
    hit = (
        (inter / (a_i + a_j - inter) > CONFLICT_IOU)
        | (inter / a_i > CONFLICT_COVER)
        | (inter / a_j > CONFLICT_COVER)
    )
    i, j = i[hit], j[hit]
    swap = ids[i] > ids[j]  # positions are i < j: the lower id first, ties to the lower position
    pairs = np.column_stack([np.where(swap, j, i), np.where(swap, i, j)])
    return pairs[np.lexsort((rank[pairs[:, 0]], ids[pairs[:, 1]], ids[pairs[:, 0]]))]
