"""Feature vectors for proposals, frame-to-frame links, and division triples.

The proposal vector has 92 entries: 15 intensity histogram bins, two 8-bin
boundary-contrast histograms (dilation radii 1 and 3), a 12x5 polar boundary
histogram, and the area fraction.  All histograms are L1-normalized.

A boundary-contrast histogram bins, per boundary pixel p, the mean intensity
of p's nearest pixels in the mask's in-frame dilation ring of radius r,
minus p's own.  The two blocks are equal on every proposal, so 8 of the 92
entries carry no information.  Let U be the in-frame pixels outside the
mask and q a pixel of U nearest to p.  One step from q toward p, along an
axis where they differ, lands in the frame and strictly nearer to p, so in
the mask: q is 4-adjacent to the mask, so it lies in the radius-1 ring and
hence in the radius-3 ring.  Both rings therefore have exactly U's nearest
pixels as their own.  They are empty only when the mask is the whole frame,
and then both blocks stay zero.

Proposal vectors are computed for all proposals of a sequence in one pass,
whatever frames they lie in: the masks' boundaries come from stacks of
consecutive masks, every pixel reads its own frame's shape and
intensities, and each histogram block of all the proposals is one
``bincount``, counted by numpy's own histogram edge rule so the vectors
equal per-proposal ``np.histogram`` bit for bit.  The nearest pixels of U
are p's unset in-frame 4-neighbours when it has any, and otherwise the
nearest of the radius-1 ring; their means add the terms in row-major order.

Move and division rows are built for all links at once: the member vectors
are gathered by index, the difference statistics are axis reductions, and
the plain and centroid-aligned mask IoUs of every pair come from one call
of ``geometry.mask_intersections``.  Only centroid distances, alignment
shifts and the parent's distance to the daughters' line are worked out link
by link, as Python floats.

Each vector kind has one batch call over what the pipeline stages hold:
``proposal_feature_matrix`` over the proposals and the frames,
``move_feature_matrix`` and ``mitosis_feature_matrix`` over the proposal
vectors and probabilities and the (m, 2) and (s, 3) position arrays the
graph's enumerators return.  ``proposal_features`` and ``mitosis_features``
are one-row calls of the same code.
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import Mask, mask_intersections
from .proposals import Frame, Proposal

PROPOSAL_DIM = 92
MOVE_DIM = 195
MITOSIS_DIM = 290

N_INTENSITY_BINS = 15
N_CONTRAST_BINS = 8
N_ANGULAR_BINS = 12
N_RADIAL_BINS = 5

# Block layout of the proposal vector, used by the move-feature summary stats.
_BLOCKS = ((0, 15), (15, 31), (31, 91), (91, 92))

_EPS = 1e-9


def _bin_index(values, lo: float, hi: float, n: int) -> np.ndarray:
    """Bin of each value as ``np.histogram(values, bins=n, range=(lo, hi))``
    counts it, or ``n`` for a value it leaves out (outside [lo, hi], NaN).

    numpy's rule: the index comes from the scaled offset and is then
    corrected against the edges, so a value on an edge opens the bin above
    it, except ``hi``, which the last bin keeps.
    """
    values = np.asarray(values, dtype=np.float64)
    edges = np.linspace(lo, hi, n + 1)
    keep = (values >= lo) & (values <= hi)
    v = np.where(keep, values, lo)
    idx = ((v - lo) / (hi - lo) * n).astype(np.intp)
    idx[idx == n] -= 1
    idx[v < edges[idx]] -= 1
    idx[(v >= edges[idx + 1]) & (idx != n - 1)] += 1
    idx[~keep] = n
    return idx


def _segment_counts(bins: np.ndarray, counts: np.ndarray, n_bins: int) -> np.ndarray:
    """Histogram rows of consecutive segments: ``bins`` holds ``counts[k]``
    bin indices for row k, each in 0..n_bins (n_bins is not counted)."""
    segment = np.repeat(np.arange(len(counts)), counts)
    total = np.bincount(segment * (n_bins + 1) + bins, minlength=len(counts) * (n_bins + 1))
    return total.reshape(len(counts), n_bins + 1)[:, :n_bins]


# Cells of one mask stack (one byte each): the masks go through
# _stack_pixels in runs whose stack stays within this size, so its few
# same-sized grids stay within a few MiB when one mask's box is large.  A
# mask too large for it goes alone.
STACK_CELLS = 1 << 20


def _read(frames: list[np.ndarray], t: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``frames[t[k]]`` at flat index ``at[k]`` (a row of ``at`` when it is
    2-d), an index past either end of the frame clipped to it: one ``take``
    per run of equal ``t``, so no frame is copied.  ``t`` is non-negative."""
    out = np.empty(at.shape)
    starts = np.flatnonzero(np.diff(t, prepend=-1)).tolist()
    for a, b in zip(starts, starts[1:] + [len(t)]):
        out[a:b] = frames[t[a]].take(at[a:b], mode="clip")
    return out


def _stack_pixels(masks: list[Mask], frame_of: np.ndarray, frames: list[np.ndarray]):
    """Mask and boundary pixels of each mask, from one stack, with their
    intensities, and the mean intensity of each boundary pixel's nearest
    in-frame pixels outside its mask; mask k lies in ``frames[frame_of[k]]``.

    Each mask is placed, padded by 1, in one slice of a zero boolean stack;
    the boundary is the set pixels with an unset 4-neighbour.  Returns the
    mask's and the boundary's (slice, rows, cols, intensities), in absolute
    coordinates, by slice and then row-major within it, which is each
    mask's own row-major order whatever padding the stack adds; then the
    means, one per boundary pixel, 0 on a mask that fills its frame.

    A boundary pixel's unset in-frame 4-neighbours are its nearest pixels
    outside the mask when it has any: four gathers over the stack.  A pixel
    whose unset 4-neighbours all lie off the frame finds its nearest among
    its mask's in-frame radius-1 ring, which holds them (module docstring),
    all such pixels of the stack at once.  Every pixel reads its own
    frame's shape and intensities (``_read``).
    """
    shape = np.array([f.shape for f in frames], dtype=np.intp).reshape(-1, 2)[frame_of]  # per mask
    x0 = np.array([m.x0 for m in masks]) - 1
    y0 = np.array([m.y0 for m in masks]) - 1
    stack = np.zeros(
        (len(masks), max(m.bits.shape[0] for m in masks) + 2, max(m.bits.shape[1] for m in masks) + 2),
        dtype=bool,
    )
    for k, m in enumerate(masks):
        h, w = m.bits.shape
        stack[k, 1 : 1 + h, 1 : 1 + w] = m.bits
    boundary = stack.copy()
    boundary[:, 1:-1, 1:-1] &= ~(
        stack[:, 1:-1, 1:-1] & stack[:, :-2, 1:-1] & stack[:, 2:, 1:-1] & stack[:, 1:-1, :-2] & stack[:, 1:-1, 2:]
    )
    m_k, rows, cols = np.nonzero(stack)
    rows, cols = rows + y0[m_k], cols + x0[m_k]
    m_values = _read(frames, frame_of[m_k], rows * shape[m_k, 1] + cols)
    b_k, b_i, b_j = np.nonzero(boundary)
    b_rows, b_cols = b_i + y0[b_k], b_j + x0[b_k]

    height, width = shape[b_k].T
    at = b_rows * width + b_cols
    # each boundary pixel, then its 4-neighbours in row-major order
    around = _read(frames, frame_of[b_k], np.column_stack([at, at - width, at - 1, at + 1, at + width]))
    total = np.zeros(len(at))
    count = np.zeros(len(at), dtype=np.intp)
    steps = ((-1, 0, b_rows > 0), (0, -1, b_cols > 0), (0, 1, b_cols < width - 1), (1, 0, b_rows < height - 1))
    for s, (di, dj, in_frame) in enumerate(steps, start=1):
        take = in_frame & ~stack[b_k, b_i + di, b_j + dj]
        total += np.where(take, around[:, s], 0.0)
        count += take

    edge = np.flatnonzero(count == 0)
    if len(edge):
        owners = np.unique(b_k[edge])
        grid = stack[owners]
        ring = grid.copy()
        ring[:, 1:] |= grid[:, :-1]
        ring[:, :-1] |= grid[:, 1:]
        ring[:, :, 1:] |= grid[:, :, :-1]
        ring[:, :, :-1] |= grid[:, :, 1:]
        r_k, r_rows, r_cols = np.nonzero(ring & ~grid)
        r_k = owners[r_k]
        r_rows, r_cols = r_rows + y0[r_k], r_cols + x0[r_k]
        keep = (r_rows >= 0) & (r_rows < shape[r_k, 0]) & (r_cols >= 0) & (r_cols < shape[r_k, 1])
        r_k, r_rows, r_cols = r_k[keep], r_rows[keep], r_cols[keep]
        r_count = np.bincount(r_k, minlength=len(masks))
        edge = edge[r_count[b_k[edge]] > 0]  # a mask that fills its frame has no ring
        # each such pixel against every ring pixel of its mask, in ring order
        per = r_count[b_k[edge]]
        pixel = np.repeat(np.arange(len(edge)), per)
        first = np.cumsum(per) - per
        r_first = np.cumsum(r_count) - r_count
        q = np.arange(len(pixel)) + np.repeat(r_first[b_k[edge]] - first, per)
        d2 = (b_rows[edge][pixel] - r_rows[q]) ** 2 + (b_cols[edge][pixel] - r_cols[q]) ** 2
        nearest = d2 == np.repeat(np.minimum.reduceat(d2, first), per)
        q = q[nearest]
        values = _read(frames, frame_of[r_k[q]], r_rows[q] * shape[r_k[q], 1] + r_cols[q])
        total[edge] = np.bincount(pixel[nearest], weights=values, minlength=len(edge))
        count[edge] = np.bincount(pixel[nearest], minlength=len(edge))
    near = np.divide(total, count, out=np.zeros(len(at)), where=count > 0)
    return (m_k, rows, cols, m_values), (b_k, b_rows, b_cols, around[:, 0]), near


def _pixels(masks: list[Mask], frame_of: np.ndarray, frames: list[np.ndarray]):
    """``_stack_pixels`` of all the masks, stacked in runs of consecutive
    masks of at most ``STACK_CELLS`` cells each, with the slice index
    counting masks."""
    runs, start, h, w = [], 0, 0, 0
    for k, m in enumerate(masks):
        ph, pw = m.bits.shape
        h2, w2 = max(h, ph + 2), max(w, pw + 2)
        if k > start and (k + 1 - start) * h2 * w2 > STACK_CELLS:
            runs.append((start, k))
            start, h2, w2 = k, ph + 2, pw + 2
        h, w = h2, w2
    runs.append((start, len(masks)))
    parts = []
    for lo, hi in runs:
        (m_k, *mask), (b_k, *bound), near = _stack_pixels(masks[lo:hi], frame_of[lo:hi], frames)
        parts.append((m_k + lo, *mask, b_k + lo, *bound, near))
    return tuple(np.concatenate(col) for col in zip(*parts))


def proposal_feature_matrix(props: list[Proposal], frames: list[Frame]) -> np.ndarray:
    """Proposal vectors in the order of ``props``, proposal ``p`` of frame
    ``frames[p.t]``, in one pass over all of them.  A proposal of no given
    frame, or whose mask extends past its frame, is a ValueError."""
    t = np.array([p.t for p in props], dtype=np.intp)
    bad = np.flatnonzero((t < 0) | (t >= len(frames)))
    if len(bad):
        p = props[bad[0]]
        raise ValueError(f"proposal {p.id} references frame {p.t} of {len(frames)}")
    return _proposal_rows(props, t, [f.intensity for f in frames])


def _proposal_rows(props: list[Proposal], frame_of: np.ndarray, frames: list[np.ndarray]) -> np.ndarray:
    """``proposal_features`` of the proposals, one row each, proposal k of
    the frame ``frames[frame_of[k]]``.

    Only the masks' pixels are binned; their boundaries and the nearest
    outside means come from one stack per run of proposals, and every
    histogram of every proposal comes from one ``bincount``.  A mask must
    lie inside its frame.
    """
    n = len(props)
    out = np.zeros((n, PROPOSAL_DIM))
    if n == 0:
        return out
    masks = [p.mask for p in props]
    shapes = np.array([f.shape for f in frames], dtype=np.intp).reshape(-1, 2)
    height, width = shapes[frame_of].T
    x0, y0 = np.array([(m.x0, m.y0) for m in masks], dtype=np.intp).T
    h, w = np.array([m.bits.shape for m in masks], dtype=np.intp).T
    bad = np.flatnonzero((x0 < 0) | (y0 < 0) | (x0 + w > width) | (y0 + h > height))
    if len(bad):
        k = bad[0]
        raise ValueError(f"proposal {props[k].id} extends past its {width[k]}x{height[k]} frame")
    m_k, m_rows, m_cols, m_values, b_k, b_rows, b_cols, b_values, near = _pixels(masks, frame_of, frames)
    area = np.bincount(m_k, minlength=n)
    int_bins = _bin_index(m_values, 0.0, 1.0, N_INTENSITY_BINS)
    out[:, 0:15] = _segment_counts(int_bins, area, N_INTENSITY_BINS) / area[:, None]

    b_count = np.bincount(b_k, minlength=n)
    has_ring = area < height * width  # False: the mask is the whole frame, and the blocks stay zero
    on_ring = np.repeat(has_ring, b_count)
    diffs = near[on_ring] - b_values[on_ring]
    bins = _bin_index(np.clip(diffs, -0.5, 0.5), -0.5, 0.5, N_CONTRAST_BINS)
    contrast = _segment_counts(bins, np.where(has_ring, b_count, 0), N_CONTRAST_BINS) / b_count[:, None]
    out[:, 15:23] = contrast
    out[:, 23:31] = contrast

    out[:, 31:91] = _polar_hist(_centroids(props, m_k, m_rows, m_cols, area), b_rows, b_cols, b_count)
    out[:, 91] = area / (width * height).astype(np.float64)
    return out


def _centroids(props: list[Proposal], m_k, m_rows, m_cols, area) -> np.ndarray:
    """(n, 2) centroids of the proposals from their pixels, each also left in
    its mask's centroid cache.  A sum of pixel coordinates is an integer, exact
    in float64, so each mean has the bits ``Mask.centroid`` computes."""
    origin = np.array([(p.mask.x0, p.mask.y0) for p in props], dtype=np.float64)
    sums = np.column_stack([np.bincount(m_k, m_cols, len(props)), np.bincount(m_k, m_rows, len(props))])
    centroids = origin + (sums - area[:, None] * origin) / area[:, None]
    for p, c in zip(props, centroids.tolist()):
        p.mask._centroid = tuple(c)  # the cache Mask.centroid fills on first use
    return centroids


def _polar_hist(centroids: np.ndarray, b_rows, b_cols, b_count) -> np.ndarray:
    """12x5 histogram of boundary pixels around each centroid, radius scaled
    by each proposal's largest; one row per proposal."""
    centroids = np.repeat(centroids, b_count, axis=0)
    dy = b_rows.astype(np.float64) - centroids[:, 1]
    dx = b_cols.astype(np.float64) - centroids[:, 0]
    radius = np.hypot(dx, dy)
    starts = np.concatenate([[0], np.cumsum(b_count)[:-1]])
    r_max = np.repeat(np.maximum.reduceat(radius, starts), b_count)
    unit = np.divide(radius, r_max, out=np.zeros_like(radius), where=r_max > 0)
    ang_bin = np.floor((np.arctan2(dy, dx) + math.pi) / (2.0 * math.pi / N_ANGULAR_BINS))
    ang_bin = np.clip(ang_bin.astype(int), 0, N_ANGULAR_BINS - 1)
    rad_bin = np.minimum((unit * N_RADIAL_BINS).astype(int), N_RADIAL_BINS - 1)
    n_bins = N_ANGULAR_BINS * N_RADIAL_BINS
    return _segment_counts(ang_bin * N_RADIAL_BINS + rad_bin, b_count, n_bins) / b_count[:, None]


def proposal_features(p: Proposal, frame: Frame) -> np.ndarray:
    """92-entry appearance vector; invariant to joint translation of mask and image."""
    return _proposal_rows([p], np.zeros(1, dtype=np.intp), [frame.intensity])[0]


def centroid_distance(a: Proposal, b: Proposal) -> float:
    (ax, ay), (bx, by) = a.centroid, b.centroid
    return float(math.hypot(bx - ax, by - ay))


def _diff_stats(f_i: np.ndarray, f_j: np.ndarray) -> np.ndarray:
    """Per row pair: the mean and max of the relative differences, then
    their mean over each block of ``_BLOCKS``."""
    diff = np.abs(f_i - f_j) / (np.abs(f_i) + np.abs(f_j) + _EPS)
    blocks = [diff[:, a:b].mean(axis=1) for a, b in _BLOCKS]
    return np.column_stack([diff.mean(axis=1), diff.max(axis=1), *blocks])


def _link_geometry(props: list[Proposal], a: np.ndarray, b: np.ndarray):
    """Centroid distance, mask IoU and aligned mask IoU of each pair
    ``(props[a[k]], props[b[k]])``.  The aligned IoU first moves b's mask by
    the centroid offset rounded to pixels, so the centroids coincide."""
    centroids = [p.centroid for p in props]
    dist, move_x, move_y = [], [], []
    for i, j in zip(a.tolist(), b.tolist()):
        (ax, ay), (bx, by) = centroids[i], centroids[j]
        dist.append(math.hypot(bx - ax, by - ay))
        move_x.append(int(round(ax - bx)))
        move_y.append(int(round(ay - by)))
    n = len(a)
    still = np.zeros(n, dtype=np.intp)
    inter = mask_intersections(
        [p.mask for p in props],
        np.tile(a, 2),
        np.tile(b, 2),
        np.concatenate([still, np.array(move_x, dtype=np.intp)]),
        np.concatenate([still, np.array(move_y, dtype=np.intp)]),
    )
    area = np.array([p.mask.area for p in props], dtype=np.int64)
    union = np.tile(area[a] + area[b], 2) - inter  # never 0: masks are not empty
    iou = np.where(inter > 0, inter / union, 0.0)
    return np.array(dist, dtype=np.float64), iou[:n], iou[n:]


def move_feature_matrix(props: list[Proposal], feats: np.ndarray, probs: np.ndarray, moves: np.ndarray) -> np.ndarray:
    """195-entry link vector of each move ``(props[src], props[dst])`` of the
    (m, 2) position array ``moves``, from frame t to t+1; ``feats`` and
    ``probs`` hold each proposal's vector and probability, in the order of
    ``props``."""
    src, dst = moves.T
    f_i, f_j = feats[src], feats[dst]
    out = np.empty((len(moves), MOVE_DIM))
    out[:, 0:92] = f_i
    out[:, 92:184] = f_j
    out[:, 184], out[:, 185], out[:, 186] = _link_geometry(props, src, dst)
    out[:, 187:193] = _diff_stats(f_i, f_j)
    out[:, 193] = probs[src]
    out[:, 194] = probs[dst]
    return out


def mitosis_feature_matrix(props: list[Proposal], feats: np.ndarray, probs: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """290-entry division vector of each triple ``(props[parent], props[d1],
    props[d2])`` of the (s, 3) position array ``sets``; ``feats`` and
    ``probs`` as for ``move_feature_matrix``.

    The vector does not depend on the order the daughters are given in:
    they go in ascending id, and the pairwise-distance block is sorted.
    """
    parent, d1, d2 = sets.T
    ids = np.array([p.id for p in props])
    swap = ids[d1] > ids[d2]
    d1, d2 = np.where(swap, d2, d1), np.where(swap, d1, d2)
    n = len(sets)
    dist, iou, aligned = _link_geometry(props, np.concatenate([parent, parent, d1]), np.concatenate([d1, d2, d2]))
    d_pd1, d_pd2, d_dd = dist.reshape(3, n)
    out = np.empty((n, MITOSIS_DIM))
    out[:, 0:92] = feats[parent]
    out[:, 92:184] = feats[d1]
    out[:, 184:276] = feats[d2]
    out[:, 276:279] = np.sort(np.column_stack([d_pd1, d_pd2, d_dd]), axis=1)
    out[:, 279:282] = iou.reshape(3, n).T
    out[:, 282:285] = aligned.reshape(3, n).T
    out[:, 285] = [
        _point_to_line(props[i].centroid, props[j].centroid, props[k].centroid)
        for i, j, k in zip(parent.tolist(), d1.tolist(), d2.tolist())
    ]
    out[:, 286] = np.abs(d_dd - (d_pd1 + d_pd2))
    out[:, 287] = probs[parent]
    out[:, 288] = probs[d1]
    out[:, 289] = probs[d2]
    return out


def mitosis_features(
    p: Proposal,
    d1: Proposal,
    d2: Proposal,
    prob_p: float,
    prob_d1: float,
    prob_d2: float,
    frame_parent: Frame,
    frame_daughters: Frame,
) -> np.ndarray:
    """``mitosis_feature_matrix`` of the one triple (p, d1, d2)."""
    feats = _proposal_rows([p, d1, d2], np.array([0, 1, 1]), [frame_parent.intensity, frame_daughters.intensity])
    probs = np.array([prob_p, prob_d1, prob_d2], dtype=np.float64)
    return mitosis_feature_matrix([p, d1, d2], feats, probs, np.array([[0, 1, 2]]))[0]


def _point_to_line(pt, a, b) -> float:
    """Distance from pt to the line through a and b (to a itself when a == b)."""
    ax, ay = a
    bx, by = b
    px, py = pt
    vx, vy = bx - ax, by - ay
    norm = math.hypot(vx, vy)
    if norm < _EPS:
        return math.hypot(px - ax, py - ay)
    return abs(vx * (ay - py) - vy * (ax - px)) / norm
