"""Synthetic sequences of drifting, dividing Gaussian blobs with full ground truth,
plus a corruption pass that turns ground truth into imperfect proposals.  Both
take their stage seed as an argument; the simulator's fixed rules are constants."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evaluate import GroundTruth
from .geometry import Mask, label_masks
from .io import TrackRow
from .proposals import Frame, Proposal

HALF_PEAK_FACTOR = math.sqrt(2.0 * math.log(2.0))  # blob owns pixels within r * this
MIN_DIVISION_RADIUS = 2.2  # smaller cells never divide
DIVISION_REFRACTORY = 5  # frames a cell lives before it may divide
CLUTTER_RADIUS_RANGE = (2.0, 5.0)  # radii of the clutter disks corrupt() adds


@dataclass
class CorruptionConfig:
    drop_rate: float = 0.0
    clutter_rate: float = 0.0
    merge_rate: float = 0.0
    split_rate: float = 0.0
    jitter_px: float = 0.0


@dataclass
class SimConfig:
    frames: int = 20
    width: int = 128
    height: int = 128
    initial_cells: int = 8
    radius_range: tuple[float, float] = (3.0, 5.0)
    amplitude_range: tuple[float, float] = (0.7, 0.95)
    motion_sigma: float = 1.5
    division_rate: float = 0.0
    enter_rate: float = 0.0
    death_rate: float = 0.0
    noise_sigma: float = 0.02
    border: str = "absorb"  # "absorb": crossing cells exit; "reflect": bounce back
    placement_margin: float = 10.0
    initial_min_separation: float = 14.0
    corruption: CorruptionConfig = field(default_factory=CorruptionConfig)  # read by corrupt()


@dataclass
class _Cell:
    track_id: int
    x: float
    y: float
    radius: float
    amplitude: float
    birth: int
    parent: int


@dataclass
class SimResult:
    frames: list[Frame]
    gt: GroundTruth
    counts: dict[str, int] = field(default_factory=dict)


def simulate(cfg: SimConfig, seed: int) -> SimResult:
    """Generate a sequence plus ground truth; fully determined by cfg and seed.

    Per step, in fixed order: Brownian moves (ascending track id), border
    exits, deaths, divisions, entries.  Dividing parents are replaced by two
    daughters placed at parent +/- u * 1.2 r with radii 0.75 r.
    """
    if cfg.frames < 1:
        raise ValueError("need at least one frame")
    if cfg.border not in ("absorb", "reflect"):
        raise ValueError(f"unknown border mode {cfg.border!r}")
    seq = np.random.SeedSequence(seed)
    dyn_rng, noise_rng = (np.random.default_rng(s) for s in seq.spawn(2))

    cells: list[_Cell] = []
    next_id = 1
    for _ in range(cfg.initial_cells):
        for _attempt in range(200):
            x = dyn_rng.uniform(cfg.placement_margin, cfg.width - cfg.placement_margin)
            y = dyn_rng.uniform(cfg.placement_margin, cfg.height - cfg.placement_margin)
            if all(
                math.hypot(c.x - x, c.y - y) >= cfg.initial_min_separation for c in cells
            ):
                break
        radius = dyn_rng.uniform(*cfg.radius_range)
        amplitude = dyn_rng.uniform(*cfg.amplitude_range)
        cells.append(_Cell(next_id, x, y, radius, amplitude, birth=0, parent=0))
        next_id += 1

    ends: dict[int, int] = {}
    meta: dict[int, _Cell] = {c.track_id: c for c in cells}
    per_frame_cells: list[list[_Cell]] = []
    counts = {"divisions": 0, "enters": 0, "exits": 0, "deaths": 0}

    live = list(cells)
    for t in range(cfg.frames):
        live.sort(key=lambda c: c.track_id)
        per_frame_cells.append([
            _Cell(c.track_id, c.x, c.y, c.radius, c.amplitude, c.birth, c.parent) for c in live
        ])
        for c in live:
            ends[c.track_id] = t
        if t == cfg.frames - 1:
            break

        moved: list[_Cell] = []
        for c in live:
            dx, dy = dyn_rng.normal(0.0, cfg.motion_sigma, size=2)
            nx, ny = c.x + dx, c.y + dy
            if cfg.border == "reflect":
                nx = _reflect(nx, cfg.width)
                ny = _reflect(ny, cfg.height)
            elif not (-0.5 <= nx < cfg.width - 0.5 and -0.5 <= ny < cfg.height - 0.5):
                # The grid covers [-0.5, extent - 0.5); beyond that the centre
                # pixel no longer exists and the cell is absorbed.
                counts["exits"] += 1
                continue
            moved.append(_Cell(c.track_id, nx, ny, c.radius, c.amplitude, c.birth, c.parent))

        survivors: list[_Cell] = []
        for c in moved:
            if cfg.death_rate > 0 and dyn_rng.uniform() < cfg.death_rate:
                counts["deaths"] += 1
                continue
            survivors.append(c)

        nxt: list[_Cell] = []
        for c in survivors:
            can_divide = (
                cfg.division_rate > 0
                and c.radius >= MIN_DIVISION_RADIUS
                and (t + 1 - c.birth) >= DIVISION_REFRACTORY
            )
            if can_divide and dyn_rng.uniform() < cfg.division_rate:
                counts["divisions"] += 1
                angle = dyn_rng.uniform(0.0, 2.0 * math.pi)
                ux, uy = math.cos(angle), math.sin(angle)
                offset = 1.2 * c.radius
                for sign in (1.0, -1.0):
                    dx_pos = _clamp(c.x + sign * ux * offset, 1.0, cfg.width - 2.0)
                    dy_pos = _clamp(c.y + sign * uy * offset, 1.0, cfg.height - 2.0)
                    d = _Cell(
                        next_id, dx_pos, dy_pos, 0.75 * c.radius, c.amplitude,
                        birth=t + 1, parent=c.track_id,
                    )
                    next_id += 1
                    meta[d.track_id] = d
                    nxt.append(d)
            else:
                nxt.append(c)

        if cfg.enter_rate > 0:
            for _ in range(int(dyn_rng.poisson(cfg.enter_rate))):
                side = int(dyn_rng.integers(0, 4))
                inset = dyn_rng.uniform(1.0, 4.0)
                along_w = dyn_rng.uniform(2.0, cfg.width - 3.0)
                along_h = dyn_rng.uniform(2.0, cfg.height - 3.0)
                if side == 0:
                    x, y = along_w, inset
                elif side == 1:
                    x, y = along_w, cfg.height - 1.0 - inset
                elif side == 2:
                    x, y = inset, along_h
                else:
                    x, y = cfg.width - 1.0 - inset, along_h
                c = _Cell(
                    next_id, x, y,
                    dyn_rng.uniform(*cfg.radius_range),
                    dyn_rng.uniform(*cfg.amplitude_range),
                    birth=t + 1, parent=0,
                )
                next_id += 1
                meta[c.track_id] = c
                nxt.append(c)
                counts["enters"] += 1
        live = nxt

    frames = []
    label_grids = []
    markers: dict[int, list[tuple[int, float, float]]] = {}
    for t, group in enumerate(per_frame_cells):
        frames.append(Frame(t=t, intensity=_render(group, cfg, noise_rng)))
        label_grids.append(_labels(group, cfg.width, cfg.height))
        markers[t] = [(c.track_id, c.x, c.y) for c in group]

    rows = [
        TrackRow(label, meta[label].birth, ends[label], meta[label].parent)
        for label in sorted(ends)
    ]
    gt = GroundTruth(tracks=rows, markers=markers, label_grids=label_grids)
    return SimResult(frames=frames, gt=gt, counts=counts)


def _clamp(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


def _reflect(v: float, extent: float) -> float:
    """Fold v into [0, extent - 1] by reflecting at both ends."""
    top = extent - 1.0
    period = 2.0 * top
    v = v % period
    if v < 0:
        v += period
    return v if v <= top else period - v


def _render(group: list[_Cell], cfg: SimConfig, noise_rng) -> np.ndarray:
    img = np.zeros((cfg.height, cfg.width), dtype=np.float64)
    cols = np.arange(cfg.width, dtype=np.float64)
    rows = np.arange(cfg.height, dtype=np.float64)
    for c in group:
        span = int(math.ceil(4.0 * c.radius))
        c0, c1 = max(0, int(c.x) - span), min(cfg.width, int(c.x) + span + 1)
        r0, r1 = max(0, int(c.y) - span), min(cfg.height, int(c.y) + span + 1)
        if c0 >= c1 or r0 >= r1:
            continue
        dx = cols[c0:c1] - c.x
        dy = rows[r0:r1] - c.y
        d2 = dy[:, None] ** 2 + dx[None, :] ** 2
        img[r0:r1, c0:c1] += c.amplitude * np.exp(-d2 / (2.0 * c.radius ** 2))
    if cfg.noise_sigma > 0:
        img += noise_rng.normal(0.0, cfg.noise_sigma, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def _labels(group: list[_Cell], width: int, height: int) -> np.ndarray:
    """Nearest-blob ownership over each blob's half-peak disk; ties keep lower id."""
    labels = np.zeros((height, width), dtype=np.int64)
    best = np.full((height, width), np.inf, dtype=np.float64)
    for c in sorted(group, key=lambda c: c.track_id):
        own = c.radius * HALF_PEAK_FACTOR
        span = int(math.ceil(own)) + 1
        c0, c1 = max(0, int(c.x) - span), min(width, int(c.x) + span + 1)
        r0, r1 = max(0, int(c.y) - span), min(height, int(c.y) + span + 1)
        if c0 >= c1 or r0 >= r1:
            continue
        dx = np.arange(c0, c1, dtype=np.float64) - c.x
        dy = np.arange(r0, r1, dtype=np.float64) - c.y
        d2 = dy[:, None] ** 2 + dx[None, :] ** 2
        claim = (d2 <= own * own) & (d2 < best[r0:r1, c0:c1])
        sub = labels[r0:r1, c0:c1]
        sub[claim] = c.track_id
        best[r0:r1, c0:c1][claim] = d2[claim]
    return labels


def ideal_proposals(gt: GroundTruth) -> list[list[tuple[int, Mask]]]:
    """Per frame, (track_id, tight mask) for every labelled region."""
    if gt.label_grids is None:
        raise ValueError("ground truth has no label grids")
    return [list(label_masks(grid).items()) for grid in gt.label_grids]


def corrupt(gt: GroundTruth, ccfg: CorruptionConfig, seed: int) -> list[Proposal]:
    """Derive proposals from ground-truth regions and degrade them.

    Pass order, all drawing from one stream seeded by ``seed``: merge
    touching pairs (union replaces both), drop, split (bisection across the
    longer side), jitter, clutter.  Each proposal scores by its kind alone.
    With all rates zero the output masks equal the ground-truth regions
    exactly.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    per_frame = ideal_proposals(gt)
    height, width = gt.label_grids[0].shape
    props: list[Proposal] = []
    next_id = 0

    for t, (grid, frame_masks) in enumerate(zip(gt.label_grids, per_frame)):
        masks: list[tuple[Mask, str]] = [(m, "true") for _label, m in frame_masks]

        if ccfg.merge_rate > 0 and len(masks) > 1:
            merged: list[tuple[Mask, str]] = []
            consumed = [False] * len(masks)
            touching = _touching(grid)
            for i in range(len(masks)):
                if consumed[i]:
                    continue
                for j in range(i + 1, len(masks)):
                    if consumed[j] or (i, j) not in touching:
                        continue
                    if rng.uniform() < ccfg.merge_rate:
                        merged.append((_union(masks[i][0], masks[j][0]), "merged"))
                        consumed[i] = consumed[j] = True
                        break
                if not consumed[i]:
                    merged.append(masks[i])
                    consumed[i] = True
            masks = merged

        if ccfg.drop_rate > 0:
            masks = [mk for mk in masks if rng.uniform() >= ccfg.drop_rate]

        if ccfg.split_rate > 0:
            split_out: list[tuple[Mask, str]] = []
            for m, kind in masks:
                if rng.uniform() < ccfg.split_rate:
                    halves = _bisect(m)
                    if halves is not None:
                        split_out.extend((h, "split") for h in halves)
                        continue
                split_out.append((m, kind))
            masks = split_out

        if ccfg.jitter_px > 0:
            jittered = []
            for m, kind in masks:
                dx = int(round(rng.normal(0.0, ccfg.jitter_px)))
                dy = int(round(rng.normal(0.0, ccfg.jitter_px)))
                jittered.append((_shift_into(m, dx, dy, width, height), kind))
            masks = jittered

        if ccfg.clutter_rate > 0:
            n_clutter = int(rng.binomial(max(len(frame_masks), 1), ccfg.clutter_rate))
            for _ in range(n_clutter):
                radius = rng.uniform(*CLUTTER_RADIUS_RANGE)
                radius = min(radius, (min(width, height) - 5) / 2.0)
                lo_x, hi_x = radius + 1, width - radius - 2
                lo_y, hi_y = radius + 1, height - radius - 2
                cx = rng.uniform(lo_x, hi_x) if hi_x > lo_x else (width - 1) / 2.0
                cy = rng.uniform(lo_y, hi_y) if hi_y > lo_y else (height - 1) / 2.0
                masks.append((_disk_mask(cx, cy, radius), "clutter"))

        base = {"true": 0.9, "merged": 0.75, "split": 0.6, "clutter": 0.35}
        for m, kind in masks:
            props.append(Proposal(id=next_id, t=t, mask=m, raw_score=base[kind]))
            next_id += 1
    return props


def _touching(grid: np.ndarray) -> set[tuple[int, int]]:
    """Pairs (i, j), i < j, of the regions of a label grid, numbered in
    ascending label order as ``label_masks`` returns them, that have two
    8-adjacent pixels.  Regions of one grid never overlap, so these are
    exactly the pairs where the one-pixel dilation of one meets the other.
    """
    labels = np.unique(grid[grid > 0])
    pairs: set[tuple[int, int]] = set()
    # each pixel against its neighbour right, below, below right and below left
    for a, b in ((grid[:, :-1], grid[:, 1:]), (grid[:-1], grid[1:]),
                 (grid[:-1, :-1], grid[1:, 1:]), (grid[:-1, 1:], grid[1:, :-1])):
        edge = (a != b) & (a > 0) & (b > 0)
        i, j = np.searchsorted(labels, a[edge]), np.searchsorted(labels, b[edge])
        pairs.update(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
    return pairs


def _union(a: Mask, b: Mask) -> Mask:
    x0 = min(a.x0, b.x0)
    y0 = min(a.y0, b.y0)
    x1 = max(a.x0 + a.bits.shape[1], b.x0 + b.bits.shape[1])
    y1 = max(a.y0 + a.bits.shape[0], b.y0 + b.bits.shape[0])
    bits = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    bits[a.y0 - y0 : a.y0 - y0 + a.bits.shape[0], a.x0 - x0 : a.x0 - x0 + a.bits.shape[1]] |= a.bits
    bits[b.y0 - y0 : b.y0 - y0 + b.bits.shape[0], b.x0 - x0 : b.x0 - x0 + b.bits.shape[1]] |= b.bits
    return Mask(x0, y0, bits).tighten()


def _bisect(m: Mask) -> list[Mask] | None:
    """Split across the middle of the longer side; tight masks guarantee both
    halves keep at least one pixel.  Single-pixel masks cannot be split."""
    h, w = m.bits.shape
    if w >= h and w >= 2:
        cut = w // 2
        return [Mask(m.x0, m.y0, m.bits[:, :cut]).tighten(),
                Mask(m.x0 + cut, m.y0, m.bits[:, cut:]).tighten()]
    if h >= 2:
        cut = h // 2
        return [Mask(m.x0, m.y0, m.bits[:cut, :]).tighten(),
                Mask(m.x0, m.y0 + cut, m.bits[cut:, :]).tighten()]
    return None


def _shift_into(m: Mask, dx: int, dy: int, width: int, height: int) -> Mask:
    h, w = m.bits.shape
    x0 = min(max(m.x0 + dx, 0), max(width - w, 0))
    y0 = min(max(m.y0 + dy, 0), max(height - h, 0))
    return Mask(x0, y0, m.bits)


def _disk_mask(cx: float, cy: float, radius: float) -> Mask:
    span = int(math.ceil(radius))
    c0, r0 = int(cx) - span, int(cy) - span
    size = 2 * span + 1
    dx = np.arange(c0, c0 + size, dtype=np.float64) - cx
    dy = np.arange(r0, r0 + size, dtype=np.float64) - cy
    bits = (dy[:, None] ** 2 + dx[None, :] ** 2) <= radius * radius
    if not bits.any():
        bits[span, span] = True
    return Mask(c0, r0, bits).tighten()
