"""The LoG generator written plainly: one batched inverse FFT over every
sigma at once, each peak grown by its own ``ndimage.label`` call, and the
suppression over every candidate pair; and the kernel spectra from
scipy's own ``gaussian_laplace``.  References for ``proposals._log_stack``,
``proposals._log_spectra`` and ``proposals.log_blob_proposals``."""
from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from lineage_ilp.geometry import Mask, mask_intersections
from lineage_ilp.proposals import (
    DEFAULT_AREA_BOUNDS,
    LOG_RESPONSE_GRID,
    MASK_NMS_IOU,
    Proposal,
    _local_maxima,
    _log_grid,
    _log_spectra,
    _suppress,
)

_EIGHT = np.ones((3, 3), dtype=bool)


def log_spectra(shape: tuple[int, ...], sigmas: tuple[float, ...]) -> np.ndarray:
    """Half-spectra of the kernels ``-(s**2) * LoG_s``, each kernel scipy's
    response to a centred delta in the widest kernel's grid, rolled so the
    centre sits at the origin of the FFT grid."""
    radius, size = _log_grid(shape, sigmas)
    width = 2 * radius + 1
    delta = np.zeros((width, width))
    delta[radius, radius] = 1.0
    kernels = np.zeros((len(sigmas),) + size)
    for k, s in enumerate(sigmas):
        kernels[k, :width, :width] = -(s ** 2) * ndimage.gaussian_laplace(delta, sigma=s, mode="constant")
    return np.fft.rfft2(np.roll(kernels, (-radius, -radius), axis=(1, 2)))


def batched_log_stack(img: np.ndarray, sigmas: tuple[float, ...]) -> np.ndarray:
    """The scale stack from one forward FFT and one inverse over all sigmas
    at once; a strided view of the inverse."""
    radius, size = _log_grid(img.shape, sigmas)
    h, w = img.shape
    spectrum = np.fft.rfft2(np.pad(img, radius, mode="edge"), s=size)
    rows = np.fft.ifft(_log_spectra(img.shape, sigmas) * spectrum, axis=1)[:, radius : radius + h]
    return np.fft.irfft(rows, n=size[1], axis=2)[:, :, radius : radius + w]


def grow_peak(img: np.ndarray, r: int, c: int, window: int) -> Mask | None:
    """The 8-connected region at least half of ``img[r, c]`` around (r, c),
    within ``window`` pixels of it and inside the frame, as a tight mask;
    None when the peak's own pixel is not in it."""
    r0, r1 = max(0, r - window), min(img.shape[0], r + window + 1)
    c0, c1 = max(0, c - window), min(img.shape[1], c + window + 1)
    labels, _ = ndimage.label(img[r0:r1, c0:c1] >= img[r, c] / 2.0, structure=_EIGHT)
    lab = labels[r - r0, c - c0]
    if lab == 0:
        return None
    return Mask(c0, r0, labels == lab).tighten()


def log_blob_proposals(
    frame,
    *,
    sigmas: tuple[float, ...] = (1.5, 2.0, 3.0, 4.0, 6.0),
    area_bounds: tuple[int, int] = DEFAULT_AREA_BOUNDS,
) -> list[Proposal]:
    """Peaks of ``batched_log_stack`` strongest first, each grown by
    ``grow_peak``, then every candidate pair's IoU from one kernel call."""
    img = frame.intensity
    raw = batched_log_stack(img, tuple(sigmas))
    peak_best = np.rint(raw.max() / LOG_RESPONSE_GRID) * LOG_RESPONSE_GRID
    if peak_best <= 0:
        return []
    sidx, rows, cols, value = _local_maxima(raw)
    candidates: list[Mask] = []
    scores: list[float] = []
    for k in np.lexsort((cols, rows, -value)):
        m = grow_peak(img, int(rows[k]), int(cols[k]), int(math.ceil(3.0 * sigmas[int(sidx[k])])))
        if m is None or not area_bounds[0] <= m.area <= area_bounds[1]:
            continue
        candidates.append(m)
        scores.append(min(1.0, float(value[k] / peak_best)))
    if not candidates:
        return []
    i, j = np.triu_indices(len(candidates), 1)
    inter = mask_intersections(candidates, i, j, np.zeros_like(i), np.zeros_like(i))
    area = np.array([m.area for m in candidates])
    over = inter / (area[i] + area[j] - inter) > MASK_NMS_IOU
    kept = _suppress(np.array(scores), i[over], j[over])
    return [
        Proposal(id=rank, t=frame.t, mask=candidates[idx], raw_score=scores[idx])
        for rank, idx in enumerate(kept)
    ]
