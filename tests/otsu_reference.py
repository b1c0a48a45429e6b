"""Otsu's threshold over ``np.histogram``'s 256 bins of [0, 1]: the
reference for ``proposals.otsu_threshold``, which bins by one ``bincount``."""
from __future__ import annotations

import numpy as np


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
    plateau = np.flatnonzero(sigma_b == sigma_b.max())
    return float(centers[int(plateau[(len(plateau) - 1) // 2])])
