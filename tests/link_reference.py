"""The move and division vectors computed link by link, as references for
the matrix code in ``lineage_ilp.features``: every entry from scalar
expressions on one pair or triple, every IoU counted pair by pair
(``overlap_reference``), not by the bit-row kernel the matrix code uses."""
from __future__ import annotations

import numpy as np

from lineage_ilp.features import MITOSIS_DIM, MOVE_DIM, _BLOCKS, _EPS, _point_to_line, centroid_distance
from lineage_ilp.geometry import Mask
from lineage_ilp.proposals import Proposal
from overlap_reference import iou


def aligned_iou(a: Mask, b: Mask) -> float:
    """Mask IoU after translating b so the centroids coincide (rounded to pixels)."""
    (ax, ay), (bx, by) = a.centroid, b.centroid
    return iou(a, b.translated(int(round(ax - bx)), int(round(ay - by))))


def diff_stats(f_i: np.ndarray, f_j: np.ndarray) -> np.ndarray:
    diff = np.abs(f_i - f_j) / (np.abs(f_i) + np.abs(f_j) + _EPS)
    blocks = [diff[a:b].mean() for a, b in _BLOCKS]
    return np.array([diff.mean(), diff.max(), *blocks])


def move_row(p_i: Proposal, p_j: Proposal, prob_i: float, prob_j: float, feat_i, feat_j) -> np.ndarray:
    rel = np.array([
        centroid_distance(p_i, p_j),
        iou(p_i.mask, p_j.mask),
        aligned_iou(p_i.mask, p_j.mask),
    ])
    out = np.concatenate([feat_i, feat_j, rel, diff_stats(feat_i, feat_j), [prob_i, prob_j]])
    assert out.shape == (MOVE_DIM,)
    return out


def mitosis_row(p, d1, d2, prob_p, prob_d1, prob_d2, feat_p, feat_d1, feat_d2) -> np.ndarray:
    if d1.id > d2.id:
        d1, d2 = d2, d1
        prob_d1, prob_d2 = prob_d2, prob_d1
        feat_d1, feat_d2 = feat_d2, feat_d1
    d_pd1 = centroid_distance(p, d1)
    d_pd2 = centroid_distance(p, d2)
    d_dd = centroid_distance(d1, d2)
    out = np.concatenate([
        feat_p,
        feat_d1,
        feat_d2,
        np.sort([d_pd1, d_pd2, d_dd]),
        [iou(p.mask, d1.mask), iou(p.mask, d2.mask), iou(d1.mask, d2.mask)],
        [aligned_iou(p.mask, d1.mask), aligned_iou(p.mask, d2.mask), aligned_iou(d1.mask, d2.mask)],
        [_point_to_line(p.centroid, d1.centroid, d2.centroid)],
        [abs(d_dd - (d_pd1 + d_pd2))],
        [prob_p, prob_d1, prob_d2],
    ])
    assert out.shape == (MITOSIS_DIM,)
    return out
