"""Frame-by-frame and object-by-object loops: references for the array
passes that replaced them in ``pipeline.paint_lineage``,
``evaluate._cell_overlap`` and ``solve.check_solution``."""
from __future__ import annotations

import numpy as np


def paint_lineage(lineage, by_id, shapes) -> list[np.ndarray]:
    """One grid per frame; each member's in-frame pixels written in
    ascending track id, so the highest id wins an overlap."""
    grids = [np.zeros(shape, dtype=np.int32) for shape in shapes]
    for track_id in sorted(lineage.members):
        for pid in lineage.members[track_id]:
            p = by_id[pid]
            height, width = shapes[p.t]
            rows, cols = p.mask.pixels()
            keep = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)
            grids[p.t][rows[keep], cols[keep]] = track_id
    return grids


def cell_overlap(gt, t, masks):
    """Labels, areas, the (mask, cell) intersection table and the majority
    test of frame ``t``, mask by mask over the grid cut to each box."""
    grid = gt.label_grids[t] if 0 <= t < len(gt.label_grids) else np.zeros((0, 0), dtype=np.int64)
    counts = np.bincount(grid.ravel(), minlength=1)
    labels = np.flatnonzero(counts[1:]) + 1
    inter = np.zeros((len(masks), len(labels)), dtype=np.int64)
    for k, m in enumerate(masks):
        y0, x0 = max(m.y0, 0), max(m.x0, 0)
        y1 = min(m.y0 + m.bits.shape[0], grid.shape[0])
        x1 = min(m.x0 + m.bits.shape[1], grid.shape[1])
        if y0 < y1 and x0 < x1:
            cells = grid[y0:y1, x0:x1][m.bits[y0 - m.y0 : y1 - m.y0, x0 - m.x0 : x1 - m.x0]]
            for c, label in enumerate(labels.tolist()):
                inter[k, c] = int((cells == label).sum())
    area = counts[labels]
    return labels, area, inter, 2 * inter > area


def check_solution(instance, x) -> list[str]:
    """Feasibility checked row by row in plain ints."""
    x = np.asarray(x)
    if x.shape != (instance.n_vars,):
        return [f"solution length {x.shape} does not match {instance.n_vars} variables"]
    if not np.isin(x, (0, 1)).all():
        return ["solution contains non-binary entries"]
    out = []
    for ci, (indices, coeffs, sense, rhs) in enumerate(instance.constraints.tuples()):
        val = sum(co * int(x[i]) for i, co in zip(indices, coeffs))
        if not (val <= rhs if sense == "<=" else val == rhs):
            out.append(f"constraint {ci}: value {val} violates {sense} {rhs}")
    return out
