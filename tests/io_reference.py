"""The proposal-file codec one mask at a time, as references for the
one-pass code in ``lineage_ilp.io``: ``encode_rle`` for ``_encode_rles``,
``decode_rle`` for ``_decode_rles``, and the line-by-line
``read_proposals`` for the reader that decodes and checks every mask at
once."""
from __future__ import annotations

import math

import numpy as np

from lineage_ilp.geometry import Mask
from lineage_ilp.io import FormatError, _MAX_PGM_DIM, _PROPOSAL_KEYS, _check_runs, loads_json, read_ascii
from lineage_ilp.proposals import Proposal


def encode_rle(bits: np.ndarray) -> list[int]:
    flat = np.asarray(bits, dtype=bool).ravel()
    change = np.flatnonzero(np.diff(flat)) + 1
    bounds = np.concatenate([[0], change, [flat.size]])
    runs = np.diff(bounds).tolist()
    if flat[0]:
        runs = [0] + runs
    return [int(r) for r in runs]


def decode_rle(runs: list[int], w: int, h: int, *, path=None, line=None) -> np.ndarray:
    _check_runs(runs, w, h, path=path, line=line)
    values = np.arange(len(runs)) % 2 == 1  # background first, then alternating
    return np.repeat(values, runs).reshape(h, w)


def read_proposals(path) -> list[Proposal]:
    lines = read_ascii(path).splitlines()
    props = []
    seen = set()
    for lineno, text in enumerate(lines, start=1):
        if not text.strip():
            continue
        obj = loads_json(text, path=str(path), line=lineno)
        if not isinstance(obj, dict):
            raise FormatError("proposal line is not an object", path=str(path), line=lineno)
        keys = set(obj)
        if keys != _PROPOSAL_KEYS:
            extra = keys - _PROPOSAL_KEYS
            missing = _PROPOSAL_KEYS - keys
            raise FormatError(
                f"bad keys (extra {sorted(extra)}, missing {sorted(missing)})",
                path=str(path), line=lineno,
            )
        ident, t, bbox, score = obj["id"], obj["t"], obj["bbox"], obj["score"]
        if not isinstance(ident, int) or isinstance(ident, bool) or ident < 0:
            raise FormatError(f"bad id {ident!r}", path=str(path), line=lineno)
        if ident in seen:
            raise FormatError(f"duplicate proposal id {ident}", path=str(path), line=lineno)
        if not isinstance(t, int) or isinstance(t, bool) or t < 0:
            raise FormatError(f"bad frame index {t!r}", path=str(path), line=lineno)
        if (
            not isinstance(bbox, list) or len(bbox) != 4
            or any(isinstance(v, bool) or not isinstance(v, int) for v in bbox)
        ):
            raise FormatError(f"bad bbox {bbox!r}", path=str(path), line=lineno)
        x0, y0, w, h = bbox
        if w < 1 or h < 1 or x0 < 0 or y0 < 0 or w > _MAX_PGM_DIM or h > _MAX_PGM_DIM:
            raise FormatError(f"bbox {bbox!r} out of range", path=str(path), line=lineno)
        if isinstance(score, bool) or not isinstance(score, (int, float)) or not math.isfinite(score):
            raise FormatError(f"bad score {score!r}", path=str(path), line=lineno)
        bits = decode_rle(obj["mask_rle"], w, h, path=str(path), line=lineno)
        if not bits.any():
            raise FormatError("mask has no set pixels", path=str(path), line=lineno)
        rows, cols = np.nonzero(bits)
        if rows.min() != 0 or cols.min() != 0 or rows.max() != h - 1 or cols.max() != w - 1:
            raise FormatError("bbox is not tight around the mask", path=str(path), line=lineno)
        seen.add(ident)
        props.append(Proposal(id=ident, t=t, mask=Mask(x0, y0, bits), raw_score=float(score)))
    props.sort(key=lambda p: (p.t, p.id))
    return props
