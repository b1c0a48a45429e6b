"""File formats: PGM images, track tables, proposal JSON-lines, versioned JSON dumps.

Exact grammars are documented in docs/formats.md.  Every reader raises
FormatError (never an uncaught low-level exception) on malformed input.
"""
from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .geometry import Mask


class FormatError(Exception):
    """Malformed file content; carries the path and, when known, a position."""

    def __init__(self, message: str, *, path: str | None = None, offset: int | None = None,
                 line: int | None = None):
        self.path = path
        self.offset = offset
        self.line = line
        where = []
        if path is not None:
            where.append(str(path))
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"byte {offset}")
        prefix = ": ".join([", ".join(where)]) + ": " if where else ""
        super().__init__(prefix + message)


# ---------------------------------------------------------------------------
# PGM

_MAX_PGM_DIM = 1 << 16


def _pgm_tokens(data: bytes, count: int, pos: int, path):
    """Read ``count`` whitespace-separated header tokens starting at ``pos``.

    Handles '#' comments to end of line.  Returns (tokens, next_pos) where
    next_pos sits one byte past the single whitespace byte after the last token.
    """
    tokens = []
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos : pos + 1].isspace():
            pos += 1
        if pos < n and data[pos : pos + 1] == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
            pos += 1
        if pos == start:
            raise FormatError("truncated header", path=path, offset=pos)
        tokens.append(data[start:pos])
    if pos >= n or not data[pos : pos + 1].isspace():
        raise FormatError("missing whitespace after header", path=path, offset=pos)
    return tokens, pos + 1


def _parse_pgm_int(tok: bytes, what: str, pos: int, path) -> int:
    if not re.fullmatch(rb"[0-9]+", tok):
        raise FormatError(f"bad {what} {tok!r}", path=path, offset=pos)
    return int(tok)


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a P5 (binary) or P2 (ASCII) PGM file.

    Returns (grid, maxval) with grid uint8 or uint16 of shape (h, w).
    16-bit payloads are big-endian per the format.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FormatError(f"unreadable file: {exc}", path=str(path)) from exc
    return parse_pgm(data, path=str(path))


def parse_pgm(data: bytes, path: str | None = None) -> tuple[np.ndarray, int]:
    if len(data) < 2:
        raise FormatError("not a PGM file (too short)", path=path, offset=0)
    magic = data[:2]
    if magic not in (b"P5", b"P2"):
        raise FormatError(f"bad magic {magic!r}, expected P5 or P2", path=path, offset=0)
    tokens, pos = _pgm_tokens(data, 3, 2, path)
    w = _parse_pgm_int(tokens[0], "width", pos, path)
    h = _parse_pgm_int(tokens[1], "height", pos, path)
    maxval = _parse_pgm_int(tokens[2], "maxval", pos, path)
    if w == 0 or h == 0 or w > _MAX_PGM_DIM or h > _MAX_PGM_DIM:
        raise FormatError(f"bad dimensions {w}x{h}", path=path, offset=pos)
    if not 0 < maxval < 65536:
        raise FormatError(f"maxval {maxval} out of range [1, 65535]", path=path, offset=pos)
    if magic == b"P5":
        two_byte = maxval > 255
        need = w * h * (2 if two_byte else 1)
        if len(data) - pos < need:
            raise FormatError(
                f"truncated payload: need {need} bytes, have {len(data) - pos}",
                path=path, offset=pos,
            )
        dtype = ">u2" if two_byte else np.uint8
        grid = np.frombuffer(data[pos : pos + need], dtype=dtype).reshape(h, w)
        grid = grid.astype(np.uint16 if two_byte else np.uint8)
    else:
        text = data[pos:]
        raw = text.split()
        if len(raw) < w * h:
            raise FormatError(
                f"truncated ASCII payload: need {w * h} samples, have {len(raw)}",
                path=path, offset=pos,
            )
        try:
            values = np.array([int(tok) for tok in raw[: w * h]], dtype=np.int64)
        except ValueError:
            raise FormatError("non-integer ASCII sample", path=path, offset=pos) from None
        if (values < 0).any():
            raise FormatError("negative ASCII sample", path=path, offset=pos)
        grid = values.reshape(h, w).astype(np.uint16 if maxval > 255 else np.uint8)
    if int(grid.max(initial=0)) > maxval:
        raise FormatError("sample exceeds maxval", path=path, offset=pos)
    return grid, maxval


def write_pgm(path, grid: np.ndarray, maxval: int) -> None:
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise ValueError("grid must be 2-d")
    if not 0 < maxval < 65536:
        raise ValueError("maxval out of range")
    if grid.min(initial=0) < 0 or int(grid.max(initial=0)) > maxval:
        raise ValueError("samples out of range for maxval")
    h, w = grid.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
    payload = grid.astype(">u2" if maxval > 255 else np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def frame_name(t: int) -> str:
    return f"t{t:03d}.pgm"


def write_intensity_frames(directory, frames: list[np.ndarray], maxval: int = 65535) -> None:
    """Quantize float frames in [0, 1] to ``maxval`` levels and write PGMs."""
    os.makedirs(directory, exist_ok=True)
    for t, frame in enumerate(frames):
        grid = np.clip(np.rint(np.asarray(frame, dtype=float) * maxval), 0, maxval)
        write_pgm(os.path.join(directory, frame_name(t)), grid.astype(np.uint32), maxval)


def list_frame_files(directory) -> list[str]:
    """Frame files t000.pgm.. in index order; indices must be contiguous from 0."""
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        raise FormatError(f"unreadable directory: {exc}", path=str(directory)) from exc
    frames = {}
    for name in names:
        m = re.fullmatch(r"t(\d+)\.pgm", name)
        if m:
            frames[int(m.group(1))] = name
    if not frames:
        raise FormatError("no frame files (t000.pgm ...)", path=str(directory))
    indices = sorted(frames)
    if indices != list(range(len(indices))):
        raise FormatError(f"frame indices not contiguous from 0: {indices[:8]}...", path=str(directory))
    return [os.path.join(directory, frames[i]) for i in indices]


def read_intensity_frames(directory) -> list[np.ndarray]:
    """All frames of a sequence directory as floats in [0, 1] (raw / maxval)."""
    out = []
    for path in list_frame_files(directory):
        grid, maxval = read_pgm(path)
        out.append(grid.astype(np.float64) / float(maxval))
    return out


def read_label_grids(directory) -> list[np.ndarray]:
    return [read_pgm(path)[0].astype(np.int64) for path in list_frame_files(directory)]


def write_label_grids(directory, grids: list[np.ndarray]) -> None:
    os.makedirs(directory, exist_ok=True)
    for t, grid in enumerate(grids):
        grid = np.asarray(grid)
        top = int(grid.max(initial=0))
        if top > 65535:
            raise ValueError("label id exceeds 16-bit PGM range")
        write_pgm(os.path.join(directory, frame_name(t)), grid, 65535)


# ---------------------------------------------------------------------------
# Track table: whitespace-separated "label birth end parent" rows

@dataclass(frozen=True)
class TrackRow:
    """One lineage track: frames [birth, end] inclusive, parent 0 for none."""

    label: int
    birth: int
    end: int
    parent: int


def read_tracks(path) -> list[TrackRow]:
    try:
        with open(path, "r", encoding="ascii", errors="strict") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(f"unreadable file: {exc}", path=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"non-ASCII byte: {exc}", path=str(path)) from exc
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise FormatError(f"expected 4 fields, got {len(parts)}", path=str(path), line=lineno)
        try:
            label, birth, end, parent = (int(p) for p in parts)
        except ValueError:
            raise FormatError(f"non-integer field in {parts!r}", path=str(path), line=lineno) from None
        rows.append(TrackRow(label, birth, end, parent))
    validate_tracks(rows, path=str(path))
    return rows


def validate_tracks(rows: list[TrackRow], path: str | None = None) -> None:
    by_label = {}
    for row in rows:
        if row.label <= 0:
            raise FormatError(f"track label must be positive, got {row.label}", path=path)
        if row.label in by_label:
            raise FormatError(f"duplicate track label {row.label}", path=path)
        if row.birth < 0 or row.end < row.birth:
            raise FormatError(f"track {row.label} has bad span [{row.birth}, {row.end}]", path=path)
        if row.parent < 0:
            raise FormatError(f"track {row.label} has negative parent", path=path)
        by_label[row.label] = row
    for row in rows:
        if row.parent:
            parent = by_label.get(row.parent)
            if parent is None:
                raise FormatError(f"track {row.label} references unknown parent {row.parent}", path=path)
            if parent.end != row.birth - 1:
                raise FormatError(
                    f"track {row.label} starts at {row.birth} but parent {row.parent} ends at {parent.end}",
                    path=path,
                )


def write_tracks(path, rows: list[TrackRow]) -> None:
    validate_tracks(rows)
    with open(path, "w", encoding="ascii") as fh:
        for row in sorted(rows, key=lambda r: r.label):
            fh.write(f"{row.label} {row.birth} {row.end} {row.parent}\n")


# ---------------------------------------------------------------------------
# Markers CSV: "t,track_id,x,y" with header

def write_markers(path, markers: list[tuple[int, int, float, float]]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("t,track_id,x,y\n")
        for t, track_id, x, y in sorted(markers):
            fh.write(f"{t},{track_id},{format_float(x)},{format_float(y)}\n")


def read_markers(path) -> list[tuple[int, int, float, float]]:
    try:
        with open(path, "r", encoding="ascii", errors="strict") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise FormatError(f"unreadable file: {exc}", path=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"non-ASCII byte: {exc}", path=str(path)) from exc
    if not lines or lines[0].strip() != "t,track_id,x,y":
        raise FormatError("missing 't,track_id,x,y' header", path=str(path), line=1)
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise FormatError(f"expected 4 fields, got {len(parts)}", path=str(path), line=lineno)
        try:
            t, track_id = int(parts[0]), int(parts[1])
            x, y = float(parts[2]), float(parts[3])
        except ValueError:
            raise FormatError(f"bad field in {parts!r}", path=str(path), line=lineno) from None
        if t < 0 or track_id <= 0 or not (math.isfinite(x) and math.isfinite(y)):
            raise FormatError(f"out-of-range field in {parts!r}", path=str(path), line=lineno)
        out.append((t, track_id, x, y))
    return out


# ---------------------------------------------------------------------------
# Run-length encoding: flat row-major bits over the bbox, alternating run
# lengths beginning with background (first run may be 0, later runs may not).

def encode_rle(bits: np.ndarray) -> list[int]:
    flat = np.asarray(bits, dtype=bool).ravel()
    change = np.flatnonzero(np.diff(flat)) + 1
    bounds = np.concatenate([[0], change, [flat.size]])
    runs = np.diff(bounds).tolist()
    if flat[0]:
        runs = [0] + runs
    return [int(r) for r in runs]


def decode_rle(runs: list[int], w: int, h: int, *, path=None, line=None) -> np.ndarray:
    if not isinstance(runs, list) or not runs:
        raise FormatError("mask_rle must be a non-empty list", path=path, line=line)
    for i, r in enumerate(runs):
        if isinstance(r, bool) or not isinstance(r, int):
            raise FormatError(f"run {i} is not an integer", path=path, line=line)
        if r < 0 or (r == 0 and i != 0):
            raise FormatError(f"run {i} has invalid length {r}", path=path, line=line)
    total = sum(runs)
    if total != w * h:
        raise FormatError(f"runs sum to {total}, bbox holds {w * h} pixels", path=path, line=line)
    values = np.arange(len(runs)) % 2 == 1  # background first, then alternating
    flat = np.repeat(values, runs)
    return flat.reshape(h, w)


# ---------------------------------------------------------------------------
# Proposal files: JSON-lines, one object per proposal

_PROPOSAL_KEYS = {"id", "t", "bbox", "score", "mask_rle"}


def write_proposals(path, props) -> None:
    """Write proposals (objects with id, t, mask, raw_score) as JSON lines."""
    with open(path, "w", encoding="ascii") as fh:
        for p in sorted(props, key=lambda p: (p.t, p.id)):
            m = p.mask
            obj = {
                "id": p.id,
                "t": p.t,
                "bbox": [m.x0, m.y0, m.bits.shape[1], m.bits.shape[0]],
                "score": p.raw_score,
                "mask_rle": encode_rle(m.bits),
            }
            fh.write(dumps_json(obj, indent=None) + "\n")


def read_proposals(path) -> list:
    from .proposals import Proposal

    try:
        with open(path, "r", encoding="ascii", errors="strict") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise FormatError(f"unreadable file: {exc}", path=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"non-ASCII byte: {exc}", path=str(path)) from exc
    props = []
    seen = set()
    for lineno, text in enumerate(lines, start=1):
        if not text.strip():
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad JSON: {exc.msg}", path=str(path), line=lineno) from None
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


# ---------------------------------------------------------------------------
# JSON with exact floats

def format_float(x: float) -> str:
    """Serialize a float with 17 significant digits; round-trips bit-exactly."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(float(x), ".17g")


def dumps_json(obj, indent: int | None = 2) -> str:
    """JSON text with floats at 17 significant digits and keys in insertion order."""
    pieces: list[str] = []
    _emit(obj, pieces, indent, 0)
    return "".join(pieces)


def _emit(obj, out: list[str], indent, depth) -> None:
    nl = "" if indent is None else "\n" + " " * (indent * (depth + 1))
    nl_close = "" if indent is None else "\n" + " " * (indent * depth)
    if obj is None or obj is True or obj is False:
        out.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, (np.bool_,)):
        out.append("true" if bool(obj) else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise ValueError(f"JSON object keys must be strings, got {key!r}")
            out.append(("," if i else "") + nl)
            out.append(json.dumps(key) + (": " if indent is not None else ":"))
            _emit(value, out, indent, depth + 1)
        out.append(nl_close + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[")
        for i, value in enumerate(seq):
            out.append(("," if i else "") + nl)
            _emit(value, out, indent, depth + 1)
        out.append(nl_close + "]")
    else:
        raise ValueError(f"cannot serialize {type(obj).__name__}")


def loads_json(text: str, path: str | None = None):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc.msg}", path=path, offset=exc.pos) from None


def write_json_file(path, obj) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_json(obj) + "\n")


def read_json_file(path, kind: str | tuple[str, ...], supported_versions: tuple[int, ...]):
    """Load a versioned JSON document and check its kind (one name, or a
    tuple of allowed names) and its schema_version."""
    kinds = (kind,) if isinstance(kind, str) else kind
    name = " or ".join(kinds)
    try:
        with open(path, "r", encoding="ascii", errors="strict") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(f"unreadable file: {exc}", path=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"non-ASCII byte: {exc}", path=str(path)) from exc
    obj = loads_json(text, path=str(path))
    if not isinstance(obj, dict):
        raise FormatError(f"{name} document must be a JSON object", path=str(path))
    got = obj.get("kind")
    if got not in kinds:
        wanted = " or ".join(map(repr, kinds))
        raise FormatError(f"expected a {wanted} document, got kind {got!r}", path=str(path))
    version = obj.get("schema_version")
    if version not in supported_versions:
        raise FormatError(
            f"unsupported {name} schema_version {version!r}; supported: {list(supported_versions)}",
            path=str(path),
        )
    return obj
