import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineage_ilp.classify import ConstantModel, load_model
from lineage_ilp.config import config_from_dict
from lineage_ilp.features import MOVE_DIM, PROPOSAL_DIM
from lineage_ilp.geometry import Mask
from lineage_ilp.io import (
    FormatError,
    _decode_rles,
    _encode_rles,
    TrackRow,
    dumps_json,
    format_float,
    list_frame_files,
    parse_pgm,
    read_intensity_frames,
    read_json_file,
    read_markers,
    read_pgm,
    read_proposals,
    read_tracks,
    write_intensity_frames,
    write_json_file,
    write_markers,
    write_pgm,
    write_proposals,
    write_tracks,
)
from lineage_ilp.pipeline import Models, load_models, run_e2e, save_models
from lineage_ilp.proposals import Proposal, log_blob_proposals
from lineage_ilp.sim import SimConfig, simulate
from lineage_ilp.solve import IlpInstance, load_instance, save_instance

import io_reference
from io_reference import decode_rle, encode_rle


class TestPgm:
    def test_roundtrip_8bit(self, tmp_path):
        grid = np.arange(24, dtype=np.uint8).reshape(4, 6)
        path = tmp_path / "a.pgm"
        write_pgm(path, grid, 255)
        back, maxval = read_pgm(path)
        assert maxval == 255
        assert back.dtype == np.uint8
        assert np.array_equal(back, grid)

    def test_roundtrip_16bit_big_endian(self, tmp_path):
        grid = np.array([[0, 1], [256, 65535]], dtype=np.uint16)
        path = tmp_path / "b.pgm"
        write_pgm(path, grid, 65535)
        raw = path.read_bytes()
        payload = raw.split(b"\n", 3)[3]
        assert payload[:2] == b"\x00\x00" and payload[2:4] == b"\x00\x01"
        back, maxval = read_pgm(path)
        assert maxval == 65535
        assert np.array_equal(back, grid)

    def test_p2_ascii_accepted(self):
        grid, maxval = parse_pgm(b"P2\n# comment\n3 2\n9\n0 1 2\n3 4 9\n")
        assert maxval == 9
        assert np.array_equal(grid, [[0, 1, 2], [3, 4, 9]])

    def test_header_comment_in_p5(self):
        data = b"P5\n# hello\n2 1\n255\n\x07\x09"
        grid, _ = parse_pgm(data)
        assert np.array_equal(grid, [[7, 9]])

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"P6\n2 2\n255\n" + b"\x00" * 12,
            b"P5\n2 2\n255\n\x00\x00\x00",  # truncated payload
            b"P5\n0 2\n255\n",
            b"P5\n2 2\n0\n\x00\x00\x00\x00",
            b"P5\n2 2\n70000\n" + b"\x00" * 16,
            b"P5\n2 a\n255\n\x00\x00\x00\x00",
            b"P2\n2 1\n255\n12",  # missing sample
            b"P2\n2 1\n255\n1 x",
            b"P2\n2 1\n9\n3 12",  # sample above maxval
        ],
    )
    def test_malformed_raises_format_error(self, data):
        with pytest.raises(FormatError):
            parse_pgm(data)

    def test_error_carries_offset(self):
        with pytest.raises(FormatError) as err:
            parse_pgm(b"P5\n2 2\n255\n\x00")
        assert "byte" in str(err.value)

    def test_frame_dir_roundtrip(self, tmp_path):
        frames = [
            np.linspace(0, 1, 12).reshape(3, 4),
            np.zeros((3, 4)),
            np.array([[-0.0, -1e-7, -0.2, 1.3], [0.5, 1.0, 2e-6, 1 - 1e-9], [0.1] * 4]),
        ]
        written = write_intensity_frames(tmp_path, frames, maxval=65535)
        back = read_intensity_frames(tmp_path)
        assert len(back) == 3
        assert np.allclose(back[0], frames[0], atol=1.0 / 65535)
        # what the writer returns is what the reader gives, bit for bit
        for w, b in zip(written, back, strict=True):
            assert w.dtype == b.dtype and w.tobytes() == b.tobytes()

    def test_noncontiguous_frames_rejected(self, tmp_path):
        write_pgm(tmp_path / "t000.pgm", np.zeros((2, 2), dtype=np.uint8), 255)
        write_pgm(tmp_path / "t002.pgm", np.zeros((2, 2), dtype=np.uint8), 255)
        with pytest.raises(FormatError):
            list_frame_files(tmp_path)


class TestTracks:
    def test_roundtrip(self, tmp_path):
        rows = [TrackRow(1, 0, 4, 0), TrackRow(2, 5, 9, 1), TrackRow(3, 5, 7, 1)]
        path = tmp_path / "tracks.txt"
        write_tracks(path, rows)
        assert read_tracks(path) == rows

    def test_parent_must_end_before_child(self, tmp_path):
        path = tmp_path / "tracks.txt"
        path.write_text("1 0 4 0\n2 7 9 1\n")
        with pytest.raises(FormatError):
            read_tracks(path)

    @pytest.mark.parametrize(
        "text",
        ["1 0 4\n", "1 0 4 0 9\n", "x 0 4 0\n", "1 4 0 0\n", "1 0 4 5\n", "1 0 4 0\n1 5 9 0\n"],
    )
    def test_malformed(self, tmp_path, text):
        path = tmp_path / "tracks.txt"
        path.write_text(text)
        with pytest.raises(FormatError):
            read_tracks(path)


class TestMarkers:
    def test_roundtrip(self, tmp_path):
        markers = [(0, 1, 3.25, 4.5), (0, 2, 9.0, 1.0), (1, 1, 3.5, 4.75)]
        path = tmp_path / "markers.csv"
        write_markers(path, markers)
        assert read_markers(path) == markers

    def test_header_required(self, tmp_path):
        path = tmp_path / "markers.csv"
        path.write_text("0,1,2.0,3.0\n")
        with pytest.raises(FormatError):
            read_markers(path)


TEXT_READERS = {
    "tracks": read_tracks,
    "markers": read_markers,
    "proposals": read_proposals,
    "json": lambda path: read_json_file(path, "model", (1,)),
}


@pytest.mark.parametrize("reader", TEXT_READERS.values(), ids=TEXT_READERS.keys())
class TestTextReaders:
    def test_missing_file(self, tmp_path, reader):
        path = tmp_path / "absent.txt"
        with pytest.raises(FormatError, match="unreadable file") as err:
            reader(path)
        assert err.value.path == str(path)

    def test_non_ascii_byte(self, tmp_path, reader):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"t,track_id,x,y\n0,1,2.0,3.0 \xe9\n")
        with pytest.raises(FormatError, match="non-ASCII byte") as err:
            reader(path)
        assert err.value.path == str(path)


class TestRle:
    def test_full_box_is_zero_then_all(self):
        bits = np.ones((3, 4), dtype=bool)
        assert encode_rle(bits) == [0, 12]

    def test_checkerboard(self):
        bits = np.array([[1, 0], [0, 1]], dtype=bool)
        assert encode_rle(bits) == [0, 1, 2, 1]

    def test_leading_background(self):
        bits = np.array([[0, 1, 1, 0]], dtype=bool)
        assert encode_rle(bits) == [1, 2, 1]

    def test_decode_known(self):
        bits = decode_rle([1, 2, 1], 4, 1)
        assert np.array_equal(bits, [[False, True, True, False]])

    def test_roundtrip_fuzz(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            h, w = rng.integers(1, 12, size=2)
            bits = rng.uniform(size=(h, w)) < 0.5
            back = decode_rle(encode_rle(bits), int(w), int(h))
            assert np.array_equal(back, bits)

    @pytest.mark.parametrize(
        "runs,w,h",
        [([4], 2, 1), ([1, 0, 1], 2, 1), ([-1, 3], 2, 1), ([1.5, 2], 2, 2), ([], 1, 1)],
    )
    def test_invalid(self, runs, w, h):
        with pytest.raises(FormatError):
            decode_rle(runs, w, h)


class TestRlesInOnePass:
    """``_encode_rles`` over all masks at once gives each mask the runs
    ``encode_rle`` gives it alone, whatever its neighbours in the pass, and
    ``_decode_rles`` gives the bits back."""

    SHAPES = [
        np.ones((1, 1), bool),  # 1x1 set
        np.ones((4, 7), bool),  # full box
        np.array([[1, 0, 1, 1, 0, 1]], bool),  # one row
        np.array([[1], [1], [0], [1]], bool),  # one column
        np.indices((5, 6)).sum(axis=0) % 2 == 0,  # checkerboard, top-left set
        np.indices((5, 6)).sum(axis=0) % 2 == 1,  # checkerboard, top-left clear
        np.array([[0, 1], [1, 1]], bool),
    ]

    def test_each_shape_alone_and_in_every_pair(self):
        for bits in self.SHAPES:
            assert _encode_rles([bits]) == [encode_rle(bits)]
        for a in self.SHAPES:
            for b in self.SHAPES:
                assert _encode_rles([a, b]) == [encode_rle(a), encode_rle(b)]
        assert _encode_rles(self.SHAPES) == [encode_rle(b) for b in self.SHAPES]
        assert _encode_rles([]) == []

    def test_random_mask_lists(self):
        seen = set()
        for seed in range(100):
            rng = np.random.default_rng(seed)
            masks = [
                rng.uniform(size=tuple(rng.integers(1, 9, size=2))) < rng.uniform()
                for _ in range(int(rng.integers(1, 12)))
            ]
            seen.add(b"".join(m.tobytes() + bytes(m.shape) for m in masks))
            assert _encode_rles(masks) == [encode_rle(m) for m in masks]
            # and back: the bits, and whether the box is tight around them
            got, tight = _decode_rles([encode_rle(m) for m in masks], [m.shape for m in masks])
            assert [g.tolist() for g in got] == [m.tolist() for m in masks]
            assert tight.tolist() == [
                bool(m.any(axis=1)[[0, -1]].all() and m.any(axis=0)[[0, -1]].all()) for m in masks
            ]
        assert len(seen) == 100
        assert _decode_rles([], [])[0] == []


def _reference_write_proposals(path, props):
    """The proposal writer line by line, one ``encode_rle`` per mask."""
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


def prop(id, t, x0, y0, bits, score=0.5):
    return Proposal(id=id, t=t, mask=Mask(x0, y0, np.asarray(bits, dtype=bool)), raw_score=score)


def proposal_line(ident=0, t=0, bbox=(0, 0, 2, 2), score=0.5, runs=(0, 1, 2, 1), **extra):
    obj = {"id": ident, "t": t, "bbox": list(bbox), "score": score, "mask_rle": list(runs), **extra}
    return json.dumps(obj)


class TestReadProposalsMatchesLineByLine:
    """``read_proposals`` decodes and checks every mask at once; the
    line-by-line reader in ``io_reference`` is the reference.  Both return
    equal proposals, or both raise the same message on the same line."""

    # one malformed line per rule of the reader, in the reader's order:
    # first the faults found line by line, then those of the decoded masks
    LINE_FAULTS = [
        "{not json}",
        "[1, 2]",
        json.dumps({"id": 0, "t": 0, "bbox": [0, 0, 1, 1], "score": 0.5}),
        proposal_line(zz=1),
        proposal_line(ident=-1),
        proposal_line(ident=True),
        proposal_line(ident="7"),
        proposal_line(ident=1),  # the first line's id again
        proposal_line(t=-2),
        proposal_line(t=1.0),
        proposal_line(bbox=(0, 0, 2)),
        proposal_line(bbox=(0, 0, 2, False)),
        proposal_line(bbox=(0, -1, 2, 2)),
        proposal_line(bbox=(0, 0, 2, 70000)),
        proposal_line(score=True),
        proposal_line(score="0.5"),
        proposal_line(score=1e999),
        json.dumps({"id": 0, "t": 0, "bbox": [0, 0, 2, 2], "score": 0.5, "mask_rle": 3}),
        proposal_line(runs=()),
        proposal_line(runs=(0, 1.0, 3)),
        proposal_line(runs=(0, True, 3)),
        proposal_line(runs=(0, 2, -1, 3)),
        proposal_line(runs=(0, 2, 0, 2)),
        proposal_line(runs=(0, 2, 1)),
        proposal_line(runs=(0, 2**70, 1 - 2**70, 3)),
        proposal_line(runs=(2**70,)),
    ]
    MASK_FAULTS = [
        proposal_line(runs=(4,)),  # no set pixel
        proposal_line(runs=(0, 2, 2)),  # bottom row clear
        proposal_line(runs=(2, 2)),  # top row clear
        proposal_line(runs=(0, 1, 1, 1, 1)),  # right column clear
        proposal_line(runs=(1, 1, 1, 1)),  # left column clear
        proposal_line(bbox=(0, 0, 3, 3), runs=(2, 2, 5)),  # a run across a row end, bottom row clear
    ]

    @staticmethod
    def outcome(reader, path):
        try:
            props = reader(path)
        except FormatError as exc:
            return ("error", str(exc), exc.line)
        return [(p.id, p.t, p.mask.x0, p.mask.y0, p.mask.bits.tolist(), p.raw_score) for p in props]

    def check(self, path):
        want = self.outcome(io_reference.read_proposals, path)
        assert self.outcome(read_proposals, path) == want
        return want

    @staticmethod
    def valid_lines(rng, first_id):
        lines = []
        for k in range(int(rng.integers(1, 9))):
            bits = rng.uniform(size=tuple(rng.integers(1, 7, size=2))) < rng.uniform(0.2, 1.0)
            bits.flat[int(rng.integers(0, bits.size))] = True
            m = Mask(*(int(v) for v in rng.integers(0, 40, size=2)), bits).tighten()
            lines.append(json.dumps({
                "id": first_id + k, "t": int(rng.integers(0, 3)),
                "bbox": [m.x0, m.y0, m.bits.shape[1], m.bits.shape[0]],
                "score": float(rng.uniform()), "mask_rle": encode_rle(m.bits),
            }))
        return lines

    def test_valid_files(self, tmp_path):
        frame = simulate(SimConfig(frames=1, width=64, height=64, initial_cells=6), 2).frames[0]
        path = tmp_path / "props.jsonl"
        write_proposals(path, log_blob_proposals(frame))
        assert len(self.check(path)) > 0
        path.write_text("")
        assert self.check(path) == []
        seen = set()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            lines = self.valid_lines(rng, 2)
            for k in rng.permutation(len(lines) + 1)[: int(rng.integers(0, 3))].tolist():
                lines.insert(k, " " * int(rng.integers(0, 3)))  # blank lines are skipped
            text = "\n".join(lines) + "\n" * int(rng.integers(0, 2))
            seen.add(text)
            path.write_text(text)
            assert isinstance(self.check(path), list)
        assert len(seen) == 60

    def test_one_malformed_line_per_rule(self, tmp_path):
        path = tmp_path / "props.jsonl"
        for rule, bad in enumerate(self.LINE_FAULTS + self.MASK_FAULTS):
            rng = np.random.default_rng(rule)
            before = [proposal_line(ident=1)] + self.valid_lines(rng, 2)
            after = self.valid_lines(rng, 20)
            path.write_text("\n".join(before + [bad] + after) + "\n")
            want = self.check(path)
            assert want[0] == "error" and want[2] == len(before) + 1, (bad, want)

    def test_first_bad_line_wins_whatever_its_rule(self, tmp_path):
        """A mask fault is found after the line loop, so it must still beat a
        later line's fault of any kind, and lose to an earlier one."""
        path = tmp_path / "props.jsonl"
        for a in self.LINE_FAULTS + self.MASK_FAULTS:
            for b in self.MASK_FAULTS:
                for first, second in ((a, b), (b, a)):
                    lines = [proposal_line(ident=1), first, proposal_line(ident=2), second]
                    path.write_text("\n".join(lines) + "\n")
                    assert self.check(path)[2] == 2


class TestProposalFile:
    def test_roundtrip(self, tmp_path):
        props = [
            prop(0, 0, 2, 3, [[1, 1], [1, 0]], 0.75),
            prop(1, 0, 9, 9, [[1]], 0.25),
            prop(2, 1, 0, 0, [[1, 0], [0, 1]], 0.5),
        ]
        path = tmp_path / "props.jsonl"
        write_proposals(path, props)
        back = read_proposals(path)
        assert [(p.id, p.t, p.raw_score) for p in back] == [(p.id, p.t, p.raw_score) for p in props]
        for a, b in zip(back, props):
            assert a.mask == b.mask

    def test_bbox_must_be_tight(self, tmp_path):
        path = tmp_path / "props.jsonl"
        path.write_text(
            json.dumps({"id": 0, "t": 0, "bbox": [0, 0, 3, 1], "score": 0.5, "mask_rle": [0, 2, 1]})
            + "\n"
        )
        with pytest.raises(FormatError):
            read_proposals(path)

    def test_duplicate_id_rejected(self, tmp_path):
        line = json.dumps({"id": 4, "t": 0, "bbox": [0, 0, 1, 1], "score": 0.5, "mask_rle": [0, 1]})
        path = tmp_path / "props.jsonl"
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(FormatError):
            read_proposals(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "props.jsonl"
        path.write_text(
            json.dumps(
                {"id": 0, "t": 0, "bbox": [0, 0, 1, 1], "score": 0.5, "mask_rle": [0, 1], "zz": 1}
            )
            + "\n"
        )
        with pytest.raises(FormatError):
            read_proposals(path)

    def test_bad_json_line_reported_with_line_number(self, tmp_path):
        path = tmp_path / "props.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(FormatError) as err:
            read_proposals(path)
        assert "line 1" in str(err.value)

    def test_bytes_match_the_mask_by_mask_writer(self, tmp_path):
        """Random masks in shuffled order, LoG proposals of a simulated
        frame, and no proposals at all."""
        frame = simulate(SimConfig(frames=1, width=64, height=64, initial_cells=6), 2).frames[0]
        cases = [log_blob_proposals(frame), []]
        for seed in range(20):
            rng = np.random.default_rng(seed)
            props = []
            for pid in rng.permutation(int(rng.integers(1, 30))).tolist():
                bits = rng.uniform(size=tuple(rng.integers(1, 10, size=2))) < 0.6
                bits.flat[int(rng.integers(0, bits.size))] = True  # a mask is never empty
                x0, y0, t = (int(v) for v in rng.integers(0, 50, size=3))
                props.append(prop(pid, t % 4, x0, y0, bits, float(rng.uniform())))
            cases.append(props)
        assert len(cases[0]) > 0
        for k, props in enumerate(cases):
            got, want = tmp_path / f"got{k}.jsonl", tmp_path / f"want{k}.jsonl"
            write_proposals(got, props)
            _reference_write_proposals(want, props)
            assert got.read_bytes() == want.read_bytes()


class TestJson:
    def test_float_roundtrip_exact(self):
        rng = np.random.default_rng(5)
        values = list(rng.uniform(-1e6, 1e6, 200)) + [0.1, 1e-300, 2.0 / 3.0, -1.5e300]
        for v in values:
            assert float(format_float(v)) == v

    def test_shortest_form(self):
        assert format_float(0.1) == "0.1"

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            format_float(float("nan"))

    def test_dumps_nested(self):
        text = dumps_json({"a": [1, 2.5, "x"], "b": {"c": True, "d": None}})
        assert json.loads(text) == {"a": [1, 2.5, "x"], "b": {"c": True, "d": None}}

    def test_numpy_scalars(self):
        text = dumps_json({"v": np.float64(0.5), "n": np.int32(3), "f": np.bool_(False)})
        assert json.loads(text) == {"v": 0.5, "n": 3, "f": False}

    def test_version_gate(self, tmp_path):
        path = tmp_path / "m.json"
        write_json_file(path, {"schema_version": 9, "kind": "model", "x": 1})
        with pytest.raises(FormatError) as err:
            read_json_file(path, "model", (1,))
        assert "schema_version" in str(err.value)
        assert read_json_file(path, "model", (9,))["x"] == 1

    def test_kind_gate_takes_a_tuple_of_kinds(self, tmp_path):
        path = tmp_path / "m.json"
        write_json_file(path, {"schema_version": 1, "kind": "b"})
        assert read_json_file(path, ("a", "b"), (1,))["kind"] == "b"
        with pytest.raises(FormatError) as err:
            read_json_file(path, ("a", "c"), (1,))
        assert "'a' or 'c'" in str(err.value)

    def test_kind_gate_fires_before_version(self, tmp_path):
        path = tmp_path / "m.json"
        write_json_file(path, {"schema_version": 9, "kind": "other"})
        with pytest.raises(FormatError) as err:
            read_json_file(path, "model", (1,))
        assert "kind" in str(err.value)


# Floats at the edges of the format: signed zeros, the smallest subnormal,
# integral values (which a 17-significant-digit writer printed as integers)
# and huge magnitudes.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.0, -1.0, 2.0**53, 1e300, -1e300, 0.1]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
FLOATS32 = st.one_of(
    st.sampled_from([-0.0, 1.0, 2.0**-149]), st.floats(width=32, allow_nan=False, allow_infinity=False)
)
INTS = st.integers(-(2**63), 2**63 - 1)


def _pair(values, write, want=lambda v: v):
    """Draws of (value handed to the writer, Python value expected back)."""
    return values.map(lambda v: (write(v), want(v)))


LEAVES = st.one_of(
    _pair(FLOATS, float),
    _pair(INTS, int),
    _pair(st.booleans(), bool),
    _pair(st.none(), lambda v: v),
    _pair(st.text(max_size=4), str),
    _pair(FLOATS, np.float64, float),
    _pair(FLOATS32, np.float32, float),
    _pair(INTS, np.int64, int),
    _pair(st.booleans(), np.bool_, bool),
    _pair(st.lists(FLOATS, max_size=4), lambda v: np.array(v, dtype=np.float64), list),
    _pair(st.lists(FLOATS32, max_size=4), lambda v: np.array(v, dtype=np.float32), list),
    _pair(st.lists(INTS, max_size=4), lambda v: np.array(v, dtype=np.int64), list),
    _pair(st.lists(st.booleans(), max_size=4), lambda v: np.array(v, dtype=np.bool_), list),
)


def _nest(children):
    return st.one_of(
        st.lists(children, max_size=4).map(lambda kids: ([w for w, _ in kids], [v for _, v in kids])),
        st.dictionaries(st.text(max_size=4), children, max_size=4).map(
            lambda kids: ({k: w for k, (w, _) in kids.items()}, {k: v for k, (_, v) in kids.items()})
        ),
    )


DOCUMENTS = st.recursive(LEAVES, _nest, max_leaves=24)


def _same(got, want) -> bool:
    """Equal with every float bit-identical and of type float, and no int
    standing in for a float or the reverse."""
    if type(got) is not type(want):
        return False
    if isinstance(want, float):
        return struct.pack("<d", got) == struct.pack("<d", want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, dict):
        return list(got) == list(want) and all(_same(got[k], want[k]) for k in want)
    return got == want


def _is_fixed_point(text: str, indent) -> bool:
    return dumps_json(json.loads(text), indent=indent) == text


class TestJsonRoundTrip:
    @settings(max_examples=300)
    @given(doc=DOCUMENTS, indent=st.sampled_from([2, None]))
    def test_values_read_back_bit_for_bit(self, doc, indent):
        written, want = doc
        text = dumps_json(written, indent=indent)
        assert text.isascii()
        assert _same(json.loads(text), want)
        assert _is_fixed_point(text, indent)

    @pytest.mark.parametrize("x", EDGE_FLOATS)
    def test_edge_floats_stay_floats(self, x):
        for indent in (2, None):
            back = json.loads(dumps_json({"x": x, "a": [x]}, indent=indent))
            assert _same(back, {"x": x, "a": [x]})

    def test_layout(self):
        doc = {"b": [1, 2.5], "a": {}}
        assert dumps_json(doc) == '{\n  "b": [\n    1,\n    2.5\n  ],\n  "a": {}\n}'
        assert dumps_json(doc, indent=None) == '{"b":[1,2.5],"a":{}}'
        assert dumps_json({"s": "é"}, indent=None) == '{"s":"\\u00e9"}'

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float32("-inf"), [np.nan]])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            dumps_json({"x": bad})

    def test_every_file_of_a_run_is_a_fixed_point(self, tmp_path):
        # degraded proposals and divisions, so all three models are forests
        cfg = config_from_dict({
            "seed": 1,
            "proposals": {"generator": "truth"},
            "sim": {
                "frames": 8, "width": 80, "height": 80, "initial_cells": 5, "division_rate": 0.08,
                "corruption": {"drop_rate": 0.05, "clutter_rate": 0.1, "merge_rate": 0.03},
            },
        })
        run_e2e(cfg, tmp_path)
        checked = []
        for dirpath, _, names in os.walk(tmp_path):
            for name in names:
                path = os.path.join(dirpath, name)
                if not name.endswith((".json", ".jsonl", ".csv")):
                    continue
                with open(path, encoding="ascii") as fh:
                    text = fh.read()
                if name.endswith(".json"):
                    # classifier documents are compact, every other one indented
                    compact = json.loads(text)["kind"] in ("random_forest", "constant_model")
                    assert text.endswith("\n") and _is_fixed_point(text[:-1], None if compact else 2), path
                elif name.endswith(".jsonl"):
                    assert all(_is_fixed_point(line, None) for line in text.splitlines()), path
                else:  # markers: t,track_id,x,y
                    for line in text.splitlines()[1:]:
                        assert all(format_float(float(v)) == v for v in line.split(",")[2:]), path
                checked.append(os.path.relpath(path, tmp_path))
        assert {"proposals.jsonl", "report.json", "models/meta.json", "models/mitosis.json",
                "dataset/gt/markers.csv"} <= set(checked)
        assert "\n" not in (tmp_path / "models" / "move.json").read_text()[:-1]


class TestFilesInTheOldNumberForm:
    """Files written with 17 significant digits, where 0.1 reads
    0.10000000000000001 and a float -0.0 or 1.0 reads -0 or 1, load as the
    same objects as the same content written now."""

    def test_models(self, tmp_path):
        old = tmp_path / "old"
        old.mkdir()
        (old / "meta.json").write_text(
            '{\n  "schema_version": 1,\n  "kind": "model_meta",\n  "gating_radius": 1,\n'
            '  "mitosis_radius": 0.10000000000000001,\n  "mitosis_n": 3,\n'
            '  "mitosis_enabled": false,\n'
            '  "feature_dims": {\n    "proposal": 92,\n    "move": 195,\n    "mitosis": 290\n  }\n}\n'
        )
        for name, p, dim in (("proposal", "-0", PROPOSAL_DIM), ("move", "1", MOVE_DIM)):
            (old / f"{name}.json").write_text(
                '{\n  "schema_version": 1,\n  "kind": "constant_model",\n'
                f'  "p": {p},\n  "n_features": {dim}\n}}\n'
            )
        models = Models(
            proposal=ConstantModel(p=-0.0, n_features=PROPOSAL_DIM),
            move=ConstantModel(p=1.0, n_features=MOVE_DIM),
            mitosis=None, gating_radius=1.0, mitosis_radius=0.1, mitosis_n=3,
        )
        save_models(models, tmp_path / "new")
        assert load_models(old) == load_models(tmp_path / "new") == models
        loaded = load_models(old)
        assert [type(v) for v in (loaded.gating_radius, loaded.mitosis_radius, loaded.proposal.p)] == [
            float, float, float
        ]

    def test_proposals(self, tmp_path):
        old = tmp_path / "old.jsonl"
        old.write_text(
            '{"id":0,"t":0,"bbox":[0,0,1,1],"score":0.10000000000000001,"mask_rle":[0,1]}\n'
            '{"id":1,"t":0,"bbox":[2,0,1,1],"score":-0,"mask_rle":[0,1]}\n'
            '{"id":2,"t":1,"bbox":[0,3,1,1],"score":1,"mask_rle":[0,1]}\n'
        )
        props = [prop(0, 0, 0, 0, [[1]], 0.1), prop(1, 0, 2, 0, [[1]], -0.0), prop(2, 1, 0, 3, [[1]], 1.0)]
        write_proposals(tmp_path / "new.jsonl", props)
        loaded = read_proposals(old)
        assert loaded == read_proposals(tmp_path / "new.jsonl") == props
        assert all(type(p.raw_score) is float for p in loaded)

    def test_markers(self, tmp_path):
        old = tmp_path / "old.csv"
        old.write_text("t,track_id,x,y\n0,1,0.10000000000000001,-0\n1,1,1,2.5\n")
        markers = [(0, 1, 0.1, -0.0), (1, 1, 1.0, 2.5)]
        write_markers(tmp_path / "new.csv", markers)
        loaded = read_markers(old)
        assert loaded == read_markers(tmp_path / "new.csv") == markers
        assert _same([list(m) for m in loaded], [list(m) for m in markers])


class TestNonFiniteNumbersRefused:
    """JSON has no NaN or Infinity; Python's json module reads them unless told not to."""

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_forest_threshold(self, tmp_path, literal):
        (tmp_path / "m.json").write_text(
            '{"schema_version": 1, "kind": "random_forest", "n_features": 2, "max_depth": 1,'
            ' "min_leaf": 1, "seed": 0, "trees": [{"feature": [0, -1, -1],'
            f' "threshold": [{literal}, 0.0, 0.0], "left": [1, -1, -1], "right": [2, -1, -1],'
            ' "value": [0.5, 0.0, 1.0]}]}'
        )
        with pytest.raises(FormatError, match=literal):
            load_model(tmp_path / "m.json")

    def test_meta_radius(self, tmp_path):
        (tmp_path / "meta.json").write_text(
            '{"schema_version": 1, "kind": "model_meta", "gating_radius": NaN,'
            ' "mitosis_radius": 20.0, "mitosis_n": 3, "mitosis_enabled": false}'
        )
        with pytest.raises(FormatError, match="NaN") as err:
            load_models(tmp_path)
        assert err.value.path == str(tmp_path / "meta.json")

    def test_instance_cost(self, tmp_path):
        path = tmp_path / "i.json"
        save_instance(IlpInstance.from_rows(np.array([-1.5, 2.0]), [((0, 1), (1, 1), "<=", 1)]), path)
        path.write_text(path.read_text().replace("-1.5", "NaN"))
        with pytest.raises(FormatError, match="NaN"):
            load_instance(path)

    def test_proposal_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        good = '{"id":0,"t":0,"bbox":[0,0,1,1],"score":0.5,"mask_rle":[0,1]}'
        path.write_text(good + "\n" + good.replace('"id":0', '"id":1').replace("0.5", "Infinity") + "\n")
        with pytest.raises(FormatError, match="Infinity") as err:
            read_proposals(path)
        assert err.value.line == 2


class TestDeeplyNestedJsonRefused:
    """Nesting deeper than the parser's recursion limit is malformed input,
    not an internal error, in every JSON reader."""

    DEEP = "[" * 100_000

    def test_config(self, tmp_path):
        from lineage_ilp.config import ConfigError, load_config

        (tmp_path / "cfg.json").write_text(self.DEEP)
        with pytest.raises(ConfigError, match="nested too deeply"):
            load_config(tmp_path / "cfg.json")

    def test_model(self, tmp_path):
        (tmp_path / "m.json").write_text('{"trees": ' + self.DEEP)
        with pytest.raises(FormatError, match="nested too deeply") as err:
            load_model(tmp_path / "m.json")
        assert err.value.path == str(tmp_path / "m.json")

    def test_meta(self, tmp_path):
        (tmp_path / "meta.json").write_text(self.DEEP)
        with pytest.raises(FormatError, match="nested too deeply"):
            load_models(tmp_path)

    def test_instance(self, tmp_path):
        (tmp_path / "i.json").write_text(self.DEEP)
        with pytest.raises(FormatError, match="nested too deeply"):
            load_instance(tmp_path / "i.json")

    def test_proposal_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        good = '{"id":0,"t":0,"bbox":[0,0,1,1],"score":0.5,"mask_rle":[0,1]}'
        path.write_text(good + "\n" + self.DEEP + "\n")
        with pytest.raises(FormatError, match="nested too deeply") as err:
            read_proposals(path)
        assert err.value.line == 2
