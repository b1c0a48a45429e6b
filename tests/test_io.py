import json
import math

import numpy as np
import pytest

from lineage_ilp.geometry import Mask
from lineage_ilp.io import (
    FormatError,
    TrackRow,
    decode_rle,
    dumps_json,
    encode_rle,
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
from lineage_ilp.proposals import Proposal


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


def prop(id, t, x0, y0, bits, score=0.5):
    return Proposal(id=id, t=t, mask=Mask(x0, y0, np.asarray(bits, dtype=bool)), raw_score=score)


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


class TestJson:
    def test_float_roundtrip_exact(self):
        rng = np.random.default_rng(5)
        values = list(rng.uniform(-1e6, 1e6, 200)) + [0.1, 1e-300, 2.0 / 3.0, -1.5e300]
        for v in values:
            assert float(format_float(v)) == v

    def test_17_digits(self):
        assert format_float(0.1) == "0.10000000000000001"

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
