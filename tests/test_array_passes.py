"""The array passes of the track-many path against the frame-by-frame and
object-by-object loops they replaced, on sequences whose frames differ in
shape: proposal features, conflicts, painting, cell overlaps, the
feasibility check, and the proposal file's one-parse reader and direct
writer."""
from __future__ import annotations

import array_pass_reference as reference
import io_reference
import otsu_reference
import numpy as np
import overlap_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from test_features import _random_mask, _reference_proposal_features
from test_io import _reference_write_proposals

from lineage_ilp import geometry as geometry_mod
from lineage_ilp.classify import ConstantModel
from lineage_ilp.config import SimConfig, config_from_dict
from lineage_ilp.evaluate import GroundTruth, _cell_overlap
from lineage_ilp.features import mitosis_feature_matrix, move_feature_matrix, proposal_feature_matrix
from lineage_ilp.geometry import Mask
from lineage_ilp.io import FormatError, read_proposals, write_proposals
from lineage_ilp.graph import enumerate_mitoses
from lineage_ilp.pipeline import candidate_rows, load_dataset, paint_lineage, write_dataset
from lineage_ilp.proposals import (
    Frame,
    Proposal,
    conflicts,
    log_blob_proposals,
    multi_threshold_proposals,
)
from lineage_ilp.sim import simulate
from lineage_ilp.solve import IlpInstance, Lineage, check_solution

seeds = st.integers(0, 2**32 - 1)


def _sequence(rng, kinds=("pixel", "frame", "box", "box", "box")):
    """Frames of 1 to 20 px a side, some without proposals, and proposals
    of every kind in (t, id) order, ids unique."""
    frames = []
    for t in range(int(rng.integers(1, 5))):
        height, width = (int(n) for n in rng.integers(1, 21, size=2))
        frames.append(Frame(t=t, intensity=rng.integers(0, 16, size=(height, width)) / 15))
    props = []
    for f in frames:
        if rng.random() < 0.25:
            continue  # a frame without proposals
        height, width = f.intensity.shape
        for _ in range(int(rng.integers(1, 6))):
            mask = _random_mask(rng, height, width, rng.choice(kinds))
            props.append(Proposal(id=len(props), t=f.t, mask=mask, raw_score=float(rng.random())))
    return frames, props


@settings(max_examples=40)
@given(seeds)
def test_features_of_a_sequence_match_the_per_proposal_vectors(seed):
    rng = np.random.default_rng(seed)
    frames, props = _sequence(rng)
    got = proposal_feature_matrix(props, frames)
    want = np.stack([_reference_proposal_features(p, frames[p.t]) for p in props]) if props else got
    assert np.array_equal(got, want)


@settings(max_examples=40)
@given(seeds)
def test_conflicts_of_a_sequence_match_the_pair_by_pair_count(seed):
    rng = np.random.default_rng(seed)
    _, props = _sequence(rng, kinds=("box", "box", "pixel"))
    rng.shuffle(props)  # any order of frames and ids
    pairs = conflicts(props)
    got = [(props[i].id, props[j].id) for i, j in pairs.tolist()]
    assert got == overlap_reference.conflicts(props)
    assert pairs.dtype == np.intp and pairs.shape == (len(got), 2)


def _lineage(rng, props):
    """Tracks of random members, several sharing a frame, ids from 1 up."""
    members: dict[int, list[int]] = {}
    for p in props:
        if rng.random() < 0.8:
            members.setdefault(int(rng.integers(1, 6)), []).append(p.id)
    return Lineage(members=members)


@settings(max_examples=40)
@given(seeds)
def test_painting_matches_the_track_by_track_loop(seed):
    rng = np.random.default_rng(seed)
    frames, props = _sequence(rng)
    # masks past the frame's edges too: their outside pixels are dropped
    for x0, y0 in rng.integers(-3, 20, size=(3, 2)).tolist():
        bits = rng.random((4, 5)) < 0.7
        bits[0, 0] = True
        t = int(rng.integers(0, len(frames)))
        props.append(Proposal(id=len(props), t=t, mask=Mask(x0, y0, bits), raw_score=0.5))
    lineage = _lineage(rng, props)
    by_id = {p.id: p for p in props}
    shapes = [f.intensity.shape for f in frames]
    got = paint_lineage(lineage, by_id, shapes)
    want = reference.paint_lineage(lineage, by_id, shapes)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_painting_the_highest_track_wins_an_overlap():
    """Two selected masks share two pixels; whichever proposal track 7
    holds and whatever the order of the members, 7 paints them."""
    props = {
        0: Proposal(id=0, t=0, mask=Mask(0, 0, np.ones((2, 3), dtype=bool)), raw_score=0.5),
        1: Proposal(id=1, t=0, mask=Mask(1, 1, np.ones((2, 2), dtype=bool)), raw_score=0.5),
    }
    for low, high in ((0, 1), (1, 0)):
        for members in ({3: [low], 7: [high]}, {7: [high], 3: [low]}):
            (grid,) = paint_lineage(Lineage(members=members), props, [(3, 4)])
            assert grid[1, 1] == grid[1, 2] == 7
            assert grid[0, 0] == (3 if low == 0 else 7)
            assert grid[2, 1] == (3 if low == 1 else 7)


@settings(max_examples=40)
@given(seeds)
def test_cell_overlaps_match_the_mask_by_mask_count(seed):
    rng = np.random.default_rng(seed)
    frames, props = _sequence(rng)
    grids = [rng.integers(0, 4, size=f.intensity.shape) * rng.integers(1, 9) for f in frames]
    gt = GroundTruth(tracks=[], markers={}, label_grids=grids)
    for t in range(len(frames) + 1):  # and a frame past the last grid
        masks = [p.mask for p in props if p.t == t]
        masks += [Mask(int(x0), int(y0), np.ones((3, 3), dtype=bool)) for x0, y0 in rng.integers(-2, 20, size=(2, 2))]
        got = _cell_overlap(gt, t, masks)
        want = reference.cell_overlap(gt, t, masks)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


@settings(max_examples=60)
@given(seeds)
def test_check_solution_matches_the_row_by_row_check(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    rows = []
    for _ in range(int(rng.integers(0, 15))):
        idx = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()
        coef = rng.choice([-1, 1], size=len(idx)).tolist()
        rows.append((idx, coef, "<=" if rng.random() < 0.6 else "==", int(rng.integers(-1, 3))))
    instance = IlpInstance.from_rows(np.zeros(n), rows)
    for x in (rng.integers(0, 2, size=n), np.zeros(n), np.ones(n, dtype=bool), np.full(n, 2), np.zeros(n + 1)):
        assert check_solution(instance, x) == reference.check_solution(instance, x)


def test_check_solution_names_each_violated_row():
    rows = [([0, 1], [1, 1], "<=", 1), ([2], [1], "==", 0), ([0, 2], [1, -1], "==", 0)]
    instance = IlpInstance.from_rows(np.zeros(3), rows)
    assert check_solution(instance, np.array([1, 1, 1])) == [
        "constraint 0: value 2 violates <= 1",
        "constraint 1: value 1 violates == 0",
    ]


def _line(ident, runs="0,1,2,1"):
    return f'{{"id":{ident},"t":0,"bbox":[0,0,2,2],"score":0.5,"mask_rle":[{runs}]}}'


@pytest.mark.parametrize(
    "lines, bad",
    [
        ([_line(0), "", "  ", _line(1), "", "{not json}", _line(2)], 6),
        ([_line(0), "", "[1, 2]", _line(1)], 3),
        # two lines that join into valid JSON but do not parse alone
        ([_line(0), "", '{"id":1,"t":0,"bbox":[0,0,2,2],"score":0.5,"mask_rle":[0,1', "2,1]}"], 3),
        ([_line(0) + " " + _line(1), _line(2)], 1),
        ([_line(0), '{"id":1,"t":0,"bbox":[0,0,2,2],"score":0.5,"mask_rle":[0,1,2,1],"x":{}}'], 2),
    ],
)
def test_read_proposals_names_the_first_bad_line(tmp_path, lines, bad):
    path = tmp_path / "props.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as got:
        read_proposals(path)
    with pytest.raises(FormatError) as want:
        io_reference.read_proposals(path)
    assert got.value.line == want.value.line == bad
    assert str(got.value) == str(want.value)


@settings(max_examples=30)
@given(seeds)
def test_written_proposals_read_back_and_match_the_json_writer(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    _, props = _sequence(rng)
    # tight masks, as files hold them
    props = [Proposal(id=p.id, t=p.t, mask=p.mask.tighten(), raw_score=p.raw_score) for p in props]
    for p in props[::3]:
        p.raw_score = [0.0, -0.0, 1e-300, 1.5e300, 1, np.float64(0.25)][int(rng.integers(0, 6))]
    directory = tmp_path_factory.mktemp("props")
    got, want = directory / "got.jsonl", directory / "want.jsonl"
    write_proposals(got, props)
    _reference_write_proposals(want, props)
    assert got.read_bytes() == want.read_bytes()
    text = got.read_text()
    got.write_text("\n\n".join(text.splitlines()) + "\n")  # blank lines between
    back = read_proposals(got)
    assert [(p.id, p.t, p.mask, p.raw_score) for p in back] == [
        (p.id, p.t, p.mask, p.raw_score) for p in io_reference.read_proposals(want)
    ]


@pytest.mark.parametrize(
    "x, y, inside",
    [(5000.0, 10.0, False), (-0.5, 10.0, True), (-0.51, 10.0, False), (47.49, 0.0, True), (47.5, 0.0, False),
     (10.0, 47.5, False), (10.0, -0.6, False)],
)
def test_marker_outside_its_frame_is_refused(tmp_path, x, y, inside):
    res = simulate(SimConfig(frames=3, width=48, height=48, initial_cells=3), 1)
    write_dataset(tmp_path, [f.intensity for f in res.frames], res.gt)
    path = tmp_path / "gt" / "markers.csv"
    rows = path.read_text().splitlines()
    t, tid = rows[3].split(",")[:2]
    rows[3] = f"{t},{tid},{x!r},{y!r}"
    path.write_text("\n".join([rows[0], "", *rows[1:]]) + "\n")  # a blank line: row 3 is on line 5
    if inside:
        load_dataset(tmp_path)
        return
    message = f"marker for track {tid} at frame {t} lies on pixel .* outside the 48x48 frame"
    with pytest.raises(FormatError, match=message) as err:
        load_dataset(tmp_path)
    assert err.value.line == 5


@pytest.mark.parametrize("seed", range(6))
def test_one_threshold_level_is_otsus_components(seed):
    frame = simulate(SimConfig(frames=1, width=64, height=56, initial_cells=6), seed).frames[0]
    bounds = (9, 60)
    binary = frame.intensity > otsu_reference.otsu_threshold(frame.intensity)
    labels, count = ndimage.label(binary, np.ones((3, 3), dtype=bool))
    want = []
    for lab, sl in enumerate(ndimage.find_objects(labels, count), start=1):
        bits = labels[sl] == lab
        if bounds[0] <= bits.sum() <= bounds[1]:
            want.append(Mask(sl[1].start, sl[0].start, bits))
    got = multi_threshold_proposals(frame, levels=1, span=(0.1, 9.0), area_bounds=bounds)
    assert [p.mask for p in got] == want
    assert [(p.id, p.t, p.raw_score) for p in got] == [(k, 0, 1.0) for k in range(len(want))]


def test_link_rows_pack_the_masks_once(monkeypatch):
    """``candidate_rows`` packs the proposals' masks once for the move and
    the division rows, which equal the rows of calls that pack their own."""
    frames = simulate(SimConfig(frames=3, width=64, height=64, initial_cells=6), 4).frames
    props = sorted((p for f in frames for p in log_blob_proposals(f)), key=lambda p: (p.t, p.id))
    for k, p in enumerate(props):
        p.id = k
    by_frame = [[p for p in props if p.t == f.t] for f in frames]
    feats = proposal_feature_matrix(props, frames)
    model = ConstantModel(p=0.7, n_features=feats.shape[1])
    sets = enumerate_mitoses(by_frame, 30.0, 3)
    assert len(sets) > 0
    packed = []
    pack = geometry_mod._pack_strips
    monkeypatch.setattr(geometry_mod, "_pack_strips", lambda masks: packed.append(len(masks)) or pack(masks))
    rows = candidate_rows(by_frame, props, feats, model, gating_radius=30.0, sets=sets)
    assert packed == [len(props)]
    probs = np.full(len(props), 0.7)
    assert np.array_equal(rows.move_rows, move_feature_matrix(props, feats, probs, rows.moves))
    assert np.array_equal(rows.mitosis_rows, mitosis_feature_matrix(props, feats, probs, sets))
    assert len(packed) == 3  # each call outside the block packs its own


def test_training_computes_division_rows_only_when_a_set_is_a_division(monkeypatch, tmp_path):
    """A scene with division sets but no division among them trains no
    division model and computes rows for no set; its labels still count."""
    import lineage_ilp.pipeline as pipeline_mod

    seen, labelled = [], []
    rows_of, label = pipeline_mod.mitosis_feature_matrix, pipeline_mod.label_mitosis_sets
    monkeypatch.setattr(pipeline_mod, "mitosis_feature_matrix", lambda *args: seen.append(len(args[3])) or rows_of(*args))
    monkeypatch.setattr(pipeline_mod, "label_mitosis_sets", lambda *args: labelled.append(len(args[1])) or label(*args))
    cfg = config_from_dict({"seed": 2, "sim": {"frames": 4, "width": 64, "height": 64, "initial_cells": 4}})
    ds = pipeline_mod.run_simulate(cfg, tmp_path / "ds")
    props = pipeline_mod.run_propose(cfg, ds, tmp_path / "props.jsonl")
    trained = pipeline_mod.run_train(cfg, ds, props, tmp_path / "models")
    assert trained.models.mitosis is None
    assert labelled[0] > 0 and seen == [0]
