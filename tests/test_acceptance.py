"""Shipping gate: ten checks covering solver exactness, end-to-end tracking
quality, determinism and input robustness.  Each test prints one summary line
(run with -s to see them all); tolerances are pinned at the top of the file.
"""
from __future__ import annotations

import json
import os
import time

import conftest
import numpy as np
import pytest
from support import random_graph, random_instance, strict_gap_graph

from lineage_ilp.classify import ConstantModel, load_model, model_to_json
from lineage_ilp.config import ConfigError, config_from_dict, load_config
from lineage_ilp.evaluate import GroundTruth, mitosis_f1, tra_score
from lineage_ilp.features import (
    MITOSIS_DIM,
    PROPOSAL_DIM,
    mitosis_features,
    proposal_features,
)
from lineage_ilp.geometry import (
    BBox,
    Mask,
    anchor_decode,
    anchor_encode,
    iou_box,
    iou_mask,
    nms,
)
from lineage_ilp.io import (
    FormatError,
    TrackRow,
    dumps_json,
    parse_pgm,
    read_proposals,
    write_pgm,
    write_proposals,
)
from lineage_ilp.pipeline import (
    build_candidate_graph,
    load_dataset,
    load_models,
    run_e2e,
    run_eval,
    run_propose,
    run_simulate,
    run_train,
    solve_graph,
    write_result,
)
from lineage_ilp.proposals import Frame, Proposal
from lineage_ilp.solve import (
    Lineage,
    check_solution,
    formulate,
    load_instance,
    save_instance,
    solve,
    solve_bruteforce,
    solve_greedy,
)

# Pinned tolerances and budgets.
EXACTNESS_INSTANCES = 500
EXACTNESS_BUDGET_S = 60.0
CLEAN_BUDGET_S = 120.0
DEGRADED_TRA_FLOOR = 0.90
DOMINANCE_SLACK = 1e-9  # float dot products, not a semantic tolerance
FEATURE_ATOL = 1e-9
ANCHOR_RTOL = 1e-12
FUZZ_CASES = 10_000

# Pinned pipeline configuration: 50 frames of 200x200 with 15 starting cells
# gives a scene with >= 5 divisions, >= 3 enters and >= 3 exits under seed 0.
CLEAN_DOC = {
    "seed": 0,
    "proposals": {"generator": "truth"},
    "sim": {
        "frames": 50,
        "width": 200,
        "height": 200,
        "initial_cells": 15,
        "division_rate": 0.02,
        "enter_rate": 0.1,
        "motion_sigma": 1.5,
    },
}
CORRUPTION = {"drop_rate": 0.05, "clutter_rate": 0.05, "merge_rate": 0.03}
DEGRADED_SEEDS = (0, 1, 2, 3, 4)


def degraded_doc(seed: int) -> dict:
    doc = json.loads(json.dumps(CLEAN_DOC))
    doc["seed"] = seed
    doc["sim"]["corruption"] = dict(CORRUPTION)
    return doc


def run_stages(doc: dict, root: str):
    """simulate / propose / train, then hand back everything a solve needs."""
    cfg = config_from_dict(doc)
    data_dir = os.path.join(root, "ds")
    proposals_path = os.path.join(root, "proposals.jsonl")
    model_dir = os.path.join(root, "models")
    run_simulate(cfg, data_dir)
    run_propose(cfg, data_dir, proposals_path)
    run_train(cfg, data_dir, proposals_path, model_dir)
    ds = load_dataset(data_dir, need_gt=True)
    props = read_proposals(proposals_path)
    models = load_models(model_dir)
    return cfg, data_dir, ds, props, models


def test_01_exact_solver_matches_bruteforce():
    rng = np.random.default_rng(20_500)
    t0 = time.monotonic()
    for i in range(EXACTNESS_INSTANCES):
        inst = random_instance(rng, max_vars=20)
        exact = solve(inst)
        brute = solve_bruteforce(inst)
        assert exact.status == "optimal", f"instance {i}: {exact.status}"
        assert brute.status == "optimal", f"instance {i}: {brute.status}"
        assert exact.objective == brute.objective, (
            f"instance {i}: {exact.objective!r} != {brute.objective!r}"
        )
        assert check_solution(inst, exact.x) == []
    elapsed = time.monotonic() - t0
    assert elapsed < EXACTNESS_BUDGET_S
    print(
        f"\n[acceptance 1] PASS: {EXACTNESS_INSTANCES} random instances, exact "
        f"objective == brute force objective (0 tolerance), {elapsed:.1f}s"
    )


def test_02_every_solution_is_checked():
    # conftest re-verifies every assignment any solver returns during this
    # test run against the raw constraint system; a violation fails the test
    # that produced it.  Here we assert the audit is wired in and clean, and
    # drive a fresh batch through it for good measure.
    import importlib

    pipeline_mod = importlib.import_module("lineage_ilp.pipeline")
    solve_mod = importlib.import_module("lineage_ilp.solve")

    assert solve_mod.solve.__name__ == "_checked_solve"
    assert solve_mod.solve_greedy.__name__ == "_checked_greedy"
    assert solve_mod.solve_bruteforce.__name__ == "_checked_bruteforce"
    assert pipeline_mod.solve is solve_mod.solve
    assert pipeline_mod.solve_greedy is solve_mod.solve_greedy

    rng = np.random.default_rng(7)
    for _ in range(50):
        graph = random_graph(rng)
        inst, _ = formulate(graph)
        for result in (solve(inst), solve_greedy(graph)):
            assert result.x is not None
            assert check_solution(inst, result.x) == []

    assert conftest.AUDIT_VIOLATIONS == []
    checked = dict(conftest.SOLUTION_AUDIT)
    assert checked["solve"] >= 50
    assert checked["greedy"] >= 50
    print(
        f"\n[acceptance 2] PASS: independent checker saw {sum(checked.values())}"
        f" solutions so far ({checked}), zero violations"
    )


def test_03_clean_data_tracked_perfectly(tmp_path):
    t0 = time.monotonic()
    cfg = config_from_dict(CLEAN_DOC)
    report = run_e2e(cfg, str(tmp_path))

    gt = load_dataset(str(tmp_path / "dataset"), need_gt=True).gt
    last = cfg.sim.frames - 1
    parents = {r.parent for r in gt.tracks if r.parent}
    n_div = len(gt.divisions())
    n_enter = sum(1 for r in gt.tracks if r.parent == 0 and r.birth > 0)
    n_exit = sum(1 for r in gt.tracks if r.end < last and r.label not in parents)
    assert n_div >= 5 and n_enter >= 3 and n_exit >= 3

    assert report.tra.tra == 1.0
    assert report.division_f1 == 1.0
    assert report.recalls["R"] == 1.0
    assert report.recalls["R_NS"] == 1.0
    assert report.recalls["move_recall"] == 1.0
    elapsed = time.monotonic() - t0
    assert elapsed < CLEAN_BUDGET_S
    print(
        f"\n[acceptance 3] PASS: clean 50-frame run (divisions={n_div},"
        f" enters={n_enter}, exits={n_exit}) scored TRA=1.0, division F1=1.0,"
        f" R=R_NS=move recall=1.0 in {elapsed:.0f}s"
    )


def test_04_degraded_data_stays_accurate_and_beats_greedy(tmp_path):
    exact_tras = []
    greedy_tras = []
    for seed in DEGRADED_SEEDS:
        root = tmp_path / f"seed{seed}"
        root.mkdir()
        cfg, data_dir, ds, props, models = run_stages(degraded_doc(seed), str(root))
        graph = build_candidate_graph(cfg, ds, props, models)
        shapes = [f.intensity.shape for f in ds.frames]
        for backend, sink in (("exact", exact_tras), ("greedy", greedy_tras)):
            bcfg = config_from_dict({**degraded_doc(seed), "solve": {"backend": backend}})
            _result, lineage = solve_graph(bcfg, graph)
            result_dir = str(root / f"result_{backend}")
            write_result(result_dir, lineage, props, shapes)
            sink.append(run_eval(data_dir, result_dir).tra.tra)
    mean_exact = float(np.mean(exact_tras))
    mean_greedy = float(np.mean(greedy_tras))
    assert mean_exact >= DEGRADED_TRA_FLOOR
    assert mean_exact > mean_greedy
    print(
        f"\n[acceptance 4] PASS: drop/clutter/merge corruption over seeds"
        f" {DEGRADED_SEEDS}: exact TRA {mean_exact:.4f} (floor"
        f" {DEGRADED_TRA_FLOOR}) > greedy TRA {mean_greedy:.4f} on the same graphs"
    )


def test_05_greedy_never_beats_exact():
    rng = np.random.default_rng(55)
    for i in range(200):
        graph = random_graph(rng)
        inst, _ = formulate(graph)
        exact = solve(inst)
        greedy = solve_greedy(graph)
        assert greedy.objective >= exact.objective - DOMINANCE_SLACK, f"graph {i}"

    gap_graph = strict_gap_graph()
    inst, _ = formulate(gap_graph)
    exact = solve(inst)
    greedy = solve_greedy(gap_graph)
    assert exact.objective == pytest.approx(-15.7)
    assert greedy.objective == pytest.approx(-12.6)
    assert greedy.objective - exact.objective > 3.0
    print(
        "\n[acceptance 5] PASS: greedy objective >= exact objective on 200"
        f" random graphs; pinned fixture gap {greedy.objective - exact.objective:.1f}"
    )


def _single_pixel_track(tid: int, x: int, y: int, frames: int):
    props = []
    for t in range(frames):
        props.append(
            Proposal(id=2 * t + tid - 1, t=t, mask=Mask(x + t, y, np.ones((1, 1), bool)), raw_score=1.0)
        )
    return props


def test_06_metric_pins():
    f1 = mitosis_f1(0.91, 0.82)
    assert round(f1, 3) == 0.863
    assert round(f1, 2) == 0.86

    tracks = [TrackRow(1, 0, 4, 0), TrackRow(2, 0, 4, 0)]
    markers = {t: [(1, 2.0 + t, 2.0), (2, 9.0 + t, 9.0)] for t in range(5)}
    gt = GroundTruth(tracks=tracks, markers=markers)
    props = _single_pixel_track(1, 2, 2, 5) + _single_pixel_track(2, 9, 9, 5)
    props.sort(key=lambda p: (p.t, p.id))
    perfect = Lineage(
        tracks=[TrackRow(1, 0, 4, 0), TrackRow(2, 0, 4, 0)],
        members={1: [p.id for p in props if p.id % 2 == 0], 2: [p.id for p in props if p.id % 2 == 1]},
        end_reason={1: "exit", 2: "exit"},
    )
    assert tra_score(props, perfect, gt).tra == 1.0
    empty = Lineage()
    assert tra_score([], empty, gt).tra == 0.0
    print(
        f"\n[acceptance 6] PASS: F1(0.91, 0.82) = {f1:.3f} -> 0.86;"
        " TRA is 1.0 for a perfect result and 0.0 for an empty one"
    )


def test_07_feature_contract():
    rng = np.random.default_rng(77)

    def blob(seed_offset: int):
        r = np.random.default_rng(700 + seed_offset)
        patch = r.uniform(0.2, 1.0, size=(7, 7))
        bits = r.random((7, 7)) < 0.6
        bits[3, 3] = True
        return patch, bits

    def embed(patch, bits, x0, y0, pid=0, t=0, size=60):
        img = np.zeros((size, size))
        img[y0 : y0 + 7, x0 : x0 + 7] = patch
        prop = Proposal(id=pid, t=t, mask=Mask(x0, y0, bits.copy()), raw_score=0.5)
        return Frame(t=t, intensity=img), prop

    patch, bits = blob(0)
    frame, prop = embed(patch, bits, 12, 15)
    vec = proposal_features(prop, frame)
    assert vec.shape == (PROPOSAL_DIM,) == (92,)
    assert PROPOSAL_DIM == 15 + 8 + 8 + 60 + 1

    worst = 0.0
    for _ in range(25):
        x0, y0 = (int(v) for v in rng.integers(2, 40, size=2))
        dx, dy = (int(v) for v in rng.integers(1, 12, size=2))
        fa, pa = embed(patch, bits, x0, y0)
        fb, pb = embed(patch, bits, x0 + dx, y0 + dy)
        worst = max(worst, float(np.abs(proposal_features(pa, fa) - proposal_features(pb, fb)).max()))
    assert worst <= FEATURE_ATOL

    p_patch, p_bits = blob(1)
    frame_t, parent = embed(p_patch, p_bits, 20, 20, pid=5, t=3)
    a_patch, a_bits = blob(2)
    b_patch, b_bits = blob(3)
    img = np.zeros((60, 60))
    img[12:19, 10:17] = a_patch
    img[30:37, 28:35] = b_patch
    frame_t1 = Frame(t=4, intensity=img)
    d1 = Proposal(id=7, t=4, mask=Mask(10, 12, a_bits), raw_score=0.5)
    d2 = Proposal(id=9, t=4, mask=Mask(28, 30, b_bits), raw_score=0.5)
    fwd = mitosis_features(parent, d1, d2, 0.9, 0.8, 0.7, frame_t, frame_t1)
    rev = mitosis_features(parent, d2, d1, 0.9, 0.7, 0.8, frame_t, frame_t1)
    assert fwd.shape == (MITOSIS_DIM,)
    np.testing.assert_array_equal(fwd, rev)
    print(
        f"\n[acceptance 7] PASS: proposal vector is 92-d (15+8+8+60+1),"
        f" translation moved features by at most {worst:.2e},"
        " division features ignore daughter order"
    )


def test_08_geometry_contract():
    rng = np.random.default_rng(88)

    worst = 0.0
    for _ in range(10_000):
        bx, by, ax, ay = rng.uniform(-50.0, 50.0, size=4)
        bw, bh, aw, ah = rng.uniform(0.1, 40.0, size=4)
        box = BBox(bx, by, bw, bh)
        anchor = BBox(ax, ay, aw, ah)
        back = anchor_decode(anchor_encode(box, anchor), anchor)
        for got, want in ((back.x, box.x), (back.y, box.y), (back.w, box.w), (back.h, box.h)):
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst <= ANCHOR_RTOL

    for round_ in range(50):
        items = []
        for i in range(20):
            x, y = rng.uniform(0, 30, size=2)
            w, h = rng.uniform(1, 10, size=2)
            items.append((i, float(rng.random()), BBox(x, y, w, h)))
        kept = nms(items, 0.5)
        survivors = [items[i] for i in kept]
        assert nms(survivors, 0.5) == kept, f"round {round_}"

    for _ in range(500):
        def random_mask():
            w, h = rng.integers(1, 9, size=2)
            bits = rng.random((h, w)) < 0.6
            bits[0, 0] = True
            return Mask(int(rng.integers(0, 12)), int(rng.integers(0, 12)), bits)

        a, b = random_mask(), random_mask()
        ab, ba = iou_mask(a, b), iou_mask(b, a)
        assert ab == ba
        assert 0.0 <= ab <= 1.0
        assert iou_mask(a, a) == 1.0
        ab_box, ba_box = iou_box(a.bbox, b.bbox), iou_box(b.bbox, a.bbox)
        assert ab_box == ba_box
        assert 0.0 <= ab_box <= 1.0
    print(
        f"\n[acceptance 8] PASS: anchor round-trip worst relative error"
        f" {worst:.2e} over 10^4 boxes; suppression is idempotent; IoU is"
        " symmetric and within [0, 1] on fuzzed masks"
    )


def test_09_end_to_end_runs_are_byte_identical(tmp_path):
    doc = {
        "seed": 11,
        "proposals": {"generator": "truth"},
        "sim": {
            "frames": 12,
            "width": 96,
            "height": 96,
            "initial_cells": 6,
            "division_rate": 0.03,
            "enter_rate": 0.1,
            "motion_sigma": 1.5,
            "corruption": {"drop_rate": 0.03, "clutter_rate": 0.03},
        },
    }
    dirs = (str(tmp_path / "a"), str(tmp_path / "b"))
    for d in dirs:
        run_e2e(config_from_dict(doc), d)

    def tree(root: str) -> dict[str, bytes]:
        out = {}
        for base, _dirs, files in os.walk(root):
            for name in files:
                full = os.path.join(base, name)
                with open(full, "rb") as fh:
                    out[os.path.relpath(full, root)] = fh.read()
        return out

    ta, tb = tree(dirs[0]), tree(dirs[1])
    assert sorted(ta) == sorted(tb)
    diffs = [rel for rel in ta if ta[rel] != tb[rel]]
    assert diffs == []
    for must_have in ("result/tracks.txt", "report.json", "models/proposal.json", "models/move.json", "models/meta.json"):
        assert must_have in ta
    print(
        f"\n[acceptance 9] PASS: two runs from one config wrote {len(ta)}"
        " byte-identical files (tracks, report, models included)"
    )


def _mutate(rng: np.random.Generator, data: bytes) -> bytes:
    buf = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(0, 5))
        if op == 0 and buf:
            buf = buf[: int(rng.integers(0, len(buf)))]
        elif op == 1 and buf:
            buf[int(rng.integers(0, len(buf)))] = int(rng.integers(0, 256))
        elif op == 2:
            at = int(rng.integers(0, len(buf) + 1))
            junk = bytes(rng.integers(0, 256, size=int(rng.integers(1, 9))).tolist())
            buf = buf[:at] + junk + buf[at:]
        elif op == 3 and buf:
            at = int(rng.integers(0, len(buf)))
            buf = buf[:at] + buf[at + 1 :]
        else:
            buf += bytes(rng.integers(32, 127, size=int(rng.integers(1, 6))).tolist())
    return bytes(buf)


def test_10_fuzzed_inputs_never_crash(tmp_path):
    rng = np.random.default_rng(1010)

    pgm_path = str(tmp_path / "seed.pgm")
    write_pgm(pgm_path, (np.arange(20, dtype=np.uint16) % 7).reshape(4, 5) * 30, 300)
    with open(pgm_path, "rb") as fh:
        pgm_seed = fh.read()
    pgm_ascii_seed = b"P2\n# tiny\n3 2 9\n0 1 2 3 4 5\n"

    props = [
        Proposal(id=0, t=0, mask=Mask(1, 2, np.array([[True, False], [True, True]])), raw_score=0.5),
        Proposal(id=1, t=1, mask=Mask(4, 4, np.ones((1, 3), bool)), raw_score=0.25),
    ]
    prop_path = str(tmp_path / "seed.jsonl")
    write_proposals(prop_path, props)
    with open(prop_path, "rb") as fh:
        proposals_seed = fh.read()

    config_seed = dumps_json(CLEAN_DOC).encode()
    model_seed = dumps_json(model_to_json(ConstantModel(p=0.25, n_features=92))).encode()
    inst = random_instance(np.random.default_rng(3), max_vars=8)
    inst_path = str(tmp_path / "seed_instance.json")
    save_instance(inst, inst_path)
    with open(inst_path, "rb") as fh:
        instance_seed = fh.read()

    scratch = str(tmp_path / "fuzz.bin")

    def on_file(loader):
        def call(data: bytes):
            with open(scratch, "wb") as fh:
                fh.write(data)
            loader(scratch)
        return call

    targets = [
        ("pgm", pgm_seed, lambda d: parse_pgm(d, path="fuzz"), (FormatError,)),
        ("pgm-ascii", pgm_ascii_seed, lambda d: parse_pgm(d, path="fuzz"), (FormatError,)),
        ("proposals", proposals_seed, on_file(read_proposals), (FormatError,)),
        ("config", config_seed, on_file(load_config), (FormatError, ConfigError)),
        ("model", model_seed, on_file(load_model), (FormatError,)),
        ("instance", instance_seed, on_file(load_instance), (FormatError,)),
    ]

    per_target = FUZZ_CASES // len(targets)
    extra = FUZZ_CASES - per_target * len(targets)
    total = 0
    rejected = 0
    for t_index, (name, seed_bytes, call, allowed) in enumerate(targets):
        n_cases = per_target + (extra if t_index == 0 else 0)
        for case in range(n_cases):
            data = _mutate(rng, seed_bytes)
            total += 1
            try:
                call(data)
            except allowed as exc:
                assert str(exc), f"{name} case {case}: empty error message"
                rejected += 1
            except Exception as exc:  # noqa: BLE001 - the whole point
                raise AssertionError(
                    f"{name} case {case}: {type(exc).__name__}: {exc} on {data[:80]!r}"
                ) from exc
    assert total == FUZZ_CASES
    print(
        f"\n[acceptance 10] PASS: {total} mutated inputs parsed or rejected"
        f" with structured errors ({rejected} rejections, 0 crashes)"
    )
