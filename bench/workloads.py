"""The benchmark's workloads: what one op runs, and the per-op correctness gate.

Each workload is a closed loop with one client and one op in flight.  A run
processes the workload's distinct scenes, derived from the workload seed,
round robin: scene ``k`` of workload seed ``s`` is the pipeline config seed
``1000 * s + k``.  The program sees only the generated config and files.
"""
from __future__ import annotations

import copy
import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import lineage_ilp.pipeline as pipeline_mod
from lineage_ilp.config import PipelineConfig, config_from_dict
from lineage_ilp.evaluate import EvalReport
from lineage_ilp.solve import check_solution, formulate, objective_value

OBJECTIVE_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    doc: dict  # pipeline config of every scene; "seed" is set per scene
    scenes: int  # distinct scenes per run
    train_frames: int = 0  # > 0: train once in set-up on a sequence this long; ops only track


DEGRADED_SIM = {
    "frames": 10,
    "width": 200,
    "height": 200,
    "initial_cells": 15,
    "division_rate": 0.02,
    "enter_rate": 0.1,
    "motion_sigma": 1.5,
    "corruption": {"drop_rate": 0.05, "clutter_rate": 0.05, "merge_rate": 0.03},
}

WORKLOADS = {
    w.name: w
    for w in (
        # acceptance degraded scene (shortened to 10 frames), truth proposals
        Workload(
            "truth-degraded", {"proposals": {"generator": "truth"}, "sim": DEGRADED_SIM}, scenes=16
        ),
        # default 128x128 scene with 8 cells over 10 frames, default
        # multi_threshold generator, exact solver under a node budget (a time
        # limit would make the selection depend on machine speed)
        Workload(
            "mt-exact",
            {
                "sim": {"frames": 10, "division_rate": 0.02, "enter_rate": 0.08},
                "solve": {"max_nodes": 1000},
            },
            scenes=12,
        ),
        # train once on a longer sequence, then track unseen sequences greedily
        Workload(
            "log-track",
            {
                "proposals": {"generator": "log"},
                "solve": {"backend": "greedy"},
                "sim": {
                    "frames": 25,
                    "width": 200,
                    "height": 200,
                    "initial_cells": 15,
                    "division_rate": 0.02,
                    "enter_rate": 0.1,
                },
            },
            scenes=8,
            train_frames=30,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload on scenes small enough for a smoke test."""
    doc = copy.deepcopy(w.doc)
    doc.setdefault("sim", {}).update(frames=6, width=64, height=64, initial_cells=4)
    return Workload(w.name, doc, scenes=2, train_frames=8 if w.train_frames else 0)


def scene_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


TRAIN_SCENE = 999


def scene_config(w: Workload, seed: int, k: int, frames: int | None = None) -> PipelineConfig:
    doc = copy.deepcopy(w.doc)
    doc["seed"] = scene_seed(seed, k)
    if frames is not None:
        doc["sim"]["frames"] = frames
    return config_from_dict(doc)


@dataclass
class Scene:
    index: int
    cfg: PipelineConfig
    data_dir: str | None = None  # simulated during set-up (train-once workloads)


@dataclass
class Prepared:
    scenes: list[Scene]
    model_dir: str | None = None
    fingerprint: str = ""  # of everything set-up wrote


def prepare(w: Workload, seed: int, root: str) -> Prepared:
    """Set-up before the first timed op: configs, and for train-once
    workloads the simulated sequences and the trained models."""
    scenes = [Scene(k, scene_config(w, seed, k)) for k in range(w.scenes)]
    if not w.train_frames:
        return Prepared(scenes)
    os.makedirs(root, exist_ok=True)
    train_cfg = scene_config(w, seed, TRAIN_SCENE, frames=w.train_frames)
    train_dir = os.path.join(root, "train")
    proposals_path = os.path.join(root, "train_proposals.jsonl")
    model_dir = os.path.join(root, "models")
    pipeline_mod.run_simulate(train_cfg, train_dir)
    pipeline_mod.run_propose(train_cfg, train_dir, proposals_path)
    pipeline_mod.run_train(train_cfg, train_dir, proposals_path, model_dir)
    for s in scenes:
        s.data_dir = os.path.join(root, f"scene{s.index}")
        pipeline_mod.run_simulate(s.cfg, s.data_dir)
    return Prepared(scenes, model_dir, tree_digest(root))


@dataclass
class OpOutput:
    report: EvalReport
    track: pipeline_mod.TrackRun


@contextmanager
def captured_track():
    """Keep the TrackRun that ``run_e2e`` builds and drops, for the gate."""
    box: list[pipeline_mod.TrackRun] = []
    run_track = pipeline_mod.run_track

    def capture(*args, **kwargs):
        box.append(run_track(*args, **kwargs))
        return box[-1]

    pipeline_mod.run_track = capture
    try:
        yield box
    finally:
        pipeline_mod.run_track = run_track


def run_op(w: Workload, prep: Prepared, scene: Scene, out_dir: str) -> OpOutput:
    """One op.  The caller times this call and nothing else."""
    cfg = scene.cfg
    if not w.train_frames:
        with captured_track() as box:
            report = pipeline_mod.run_e2e(cfg, out_dir)
        return OpOutput(report, box[-1])
    os.makedirs(out_dir, exist_ok=True)
    proposals_path = os.path.join(out_dir, "proposals.jsonl")
    result_dir = os.path.join(out_dir, "result")
    pipeline_mod.run_propose(cfg, scene.data_dir, proposals_path)
    tracked = pipeline_mod.run_track(cfg, scene.data_dir, proposals_path, prep.model_dir, result_dir)
    report = pipeline_mod.run_eval(
        scene.data_dir, result_dir, os.path.join(out_dir, "report.json"), cfg=cfg, graph=tracked.graph
    )
    return OpOutput(report, tracked)


def check_op(out: OpOutput) -> list[str]:
    """Correctness gate, run outside the timed span.

    Re-formulates the returned graph, checks the selection against it with
    the independent checker, and checks the reported objective against
    ``costs @ x``; also that the scores are in range.
    """
    result = out.track.result
    if result.x is None:
        return [f"selection has no assignment (status {result.status})"]
    instance, _ = formulate(out.track.graph)
    problems = check_solution(instance, result.x)
    direct = objective_value(instance, result.x)
    if result.objective is None or not np.isclose(
        result.objective, direct, rtol=OBJECTIVE_RTOL, atol=OBJECTIVE_RTOL
    ):
        problems.append(f"reported objective {result.objective!r} != costs @ x = {direct!r}")
    for name, value in (("tra", out.report.tra.tra), ("seg", out.report.seg)):
        if value is None or not 0.0 <= value <= 1.0:
            problems.append(f"{name} {value!r} outside [0, 1]")
    return problems


def result_files(out_dir: str) -> list[str]:
    """The op's outputs that the fingerprint covers: tracks, label grids, report."""
    result_dir = os.path.join(out_dir, "result")
    seg_dir = os.path.join(result_dir, "seg")
    return [
        os.path.join(result_dir, "tracks.txt"),
        *(os.path.join(seg_dir, n) for n in sorted(os.listdir(seg_dir))),
        os.path.join(out_dir, "report.json"),
    ]


def fingerprint(paths: list[str], root: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path, root).encode())
        h.update(b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def tree_files(root: str) -> list[str]:
    return sorted(
        os.path.join(d, n) for d, _, names in os.walk(root) for n in names
    )


def tree_digest(root: str) -> str:
    return fingerprint(tree_files(root), root)


def tree_bytes(root: str) -> int:
    return sum(os.path.getsize(p) for p in tree_files(root))
