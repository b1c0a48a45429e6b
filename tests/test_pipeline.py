import os

import numpy as np
import pytest

from lineage_ilp.config import config_from_dict
from lineage_ilp.evaluate import GroundTruth
from lineage_ilp.io import FormatError, read_json_file, read_proposals, read_tracks, TrackRow
from lineage_ilp.pipeline import (
    Dataset,
    SolverTimeout,
    _group_by_frame,
    build_candidate_graph,
    generate_proposals,
    load_dataset,
    load_models,
    result_from_grids,
    run_e2e,
    run_eval,
    run_propose,
    run_simulate,
    run_track,
    run_train,
    solve_graph,
    write_dataset,
)
from lineage_ilp.proposals import Frame, Proposal
from lineage_ilp.sim import SimConfig, simulate


def tiny_config(**overrides):
    doc = {
        "seed": 3,
        "proposals": {"generator": "truth"},
        "sim": {"frames": 6, "width": 80, "height": 80, "initial_cells": 4},
    }
    doc.update(overrides)
    return config_from_dict(doc)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        res = simulate(SimConfig(seed=1, frames=4, width=64, height=64, initial_cells=3))
        write_dataset(tmp_path, [f.intensity for f in res.frames], res.gt)
        ds = load_dataset(tmp_path, need_gt=True)
        assert len(ds.frames) == 4
        assert ds.gt.tracks == res.gt.tracks
        assert ds.gt.markers == res.gt.markers
        for a, b in zip(ds.gt.label_grids, res.gt.label_grids):
            assert (a == b).all()

    def test_frames_only_dataset(self, tmp_path):
        res = simulate(SimConfig(seed=1, frames=3, width=64, height=64, initial_cells=2))
        write_dataset(tmp_path, [f.intensity for f in res.frames], res.gt)
        import shutil

        shutil.rmtree(tmp_path / "gt")
        ds = load_dataset(tmp_path)
        assert ds.gt is None
        with pytest.raises(FormatError, match="gt"):
            load_dataset(tmp_path, need_gt=True)

    def test_grid_count_mismatch(self, tmp_path):
        res = simulate(SimConfig(seed=1, frames=4, width=64, height=64, initial_cells=3))
        write_dataset(tmp_path, [f.intensity for f in res.frames], res.gt)
        os.remove(tmp_path / "gt" / "seg" / "t003.pgm")
        with pytest.raises(FormatError, match="grids"):
            load_dataset(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FormatError):
            load_dataset(tmp_path / "absent")


class TestProposalStage:
    def test_truth_generator_needs_grids(self):
        cfg = tiny_config()
        frames = [Frame(0, np.zeros((16, 16)))]
        with pytest.raises(FormatError, match="truth"):
            generate_proposals(cfg, Dataset(frames=frames, gt=None))

    def test_threshold_generator_ids_are_contiguous(self, tmp_path):
        cfg = config_from_dict(
            {
                "seed": 2,
                "sim": {"frames": 4, "width": 72, "height": 72, "initial_cells": 4},
            }
        )
        run_simulate(cfg, tmp_path)
        props = run_propose(cfg, tmp_path, tmp_path / "p.jsonl")
        assert [p.id for p in props] == list(range(len(props)))
        assert len(props) > 0
        again = read_proposals(tmp_path / "p.jsonl")
        assert [(p.id, p.t, p.mask) for p in again] == [(p.id, p.t, p.mask) for p in props]

    def test_group_by_frame_checks_range(self):
        p = Proposal(id=0, t=5, mask=_mask(), raw_score=0.5)
        with pytest.raises(FormatError, match="frame 5"):
            _group_by_frame([p], 3)


def _mask():
    from lineage_ilp.geometry import Mask

    return Mask(0, 0, np.ones((2, 2), dtype=bool))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("flow")
    cfg = tiny_config()
    run_simulate(cfg, root / "ds")
    run_propose(cfg, root / "ds", root / "p.jsonl")
    run_train(cfg, root / "ds", root / "p.jsonl", root / "models")
    return cfg, root


class TestTrainAndTrack:

    def test_model_dir_contents(self, workspace):
        _, root = workspace
        names = sorted(os.listdir(root / "models"))
        assert "proposal.json" in names
        assert "move.json" in names
        assert "meta.json" in names
        meta = read_json_file(root / "models" / "meta.json", kind="model_meta", supported_versions=(1,))
        assert meta["gating_radius"] > 0
        assert meta["mitosis_radius"] > meta["gating_radius"]

    def test_clean_data_disables_division_model(self, workspace):
        _, root = workspace
        models = load_models(root / "models")
        assert models.mitosis is None
        assert not os.path.exists(root / "models" / "mitosis.json")

    def test_track_writes_result(self, workspace):
        cfg, root = workspace
        run = run_track(cfg, root / "ds", root / "p.jsonl", root / "models", root / "res")
        rows = read_tracks(root / "res" / "tracks.txt")
        assert rows == run.lineage.tracks
        assert sorted(os.listdir(root / "res" / "seg")) == [f"t{t:03d}.pgm" for t in range(6)]

    def test_eval_scores_perfect_run(self, workspace):
        cfg, root = workspace
        run_track(cfg, root / "ds", root / "p.jsonl", root / "models", root / "res")
        report = run_eval(root / "ds", root / "res", root / "report.json", cfg=cfg)
        assert report.tra.tra == 1.0
        assert report.seg == 1.0
        doc = read_json_file(root / "report.json", kind="eval_report", supported_versions=(1,))
        assert doc["tra"]["score"] == 1.0

    def test_loaded_models_predict_identically(self, workspace):
        cfg, root = workspace
        ds = load_dataset(root / "ds")
        props = read_proposals(root / "p.jsonl")
        models = load_models(root / "models")
        g1 = build_candidate_graph(cfg, ds, props, models)
        g2 = build_candidate_graph(cfg, ds, props, load_models(root / "models"))
        assert g1.node_cost == g2.node_cost
        assert [e.cost for e in g1.edges] == [e.cost for e in g2.edges]

    def test_missing_model_dir(self, workspace):
        _, root = workspace
        with pytest.raises(FormatError):
            load_models(root / "no_such_models")


class TestResultReconstruction:
    def test_round_trip_members(self):
        rows = [TrackRow(1, 0, 1, 0), TrackRow(2, 2, 2, 1), TrackRow(3, 2, 2, 1)]
        g0 = np.zeros((8, 8), dtype=np.int32)
        g0[1:3, 1:3] = 1
        g1 = np.zeros((8, 8), dtype=np.int32)
        g1[2:4, 2:4] = 1
        g2 = np.zeros((8, 8), dtype=np.int32)
        g2[0:2, 0:2] = 2
        g2[5:7, 5:7] = 3
        props, lineage = result_from_grids(rows, [g0, g1, g2])
        assert [p.t for p in props] == [0, 1, 2, 2]
        assert lineage.members == {1: [0, 1], 2: [2], 3: [3]}
        assert lineage.end_reason[1] == "division"
        assert lineage.end_reason[2] == "exit"

    def test_unknown_label_rejected(self):
        g = np.zeros((4, 4), dtype=np.int32)
        g[0, 0] = 9
        with pytest.raises(FormatError, match="unknown track"):
            result_from_grids([TrackRow(1, 0, 0, 0)], [g])

    def test_track_without_pixels_is_tolerated(self):
        rows = [TrackRow(1, 0, 0, 0), TrackRow(2, 0, 0, 0)]
        g = np.zeros((4, 4), dtype=np.int32)
        g[1, 1] = 1
        props, lineage = result_from_grids(rows, [g])
        assert lineage.members[2] == []


class TestEndToEnd:
    def test_clean_run_is_perfect_and_reproducible(self, tmp_path):
        cfg = tiny_config()
        r1 = run_e2e(cfg, tmp_path / "a")
        r2 = run_e2e(cfg, tmp_path / "b")
        assert r1.tra.tra == 1.0
        assert r1.division_f1 == 1.0
        files = []
        for dirpath, _, names in os.walk(tmp_path / "a"):
            for n in names:
                files.append(os.path.relpath(os.path.join(dirpath, n), tmp_path / "a"))
        assert files
        for rel in files:
            b1 = (tmp_path / "a" / rel).read_bytes()
            b2 = (tmp_path / "b" / rel).read_bytes()
            assert b1 == b2, rel

    def test_report_txt_written(self, tmp_path):
        cfg = tiny_config()
        run_e2e(cfg, tmp_path)
        text = (tmp_path / "report.txt").read_text()
        assert text.splitlines()[0] == "TRA SEG FN FP NS EA EC ED2"
        assert "R-NS=" in text

    def test_empty_proposals_yield_empty_tracks(self, tmp_path):
        cfg = tiny_config()
        run_simulate(cfg, tmp_path / "ds")
        run_propose(cfg, tmp_path / "ds", tmp_path / "p.jsonl")
        run_train(cfg, tmp_path / "ds", tmp_path / "p.jsonl", tmp_path / "models")
        (tmp_path / "empty.jsonl").write_text("")
        run_track(cfg, tmp_path / "ds", tmp_path / "empty.jsonl", tmp_path / "models", tmp_path / "res")
        assert read_tracks(tmp_path / "res" / "tracks.txt") == []
        report = run_eval(tmp_path / "ds", tmp_path / "res")
        assert report.tra.tra == 0.0

    def test_solver_timeout_raises_with_gap(self, tmp_path):
        cfg = config_from_dict(
            {
                "seed": 11,
                "proposals": {"generator": "truth"},
                "solve": {"time_limit": 1e-7},
                "sim": {
                    "frames": 12,
                    "width": 128,
                    "height": 128,
                    "initial_cells": 12,
                    "division_rate": 0.03,
                    "corruption": {"drop_rate": 0.08, "clutter_rate": 0.1, "merge_rate": 0.05},
                },
            }
        )
        run_simulate(cfg, tmp_path / "ds")
        run_propose(cfg, tmp_path / "ds", tmp_path / "p.jsonl")
        run_train(cfg, tmp_path / "ds", tmp_path / "p.jsonl", tmp_path / "models")
        ds = load_dataset(tmp_path / "ds")
        props = read_proposals(tmp_path / "p.jsonl")
        graph = build_candidate_graph(cfg, ds, props, load_models(tmp_path / "models"))
        with pytest.raises(SolverTimeout) as info:
            solve_graph(cfg, graph)
        assert info.value.gap > 0

    def test_greedy_backend_runs(self, tmp_path):
        cfg = tiny_config(solve={"backend": "greedy"})
        report = run_e2e(cfg, tmp_path)
        assert report.tra.tra == 1.0

    def test_weight_override_changes_tra(self, tmp_path):
        cfg = tiny_config()
        run_simulate(cfg, tmp_path / "ds")
        run_propose(cfg, tmp_path / "ds", tmp_path / "p.jsonl")
        run_train(cfg, tmp_path / "ds", tmp_path / "p.jsonl", tmp_path / "models")
        (tmp_path / "empty.jsonl").write_text("")
        run_track(cfg, tmp_path / "ds", tmp_path / "empty.jsonl", tmp_path / "models", tmp_path / "res")
        base = run_eval(tmp_path / "ds", tmp_path / "res")
        harsher = config_from_dict(
            {"eval": {"weights": {"fn": 100.0}}, "proposals": {"generator": "truth"}}
        )
        hit = run_eval(tmp_path / "ds", tmp_path / "res", cfg=harsher)
        assert hit.tra.aogm > base.tra.aogm

    def test_no_seg_flag_skips_seg(self, tmp_path):
        cfg = tiny_config(eval={"seg": False})
        report = run_e2e(cfg, tmp_path)
        assert report.seg is None
        text = (tmp_path / "report.txt").read_text()
        assert text.splitlines()[1].split()[1] == "-"


class TestSimulateStage:
    def test_layout(self, tmp_path):
        cfg = tiny_config()
        res = run_simulate(cfg, tmp_path)
        assert sorted(os.listdir(tmp_path))[:2] == ["gt", "t000.pgm"]
        assert sorted(os.listdir(tmp_path / "gt")) == ["markers.csv", "seg", "tracks.txt"]
        assert len(res.frames) == 6

    def test_seed_changes_dataset(self, tmp_path):
        run_simulate(tiny_config(), tmp_path / "a")
        run_simulate(tiny_config(seed=4), tmp_path / "b")
        a = (tmp_path / "a" / "t000.pgm").read_bytes()
        b = (tmp_path / "b" / "t000.pgm").read_bytes()
        assert a != b
