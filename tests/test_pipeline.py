import dataclasses
import logging
import os
import shutil
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import lineage_ilp
import lineage_ilp.pipeline as pipeline_mod

from lineage_ilp.config import config_from_dict
from lineage_ilp.evaluate import GroundTruth
from lineage_ilp.graph import MITOSIS_RADIUS_FACTOR
from lineage_ilp.io import (
    FormatError,
    TrackRow,
    read_json_file,
    read_label_grids,
    read_proposals,
    read_tracks,
    write_pgm,
)
from lineage_ilp.pipeline import (
    Dataset,
    SolverTimeout,
    TrackRun,
    _group_by_frame,
    build_candidate_graph,
    generate_proposals,
    load_dataset,
    load_models,
    result_from_grids,
    run_dump_graph,
    run_e2e,
    run_eval,
    run_propose,
    run_simulate,
    run_track,
    run_train,
    solve_graph,
    write_dataset,
)
from lineage_ilp.proposals import Frame, Proposal, _log_spectra, log_blob_proposals, multi_threshold_proposals
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
        res = simulate(SimConfig(frames=4, width=64, height=64, initial_cells=3), 1)
        write_dataset(tmp_path, [f.intensity for f in res.frames], res.gt)
        ds = load_dataset(tmp_path, need_gt=True)
        assert len(ds.frames) == 4
        assert ds.gt.tracks == res.gt.tracks
        assert ds.gt.markers == res.gt.markers
        for a, b in zip(ds.gt.label_grids, res.gt.label_grids):
            assert (a == b).all()

    def test_frames_only_dataset(self, tmp_path):
        res = simulate(SimConfig(frames=3, width=64, height=64, initial_cells=2), 1)
        write_dataset(tmp_path, [f.intensity for f in res.frames], res.gt)
        import shutil

        shutil.rmtree(tmp_path / "gt")
        ds = load_dataset(tmp_path)
        assert ds.gt is None
        with pytest.raises(FormatError, match="gt"):
            load_dataset(tmp_path, need_gt=True)

    def test_grid_count_mismatch(self, tmp_path):
        res = simulate(SimConfig(frames=4, width=64, height=64, initial_cells=3), 1)
        write_dataset(tmp_path, [f.intensity for f in res.frames], res.gt)
        os.remove(tmp_path / "gt" / "seg" / "t003.pgm")
        with pytest.raises(FormatError, match="grids"):
            load_dataset(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FormatError):
            load_dataset(tmp_path / "absent")

    @pytest.mark.parametrize(
        "track, marker, message",
        [
            ("99 0 9 0", "9,99,10.0,10.0", "track 99 ends past the last frame 3"),
            (None, "4,1,10.0,10.0", "marker for track 1 at frame 4 outside span"),
        ],
    )
    def test_ground_truth_past_the_last_frame(self, tmp_path, track, marker, message):
        res = simulate(SimConfig(frames=4, width=64, height=64, initial_cells=3), 1)
        write_dataset(tmp_path, [f.intensity for f in res.frames], res.gt)
        if track is not None:
            with open(tmp_path / "gt" / "tracks.txt", "a") as fh:
                fh.write(track + "\n")
        with open(tmp_path / "gt" / "markers.csv", "a") as fh:
            fh.write(marker + "\n")
        with pytest.raises(FormatError, match=message):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "track, message",
        [
            (None, "gt/seg frame 0 holds label 99, which names no track"),
            ("99 2 3 0", r"gt/seg frame 0 holds track 99 outside its frames \[2, 3\]"),
        ],
    )
    def test_seg_label_must_name_a_track_in_its_frame(self, tmp_path, track, message):
        res = simulate(SimConfig(frames=4, width=64, height=64, initial_cells=3), 1)
        write_dataset(tmp_path, [f.intensity for f in res.frames], res.gt)
        if track is not None:
            with open(tmp_path / "gt" / "tracks.txt", "a") as fh:
                fh.write(track + "\n")
        grid = res.gt.label_grids[0].copy()
        grid[0, :3] = 99
        write_pgm(tmp_path / "gt" / "seg" / "t000.pgm", grid, 65535)
        with pytest.raises(FormatError, match=message):
            load_dataset(tmp_path)
        tracks = read_tracks(tmp_path / "gt" / "tracks.txt")
        gt = dataclasses.replace(res.gt, tracks=tracks, label_grids=[grid, *res.gt.label_grids[1:]])
        with pytest.raises(FormatError, match=message):
            write_dataset(tmp_path / "again", [f.intensity for f in res.frames], gt)

    def test_second_marker_for_a_cell_is_refused(self, tmp_path):
        res = simulate(SimConfig(frames=4, width=64, height=64, initial_cells=3), 1)
        write_dataset(tmp_path, [f.intensity for f in res.frames], res.gt)
        path = tmp_path / "gt" / "markers.csv"
        rows = path.read_text().splitlines()
        t, tid = rows[3].split(",")[:2]
        path.write_text("\n".join([*rows, rows[3]]) + "\n")
        with pytest.raises(FormatError, match=f"second marker for track {tid} at frame {t}"):
            load_dataset(tmp_path)


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
            _group_by_frame([p], _frames(3))

    @pytest.mark.parametrize("x0, y0", [(7, 0), (0, 5), (7, 5)])
    def test_group_by_frame_checks_right_and_bottom_edges(self, x0, y0):
        from lineage_ilp.geometry import Mask

        frames = _frames(2, height=6, width=8)
        inside = Proposal(id=3, t=1, mask=Mask(6, 4, np.ones((2, 2), dtype=bool)), raw_score=0.5)
        assert _group_by_frame([inside], frames) == [[], [inside]]
        past = Proposal(id=4, t=1, mask=Mask(x0, y0, np.ones((2, 2), dtype=bool)), raw_score=0.5)
        with pytest.raises(FormatError, match="proposal 4 extends past frame 1, which is 8x6 pixels"):
            _group_by_frame([inside, past], frames)

    @pytest.mark.parametrize("t, x0, y0", [(-1, 0, 0), (1, -1, 0), (1, 0, -1)])
    def test_group_by_frame_checks_first_frame_and_left_and_top_edges(self, t, x0, y0):
        from lineage_ilp.geometry import Mask

        past = Proposal(id=4, t=t, mask=Mask(x0, y0, np.ones((2, 2), dtype=bool)), raw_score=0.5)
        message = "references frame -1" if t < 0 else "proposal 4 extends past frame 1, which is 8x6 pixels"
        with pytest.raises(FormatError, match=message):
            _group_by_frame([past], _frames(2, height=6, width=8))

    @pytest.mark.parametrize("t, x0, y0", [(-1, 0, 0), (1, -1, 0), (1, 0, -1)])
    def test_stages_refuse_objects_before_the_first_frame_or_edges(self, workspace, tmp_path, t, x0, y0):
        """A proposal list and dataset handed over as objects, not files,
        get the checks a proposal file gets: a FormatError, never an
        IndexError, KeyError or ValueError from inside the feature pass."""
        from lineage_ilp.geometry import Mask

        cfg, root = workspace
        ds, props = load_dataset(root / "ds"), read_proposals(root / "p.jsonl")
        past = Proposal(id=len(props), t=t, mask=Mask(x0, y0, np.ones((2, 2), dtype=bool)), raw_score=0.5)
        with pytest.raises(FormatError, match=f"proposal {past.id} "):
            run_train(cfg, ds, props + [past], tmp_path / "models")
        with pytest.raises(FormatError, match=f"proposal {past.id} "):
            run_track(cfg, ds, props + [past], root / "models", tmp_path / "res")


def _frames(n, height=4, width=4):
    return [Frame(t=t, intensity=np.zeros((height, width))) for t in range(n)]


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


class TestProposalThreads:
    """Frames go to a pool of threads; the proposals are those of one frame
    after another, whatever the thread count."""

    @staticmethod
    def scene(generator):
        cfg = config_from_dict({
            "seed": 4,
            "proposals": {"generator": generator},
            "sim": {"frames": 7, "width": 64, "height": 64, "initial_cells": 5},
        })
        return cfg, Dataset(frames=simulate(cfg.sim, 4).frames, gt=None)

    @staticmethod
    def serial(cfg, frames):
        """The proposals of one frame after another, ids running on."""
        p, bounds = cfg.proposals, (cfg.proposals.min_area, cfg.proposals.max_area)
        props = []
        for frame in frames:
            if p.generator == "log":
                new = log_blob_proposals(frame, sigmas=p.sigmas, area_bounds=bounds)
            else:
                new = multi_threshold_proposals(frame, levels=p.levels, span=p.span, area_bounds=bounds)
            for q in new:
                q.id += len(props)
            props += new
        return props

    @staticmethod
    def key(props):
        return [(p.id, p.t, p.mask.x0, p.mask.y0, p.mask.bits.tolist(), p.raw_score) for p in props]

    @pytest.mark.parametrize("generator", ["log", "multi_threshold"])
    def test_any_thread_count_gives_the_serial_proposals(self, generator, monkeypatch):
        """Up to a thread per frame, more than there are CPUs, switching
        often, with the shared spectra cache emptied before each call."""
        cfg, ds = self.scene(generator)
        want = self.key(self.serial(cfg, ds.frames))
        assert len({t for _, t, *_ in want}) == len(ds.frames) > 1  # every frame has proposals
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads in (1, 2, 3, 4, 7):
                _log_spectra.cache_clear()
                monkeypatch.setattr(pipeline_mod, "_proposal_threads", lambda n_frames: threads)
                assert self.key(generate_proposals(cfg, ds)) == want, threads
        finally:
            sys.setswitchinterval(interval)

    def test_results_are_taken_in_frame_order(self, monkeypatch):
        """Earlier frames finish last here, so results taken as they finish
        would come out of frame order."""
        cfg, ds = self.scene("log")
        want = self.key(self.serial(cfg, ds.frames))
        generate = pipeline_mod.log_blob_proposals

        def slow_first(frame, **kwargs):
            time.sleep(0.02 * (len(ds.frames) - frame.t))
            return generate(frame, **kwargs)

        monkeypatch.setattr(pipeline_mod, "log_blob_proposals", slow_first)
        monkeypatch.setattr(pipeline_mod, "_proposal_threads", lambda n_frames: 4)
        assert self.key(generate_proposals(cfg, ds)) == want

    @pytest.mark.parametrize("sigmas", [(2.0, -1.0), (0.0,)])
    def test_invalid_sigma_raises_through_the_pool(self, sigmas):
        cfg, ds = self.scene("log")
        cfg = dataclasses.replace(cfg, proposals=dataclasses.replace(cfg.proposals, sigmas=sigmas))
        with pytest.raises(ValueError, match="positive"):
            generate_proposals(cfg, ds)

    @pytest.mark.parametrize("generator", ["log", "multi_threshold"])
    def test_no_thread_outlives_the_call(self, generator):
        cfg, ds = self.scene(generator)
        before = set(threading.enumerate())
        generate_proposals(cfg, ds)
        assert set(threading.enumerate()) == before

    def test_thread_count_is_derived(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert [pipeline_mod._proposal_threads(n) for n in (0, 1, 3, 4, 25)] == [1, 1, 3, 4, 4]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
        assert pipeline_mod._proposal_threads(25) == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert pipeline_mod._proposal_threads(25) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pipeline_mod._proposal_threads(25) == 1


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
        assert g1.node_cost.tobytes() == g2.node_cost.tobytes()
        assert [e.cost for e in g1.edges] == [e.cost for e in g2.edges]

    @pytest.mark.parametrize("level, calls", [(logging.WARNING, 0), (logging.INFO, 1)])
    def test_graph_stats_only_when_logged(self, workspace, monkeypatch, caplog, level, calls):
        cfg, root = workspace
        seen = []
        stats = pipeline_mod.graph_stats
        monkeypatch.setattr(pipeline_mod, "graph_stats", lambda g: seen.append(1) or stats(g))
        caplog.set_level(level, logger="lineage_ilp")
        props = read_proposals(root / "p.jsonl")
        build_candidate_graph(cfg, load_dataset(root / "ds"), props, load_models(root / "models"))
        assert len(seen) == calls

    def test_missing_model_dir(self, workspace):
        _, root = workspace
        with pytest.raises(FormatError):
            load_models(root / "no_such_models")

    @pytest.mark.parametrize(
        "graph, gating, mitosis",
        [
            ({"gating_radius": 12.5}, 12.5, 12.5 * MITOSIS_RADIUS_FACTOR),
            ({"gating_radius": 12.5, "mitosis_radius": 30.0}, 12.5, 30.0),
        ],
    )
    def test_radius_overrides_reach_meta(self, workspace, tmp_path, graph, gating, mitosis):
        _, root = workspace
        cfg = tiny_config(graph=graph, classify={"n_trees": 2})
        run_train(cfg, root / "ds", root / "p.jsonl", tmp_path / "models")
        meta = read_json_file(tmp_path / "models" / "meta.json", kind="model_meta", supported_versions=(1,))
        assert (meta["gating_radius"], meta["mitosis_radius"]) == (gating, mitosis)


class TestStagesReadOnlyTheirInputs:
    """``track``, ``dump-graph`` and ``propose`` with a generator other than
    ``truth`` read the frames alone, never ``gt/``."""

    GT_READERS = ("read_label_grids", "read_markers", "read_tracks")

    @pytest.fixture()
    def gt_reads(self, monkeypatch):
        import lineage_ilp.pipeline as pipeline_mod

        calls = []
        for name in self.GT_READERS:
            real = getattr(pipeline_mod, name)

            def spy(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(pipeline_mod, name, spy)
        return calls

    def test_no_ground_truth_read(self, workspace, tmp_path, gt_reads):
        cfg, root = workspace
        inputs = (root / "ds", root / "p.jsonl", root / "models")
        run = run_track(cfg, *inputs, tmp_path / "res")
        run_dump_graph(cfg, *inputs, tmp_path / "graph.json")
        props = run_propose(tiny_config(proposals={"generator": "log"}), root / "ds", tmp_path / "log.jsonl")
        assert gt_reads == []
        assert run.dataset.gt is None and len(run.dataset.frames) == 6 and props
        # the spies see the stages that do read gt/
        run_propose(cfg, root / "ds", tmp_path / "truth.jsonl")
        assert sorted(set(gt_reads)) == sorted(self.GT_READERS)


class TestStagesNeedGroundTruth:
    """train and eval refuse a dataset without ground truth with one
    FormatError, given its directory or the Dataset itself."""

    @pytest.mark.parametrize("form", ["directory", "dataset"])
    def test_train_and_eval(self, workspace, tmp_path, form):
        cfg, root = workspace
        run_track(cfg, root / "ds", root / "p.jsonl", root / "models", tmp_path / "res")
        shutil.copytree(root / "ds", tmp_path / "ds")
        shutil.rmtree(tmp_path / "ds" / "gt")
        data = tmp_path / "ds" if form == "directory" else load_dataset(tmp_path / "ds")
        with pytest.raises(FormatError, match="dataset has no gt/ directory"):
            run_train(cfg, data, root / "p.jsonl", tmp_path / "models")
        with pytest.raises(FormatError, match="dataset has no gt/ directory"):
            run_eval(data, tmp_path / "res")
        assert not os.path.exists(tmp_path / "models")


class TestEvalReadsFrameShapesOnly:
    """eval of a dataset directory keeps no intensity frame: it checks the
    frame files as a full read does, and keeps their shapes."""

    def test_same_report_without_intensities(self, workspace, tmp_path, monkeypatch):
        cfg, root = workspace
        run_track(cfg, root / "ds", root / "p.jsonl", root / "models", tmp_path / "res")
        want = run_eval(load_dataset(root / "ds", need_gt=True), tmp_path / "res", cfg=cfg)

        def refused(*args, **kwargs):
            raise AssertionError("eval read the intensity frames")

        monkeypatch.setattr(pipeline_mod, "read_intensity_frames", refused)
        assert run_eval(root / "ds", tmp_path / "res", cfg=cfg) == want

    @pytest.mark.parametrize("damage, message", [
        (lambda data: data[:-1], "truncated payload"),
        (lambda data: b"P6" + data[2:], "bad magic"),
    ], ids=["truncated", "magic"])
    def test_frame_file_errors_stay(self, workspace, tmp_path, damage, message):
        cfg, root = workspace
        run_track(cfg, root / "ds", root / "p.jsonl", root / "models", tmp_path / "res")
        shutil.copytree(root / "ds", tmp_path / "ds")
        frame = tmp_path / "ds" / "t002.pgm"
        frame.write_bytes(damage(frame.read_bytes()))
        with pytest.raises(FormatError, match=message):
            load_dataset(tmp_path / "ds")
        with pytest.raises(FormatError, match=message):
            run_eval(tmp_path / "ds", tmp_path / "res")


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

    def test_result_grids_take_each_frames_size(self, tmp_path):
        cfg = tiny_config(sim={"frames": 6, "width": 64, "height": 64, "initial_cells": 4})
        res = simulate(cfg.sim, 3)
        frames = [f.intensity for f in res.frames]
        frames[5] = frames[5][:, :60]
        res.gt.label_grids[5] = res.gt.label_grids[5][:, :60]
        data, props, models = tmp_path / "ds", tmp_path / "p.jsonl", tmp_path / "models"
        write_dataset(data, frames, res.gt)
        run_propose(cfg, data, props)
        run_train(cfg, data, props, models)
        tracked = run_track(cfg, data, props, models, tmp_path / "res")
        shapes = [(64, 64)] * 5 + [(64, 60)]
        assert [g.shape for g in read_label_grids(tmp_path / "res" / "seg")] == shapes
        # the tracker's own result scores, from its files and from the TrackRun
        assert run_eval(data, tmp_path / "res").tra.tra > 0.5
        assert run_eval(data, tracked) == run_eval(data, tmp_path / "res")

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


def _tree_bytes(root) -> dict[str, bytes]:
    out = {}
    for dirpath, _, names in os.walk(root):
        for n in names:
            full = os.path.join(dirpath, n)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


class TestEndToEndMatchesStages:
    """run_e2e hands each stage's results to the next in memory, training's
    feature rows included; the stages run one by one (as the CLI runs them)
    read every input from the files and compute the rows twice.  Both write
    the same bytes, so the files alone reproduce the result."""

    CONFIGS = {
        # degraded truth proposals whose training set has division positives,
        # so tracking reuses division rows
        "truth": {
            "seed": 1,
            "proposals": {"generator": "truth"},
            "sim": {
                "frames": 8, "width": 80, "height": 80, "initial_cells": 5,
                "division_rate": 0.08,
                "corruption": {"drop_rate": 0.05, "clutter_rate": 0.1, "merge_rate": 0.03},
            },
        },
        "multi_threshold": {
            "seed": 3,
            "sim": {"frames": 6, "width": 64, "height": 64, "initial_cells": 4},
        },
        "log": {
            "seed": 4,
            "proposals": {"generator": "log"},
            "sim": {"frames": 6, "width": 72, "height": 72, "initial_cells": 5},
        },
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_same_bytes_and_one_feature_pass(self, name, tmp_path, monkeypatch):
        import lineage_ilp.pipeline as pipeline_mod

        cfg = config_from_dict(self.CONFIGS[name])
        vectors = []
        matrix = pipeline_mod.proposal_feature_matrix

        def counted(props, frames):
            vectors.append(len(props))
            return matrix(props, frames)

        monkeypatch.setattr(pipeline_mod, "proposal_feature_matrix", counted)
        e2e = tmp_path / "e2e"
        run_e2e(cfg, e2e)
        assert len(vectors) == 1
        if name == "truth":
            assert (e2e / "models" / "mitosis.json").exists()

        st = tmp_path / "stages"
        run_simulate(cfg, st / "dataset")
        run_propose(cfg, st / "dataset", st / "proposals.jsonl")
        run_train(cfg, st / "dataset", st / "proposals.jsonl", st / "models")
        tracked = run_track(cfg, st / "dataset", st / "proposals.jsonl", st / "models", st / "result")
        run_eval(st / "dataset", st / "result", st / "report.json", cfg=cfg, graph=tracked.graph)
        assert len(vectors) == 3

        e2e_files, st_files = _tree_bytes(e2e), _tree_bytes(st)
        assert sorted(e2e_files) == sorted([*st_files, "report.txt"])
        assert "result/tracks.txt" in st_files and "models/meta.json" in st_files
        assert [rel for rel in st_files if st_files[rel] != e2e_files[rel]] == []
        assert read_tracks(st / "result" / "tracks.txt") != []


# the names the pipeline reads its files through
READERS = (
    "read_intensity_frames", "read_frame_shapes", "read_label_grids", "read_tracks", "read_markers",
    "read_proposals", "read_json_file", "load_model",
)


class TestEndToEndReadsNothingBack:
    CONFIG = TestEndToEndMatchesStages.CONFIGS["truth"]

    def test_handed_over_objects_equal_the_files(self, tmp_path, monkeypatch):
        import lineage_ilp.pipeline as pipeline_mod

        reads = []
        for name in READERS:
            def counted(*args, _name=name, _real=getattr(pipeline_mod, name), **kwargs):
                reads.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(pipeline_mod, name, counted)
        handed = {}
        for stage in ("run_simulate", "run_propose", "run_train"):
            def kept(*args, _stage=stage, _real=getattr(pipeline_mod, stage), **kwargs):
                out = _real(*args, **kwargs)
                handed[_stage] = out.models if _stage == "run_train" else out
                return out

            monkeypatch.setattr(pipeline_mod, stage, kept)
        run_e2e(config_from_dict(self.CONFIG), tmp_path)
        assert reads == []
        monkeypatch.undo()

        ds, loaded = handed["run_simulate"], load_dataset(tmp_path / "dataset", need_gt=True)
        assert [f.t for f in ds.frames] == [f.t for f in loaded.frames]
        for a, b in zip(ds.frames, loaded.frames, strict=True):
            assert a.intensity.dtype == b.intensity.dtype and np.array_equal(a.intensity, b.intensity)
        for a, b in zip(ds.gt.label_grids, loaded.gt.label_grids, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert ds.gt.tracks == loaded.gt.tracks
        assert ds.gt.markers == loaded.gt.markers
        assert [type(v) for rows in ds.gt.markers.values() for row in rows for v in row] == [
            type(v) for rows in loaded.gt.markers.values() for row in rows for v in row
        ]

        assert handed["run_propose"] == read_proposals(tmp_path / "proposals.jsonl")

        models, read = handed["run_train"], load_models(tmp_path / "models")
        assert models.mitosis is not None
        assert (models.gating_radius, models.mitosis_radius, models.mitosis_n) == (
            read.gating_radius, read.mitosis_radius, read.mitosis_n
        )
        for a, b in ((models.proposal, read.proposal), (models.move, read.move),
                     (models.mitosis, read.mitosis)):
            assert type(a) is type(b)
            if not hasattr(a, "trees"):
                assert a == b
                continue
            assert (a.n_features, a.max_depth, a.min_leaf, a.seed) == (
                b.n_features, b.max_depth, b.min_leaf, b.seed
            )
            for ta, tb in zip(a.trees, b.trees, strict=True):
                for field in ("feature", "threshold", "left", "right", "value"):
                    x, y = getattr(ta, field), getattr(tb, field)
                    assert x.dtype == y.dtype and np.array_equal(x, y), field


class TestBenchContracts:
    """What the benchmark relies on: it sees a broken contract only as
    failed ops or a higher peak RSS."""

    def test_run_track_is_called_once_through_the_module(self, tmp_path, monkeypatch):
        import lineage_ilp.pipeline as pipeline_mod

        box = []
        real = pipeline_mod.run_track

        def capture(*args, **kwargs):  # as the bench keeps the TrackRun for its gate
            box.append(real(*args, **kwargs))
            return box[-1]

        monkeypatch.setattr(pipeline_mod, "run_track", capture)
        run_e2e(tiny_config(), tmp_path)
        assert len(box) == 1
        assert isinstance(box[0], TrackRun)
        assert box[0].graph.edges and box[0].result.x is not None

    def test_training_rows_die_before_the_solve(self, tmp_path, monkeypatch):
        import lineage_ilp.pipeline as pipeline_mod

        refs, alive = [], []
        real_train, real_solve = pipeline_mod.run_train, pipeline_mod.solve_graph

        def train(*args, **kwargs):
            trained = real_train(*args, **kwargs)
            refs.append(weakref.ref(trained.rows))
            return trained

        def solve(cfg, graph):
            alive.append(refs[0]() is not None)
            return real_solve(cfg, graph)

        monkeypatch.setattr(pipeline_mod, "run_train", train)
        monkeypatch.setattr(pipeline_mod, "solve_graph", solve)
        run_e2e(tiny_config(), tmp_path)
        assert alive == [False]


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


class TestImportCost:
    @staticmethod
    def run_python(code: str) -> str:
        """stdout of a fresh interpreter running ``code``, warnings as errors."""
        src = os.path.dirname(os.path.dirname(lineage_ilp.__file__))
        out = subprocess.run(
            [sys.executable, "-W", "error", "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=120,
        )
        return out.stdout.strip()

    def test_pipeline_and_cli_leave_scipy_optimize_unimported(self):
        # scipy.optimize alone adds about 19 MiB of peak memory; an LP or MILP
        # route through it belongs behind an import inside the solver call
        code = (
            "import sys, lineage_ilp.pipeline, lineage_ilp.cli; "
            "print('scipy.optimize' in sys.modules)"
        )
        assert self.run_python(code) == "False"

    # scipy.ndimage's Python layer adds about 25 MiB of peak memory (its
    # array-API shims import scipy.special, numpy.testing and more); the
    # package loads scipy's two compiled labelling modules alone, on first use
    NDIMAGE_ABSENT = "print([m for m in ('scipy.ndimage', 'scipy.special') if m in sys.modules]); "

    def test_pipeline_and_cli_leave_scipy_ndimage_unimported(self):
        code = "import sys, lineage_ilp.pipeline, lineage_ilp.cli; " + self.NDIMAGE_ABSENT
        assert self.run_python(code) == "[]"

    @pytest.mark.parametrize("generator", ["truth", "multi_threshold", "log"])
    def test_e2e_runs_leave_scipy_ndimage_unimported(self, generator, tmp_path):
        doc = {
            "seed": 3,
            "proposals": {"generator": generator},
            "sim": {"frames": 4, "width": 64, "height": 64, "initial_cells": 4},
        }
        code = (
            "import sys; from lineage_ilp.config import config_from_dict; "
            "from lineage_ilp.pipeline import run_e2e; "
            f"run_e2e(config_from_dict({doc!r}), {str(tmp_path)!r}); "
            "from lineage_ilp.geometry import _ndimage; print(_ndimage.cache_info().currsize); "
            + self.NDIMAGE_ABSENT
        )
        assert self.run_python(code).split("\n") == ["1", "[]"]  # labelled, and scipy.ndimage not imported
        assert os.path.exists(tmp_path / "report.json")

    @pytest.mark.parametrize("ndimage_first", [False, True])
    def test_labels_and_scipy_ndimage_load_in_either_order(self, ndimage_first):
        package = (
            "from lineage_ilp.geometry import find_objects, label; "
            "r = label(a, s); r_obj = find_objects(*r); "
        )
        public = "from scipy import ndimage; p = ndimage.label(a, s); p_obj = ndimage.find_objects(p[0]); "
        first, second = (public, package) if ndimage_first else (package, public)
        code = (
            "import numpy as np; a = np.random.default_rng(1).random((60, 70)) < 0.45; "
            "s = np.ones((3, 3), dtype=bool); " + first + second
            + "print(r[0].dtype == p[0].dtype, np.array_equal(r[0], p[0]), r[1] == p[1] > 1, r_obj == p_obj)"
        )
        assert self.run_python(code) == "True True True True"

    SMALL_SOLVE = (
        "import numpy as np; from lineage_ilp.solve import IlpInstance, solve; "
        "r = solve(IlpInstance.from_rows(np.array([-1.0, -2.0, -1.5]), "
        "[((0, 1, 2), (1, 1, 1), '<=', 1)])); "
    )

    def test_exact_solve_leaves_scipy_optimize_unimported(self):
        # the solver loads HiGHS's compiled module alone, which costs about
        # 2 MiB; scipy.optimize stays out unless that module cannot load
        code = (
            "import sys; " + self.SMALL_SOLVE
            + "import lineage_ilp.solve as s; "
            "print(r.status, s._highs_extension() is not None, 'scipy.optimize' in sys.modules)"
        )
        status, loaded, imported = self.run_python(code).split()
        if loaded == "False":
            pytest.skip("this scipy has no compiled HiGHS module to load alone")
        assert (status, imported) == ("optimal", "False")

    @pytest.mark.parametrize("optimize_first", [False, True])
    def test_solver_and_scipy_optimize_load_in_either_order(self, optimize_first):
        milp = (
            "from scipy.optimize import milp; "
            "m = milp(np.array([-1.0]), integrality=np.ones(1), bounds=(0, 1)); "
        )
        first, second = (milp, self.SMALL_SOLVE) if optimize_first else (self.SMALL_SOLVE, milp)
        code = "import numpy as np; " + first + second
        assert self.run_python(code + "print(r.status, m.status)") == "optimal 0"
