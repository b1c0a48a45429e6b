import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import lineage_ilp
from lineage_ilp.classify import FOREST_SCHEMA_VERSION
from lineage_ilp.features import PROPOSAL_DIM
from lineage_ilp.io import read_label_grids, write_label_grids
from lineage_ilp.cli import (
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_TIMEOUT,
    main,
)


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """A dataset, proposals and trained models built once through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "seed": 3,
                "proposals": {"generator": "truth"},
                "sim": {"frames": 6, "width": 80, "height": 80, "initial_cells": 4},
            }
        )
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(root / "ds")]) == EXIT_OK
    assert (
        main(["propose", "--config", str(cfg), "--data", str(root / "ds"), "--out", str(root / "p.jsonl")])
        == EXIT_OK
    )
    assert (
        main(
            [
                "train", "--config", str(cfg), "--data", str(root / "ds"),
                "--proposals", str(root / "p.jsonl"), "--out", str(root / "models"),
            ]
        )
        == EXIT_OK
    )
    return cfg, root


class TestHappyPath:
    def test_track_and_eval(self, flow, capsys):
        cfg, root = flow
        rc = main(
            [
                "track", "--config", str(cfg), "--data", str(root / "ds"),
                "--proposals", str(root / "p.jsonl"), "--model", str(root / "models"),
                "--out", str(root / "res"),
            ]
        )
        assert rc == EXIT_OK
        rc = main(["eval", str(root / "res"), "--data", str(root / "ds"), "--out", str(root / "rep.json")])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "TRA SEG FN FP NS EA EC ED2"
        assert os.path.exists(root / "rep.json")

    def test_dump_graph(self, flow):
        cfg, root = flow
        rc = main(
            [
                "dump-graph", "--config", str(cfg), "--data", str(root / "ds"),
                "--proposals", str(root / "p.jsonl"), "--model", str(root / "models"),
                "--out", str(root / "graph.json"),
            ]
        )
        assert rc == EXIT_OK
        doc = json.loads((root / "graph.json").read_text())
        assert doc["kind"] == "tracking_graph"

    def test_e2e(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "seed": 5,
                    "proposals": {"generator": "truth"},
                    "sim": {"frames": 5, "width": 72, "height": 72, "initial_cells": 3},
                }
            )
        )
        assert main(["e2e", "--config", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_OK
        assert "TRA" in capsys.readouterr().out
        assert os.path.exists(tmp_path / "run" / "report.json")

    def test_stationary_scene_trains_models_that_track_reads(self, tmp_path):
        # no cell moves, so no displacement sets the gating radius
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "seed": 4,
                    "proposals": {"generator": "truth"},
                    "sim": {"frames": 5, "width": 72, "height": 72, "initial_cells": 3, "motion_sigma": 0},
                }
            )
        )
        ds, props, models, res = (str(tmp_path / n) for n in ("ds", "p.jsonl", "models", "res"))
        for argv in (
            ["simulate", "--config", str(cfg), "--out", ds],
            ["propose", "--config", str(cfg), "--data", ds, "--out", props],
            ["train", "--config", str(cfg), "--data", ds, "--proposals", props, "--out", models],
            ["track", "--config", str(cfg), "--data", ds, "--proposals", props, "--model", models,
             "--out", res],
            ["eval", res, "--data", ds],
        ):
            assert main(argv) == EXIT_OK, argv[0]

    def test_seed_override_changes_simulation(self, flow, tmp_path):
        cfg, _ = flow
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "b")]) == EXIT_OK
        a = (tmp_path / "a" / "t000.pgm").read_bytes()
        b = (tmp_path / "b" / "t000.pgm").read_bytes()
        assert a != b


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_death_prior_is_not_a_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"graph": {"p_death": 0.05}}')
        assert main(["e2e", "--config", str(bad), "--out", str(tmp_path / "x")]) == EXIT_CONFIG
        assert "unknown config key 'graph.p_death'" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "x")

    def test_frame_too_small_for_placement_margin(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"sim": {"width": 16, "height": 16, "frames": 2, "initial_cells": 2}}')
        assert main(["e2e", "--config", str(bad), "--out", str(tmp_path / "x")]) == EXIT_CONFIG
        assert "sim.placement_margin" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "x")

    def test_malformed_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_nan_in_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"sim": {"noise_sigma": NaN}}')
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == EXIT_CONFIG
        assert "NaN" in capsys.readouterr().err

    def test_deeply_nested_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[" * 100_000)
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == EXIT_CONFIG
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["model", "proposals"])
    def test_deeply_nested_input_file(self, flow, tmp_path, capsys, which):
        cfg, root = flow
        models, props = tmp_path / "models", tmp_path / "p.jsonl"
        shutil.copytree(root / "models", models)
        shutil.copy(root / "p.jsonl", props)
        bad = models / "proposal.json" if which == "model" else props
        bad.write_text("[" * 100_000 + "\n")
        rc = main(
            [
                "track", "--config", str(cfg), "--data", str(root / "ds"),
                "--proposals", str(props), "--model", str(models), "--out", str(tmp_path / "res"),
            ]
        )
        assert rc == EXIT_INPUT
        assert "nested too deeply" in capsys.readouterr().err

    def test_missing_required_flag(self, flow):
        cfg, _ = flow
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert (
            main(["simulate", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x")])
            == EXIT_INPUT
        )

    def test_missing_data_dir(self, flow, tmp_path):
        cfg, _ = flow
        rc = main(["propose", "--config", str(cfg), "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "p")])
        assert rc == EXIT_INPUT

    def test_corrupt_proposals_file(self, flow, tmp_path):
        cfg, root = flow
        bad = tmp_path / "p.jsonl"
        bad.write_text("this is not json\n")
        rc = main(
            [
                "track", "--config", str(cfg), "--data", str(root / "ds"),
                "--proposals", str(bad), "--model", str(root / "models"),
                "--out", str(tmp_path / "res"),
            ]
        )
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("command", ["train", "track", "dump-graph"])
    def test_mask_past_the_frame_edge(self, flow, tmp_path, capsys, command):
        cfg, root = flow
        lines = (root / "p.jsonl").read_text().splitlines()
        doc = json.loads(lines[0])
        w = doc["bbox"][2]
        doc["bbox"][0] = 80 - w + 1  # one column past the right edge of the 80x80 frame
        lines[0] = json.dumps(doc)
        bad = tmp_path / "p.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        paths = {
            "train": ["--out", str(tmp_path / "models")],
            "track": ["--model", str(root / "models"), "--out", str(tmp_path / "res")],
            "dump-graph": ["--model", str(root / "models"), "--out", str(tmp_path / "g.json")],
        }[command]
        rc = main(
            [command, "--config", str(cfg), "--data", str(root / "ds"), "--proposals", str(bad)]
            + paths
        )
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"proposal {doc['id']} extends past frame {doc['t']}, which is 80x80 pixels" in err

    def test_eval_refuses_result_grids_of_another_shape(self, flow, tmp_path, capsys):
        cfg, root = flow
        res = tmp_path / "res"
        track = ["track", "--config", str(cfg), "--data", str(root / "ds"),
                 "--proposals", str(root / "p.jsonl"), "--model", str(root / "models")]
        assert main(track + ["--out", str(res)]) == EXIT_OK
        grids = read_label_grids(res / "seg")
        grids[0] = np.zeros((96, 96), dtype=np.uint16)  # the frames are 80x80
        grids[1] = np.zeros((20, 20), dtype=np.uint16)
        write_label_grids(res / "seg", grids)
        assert main(["eval", str(res), "--data", str(root / "ds")]) == EXIT_INPUT
        assert "label grid 0 shape (96, 96) differs from frame (80, 80)" in capsys.readouterr().err

    def test_eval_refuses_ground_truth_past_the_last_frame(self, flow, tmp_path):
        cfg, root = flow
        data = tmp_path / "ds"
        shutil.copytree(root / "ds", data)
        with open(data / "gt" / "tracks.txt", "a") as fh:
            fh.write("99 0 9 0\n")  # the dataset has 6 frames
        with open(data / "gt" / "markers.csv", "a") as fh:
            fh.write("9,99,10.0,10.0\n")
        track = ["track", "--config", str(cfg), "--data", str(root / "ds"),
                 "--proposals", str(root / "p.jsonl"), "--model", str(root / "models")]
        assert main(track + ["--out", str(tmp_path / "res")]) == EXIT_OK
        assert main(["eval", str(tmp_path / "res"), "--data", str(data)]) == EXIT_INPUT

    def test_malformed_ground_truth_stops_only_the_stages_that_read_it(self, flow, tmp_path, capsys):
        cfg, root = flow
        data = tmp_path / "ds"
        shutil.copytree(root / "ds", data)
        (data / "gt" / "tracks.txt").write_text("1 0 one 0\n")
        log_cfg = tmp_path / "log.json"
        log_cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "proposals": {"generator": "log"}}))
        data_args = ["--config", str(cfg), "--data", str(data), "--proposals", str(root / "p.jsonl")]
        model_args = data_args + ["--model", str(root / "models")]
        assert main(["track", *model_args, "--out", str(tmp_path / "res")]) == EXIT_OK
        assert main(["dump-graph", *model_args, "--out", str(tmp_path / "g.json")]) == EXIT_OK
        propose = ["propose", "--data", str(data), "--out", str(tmp_path / "p.jsonl")]
        assert main(propose + ["--config", str(log_cfg)]) == EXIT_OK
        capsys.readouterr()
        assert main(propose + ["--config", str(cfg)]) == EXIT_INPUT  # the truth generator
        assert main(["train", *data_args, "--out", str(tmp_path / "models")]) == EXIT_INPUT
        assert main(["eval", str(tmp_path / "res"), "--data", str(data)]) == EXIT_INPUT
        assert capsys.readouterr().err.count("tracks.txt, line 1: non-integer field") == 3

    @pytest.mark.parametrize("dims", [
        None,
        {"proposal": PROPOSAL_DIM, "move": 195},
        {"proposal": PROPOSAL_DIM, "move": 196, "mitosis": 290},
        [PROPOSAL_DIM, 195, 290],
    ])
    def test_model_meta_with_other_feature_dims_is_refused(self, flow, tmp_path, capsys, dims):
        cfg, root = flow
        models = tmp_path / "models"
        shutil.copytree(root / "models", models)
        meta = json.loads((models / "meta.json").read_text())
        assert meta.pop("feature_dims") == {"proposal": PROPOSAL_DIM, "move": 195, "mitosis": 290}
        if dims is not None:
            meta["feature_dims"] = dims
        (models / "meta.json").write_text(json.dumps(meta))
        rc = main([
            "track", "--config", str(cfg), "--data", str(root / "ds"), "--proposals",
            str(root / "p.jsonl"), "--model", str(models), "--out", str(tmp_path / "res"),
        ])
        assert rc == EXIT_INPUT
        assert "meta.json: feature_dims" in capsys.readouterr().err

    def test_model_with_a_self_loop_is_refused(self, flow, tmp_path):
        # prediction would walk node 0 -> node 0 forever; a fresh interpreter
        # with a timeout turns such a hang into a failure
        cfg, root = flow
        models = tmp_path / "models"
        shutil.copytree(root / "models", models)
        doc = {
            "schema_version": FOREST_SCHEMA_VERSION, "kind": "random_forest",
            "n_features": PROPOSAL_DIM, "max_depth": 2, "min_leaf": 1, "seed": 0,
            "trees": [{
                "feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0],
                "left": [0, -1, -1], "right": [2, -1, -1], "value": [0.5, 0.0, 1.0],
            }],
        }
        (models / "proposal.json").write_text(json.dumps(doc))
        src = os.path.dirname(os.path.dirname(lineage_ilp.__file__))
        done = subprocess.run(
            [
                sys.executable, "-m", "lineage_ilp.cli", "track", "--config", str(cfg),
                "--data", str(root / "ds"), "--proposals", str(root / "p.jsonl"),
                "--model", str(models), "--out", str(tmp_path / "res"),
            ],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == EXIT_INPUT, done.stderr
        assert "tree 0:" in done.stderr

    def test_solver_timeout(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "seed": 11,
                    "proposals": {"generator": "truth"},
                    "solve": {"time_limit": 1e-7},
                    "sim": {
                        "frames": 12, "width": 128, "height": 128, "initial_cells": 12,
                        "division_rate": 0.03,
                        "corruption": {"drop_rate": 0.08, "clutter_rate": 0.1, "merge_rate": 0.05},
                    },
                }
            )
        )
        assert main(["e2e", "--config", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_TIMEOUT

    def test_bad_log_level(self, flow, monkeypatch):
        cfg, root = flow
        monkeypatch.setenv("LINEAGE_ILP_LOG", "chatty")
        assert main(["simulate", "--config", str(cfg), "--out", str(root / "ignored")]) == EXIT_CONFIG

    def test_log_levels_accepted(self, flow, tmp_path, monkeypatch):
        cfg, _ = flow
        for level in ("error", "warn", "info", "debug"):
            monkeypatch.setenv("LINEAGE_ILP_LOG", level)
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / level)]) == EXIT_OK
