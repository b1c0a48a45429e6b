import dataclasses
import json
import os
import re

import pytest

from lineage_ilp.config import (
    STAGE_CORRUPTION,
    STAGE_SIM,
    ConfigError,
    PipelineConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    stage_seed,
)
from lineage_ilp.io import FormatError


class TestFromDict:
    def test_empty_document_gives_defaults(self):
        cfg = config_from_dict({})
        assert cfg.seed == 0
        assert cfg.proposals.generator == "multi_threshold"
        assert cfg.solve.backend == "exact"
        assert cfg.sim.frames == 20

    def test_nested_values_land(self):
        cfg = config_from_dict(
            {
                "seed": 9,
                "proposals": {"generator": "log", "levels": 5},
                "graph": {"p_enter": 0.2, "gating_radius": 12.5},
                "solve": {"backend": "greedy", "time_limit": 30.0},
                "sim": {"frames": 5, "corruption": {"drop_rate": 0.1}},
            }
        )
        assert cfg.seed == 9
        assert cfg.proposals.generator == "log"
        assert cfg.proposals.levels == 5
        assert cfg.graph.p_enter == 0.2
        assert cfg.graph.gating_radius == 12.5
        assert cfg.solve.backend == "greedy"
        assert cfg.sim.frames == 5
        assert cfg.sim.corruption.drop_rate == 0.1

    def test_unknown_key_is_rejected_with_path(self):
        with pytest.raises(ConfigError, match="'nope'"):
            config_from_dict({"nope": 1})
        with pytest.raises(ConfigError, match="proposals.typo"):
            config_from_dict({"proposals": {"typo": 1}})
        with pytest.raises(ConfigError, match="sim.corruption.bad"):
            config_from_dict({"sim": {"corruption": {"bad": 0.1}}})

    def test_seed_inside_sim_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'sim.seed'"):
            config_from_dict({"sim": {"seed": 5}})
        with pytest.raises(ConfigError, match="unknown config key 'sim.corruption.seed'"):
            config_from_dict({"sim": {"corruption": {"seed": 5}}})

    @pytest.mark.parametrize(
        "path",
        [
            "proposals.stability_iou",
            "proposals.nms_iou",
            "proposals.c1",
            "proposals.c2",
            "classify.max_depth",
            "classify.min_leaf",
            "classify.max_negative_ratio",
            "graph.gating_percentile",
            "graph.gating_factor",
            "graph.mitosis_factor",
            "proposals.response_threshold",
            "sim.min_division_radius",
            "sim.division_refractory",
            "sim.corruption.score_noise",
            "sim.corruption.clutter_radius_range",
        ],
    )
    def test_tracker_constants_are_not_keys(self, path):
        doc = 1
        for key in reversed(path.split(".")):
            doc = {key: doc}
        with pytest.raises(ConfigError, match=re.escape(f"unknown config key {path!r}")):
            config_from_dict(doc)

    def test_seg_switch_is_not_a_key(self):
        # SEG is computed whenever the reference has label grids
        with pytest.raises(ConfigError, match="unknown config key 'eval.seg'"):
            config_from_dict({"eval": {"seg": False}})

    def test_corruption_lives_under_sim(self):
        with pytest.raises(ConfigError, match="corruption"):
            config_from_dict({"corruption": {"drop_rate": 0.1}})

    def test_type_errors_are_loud(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"seed": "seven"})
        with pytest.raises(ConfigError, match="proposals.levels"):
            config_from_dict({"proposals": {"levels": 2.5}})
        with pytest.raises(ConfigError, match="span"):
            config_from_dict({"proposals": {"span": [0.5]}})

    def test_int_accepted_where_float_expected(self):
        cfg = config_from_dict({"graph": {"p_enter": 1} if False else {"gating_radius": 10}})
        assert cfg.graph.gating_radius == 10.0
        assert isinstance(cfg.graph.gating_radius, float)

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError):
            config_from_dict({"seed": True})

    def test_tuple_fields_accept_lists(self):
        cfg = config_from_dict({"proposals": {"sigmas": [1.0, 2.0, 3.0]}})
        assert cfg.proposals.sigmas == (1.0, 2.0, 3.0)
        cfg = config_from_dict({"sim": {"radius_range": [2, 6]}})
        assert cfg.sim.radius_range == (2.0, 6.0)

    def test_document_must_be_object(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2])


class TestValidation:
    @pytest.mark.parametrize(
        "doc",
        [
            {"seed": -1},
            {"threads": 0},
            {"proposals": {"generator": "magic"}},
            {"proposals": {"levels": 1}},
            {"proposals": {"span": [1.5, 0.5]}},
            {"proposals": {"nms_iou": 0.0}},
            {"proposals": {"min_area": 0}},
            {"proposals": {"min_area": 50, "max_area": 10}},
            {"graph": {"p_enter": 0.0}},
            {"graph": {"p_exit": 1.0}},
            {"graph": {"p_death": 0.05}},  # no death prior: an exit prior of the same cost
            {"graph": {"gating_radius": -3.0}},
            {"graph": {"mitosis_n": 1}},
            {"solve": {"backend": "simplex"}},
            {"solve": {"time_limit": 0.0}},
            {"solve": {"gap_tolerance": -0.1}},
            {"solve": {"max_nodes": 0}},
            {"classify": {"n_trees": 0}},
            {"eval": {"weights": {"bogus": 1.0}}},
            {"eval": {"weights": {"fn": -1.0}}},
            {"sim": {"frames": 0}},
            {"sim": {"width": 4}},
            {"sim": {"division_rate": 1.5}},
            {"sim": {"border": "bounce"}},
            {"sim": {"corruption": {"drop_rate": -0.1}}},
            {"sim": {"corruption": {"jitter_px": -1.0}}},
            {"sim": {"width": 16, "height": 16, "frames": 2, "initial_cells": 2}},
            {"sim": {"motion_sigma": -1}},
            {"sim": {"amplitude_range": [0.9, 0.1]}},
            {"sim": {"amplitude_range": [-0.1, 0.5]}},
            {"sim": {"noise_sigma": -0.1}},
            {"sim": {"placement_margin": -1.0}},
        ],
    )
    def test_rejects(self, doc):
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_eval_weight_override_accepted(self):
        cfg = config_from_dict({"eval": {"weights": {"fn": 5.0, "ns": 3.0}}})
        assert cfg.eval.weights == {"fn": 5.0, "ns": 3.0}


class TestRoundTrip:
    def test_to_dict_from_dict_is_stable(self):
        cfg = config_from_dict(
            {
                "seed": 4,
                "proposals": {"generator": "truth"},
                "sim": {"frames": 7, "corruption": {"clutter_rate": 0.2}},
            }
        )
        doc = config_to_dict(cfg)
        again = config_from_dict(json.loads(json.dumps(doc)))
        assert again == cfg

    def test_dict_has_no_stage_seeds(self):
        doc = config_to_dict(PipelineConfig())
        assert "seed" not in doc["sim"]
        assert "seed" not in doc["sim"]["corruption"]
        assert "corruption" not in doc


class TestDocumentedDefaults:
    def test_formats_md_shows_the_default_document(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "formats.md")
        with open(path, encoding="ascii") as fh:
            text = fh.read()
        block = re.search(r"The full default document:\s*```json\n(.*?)```", text, re.S)
        assert block is not None
        assert json.loads(block.group(1)) == config_to_dict(PipelineConfig())


class TestLoadConfig:
    def test_load_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1}))
        cfg = load_config(path)
        assert cfg.seed == 1
        cfg = load_config(path, seed=99)
        assert cfg.seed == 99

    def test_override_is_validated(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        with pytest.raises(ConfigError):
            load_config(path, seed=-5)

    def test_missing_file_is_input_error(self, tmp_path):
        with pytest.raises(FormatError, match="unreadable config"):
            load_config(tmp_path / "absent.json")

    def test_non_ascii_byte_is_input_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes('{"seed": 1} \u00e9'.encode("utf-8"))
        with pytest.raises(FormatError, match="non-ASCII byte in config"):
            load_config(path)

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


class TestStageSeeds:
    def test_deterministic_and_distinct(self):
        a = stage_seed(42, STAGE_SIM)
        assert a == stage_seed(42, STAGE_SIM)
        assert a != stage_seed(42, STAGE_CORRUPTION)
        assert a != stage_seed(43, STAGE_SIM)
        assert 0 <= a < 2**32

    def test_config_defaults_are_dataclasses(self):
        cfg = PipelineConfig()
        assert dataclasses.is_dataclass(cfg.sim)
        c1 = PipelineConfig()
        c1.sim.frames = 99
        assert PipelineConfig().sim.frames == 20
