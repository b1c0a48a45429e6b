"""Run configuration: one strict JSON document, one global seed.

Every tunable lives here with its default; unknown keys anywhere in the
document are rejected so typos cannot silently fall back to defaults.  The
single ``seed`` is split per stage through ``stage_seed`` so each stage gets
an independent stream while the whole run stays reproducible from one number.
"""
from __future__ import annotations

import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .evaluate import TRA_WEIGHTS
from .io import FormatError, loads_json
from .proposals import (
    DEFAULT_AREA_BOUNDS,
    DEFAULT_CONFLICT_COVER,
    DEFAULT_CONFLICT_IOU,
    MASK_NMS_IOU,
)
from .sim import CorruptionConfig, SimConfig


class ConfigError(Exception):
    """A configuration document that cannot be accepted as written."""


# Stage indices for seed splitting; appending new stages keeps old ones stable.
STAGE_SIM = 0
STAGE_CORRUPTION = 1
STAGE_PROPOSAL_MODEL = 2
STAGE_MOVE_MODEL = 3
STAGE_MITOSIS_MODEL = 4


def stage_seed(seed: int, stage: int) -> int:
    """Deterministic per-stage seed derived from the global seed."""
    return int(np.random.SeedSequence([seed, stage]).generate_state(1)[0])


@dataclass
class ProposalsConfig:
    generator: str = "multi_threshold"  # "multi_threshold" | "log" | "truth"
    levels: int = 8
    span: tuple[float, float] = (0.5, 1.5)
    stability_iou: float = 0.5
    sigmas: tuple[float, ...] = (1.5, 2.0, 3.0, 4.0, 6.0)
    response_threshold: float = 0.02
    nms_iou: float = MASK_NMS_IOU
    min_area: int = DEFAULT_AREA_BOUNDS[0]
    max_area: int = DEFAULT_AREA_BOUNDS[1]
    c1: float = DEFAULT_CONFLICT_IOU
    c2: float = DEFAULT_CONFLICT_COVER


@dataclass
class ClassifyConfig:
    n_trees: int = 100
    max_depth: int = 12
    min_leaf: int = 2
    max_negative_ratio: float = 20.0


@dataclass
class GraphConfig:
    gating_radius: float | None = None  # None: derived from training displacements
    gating_percentile: float = 99.0
    gating_factor: float = 1.25
    mitosis_radius: float | None = None  # None: gating radius times mitosis_factor
    mitosis_factor: float = 1.5
    mitosis_n: int = 3
    p_enter: float = 0.01
    p_exit: float = 0.01
    p_death: float | None = None  # None disables death edges


@dataclass
class SolveConfig:
    backend: str = "exact"  # "exact" | "greedy"
    time_limit: float | None = None
    max_nodes: int | None = None


@dataclass
class EvalConfig:
    weights: dict[str, float] = field(default_factory=dict)  # overrides per error class
    seg: bool = True


@dataclass
class PipelineConfig:
    seed: int = 0
    proposals: ProposalsConfig = field(default_factory=ProposalsConfig)
    classify: ClassifyConfig = field(default_factory=ClassifyConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    solve: SolveConfig = field(default_factory=SolveConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    corruption: CorruptionConfig = field(default_factory=CorruptionConfig)


def _coerce(value, hint, where: str):
    """Validate a JSON value against a field's type annotation."""
    origin = typing.get_origin(hint)
    if isinstance(hint, types.UnionType):
        last: Exception | None = None
        for arm in typing.get_args(hint):
            if arm is type(None):
                if value is None:
                    return None
                continue
            try:
                return _coerce(value, arm, where)
            except ConfigError as exc:
                last = exc
        raise last if last is not None else ConfigError(f"{where}: expected one of {hint}")
    if hint is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: expected true/false, got {value!r}")
        return value
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return value
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        return float(value)
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: expected a string, got {value!r}")
        return value
    if origin is tuple:
        args = typing.get_args(hint)
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_coerce(v, args[0], f"{where}[{i}]") for i, v in enumerate(value))
        if len(value) != len(args):
            raise ConfigError(f"{where}: expected {len(args)} entries, got {len(value)}")
        return tuple(_coerce(v, a, f"{where}[{i}]") for i, (v, a) in enumerate(zip(value, args)))
    if origin is dict:
        key_t, val_t = typing.get_args(hint)
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: expected an object, got {value!r}")
        return {
            _coerce(k, key_t, f"{where} key"): _coerce(v, val_t, f"{where}.{k}")
            for k, v in value.items()
        }
    raise ConfigError(f"{where}: unsupported value {value!r}")


def _fill(obj, data, path: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    hints = typing.get_type_hints(type(obj))
    allowed = {f.name for f in fields(obj)}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in allowed:
            raise ConfigError(f"unknown config key {where!r}")
        current = getattr(obj, key)
        if is_dataclass(current):
            if key in ("sim", "corruption") and isinstance(value, dict) and "seed" in value:
                raise ConfigError(
                    f"{where}.seed is not accepted; the global 'seed' drives every stage"
                )
            _fill(current, value, where)
        else:
            setattr(obj, key, _coerce(value, hints[key], where))


def config_from_dict(doc) -> PipelineConfig:
    """Build a config from a parsed JSON document, rejecting unknown keys."""
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object at top level")
    doc = dict(doc)
    if "corruption" in doc:
        raise ConfigError("unknown config key 'corruption' (it lives under 'sim')")
    corruption_doc = None
    sim = doc.get("sim")
    if isinstance(sim, dict) and "corruption" in sim:
        sim = dict(sim)
        corruption_doc = sim.pop("corruption")
        doc["sim"] = sim
    cfg = PipelineConfig()
    _fill(cfg, doc, "")
    if corruption_doc is not None:
        if isinstance(corruption_doc, dict) and "seed" in corruption_doc:
            raise ConfigError(
                "sim.corruption.seed is not accepted; the global 'seed' drives every stage"
            )
        _fill(cfg.corruption, corruption_doc, "sim.corruption")
    validate_config(cfg)
    return cfg


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def validate_config(cfg: PipelineConfig) -> None:
    _require(cfg.seed >= 0, "seed: need a non-negative integer")
    p = cfg.proposals
    _require(
        p.generator in ("multi_threshold", "log", "truth"),
        f"proposals.generator: unknown generator {p.generator!r}",
    )
    _require(p.levels >= 2, "proposals.levels: need at least 2")
    _require(len(p.span) == 2 and 0 < p.span[0] < p.span[1], "proposals.span: need 0 < lo < hi")
    _require(len(p.sigmas) >= 1 and all(s > 0 for s in p.sigmas), "proposals.sigmas: need positive values")
    _require(0.0 < p.stability_iou <= 1.0, "proposals.stability_iou: need a value in (0, 1]")
    _require(0.0 < p.nms_iou <= 1.0, "proposals.nms_iou: need a value in (0, 1]")
    _require(1 <= p.min_area <= p.max_area, "proposals.min_area/max_area: need 1 <= min <= max")
    _require(0.0 < p.c1 <= 1.0 and 0.0 < p.c2 <= 1.0, "proposals.c1/c2: need values in (0, 1]")

    c = cfg.classify
    _require(c.n_trees >= 1, "classify.n_trees: need at least 1")
    _require(c.max_depth >= 1, "classify.max_depth: need at least 1")
    _require(c.min_leaf >= 1, "classify.min_leaf: need at least 1")
    _require(c.max_negative_ratio > 0, "classify.max_negative_ratio: need a positive ratio")

    g = cfg.graph
    _require(g.gating_radius is None or g.gating_radius > 0, "graph.gating_radius: need a positive radius")
    _require(0 < g.gating_percentile <= 100, "graph.gating_percentile: need a value in (0, 100]")
    _require(g.gating_factor > 0, "graph.gating_factor: need a positive factor")
    _require(g.mitosis_radius is None or g.mitosis_radius > 0, "graph.mitosis_radius: need a positive radius")
    _require(g.mitosis_factor > 0, "graph.mitosis_factor: need a positive factor")
    _require(g.mitosis_n >= 2, "graph.mitosis_n: need at least 2 candidate daughters")
    for name, prob in (("p_enter", g.p_enter), ("p_exit", g.p_exit)):
        _require(0.0 < prob < 1.0, f"graph.{name}: need a probability strictly inside (0, 1)")
    _require(g.p_death is None or 0.0 < g.p_death < 1.0, "graph.p_death: need null or a probability in (0, 1)")

    s = cfg.solve
    _require(s.backend in ("exact", "greedy"), f"solve.backend: unknown backend {s.backend!r}")
    _require(s.time_limit is None or s.time_limit > 0, "solve.time_limit: need null or a positive limit")
    _require(s.max_nodes is None or s.max_nodes >= 1, "solve.max_nodes: need null or at least 1")

    for key, value in cfg.eval.weights.items():
        _require(key in TRA_WEIGHTS, f"eval.weights: unknown error class {key!r}")
        _require(value >= 0, f"eval.weights.{key}: need a non-negative weight")

    sm = cfg.sim
    _require(sm.frames >= 1, "sim.frames: need at least 1 frame")
    _require(sm.width >= 8 and sm.height >= 8, "sim.width/height: need at least 8 pixels")
    _require(sm.initial_cells >= 0, "sim.initial_cells: need a non-negative count")
    _require(
        len(sm.radius_range) == 2 and 0 < sm.radius_range[0] <= sm.radius_range[1],
        "sim.radius_range: need 0 < lo <= hi",
    )
    for name in ("division_rate", "enter_rate", "death_rate"):
        _require(0.0 <= getattr(sm, name) <= 1.0, f"sim.{name}: need a rate in [0, 1]")
    _require(sm.border in ("absorb", "reflect"), f"sim.border: unknown mode {sm.border!r}")

    cc = cfg.corruption
    for name in ("drop_rate", "clutter_rate", "merge_rate", "split_rate"):
        _require(0.0 <= getattr(cc, name) <= 1.0, f"sim.corruption.{name}: need a rate in [0, 1]")
    _require(cc.jitter_px >= 0, "sim.corruption.jitter_px: need a non-negative amount")
    _require(cc.score_noise >= 0, "sim.corruption.score_noise: need a non-negative amount")


def load_config(path, *, seed: int | None = None) -> PipelineConfig:
    """Read and validate a config file; optional seed override."""
    try:
        with open(path, "r", encoding="ascii", errors="strict") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(f"unreadable config: {exc}", path=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"non-ASCII byte in config: {exc}", path=str(path)) from exc
    try:
        doc = loads_json(text, path=str(path))
    except FormatError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = config_from_dict(doc)
    if seed is not None:
        cfg.seed = seed
        validate_config(cfg)
    return cfg


def config_to_dict(cfg: PipelineConfig) -> dict:
    """The JSON form of a config, defaults included; inverse of config_from_dict."""

    def plain(obj):
        if is_dataclass(obj):
            return {f.name: plain(getattr(obj, f.name)) for f in fields(obj)}
        if isinstance(obj, tuple):
            return [plain(v) for v in obj]
        if isinstance(obj, dict):
            return {k: plain(v) for k, v in obj.items()}
        return obj

    doc = plain(cfg)
    corruption = doc.pop("corruption")
    sim = doc.pop("sim")
    sim.pop("seed")
    corruption.pop("seed")
    sim["corruption"] = corruption
    doc["sim"] = sim
    return doc
