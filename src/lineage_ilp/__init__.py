"""Joint cell detection and tracking via proposal selection on a spatio-temporal graph.

The pipeline in one breath: candidate masks per frame (`proposals`), feature
vectors and random-forest probabilities (`features`, `classify`), a graph of
typed transitions with log-odds costs (`graph`), exact or greedy selection
(`solve`), lineage extraction and scoring (`evaluate`), with a simulator
(`sim`), file formats (`io`), and an end-to-end driver (`pipeline`, `cli`)
around it.

The exact solver is `lineage_ilp.solve.solve`; the package does not re-export
it, so `lineage_ilp.solve` stays the submodule.
"""

from .config import ConfigError, PipelineConfig, config_from_dict, config_to_dict, load_config
from .evaluate import EvalReport, GroundTruth, TraResult, evaluate_tracking, tra_score
from .geometry import BBox, Mask
from .graph import TrackingGraph, build_graph
from .io import FormatError, TrackRow, read_proposals, read_tracks, write_proposals, write_tracks
from .pipeline import (
    Dataset,
    SolverTimeout,
    load_dataset,
    run_e2e,
    run_eval,
    run_propose,
    run_simulate,
    run_track,
    run_train,
)
from .proposals import Frame, Proposal
from .sim import CorruptionConfig, SimConfig, simulate
from .solve import (
    IlpInstance,
    Lineage,
    SolveResult,
    check_solution,
    extract_lineage,
    formulate,
    solve_bruteforce,
    solve_greedy,
)

__version__ = "0.1.0"

__all__ = [
    "BBox",
    "ConfigError",
    "CorruptionConfig",
    "Dataset",
    "EvalReport",
    "FormatError",
    "Frame",
    "GroundTruth",
    "IlpInstance",
    "Lineage",
    "Mask",
    "PipelineConfig",
    "Proposal",
    "SimConfig",
    "SolveResult",
    "SolverTimeout",
    "TraResult",
    "TrackRow",
    "TrackingGraph",
    "__version__",
    "build_graph",
    "check_solution",
    "config_from_dict",
    "config_to_dict",
    "evaluate_tracking",
    "extract_lineage",
    "formulate",
    "load_config",
    "load_dataset",
    "read_proposals",
    "read_tracks",
    "run_e2e",
    "run_eval",
    "run_propose",
    "run_simulate",
    "run_track",
    "run_train",
    "simulate",
    "solve_bruteforce",
    "solve_greedy",
    "tra_score",
    "write_proposals",
    "write_tracks",
]
