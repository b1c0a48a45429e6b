"""Per-layer spans and counts, recorded from outside the package.

Nothing under ``src/`` knows about tracing.  ``Tracer.installed()`` swaps the
names the pipeline module binds at import (and the few the evaluate module
calls internally) for timing wrappers, and puts the originals back on exit,
so untraced ops run the unmodified program.  The same technique installs the
solution audit in ``tests/conftest.py``.

A span is (id, parent id, op, name, start, end); spans of one op share the
op number and nest through the parent id.  Span names are ``<layer>.<what>``
with the layer being a module name under ``src/lineage_ilp/``.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import lineage_ilp.evaluate as evaluate_mod
import lineage_ilp.pipeline as pipeline_mod
from lineage_ilp.geometry import Mask


@dataclass
class Span:
    id: int
    parent: int  # -1 for a span directly under the op
    op: int
    name: str
    t0: float
    t1: float = 0.0

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


# Candidate counts are those of the tracking graph, not of training.
def _count_pairs(tr, out, args):
    if tr.inside("pipeline.graph"):
        tr.add("graph.move_pairs", len(out))


def _count_triples(tr, out, args):
    if tr.inside("pipeline.graph"):
        tr.add("graph.mitosis_triples", len(out))


def _count_graph(tr, out, args):
    if tr.inside("pipeline.graph"):
        tr.add("graph.edges", len(out.edges))
        kept = sum(1 for e in out.edges if e.kind == "move") + len(out.mitosis_sets)
        tr.add("graph.kept", kept)


def _count_formulate(tr, out, args):
    instance, _ = out
    tr.add("solve.n_vars", instance.n_vars)
    tr.add("solve.n_constraints", len(instance.constraints))


def _count_exact(tr, out, args):
    tr.add("solve.nodes", out.nodes)


def _count_mitosis_labels(tr, out, args):
    tr.add("classify.division_positives", out.n_positive)


# (pipeline attribute, span name) of the stages: the spans directly under an op
PIPELINE_STAGES = (
    ("run_simulate", "pipeline.simulate"),
    ("run_propose", "pipeline.propose"),
    ("run_train", "pipeline.train"),
    ("run_track", "pipeline.track"),
    ("build_candidate_graph", "pipeline.graph"),
    ("solve_graph", "pipeline.solve"),
    ("write_result", "pipeline.write"),
    ("run_eval", "pipeline.eval"),
)
# (module, attribute, span name, counter or None)
WRAPPED = (
    *((pipeline_mod, attr, name, None) for attr, name in PIPELINE_STAGES),
    (pipeline_mod, "simulate", "sim.simulate", None),
    (pipeline_mod, "corrupt", "sim.corrupt", None),
    (pipeline_mod, "multi_threshold_proposals", "proposals.generate", None),
    (pipeline_mod, "log_blob_proposals", "proposals.generate", None),
    (pipeline_mod, "proposal_feature_matrix", "features.proposal",
     lambda tr, out, args: tr.add("features.vectors", len(out))),
    (pipeline_mod, "move_feature_matrix", "features.move", None),
    (pipeline_mod, "mitosis_feature_matrix", "features.mitosis", None),
    (pipeline_mod, "label_proposals", "classify.label", None),
    (pipeline_mod, "label_move_edges", "classify.label", None),
    (pipeline_mod, "label_mitosis_sets", "classify.label", _count_mitosis_labels),
    (pipeline_mod, "fit_model", "classify.fit",
     lambda tr, out, args: tr.add("classify.fit_samples", args[0].n_samples)),
    (pipeline_mod, "predict_prob", "classify.predict",
     lambda tr, out, args: tr.add("classify.predict_rows", len(args[1]))),
    (pipeline_mod, "gating_radius_from_truth", "graph.gating", None),
    (pipeline_mod, "enumerate_moves", "graph.enumerate_moves", _count_pairs),
    (pipeline_mod, "enumerate_mitoses", "graph.enumerate_mitoses", _count_triples),
    (pipeline_mod, "build_graph", "graph.build", _count_graph),
    (pipeline_mod, "formulate", "solve.formulate", _count_formulate),
    (pipeline_mod, "solve", "solve.exact", _count_exact),
    (pipeline_mod, "solve_greedy", "solve.greedy", None),
    (pipeline_mod, "extract_lineage", "solve.extract", None),
    (pipeline_mod, "evaluate_tracking", "evaluate.tracking", None),
    (evaluate_mod, "tra_score", "evaluate.tra", None),
    (evaluate_mod, "seg_score", "evaluate.seg", None),
    (evaluate_mod, "division_metrics", "evaluate.division", None),
    (evaluate_mod, "graph_recall", "evaluate.graph_recall", None),
    *(
        (pipeline_mod, attr, "io.write", None)
        for attr in (
            "write_intensity_frames", "write_label_grids", "write_tracks",
            "write_markers", "write_proposals", "write_json_file", "save_model",
        )
    ),
    *(
        (pipeline_mod, attr, "io.read", None)
        for attr in (
            "read_intensity_frames", "read_label_grids", "read_tracks",
            "read_markers", "read_proposals", "read_json_file", "load_model",
        )
    ),
)


class Tracer:
    """Spans and counts of the ops run while ``installed()`` is active."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = {}
        self._stack: list[Span] = []
        self.op = -1

    def inside(self, name: str) -> bool:
        return any(s.name == name for s in self._stack)

    def add(self, name: str, value: float) -> None:
        per_op = self.counts.setdefault(self.op, {})
        per_op[name] = per_op.get(name, 0) + value

    def _wrap(self, name: str, fn, count):
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1].id if self._stack else -1, self.op, name, 0.0)
            self.spans.append(span)
            self._stack.append(span)
            span.t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, out, args)
            return out

        return traced

    @contextmanager
    def installed(self, op: int):
        """Trace op number ``op``: wrap every name in ``WRAPPED`` until exit."""
        self.op = op
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in WRAPPED]
        centroid = Mask.centroid
        for mod, attr, name, count in WRAPPED:
            setattr(mod, attr, self._wrap(name, getattr(mod, attr), count))

        def counted_centroid(mask):
            self.add("geometry.centroid_calls", 1)
            return centroid.fget(mask)

        Mask.centroid = property(counted_centroid)
        try:
            yield self
        finally:
            Mask.centroid = centroid
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
            self._stack.clear()

    def op_spans(self, op: int) -> list[Span]:
        return [s for s in self.spans if s.op == op]


def layer_times(spans: list[Span]) -> dict[str, float]:
    """Per op: ``<name>_s`` summed over outermost spans of each name, and
    ``<layer>.self_s``, each span's duration minus its children's."""
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
    out: dict[str, float] = {}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        key = f"{layer}.self_s"
        out[key] = out.get(key, 0.0) + s.seconds - child_time.get(s.id, 0.0)
        p = s.parent
        while p >= 0 and by_id[p].name != s.name:
            p = by_id[p].parent
        if p < 0:  # outermost span of its name
            out[f"{s.name}_s"] = out.get(f"{s.name}_s", 0.0) + s.seconds
    return out
