"""Exact and greedy solvers for the joint selection problem.

Tracking reduces to binary selection: one variable per proposal and per edge,
additive costs, and linear constraints with unit coefficients keeping the
selection consistent (no conflicting proposals, every selected proposal
explained once, flow through time, divisions picked atomically).

solve() is a best-first branch and bound with unit propagation and a
Lagrangian lower bound; it proves optimality, and it starts from a warm-start
incumbent when given one (the pipeline passes the greedy selection), so it is
never worse than that start.  solve_greedy() repeatedly applies the cheapest
feasible extension and serves as the fast approximation.
solve_bruteforce() enumerates every assignment and anchors the tests.
"""
from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .graph import TrackingGraph
from .io import FormatError, TrackRow, read_json_file, write_json_file

INSTANCE_SCHEMA_VERSION = 1
BRUTEFORCE_MAX_VARS = 24


@dataclass(frozen=True)
class LinearConstraint:
    """sum(coeffs[k] * x[indices[k]]) sense rhs, coefficients all +1 or -1."""

    indices: tuple[int, ...]
    coeffs: tuple[int, ...]
    sense: str  # "<=" or "=="
    rhs: int

    def __post_init__(self) -> None:
        if self.sense not in ("<=", "=="):
            raise ValueError(f"unknown sense {self.sense!r}")
        if not self.indices or len(self.indices) != len(self.coeffs):
            raise ValueError("indices and coeffs must be non-empty and equal length")
        if any(c not in (-1, 1) for c in self.coeffs):
            raise ValueError("coefficients must be -1 or +1")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("repeated variable in constraint")


@dataclass
class IlpInstance:
    costs: np.ndarray
    constraints: list[LinearConstraint]
    var_names: list[str] | None = None

    def __post_init__(self) -> None:
        self.costs = np.asarray(self.costs, dtype=np.float64)
        if self.costs.ndim != 1:
            raise ValueError("costs must be a 1-d array")
        for c in self.constraints:
            if any(i < 0 or i >= self.n_vars for i in c.indices):
                raise ValueError("constraint references unknown variable")
        if self.var_names is not None and len(self.var_names) != self.n_vars:
            raise ValueError("var_names length mismatch")

    @property
    def n_vars(self) -> int:
        return self.costs.shape[0]


@dataclass
class VarMap:
    """Variable layout: proposals first in (t, id) order, then edges."""

    node_var: dict[int, int]
    edge_var: list[int]

    @property
    def n_vars(self) -> int:
        return len(self.node_var) + len(self.edge_var)


@dataclass
class SolveResult:
    status: str  # "optimal" | "feasible" | "infeasible" | "unknown"
    x: np.ndarray | None
    objective: float | None
    bound: float | None
    gap: float | None
    nodes: int
    runtime: float
    timed_out: bool = False


def formulate(graph: TrackingGraph) -> tuple[IlpInstance, VarMap]:
    """Build the selection problem for a tracking graph.

    Constraints, in order: conflicting proposal pairs may not both be chosen;
    each chosen proposal is explained by exactly one incoming edge; incoming
    flow equals outgoing flow, where a division counts once (its second
    daughter edge is excluded from the parent's outgoing sum); both edges of
    a division set are chosen together.
    """
    node_var = {p.id: i for i, p in enumerate(graph.proposals)}
    n_props = len(graph.proposals)
    edge_var = [n_props + i for i in range(len(graph.edges))]

    names = [f"p{p.id}" for p in graph.proposals]
    in_vars: dict[int, list[int]] = {pid: [] for pid in node_var}
    out_vars: dict[int, list[int]] = {pid: [] for pid in node_var}
    for i, e in enumerate(graph.edges):
        v = edge_var[i]
        if e.kind == "enter":
            names.append(f"enter:{e.dst}")
            in_vars[e.dst].append(v)
        elif e.kind == "move":
            names.append(f"move:{e.src}->{e.dst}")
            in_vars[e.dst].append(v)
            out_vars[e.src].append(v)
        elif e.kind in ("exit", "death"):
            names.append(f"{e.kind}:{e.src}")
            out_vars[e.src].append(v)
        elif e.kind == "mitosis":
            names.append(f"div{e.set_id}.k{e.k}:{e.src}->{e.dst}")
            in_vars[e.dst].append(v)
            if e.k == 1:  # the second daughter edge does not count as outflow
                out_vars[e.src].append(v)
        else:
            raise ValueError(f"unknown edge kind {e.kind!r}")

    constraints: list[LinearConstraint] = []
    for (a, b) in graph.conflicts:
        constraints.append(
            LinearConstraint((node_var[a], node_var[b]), (1, 1), "<=", 1)
        )
    for p in graph.proposals:
        ins = in_vars[p.id]
        constraints.append(
            LinearConstraint(
                tuple(ins) + (node_var[p.id],), (1,) * len(ins) + (-1,), "==", 0
            )
        )
    for p in graph.proposals:
        ins = in_vars[p.id]
        outs = out_vars[p.id]
        constraints.append(
            LinearConstraint(
                tuple(ins) + tuple(outs),
                (1,) * len(ins) + (-1,) * len(outs),
                "==",
                0,
            )
        )
    set_edges: dict[int, dict[int, int]] = {}
    for i, e in enumerate(graph.edges):
        if e.kind == "mitosis":
            set_edges.setdefault(e.set_id, {})[e.k] = edge_var[i]
    for set_id in sorted(set_edges):
        pair = set_edges[set_id]
        constraints.append(
            LinearConstraint((pair[1], pair[2]), (1, -1), "==", 0)
        )

    costs = np.zeros(n_props + len(graph.edges))
    for p in graph.proposals:
        costs[node_var[p.id]] = graph.node_cost[p.id]
    for i, e in enumerate(graph.edges):
        costs[edge_var[i]] = e.cost

    instance = IlpInstance(costs=costs, constraints=constraints, var_names=names)
    return instance, VarMap(node_var=node_var, edge_var=edge_var)


def objective_value(instance: IlpInstance, x: np.ndarray) -> float:
    return float(instance.costs @ np.asarray(x, dtype=np.float64))


def check_solution(instance: IlpInstance, x: np.ndarray) -> list[str]:
    """Independent feasibility check; returns human-readable violations."""
    x = np.asarray(x)
    if x.shape != (instance.n_vars,):
        return [f"solution length {x.shape} does not match {instance.n_vars} variables"]
    out = []
    if not np.isin(x, (0, 1)).all():
        out.append("solution contains non-binary entries")
        return out
    for ci, c in enumerate(instance.constraints):
        val = sum(co * int(x[i]) for i, co in zip(c.indices, c.coeffs))
        ok = val <= c.rhs if c.sense == "<=" else val == c.rhs
        if not ok:
            out.append(
                f"constraint {ci}: value {val} violates {c.sense} {c.rhs}"
            )
    return out


def solve_bruteforce(instance: IlpInstance, chunk_bits: int = 16) -> SolveResult:
    """Exhaustive enumeration; the returned optimum is the lexicographically
    smallest assignment (variable 0 is the lowest bit)."""
    t0 = time.monotonic()
    n = instance.n_vars
    if n > BRUTEFORCE_MAX_VARS:
        raise ValueError(f"brute force limited to {BRUTEFORCE_MAX_VARS} variables")
    m = len(instance.constraints)
    A = np.zeros((m, n), dtype=np.int8)
    rhs = np.zeros(m, dtype=np.int32)
    is_eq = np.zeros(m, dtype=bool)
    for ci, c in enumerate(instance.constraints):
        for i, co in zip(c.indices, c.coeffs):
            A[ci, i] = co
        rhs[ci] = c.rhs
        is_eq[ci] = c.sense == "=="

    best_obj = np.inf
    best_code = -1
    total = 1 << n
    step = 1 << chunk_bits
    bits = np.arange(n, dtype=np.uint32)
    for start in range(0, total, step):
        count = min(step, total - start)
        codes = np.arange(start, start + count, dtype=np.uint32)
        X = ((codes[:, None] >> bits[None, :]) & 1).astype(np.int8)
        if m:
            vals = X @ A.T
            ok_le = (vals[:, ~is_eq] <= rhs[~is_eq]).all(axis=1)
            ok_eq = (vals[:, is_eq] == rhs[is_eq]).all(axis=1)
            feasible = ok_le & ok_eq
        else:
            feasible = np.ones(count, dtype=bool)
        obj = X.astype(np.float64) @ instance.costs
        obj[~feasible] = np.inf
        j = int(np.argmin(obj))
        if obj[j] < best_obj:
            best_obj = float(obj[j])
            best_code = start + j
    runtime = time.monotonic() - t0
    if best_code < 0:
        return SolveResult("infeasible", None, None, None, None, total, runtime)
    x = ((best_code >> bits) & 1).astype(np.int8)
    # report the plain dot product so the value is bit-identical to what the
    # branch and bound reports for the same assignment
    obj = float(instance.costs @ x)
    return SolveResult("optimal", x, obj, obj, 0.0, total, runtime)


# ---------------------------------------------------------------------------
# Branch and bound


class _FastCheck:
    """Vectorized feasibility test over complete assignments."""

    def __init__(self, constraints: list[LinearConstraint]):
        idx = []
        coef = []
        starts = [0]
        for c in constraints:
            idx.extend(c.indices)
            coef.extend(c.coeffs)
            starts.append(len(idx))
        self.idx = np.array(idx, dtype=np.intp)
        self.coef = np.array(coef, dtype=np.float64)
        self.starts = np.array(starts[:-1], dtype=np.intp)
        self.rhs = np.array([c.rhs for c in constraints], dtype=np.float64)
        self.is_eq = np.array([c.sense == "==" for c in constraints])

    def feasible(self, x: np.ndarray) -> bool:
        if len(self.rhs) == 0:
            return True
        vals = np.add.reduceat(self.coef * x[self.idx], self.starts)
        if not (vals[self.is_eq] == self.rhs[self.is_eq]).all():
            return False
        return bool((vals[~self.is_eq] <= self.rhs[~self.is_eq]).all())


class _Propagator:
    """Worklist unit propagation over the constraints.

    fixed[v] is -1 (undecided), 0, or 1.  Propagation fixes a variable only
    when its value is forced, so a fixpoint with everything fixed is feasible.
    """

    def __init__(self, constraints: list[LinearConstraint], n_vars: int):
        self.idx = [np.array(c.indices, dtype=np.intp) for c in constraints]
        self.coef = [np.array(c.coeffs, dtype=np.int8) for c in constraints]
        self.rhs = [c.rhs for c in constraints]
        self.is_eq = [c.sense == "==" for c in constraints]
        self.watch: list[list[int]] = [[] for _ in range(n_vars)]
        for ci, arr in enumerate(self.idx):
            for v in arr:
                self.watch[v].append(ci)

    def run(self, fixed: np.ndarray, seeds) -> bool:
        m = len(self.idx)
        in_queue = np.zeros(m, dtype=bool)
        queue: deque[int] = deque()
        for ci in seeds:
            if not in_queue[ci]:
                in_queue[ci] = True
                queue.append(ci)
        while queue:
            ci = queue.popleft()
            in_queue[ci] = False
            idx = self.idx[ci]
            coef = self.coef[ci]
            vals = fixed[idx]
            und = vals == -1
            F = int(coef[vals == 1].sum())
            pos_und = und & (coef > 0)
            neg_und = und & (coef < 0)
            lo = F - int(neg_und.sum())
            rhs = self.rhs[ci]
            to_zero = to_one = None
            if self.is_eq[ci]:
                hi = F + int(pos_und.sum())
                if rhs < lo or rhs > hi:
                    return False
                if lo == rhs and und.any():
                    to_zero, to_one = idx[pos_und], idx[neg_und]
                elif hi == rhs and und.any():
                    to_zero, to_one = idx[neg_und], idx[pos_und]
            else:
                if lo > rhs:
                    return False
                if lo == rhs and und.any():
                    to_zero, to_one = idx[pos_und], idx[neg_und]
            if to_zero is None:
                continue
            changed = []
            for v in to_zero:
                fixed[v] = 0
                changed.append(v)
            for v in to_one:
                fixed[v] = 1
                changed.append(v)
            for v in changed:
                for cj in self.watch[v]:
                    if not in_queue[cj]:
                        in_queue[cj] = True
                        queue.append(cj)
        return True


class _DualBound:
    """Lower bound from Lagrangian-relaxed constraints.

    Every constraint is priced into the costs with a multiplier (free for
    equalities, non-negative for inequalities), giving reduced costs c̃ and
    the bound  -λ·rhs + Σ_{fixed 1} c̃ + Σ_{undecided} min(0, c̃), which is
    sound for any admissible multipliers because feasible selections pay the
    penalty terms exactly zero (equalities) or non-positively (inequalities).
    The multipliers are tuned once per instance by projected subgradient
    ascent and then frozen, so the search stays deterministic.
    """

    ITERATIONS = 1200
    STALL = 60

    def __init__(self, instance: IlpInstance, ub_hint: float):
        rows_i, rows_v, rows_c = [], [], []
        for k, c in enumerate(instance.constraints):
            for i, co in zip(c.indices, c.coeffs):
                rows_i.append(k)
                rows_v.append(i)
                rows_c.append(float(co))
        self.rows_i = np.array(rows_i, dtype=np.intp)
        self.rows_v = np.array(rows_v, dtype=np.intp)
        self.rows_c = np.array(rows_c, dtype=np.float64)
        self.rhs = np.array([float(c.rhs) for c in instance.constraints])
        self.is_ineq = np.array([c.sense == "<=" for c in instance.constraints])
        self.costs = instance.costs
        self.offset = 0.0
        self.reduced = instance.costs.copy()
        if len(instance.constraints):
            self._ascend(ub_hint)

    def _priced(self, lam: np.ndarray) -> tuple[float, np.ndarray]:
        ctil = self.costs.copy()
        np.add.at(ctil, self.rows_v, self.rows_c * lam[self.rows_i])
        value = float(np.minimum(0.0, ctil).sum() - lam @ self.rhs)
        return value, ctil

    def _ascend(self, ub_hint: float) -> None:
        m = len(self.rhs)
        lam = np.zeros(m)
        best, best_ctil = self._priced(lam)
        best_lam = lam.copy()
        ub = ub_hint if np.isfinite(ub_hint) else 0.0
        mu = 1.0
        stalled = 0
        for _ in range(self.ITERATIONS):
            value, ctil = self._priced(lam)
            if value > best + 1e-9:
                best, best_ctil, best_lam = value, ctil, lam.copy()
                stalled = 0
            else:
                stalled += 1
                if stalled >= self.STALL:
                    mu *= 0.5
                    stalled = 0
                    lam = best_lam.copy()
                    if mu < 1e-4:
                        break
            x = (ctil < 0.0).astype(np.float64)
            sg = -self.rhs.copy()
            np.add.at(sg, self.rows_i, self.rows_c * x[self.rows_v])
            norm2 = float(sg @ sg)
            if norm2 == 0.0:
                break
            lam = lam + (mu * max(ub - value, 1e-9) / norm2) * sg
            np.maximum(lam, 0.0, where=self.is_ineq, out=lam)
        self.offset = float(-best_lam @ self.rhs)
        self.reduced = best_ctil

    def bound(self, fixed: np.ndarray) -> float:
        c = self.reduced
        contrib = np.where(fixed == 1, c, np.where(fixed == 0, 0.0, np.minimum(0.0, c)))
        return self.offset + float(contrib.sum())


def _constraint_components(instance: IlpInstance) -> np.ndarray:
    """Component label per variable; variables tied by a constraint share one."""
    parent = np.arange(instance.n_vars, dtype=np.intp)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for c in instance.constraints:
        r = find(c.indices[0])
        for j in c.indices[1:]:
            parent[find(j)] = r
    roots = np.array([find(i) for i in range(instance.n_vars)], dtype=np.intp)
    _, labels = np.unique(roots, return_inverse=True)
    return labels


def solve(
    instance: IlpInstance,
    *,
    start: np.ndarray | None = None,
    time_limit: float | None = None,
    gap_tolerance: float = 0.0,
    max_nodes: int | None = None,
) -> SolveResult:
    """Best-first branch and bound, component by component.

    Constraints never cross connected components of the variable-constraint
    graph and costs are additive, so each component is solved independently
    and the answers summed; this keeps the search spaces small without
    changing the optimum.  Components split the time and node budgets, and a
    positive gap tolerance is divided between them so the summed gap stays
    within the requested one.

    start is an optional warm start, a 0/1 vector over all variables (the
    pipeline passes the greedy selection).  Each component takes its slice
    as a candidate incumbent when that slice is feasible and ignores it
    otherwise, so the result is never worse than a feasible start at any
    time or node budget.
    """
    t0 = time.monotonic()
    n = instance.n_vars
    if start is not None:
        start = np.asarray(start)
        if start.shape != (n,) or not np.isin(start, (0, 1)).all():
            raise ValueError(f"start must be a 0/1 vector of length {n}")
        start = start.astype(np.int8)
    if n == 0:
        return SolveResult("optimal", np.zeros(0, dtype=np.int8), 0.0, 0.0, 0.0, 0, 0.0)
    labels = _constraint_components(instance)
    n_comp = int(labels.max()) + 1
    if n_comp == 1:
        return _solve_connected(
            instance,
            start=start,
            time_limit=time_limit,
            gap_tolerance=gap_tolerance,
            max_nodes=max_nodes,
        )

    constrained = np.zeros(n, dtype=bool)
    for c in instance.constraints:
        for i in c.indices:
            constrained[i] = True

    x = np.zeros(n, dtype=np.int8)
    objective = 0.0
    bound = 0.0
    nodes = 0
    timed_out = False
    all_optimal = True
    have_x = True
    sub_tol = gap_tolerance / n_comp
    for comp in range(n_comp):
        idx = np.flatnonzero(labels == comp)
        if len(idx) == 1 and not constrained[idx[0]]:
            # unconstrained variable: take it exactly when it pays
            c = float(instance.costs[idx[0]])
            if c < 0.0:
                x[idx[0]] = 1
                objective += c
                bound += c
            continue
        remap = {int(old): new for new, old in enumerate(idx)}
        sub = IlpInstance(
            costs=instance.costs[idx],
            constraints=[
                LinearConstraint(
                    tuple(remap[i] for i in c.indices), c.coeffs, c.sense, c.rhs
                )
                for c in instance.constraints
                if c.indices[0] in remap
            ],
        )
        rem_t = None if time_limit is None else max(0.0, time_limit - (time.monotonic() - t0))
        rem_n = None if max_nodes is None else max(1, max_nodes - nodes)
        r = _solve_connected(
            sub,
            start=None if start is None else start[idx],
            time_limit=rem_t,
            gap_tolerance=sub_tol,
            max_nodes=rem_n,
        )
        nodes += r.nodes
        timed_out = timed_out or r.timed_out
        if r.status == "infeasible":
            return SolveResult(
                "infeasible", None, None, None, None, nodes, time.monotonic() - t0
            )
        all_optimal = all_optimal and r.status == "optimal"
        bound += float(r.bound) if r.bound is not None else -np.inf
        if r.x is None:
            have_x = False
        elif have_x:
            x[idx] = r.x
            objective += float(r.objective)

    runtime = time.monotonic() - t0
    if not have_x:
        return SolveResult("unknown", None, None, float(bound), None, nodes, runtime, timed_out)
    # one dot product over the merged assignment, not the sum of per-component
    # objectives: keeps the reported value independent of the decomposition
    objective = float(instance.costs @ x)
    # Summing per-component bounds rounds differently from the dot product, so
    # a proven optimum could read as a bound a few ulps above its objective.
    bound = min(bound, objective)
    gap = objective - bound
    status = "optimal" if all_optimal else "feasible"
    return SolveResult(status, x, objective, float(bound), gap, nodes, runtime, timed_out)


def _solve_connected(
    instance: IlpInstance,
    *,
    start: np.ndarray | None = None,
    time_limit: float | None = None,
    gap_tolerance: float = 0.0,
    max_nodes: int | None = None,
) -> SolveResult:
    """Best-first branch and bound on one connected component.

    Branches on the most negative undecided cost (ties to the lowest index),
    propagates forced assignments, and prunes with the Lagrangian bound of
    _DualBound.  The first incumbent is the better feasible one of the root's
    propagated values with every undecided variable at zero (the all-zeros
    selection when that is feasible) and the warm start; later incumbents are
    the complete assignments the search reaches.  Completing the search
    proves optimality; hitting the time or node limit reports the incumbent
    with its remaining gap.
    """
    t0 = time.monotonic()
    n = instance.n_vars
    if n == 0:
        return SolveResult("optimal", np.zeros(0, dtype=np.int8), 0.0, 0.0, 0.0, 0, 0.0)
    prop = _Propagator(instance.constraints, n)
    checker = _FastCheck(instance.constraints)
    costs = instance.costs

    incumbent_x: np.ndarray | None = None
    incumbent_obj = np.inf

    def try_candidate(x: np.ndarray) -> None:
        nonlocal incumbent_x, incumbent_obj
        obj = float(costs @ x)
        if obj < incumbent_obj and checker.feasible(x):
            incumbent_x = x.copy()
            incumbent_obj = obj

    root = np.full(n, -1, dtype=np.int8)
    nodes = 0
    if not prop.run(root, range(len(prop.idx))):
        return SolveResult(
            "infeasible", None, None, None, None, 0, time.monotonic() - t0
        )
    try_candidate(np.maximum(root, 0))
    if start is not None:
        try_candidate(start)

    dual = _DualBound(instance, incumbent_obj)

    counter = 0
    heap: list[tuple[float, int, np.ndarray]] = []
    heapq.heappush(heap, (dual.bound(root), counter, root))
    # Least bound of any node cut off against the incumbent.  With a gap
    # tolerance such a node may still hold a better solution, so the
    # reported bound cannot exceed it.
    pruned_bound = np.inf
    timed_out = False
    stopped = False

    while heap:
        if time_limit is not None and time.monotonic() - t0 > time_limit:
            timed_out = True
            break
        if max_nodes is not None and nodes >= max_nodes:
            stopped = True
            break
        b, _, fixed = heapq.heappop(heap)
        nodes += 1
        if b >= incumbent_obj - gap_tolerance:
            pruned_bound = min(pruned_bound, b)
            stopped = True
            break
        und = fixed == -1
        if not und.any():
            try_candidate(fixed.astype(np.int8))
            continue
        masked = np.where(und, costs, np.inf)
        v = int(np.argmin(masked))
        for val in (1, 0):
            child = fixed.copy()
            child[v] = val
            if not prop.run(child, prop.watch[v]):
                continue
            if not (child == -1).any():
                try_candidate(child.astype(np.int8))
                continue
            cb = dual.bound(child)
            if cb >= incumbent_obj - gap_tolerance:
                pruned_bound = min(pruned_bound, cb)
                continue
            counter += 1
            heapq.heappush(heap, (cb, counter, child))

    runtime = time.monotonic() - t0
    # The optimum lies in an open node, in a pruned node, or is no better than
    # the incumbent, so the least of the three bounds it from below.
    open_bound = heap[0][0] if heap else np.inf
    best_bound = min(incumbent_obj, open_bound, pruned_bound)

    if incumbent_x is None:
        if timed_out or stopped:
            return SolveResult(
                "unknown", None, None, float(best_bound), None, nodes, runtime, timed_out
            )
        return SolveResult("infeasible", None, None, None, None, nodes, runtime)

    gap = max(0.0, incumbent_obj - float(best_bound))
    status = "optimal" if gap <= 1e-9 else "feasible"
    return SolveResult(
        status,
        incumbent_x,
        float(incumbent_obj),
        float(best_bound),
        gap,
        nodes,
        runtime,
        timed_out,
    )


# ---------------------------------------------------------------------------
# Greedy approximation


def solve_greedy(graph: TrackingGraph, varmap: VarMap) -> SolveResult:
    """Repeated cheapest extension: whole tracks first, then divisions.

    Each iteration compares the best source-to-sink chain over unused,
    unblocked proposals against the best division graft onto an already
    selected track, applying whichever lowers the objective more.  Stops when
    nothing is negative.  The result is always feasible; its objective is an
    upper bound for the exact solver's.
    """
    t0 = time.monotonic()
    props = graph.proposals
    by_frame: dict[int, list[int]] = {}
    for p in props:
        by_frame.setdefault(p.t, []).append(p.id)
    for lst in by_frame.values():
        lst.sort()
    frames = sorted(by_frame)
    node_cost = graph.node_cost

    enter_edge: dict[int, tuple[float, int]] = {}
    term_edge: dict[int, tuple[float, int]] = {}
    in_moves: dict[int, list[tuple[int, float, int]]] = {pid: [] for pid in node_cost}
    out_moves: dict[int, list[tuple[int, float, int]]] = {pid: [] for pid in node_cost}
    for i, e in enumerate(graph.edges):
        if e.kind == "enter":
            enter_edge[e.dst] = (e.cost, i)
        elif e.kind in ("exit", "death"):
            cur = term_edge.get(e.src)
            if cur is None or e.cost < cur[0]:
                term_edge[e.src] = (e.cost, i)
        elif e.kind == "move":
            in_moves[e.dst].append((e.src, e.cost, i))
            out_moves[e.src].append((e.dst, e.cost, i))
    for lst in in_moves.values():
        lst.sort(key=lambda item: item[0])
    for lst in out_moves.values():
        lst.sort(key=lambda item: item[0])

    set_edges: dict[int, dict[int, int]] = {}
    for i, e in enumerate(graph.edges):
        if e.kind == "mitosis":
            set_edges.setdefault(e.set_id, {})[e.k] = i
    sets_by_parent: dict[int, list] = {}
    for s in graph.mitosis_sets:
        sets_by_parent.setdefault(s.parent, []).append(s)
    conflict_pairs = set(map(tuple, graph.conflicts))
    conflict_adj: dict[int, list[int]] = {}
    for a, b in graph.conflicts:
        conflict_adj.setdefault(a, []).append(b)
        conflict_adj.setdefault(b, []).append(a)

    available = {pid: True for pid in node_cost}
    used: set[int] = set()
    chosen_edges: set[int] = set()
    chain_end_term: dict[int, int] = {}  # selected track tail pid -> terminal edge idx
    divided: set[int] = set()
    actions = 0

    def claim(pid: int) -> None:
        available[pid] = False
        used.add(pid)
        for other in conflict_adj.get(pid, []):
            available[other] = False

    def best_chain():
        dist: dict[int, float] = {}
        pred: dict[int, tuple] = {}
        best = (np.inf, None)
        for t in frames:
            for pid in by_frame[t]:
                if not available[pid]:
                    continue
                cost = enter_edge[pid][0] + node_cost[pid]
                how = ("enter",)
                for src, mcost, eidx in in_moves[pid]:
                    d = dist.get(src)
                    if d is not None and d + mcost + node_cost[pid] < cost:
                        cost = d + mcost + node_cost[pid]
                        how = ("move", src, eidx)
                dist[pid] = cost
                pred[pid] = how
                total = cost + term_edge[pid][0]
                if total < best[0]:
                    best = (total, pid)
        if best[1] is None:
            return np.inf, None
        path = []
        cur = best[1]
        while True:
            path.append(cur)
            how = pred[cur]
            if how[0] == "enter":
                break
            cur = how[1]
        path.reverse()
        return best[0], path

    def tail_costs() -> dict[int, float]:
        tail: dict[int, float] = {}
        for t in reversed(frames):
            for pid in by_frame[t]:
                if not available[pid]:
                    continue
                best = term_edge[pid][0]
                for dst, mcost, eidx in out_moves[pid]:
                    d = tail.get(dst)
                    if d is not None and mcost + d < best:
                        best = mcost + d
                tail[pid] = node_cost[pid] + best
        return tail

    def walk_tail(start: int) -> None:
        """Claim a chain from start, choosing the cheapest continuation at
        every step with tail costs refreshed after each claim."""
        cur = start
        claim(cur)
        while True:
            tail = tail_costs()
            best_cost = term_edge[cur][0]
            best_next = None
            for dst, mcost, eidx in out_moves[cur]:
                d = tail.get(dst)
                if d is not None and mcost + d < best_cost:
                    best_cost = mcost + d
                    best_next = (dst, eidx)
            if best_next is None:
                chosen_edges.add(term_edge[cur][1])
                chain_end_term[cur] = term_edge[cur][1]
                return
            dst, eidx = best_next
            chosen_edges.add(eidx)
            claim(dst)
            cur = dst

    while True:
        chain_cost, chain_path = best_chain()

        tail = tail_costs()
        best_div = (np.inf, None)
        for parent in sorted(chain_end_term):
            if parent in divided:
                continue
            for s in sets_by_parent.get(parent, []):
                if not (available.get(s.d1) and available.get(s.d2)):
                    continue
                if (s.d1, s.d2) in conflict_pairs:
                    continue
                e1 = graph.edges[set_edges[s.set_id][1]]
                e2 = graph.edges[set_edges[s.set_id][2]]
                term_cost = graph.edges[chain_end_term[parent]].cost
                delta = -term_cost + e1.cost + e2.cost + tail[s.d1] + tail[s.d2]
                if delta < best_div[0]:
                    best_div = (delta, s)

        best_cost = min(chain_cost, best_div[0])
        if not (best_cost < 0.0):
            break
        actions += 1
        if chain_cost <= best_div[0]:
            path = chain_path
            chosen_edges.add(enter_edge[path[0]][1])
            claim(path[0])
            prev = path[0]
            for pid in path[1:]:
                eidx = next(i for (dst, _, i) in out_moves[prev] if dst == pid)
                chosen_edges.add(eidx)
                claim(pid)
                prev = pid
            chosen_edges.add(term_edge[prev][1])
            chain_end_term[prev] = term_edge[prev][1]
        else:
            s = best_div[1]
            parent_term = chain_end_term.pop(s.parent)
            chosen_edges.discard(parent_term)
            divided.add(s.parent)
            chosen_edges.add(set_edges[s.set_id][1])
            chosen_edges.add(set_edges[s.set_id][2])
            walk_tail(s.d1)
            walk_tail(s.d2)

    x = np.zeros(varmap.n_vars, dtype=np.int8)
    for pid in used:
        x[varmap.node_var[pid]] = 1
    for eidx in chosen_edges:
        x[varmap.edge_var[eidx]] = 1
    objective = float(sum(node_cost[pid] for pid in used)) + float(
        sum(graph.edges[i].cost for i in chosen_edges)
    )
    return SolveResult(
        "feasible", x, objective, None, None, actions, time.monotonic() - t0
    )


# ---------------------------------------------------------------------------
# Lineage extraction


@dataclass
class Lineage:
    tracks: list[TrackRow] = field(default_factory=list)
    members: dict[int, list[int]] = field(default_factory=dict)
    end_reason: dict[int, str] = field(default_factory=dict)


def extract_lineage(graph: TrackingGraph, varmap: VarMap, x: np.ndarray) -> Lineage:
    """Turn a feasible selection into tracks with parent links.

    Track ids are assigned in order of (birth frame, first proposal id).
    End reasons are "exit", "death", or "division".
    """
    x = np.asarray(x)
    selected = {pid for pid, vi in varmap.node_var.items() if x[vi] == 1}
    by_id = graph.proposal_by_id()

    in_kind: dict[int, str] = {}
    move_next: dict[int, tuple[int, int]] = {}
    term_kind: dict[int, str] = {}
    div_out: dict[int, list[int | None]] = {}  # parent pid -> [d1, d2]
    for i, e in enumerate(graph.edges):
        if x[varmap.edge_var[i]] != 1:
            continue
        for endpoint in (e.src, e.dst):
            if endpoint is not None and endpoint not in selected:
                raise ValueError(
                    f"selected {e.kind} edge touches unselected proposal {endpoint}"
                )
        if e.kind == "enter":
            _set_once(in_kind, e.dst, "enter")
        elif e.kind == "move":
            _set_once(in_kind, e.dst, "move")
            if e.src in move_next:
                raise ValueError(f"proposal {e.src} has two outgoing moves")
            move_next[e.src] = (e.dst, i)
        elif e.kind in ("exit", "death"):
            if e.src in term_kind:
                raise ValueError(f"proposal {e.src} has two terminal edges")
            term_kind[e.src] = e.kind
        elif e.kind == "mitosis":
            _set_once(in_kind, e.dst, "mitosis")
            pair = div_out.setdefault(e.src, [None, None])
            pair[e.k - 1] = e.dst

    for pid in selected:
        if pid not in in_kind:
            raise ValueError(f"selected proposal {pid} has no incoming edge")

    daughter_parent: dict[int, int] = {}
    for parent, pair in div_out.items():
        if pair[0] is None or pair[1] is None:
            raise ValueError(f"division at {parent} is missing a daughter edge")
        for d in pair:
            daughter_parent[d] = parent

    starts = sorted(
        (by_id[pid].t, pid)
        for pid, kind in in_kind.items()
        if kind in ("enter", "mitosis")
    )
    lineage = Lineage()
    track_of_pid: dict[int, int] = {}
    for track_id, (_, start) in enumerate(starts, start=1):
        members = [start]
        cur = start
        while cur in move_next:
            cur = move_next[cur][0]
            members.append(cur)
        for pid in members:
            track_of_pid[pid] = track_id
        if cur in div_out:
            reason = "division"
        elif cur in term_kind:
            reason = term_kind[cur]
        else:
            raise ValueError(f"track ending at {cur} has no terminal edge")
        lineage.members[track_id] = members
        lineage.end_reason[track_id] = reason

    for track_id, (_, start) in enumerate(starts, start=1):
        members = lineage.members[track_id]
        parent_track = 0
        if start in daughter_parent:
            parent_track = track_of_pid[daughter_parent[start]]
        lineage.tracks.append(
            TrackRow(
                label=track_id,
                birth=by_id[members[0]].t,
                end=by_id[members[-1]].t,
                parent=parent_track,
            )
        )
    return lineage


def _set_once(d: dict, key, value) -> None:
    if key in d:
        raise ValueError(f"proposal {key} has more than one incoming edge")
    d[key] = value


# ---------------------------------------------------------------------------
# Serialization


def instance_to_json(instance: IlpInstance) -> dict:
    return {
        "schema_version": INSTANCE_SCHEMA_VERSION,
        "kind": "selection_instance",
        "costs": instance.costs.tolist(),
        "constraints": [
            {
                "indices": list(c.indices),
                "coeffs": list(c.coeffs),
                "sense": c.sense,
                "rhs": c.rhs,
            }
            for c in instance.constraints
        ],
        "var_names": instance.var_names,
    }


def instance_from_json(obj: dict) -> IlpInstance:
    try:
        constraints = [
            LinearConstraint(
                tuple(c["indices"]), tuple(c["coeffs"]), c["sense"], int(c["rhs"])
            )
            for c in obj["constraints"]
        ]
        return IlpInstance(
            costs=np.array(obj["costs"], dtype=np.float64),
            constraints=constraints,
            var_names=obj.get("var_names"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed selection_instance document: {exc}") from exc


def save_instance(instance: IlpInstance, path) -> None:
    write_json_file(path, instance_to_json(instance))


def load_instance(path) -> IlpInstance:
    return instance_from_json(
        read_json_file(
            path, kind="selection_instance", supported_versions=(INSTANCE_SCHEMA_VERSION,)
        )
    )
