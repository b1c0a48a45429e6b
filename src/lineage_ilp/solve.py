"""Exact and greedy solvers for the joint selection problem.

Tracking reduces to binary selection: one variable per proposal and per edge,
additive costs, and linear constraints with unit coefficients keeping the
selection consistent (no conflicting proposals, every selected proposal
explained once, flow through time, divisions picked atomically).

solve() proves optimality with HiGHS (Huangfu & Hall 2018, shipped with
scipy): the conflicts enter as one row per maximal clique (Padberg 1973), the
LP relaxation of that form has been integral on every pipeline graph measured,
and HiGHS branch and bound runs only when it is not.  A feasible warm start (the
pipeline passes the greedy selection) is kept when nothing better is found,
so solve() is never worse than that start.  solve_greedy() repeatedly applies
the cheapest feasible extension and serves as the fast approximation.
solve_bruteforce() enumerates every assignment and anchors the tests.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .graph import TrackingGraph
from .io import FormatError, TrackRow, read_json_file, write_json_file

INSTANCE_SCHEMA_VERSION = 1
BRUTEFORCE_MAX_VARS = 24


@dataclass
class Rows:
    """The constraints as one sparse form.  Per entry: its row, its variable
    and its coefficient (+1 or -1), the entries grouped by row in row order;
    per row: its rhs and whether it is an equality (else <=)."""

    row: np.ndarray
    col: np.ndarray
    coef: np.ndarray
    rhs: np.ndarray
    is_eq: np.ndarray

    def __len__(self) -> int:
        return len(self.rhs)

    def tuples(self):
        """Each row as (indices, coeffs, sense, rhs) of plain ints, in row
        order: the form IlpInstance.from_rows takes."""
        starts = np.searchsorted(self.row, np.arange(len(self) + 1)).tolist()
        col, coef = self.col.tolist(), self.coef.tolist()
        for r, (rhs, eq) in enumerate(zip(self.rhs.tolist(), self.is_eq.tolist())):
            a, b = starts[r], starts[r + 1]
            yield col[a:b], coef[a:b], "==" if eq else "<=", rhs

    def feasible(self, x: np.ndarray) -> bool:
        """Whether the complete 0/1 assignment x satisfies every row."""
        vals = np.bincount(self.row, self.coef * x[self.col], minlength=len(self))
        eq = self.is_eq
        return bool((vals[eq] == self.rhs[eq]).all() and (vals[~eq] <= self.rhs[~eq]).all())

    def columns(self, n_vars: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The matrix column-wise: column starts, row per entry, coefficient
        per entry."""
        order = np.argsort(self.col, kind="stable")  # rows stay ascending
        starts = np.searchsorted(self.col[order], np.arange(n_vars + 1))
        return starts, self.row[order], self.coef[order].astype(np.float64)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per row its lower and upper bound as floats."""
        upper = self.rhs.astype(np.float64)
        return np.where(self.is_eq, upper, -np.inf), upper


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass
class IlpInstance:
    """min costs @ x over 0/1 vectors x that satisfy the constraint rows."""

    costs: np.ndarray
    constraints: Rows

    def __post_init__(self) -> None:
        self.costs = np.asarray(self.costs, dtype=np.float64)
        if self.costs.ndim != 1:
            raise ValueError("costs must be a 1-d array")

    @property
    def n_vars(self) -> int:
        return self.costs.shape[0]

    @classmethod
    def from_rows(cls, costs, rows) -> IlpInstance:
        """An instance from rows given as (indices, coeffs, sense, rhs), each
        checked: sense "<=" or "==", indices distinct integers naming
        variables, one coefficient per index, each +1 or -1, and an integer
        rhs.  Raises ValueError."""
        n = np.size(costs)
        row, col, coef, rhs, is_eq = [], [], [], [], []
        for r, (indices, coeffs, sense, b) in enumerate(rows):
            indices, coeffs = list(indices), list(coeffs)
            if sense not in ("<=", "=="):
                raise ValueError(f"unknown sense {sense!r}")
            if not indices or len(indices) != len(coeffs):
                raise ValueError("indices and coeffs must be non-empty and equal length")
            if not all(map(_is_int, [*indices, *coeffs, b])):
                raise ValueError("indices, coefficients and rhs must be integers")
            if any(c not in (-1, 1) for c in coeffs):
                raise ValueError("coefficients must be -1 or +1")
            if len(set(indices)) != len(indices):
                raise ValueError("repeated variable in constraint")
            if any(i < 0 or i >= n for i in indices):
                raise ValueError("constraint references unknown variable")
            row += [r] * len(indices)
            col += indices
            coef += coeffs
            rhs.append(b)
            is_eq.append(sense == "==")
        return cls(costs, Rows(
            np.array(row, dtype=np.intp), np.array(col, dtype=np.intp),
            np.array(coef, dtype=np.int8), np.array(rhs, dtype=np.int64),
            np.array(is_eq, dtype=bool),
        ))


@dataclass
class VarMap:
    """Variable layout: proposals first in (t, id) order, then the edges in
    graph order, so the edge block of a selection x is
    x[len(graph.proposals):]."""

    node_var: dict[int, int]


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

    Constraints, in order: at most one proposal of each maximal clique of
    the conflict graph is chosen, one row per clique in sorted order (the
    same selections as one row per conflicting pair, with a much tighter LP
    relaxation); each chosen proposal is explained by exactly one incoming
    edge; incoming flow equals outgoing flow, where a division counts once
    (its second daughter edge is excluded from the parent's outgoing sum);
    both edges of a division set are chosen together.  Within a row the
    incoming edges come first, in edge order, then the proposal or its
    outgoing edges.
    """
    node_var = {p.id: i for i, p in enumerate(graph.proposals)}
    n_props = len(graph.proposals)
    ins: list[tuple[int, int]] = []  # (proposal, edge variable) per edge into a proposal
    outs: list[tuple[int, int]] = []  # the same per edge out of a proposal
    set_edges: dict[int, dict[int, int]] = {}
    for v, e in enumerate(graph.edges, start=n_props):
        if e.kind not in ("enter", "move", "exit", "mitosis"):
            raise ValueError(f"unknown edge kind {e.kind!r}")
        if e.kind != "exit":
            ins.append((node_var[e.dst], v))
        # the second daughter edge does not count as outflow
        if e.kind in ("move", "exit") or (e.kind == "mitosis" and e.k == 1):
            outs.append((node_var[e.src], v))
        if e.kind == "mitosis":
            set_edges.setdefault(e.set_id, {})[e.k] = v

    cliques = _maximal_cliques((node_var[a], node_var[b]) for a, b in graph.conflicts)
    pairs = np.array([(s[1], s[2]) for s in map(set_edges.get, sorted(set_edges))], dtype=np.intp)
    in_at, in_var = np.array(ins, dtype=np.intp).reshape(-1, 2).T
    out_at, out_var = np.array(outs, dtype=np.intp).reshape(-1, 2).T
    bare = np.bincount(np.concatenate([in_at, out_at]), minlength=n_props) == 0
    if bare.any():  # its flow row would be empty
        raise ValueError(f"proposal {graph.proposals[int(np.argmax(bare))].id} has no edge")
    nodes = np.arange(n_props)
    # the first rows of the explanation, flow and division blocks
    explain = len(cliques)
    flow = explain + n_props
    divide = flow + n_props
    clique_rows = np.repeat(np.arange(explain), [len(c) for c in cliques])
    # (rows, variables, coefficient) per block; a stable sort by row keeps
    # each row's entries in block order
    blocks = [
        (clique_rows, [v for c in cliques for v in c], 1),
        (explain + in_at, in_var, 1),
        (explain + nodes, nodes, -1),
        (flow + in_at, in_var, 1),
        (flow + out_at, out_var, -1),
        (np.repeat(divide + np.arange(len(pairs)), 2), pairs.ravel(), np.tile([1, -1], len(pairs))),
    ]
    row = np.concatenate([np.asarray(r, dtype=np.intp) for r, _, _ in blocks])
    order = np.argsort(row, kind="stable")
    col = np.concatenate([np.asarray(c, dtype=np.intp) for _, c, _ in blocks])
    coef = np.concatenate([np.broadcast_to(k, np.shape(r)) for r, _, k in blocks]).astype(np.int8)
    is_eq = np.arange(divide + len(pairs)) >= explain  # clique rows are <= 1, the rest == 0
    rows = Rows(row[order], col[order], coef[order], (~is_eq).astype(np.int64), is_eq)

    costs = np.array(
        [graph.node_cost[p.id] for p in graph.proposals] + [e.cost for e in graph.edges],
        dtype=np.float64,
    )
    return IlpInstance(costs, rows), VarMap(node_var=node_var)


def _maximal_cliques(edges) -> list[tuple[int, ...]]:
    """Every maximal clique of the graph with the given edges, each as a
    sorted tuple, in sorted order; a vertex without an edge is in none.

    Bron-Kerbosch with a pivot: each call extends the clique r by the
    candidates p that are not neighbours of the pivot, the vertex of p | x
    with the most neighbours in p; x holds the vertices already tried.
    """
    adj: dict[int, set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    cliques: list[tuple[int, ...]] = []

    def extend(r: list[int], p: set[int], x: set[int]) -> None:
        if not p:
            if not x:
                cliques.append(tuple(sorted(r)))
            return
        pivot = max(sorted(p | x), key=lambda u: len(p & adj[u]))
        for v in sorted(p - adj[pivot]):
            extend(r + [v], p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    if adj:  # with no edge the empty clique would be the only maximal one
        extend([], set(adj), set())
    return sorted(cliques)


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
    for ci, (indices, coeffs, sense, rhs) in enumerate(instance.constraints.tuples()):
        val = sum(co * int(x[i]) for i, co in zip(indices, coeffs))
        ok = val <= rhs if sense == "<=" else val == rhs
        if not ok:
            out.append(f"constraint {ci}: value {val} violates {sense} {rhs}")
    return out


def solve_bruteforce(instance: IlpInstance, chunk_bits: int = 16) -> SolveResult:
    """Exhaustive enumeration; the returned optimum is the lexicographically
    smallest assignment (variable 0 is the lowest bit)."""
    t0 = time.monotonic()
    n = instance.n_vars
    if n > BRUTEFORCE_MAX_VARS:
        raise ValueError(f"brute force limited to {BRUTEFORCE_MAX_VARS} variables")
    rows = instance.constraints
    m = len(rows)
    # float64, so one BLAS product checks every row: the coefficients are
    # +-1 and n <= 24, so every row sum is a small integer, exact in float64
    A = np.zeros((m, n))
    A[rows.row, rows.col] = rows.coef
    rhs, is_eq = rows.rhs, rows.is_eq

    best_obj = np.inf
    best_code = -1
    total = 1 << n
    step = 1 << chunk_bits
    bits = np.arange(n, dtype=np.uint32)
    for start in range(0, total, step):
        count = min(step, total - start)
        codes = np.arange(start, start + count, dtype=np.uint32)
        X = ((codes[:, None] >> bits[None, :]) & 1).astype(np.float64)
        if m:
            vals = X @ A.T
            ok_le = (vals[:, ~is_eq] <= rhs[~is_eq]).all(axis=1)
            ok_eq = (vals[:, is_eq] == rhs[is_eq]).all(axis=1)
            feasible = ok_le & ok_eq
        else:
            feasible = np.ones(count, dtype=bool)
        obj = X @ instance.costs
        obj[~feasible] = np.inf
        j = int(np.argmin(obj))
        if obj[j] < best_obj:
            best_obj = float(obj[j])
            best_code = start + j
    runtime = time.monotonic() - t0
    if best_code < 0:
        return SolveResult("infeasible", None, None, None, None, total, runtime)
    x = ((best_code >> bits) & 1).astype(np.int8)
    # report the plain dot product so the value is bit-identical to what
    # solve() reports for the same assignment
    obj = float(instance.costs @ x)
    return SolveResult("optimal", x, obj, obj, 0.0, total, runtime)


# ---------------------------------------------------------------------------
# Exact selection with HiGHS

# An LP optimum that rounds to a feasible selection whose objective is within
# this relative distance of the LP value proves that selection optimal.
LP_CERTIFICATE_RTOL = 1e-9
# the names the backend reads from scipy's compiled HiGHS module
_HIGHS_NAMES = (
    "_Highs", "HighsLp", "HighsModelStatus", "HighsStatus", "MatrixFormat", "HighsVarType"
)
_highs_module = None  # the loaded module; False once loading it has failed


@dataclass
class _Run:
    """How one HiGHS run ended ("optimal", "infeasible", "time" or
    "stopped"), its point if it has one, the lower bound it proved, and its
    branch-and-bound nodes."""

    end: str
    x: np.ndarray | None
    bound: float
    nodes: int


def _highs_extension():
    """scipy's compiled HiGHS module, loaded by file path on first use, or
    None when this scipy has no usable one.

    Importing scipy.optimize to reach HiGHS costs about 20 MiB of peak
    memory; the compiled module alone costs about 2 MiB.  It is private scipy
    API, so the names the backend reads are checked, and the caller falls
    back to scipy.optimize.milp when this returns None.
    """
    global _highs_module
    if _highs_module is None:
        _highs_module = False
        import scipy

        stem = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy", "_core")
        suffixes = importlib.machinery.EXTENSION_SUFFIXES
        paths = [stem + s for s in suffixes if os.path.exists(stem + s)]
        if paths:
            spec = importlib.util.spec_from_file_location("scipy.optimize._highspy._core", paths[0])
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except ImportError:
                return None
            if all(hasattr(module, name) for name in _HIGHS_NAMES):
                _highs_module = module
    return _highs_module or None


def _run_extension(h, rows: Rows, costs: np.ndarray, integral: bool,
                   time_limit: float | None, max_nodes: int | None) -> _Run:
    """One run through scipy's compiled HiGHS module ``h``."""
    n, m = len(costs), len(rows)
    starts, index, value = rows.columns(n)
    lp = h.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.col_cost_ = costs
    lp.col_lower_ = np.zeros(n)
    lp.col_upper_ = np.ones(n)
    lp.row_lower_, lp.row_upper_ = rows.bounds()
    lp.a_matrix_.format_ = h.MatrixFormat.kColwise
    lp.a_matrix_.start_ = starts.astype(np.int32)
    lp.a_matrix_.index_ = index.astype(np.int32)
    lp.a_matrix_.value_ = value
    if integral:
        lp.integrality_ = [h.HighsVarType.kInteger] * n
    highs = h._Highs()
    # one thread and a fixed seed, so runs are deterministic
    options = {"output_flag": False, "threads": 1, "random_seed": 0,
               "mip_rel_gap": 0.0, "mip_abs_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if max_nodes is not None:
        options["mip_max_nodes"] = int(max_nodes)
    for name, v in options.items():
        if highs.setOptionValue(name, v) == h.HighsStatus.kError:
            raise RuntimeError(f"HiGHS rejected the option {name}={v!r}")
    if highs.passModel(lp) == h.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the selection problem")
    if highs.run() == h.HighsStatus.kError:
        # HiGHS keeps one thread pool per process, and a pool started with
        # another thread count (scipy.optimize's default) refuses threads=1
        # until it is reset
        h._Highs.resetGlobalScheduler(True)
        if highs.run() == h.HighsStatus.kError:
            raise RuntimeError("HiGHS failed to solve the selection problem")
    status, info, solution = highs.getModelStatus(), highs.getInfo(), highs.getSolution()
    s = h.HighsModelStatus
    if status == s.kOptimal:
        end = "optimal"
    elif status in (s.kInfeasible, s.kUnboundedOrInfeasible):
        end = "infeasible"
    else:
        end = "time" if status == s.kTimeLimit else "stopped"
    if integral:
        bound = info.mip_dual_bound
    else:
        bound = info.objective_function_value if end == "optimal" else -np.inf
    x = np.array(solution.col_value) if solution.value_valid else None
    return _Run(end, x, float(bound), max(0, info.mip_node_count) if integral else 0)


def _run_milp(rows: Rows, costs: np.ndarray, integral: bool,
              time_limit: float | None, max_nodes: int | None) -> _Run:
    """The same run through the public scipy.optimize.milp, which takes
    neither the absolute gap nor the thread and seed options."""
    from scipy.optimize import Bounds, milp
    from scipy.optimize import LinearConstraint as Constraint
    from scipy.sparse import csc_array

    n, m = len(costs), len(rows)
    options: dict = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if max_nodes is not None:
        options["node_limit"] = int(max_nodes)
    starts, index, value = rows.columns(n)
    matrix = csc_array((value, index, starts), shape=(m, n))
    res = milp(
        costs,
        integrality=np.full(n, int(integral)),
        bounds=Bounds(0.0, 1.0),
        constraints=[Constraint(matrix, *rows.bounds())] if m else [],
        options=options,
    )
    if res.status == 0:
        end = "optimal"
    elif res.status == 2:
        end = "infeasible"
    else:
        end = "time" if res.message.startswith("Time limit") else "stopped"
    if integral:
        bound = res.mip_dual_bound if res.mip_dual_bound is not None else -np.inf
    else:
        bound = res.fun if end == "optimal" else -np.inf
    nodes = res.mip_node_count if integral and res.mip_node_count is not None else 0
    return _Run(end, res.x, float(bound), max(0, nodes))


def _run_highs(rows: Rows, costs: np.ndarray, integral: bool,
               time_limit: float | None = None, max_nodes: int | None = None) -> _Run:
    """Solve min costs @ x over the rows with 0 <= x <= 1, as an LP or, when
    ``integral``, as a MILP with zero gap tolerances."""
    h = _highs_extension()
    if h is None:
        return _run_milp(rows, costs, integral, time_limit, max_nodes)
    return _run_extension(h, rows, costs, integral, time_limit, max_nodes)


def solve(
    instance: IlpInstance,
    *,
    start: np.ndarray | None = None,
    time_limit: float | None = None,
    max_nodes: int | None = None,
) -> SolveResult:
    """Exact selection with HiGHS over the whole instance in one call.

    The LP relaxation is solved first.  When its optimum rounds to a feasible
    selection whose objective meets the LP value, that selection is optimal
    and no branching runs (nodes is 0); with clique rows for the conflicts
    (see formulate) this has settled every pipeline graph measured.  Otherwise HiGHS
    branch and bound solves the same model with zero gap tolerances:
    max_nodes is its node limit, and time_limit (seconds) covers both steps.
    A run that hits the time limit sets timed_out.

    start is an optional warm start, a 0/1 vector over all variables (the
    pipeline passes the greedy selection).  It is a candidate incumbent when
    feasible and is ignored otherwise, so the result is never worse than a
    feasible start under any budget; on a tie the HiGHS selection is kept.
    The bound is the best proven lower bound (the sum of the negative costs
    at worst), clamped to the objective.
    """
    t0 = time.monotonic()
    n = instance.n_vars
    if start is not None:
        start = np.asarray(start)
        if start.shape != (n,) or not np.isin(start, (0, 1)).all():
            raise ValueError(f"start must be a 0/1 vector of length {n}")
        start = start.astype(np.int8)
    if n == 0:  # HiGHS reports an empty model as empty, not solved
        empty = np.zeros(0, dtype=np.int8)
        return SolveResult("optimal", empty, 0.0, 0.0, 0.0, 0, time.monotonic() - t0)
    rows = instance.constraints
    costs = instance.costs

    bound = float(np.minimum(costs, 0.0).sum())  # no 0/1 selection costs less
    x = None
    proven = False
    nodes = 0
    run = _run_highs(rows, costs, integral=False, time_limit=time_limit)
    if run.end == "optimal":
        bound = max(bound, run.bound)
        lp_x = np.rint(run.x).astype(np.int8)
        objective = float(costs @ lp_x)
        slack = LP_CERTIFICATE_RTOL * max(1.0, abs(objective))
        if rows.feasible(lp_x) and objective <= run.bound + slack:
            x, proven = lp_x, True
    if not proven and run.end in ("optimal", "stopped"):
        remaining = None if time_limit is None else max(0.0, time_limit - (time.monotonic() - t0))
        run = _run_highs(rows, costs, integral=True, time_limit=remaining, max_nodes=max_nodes)
        nodes = run.nodes
        bound = max(bound, run.bound)
        if run.x is not None:
            mip_x = np.rint(run.x).astype(np.int8)
            if rows.feasible(mip_x):
                x, proven = mip_x, run.end == "optimal"
    runtime = time.monotonic() - t0
    if run.end == "infeasible":
        return SolveResult("infeasible", None, None, None, None, nodes, runtime)
    if start is not None and rows.feasible(start) and (x is None or costs @ start < costs @ x):
        x = start
    timed_out = run.end == "time"
    if x is None:
        return SolveResult("unknown", None, None, bound, None, nodes, runtime, timed_out)
    objective = float(costs @ x)
    bound = min(bound, objective)
    status = "optimal" if proven else "feasible"
    return SolveResult(status, x, objective, bound, objective - bound, nodes, runtime, timed_out)


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
    exit_edge: dict[int, tuple[float, int]] = {}
    in_moves: dict[int, list[tuple[int, float, int]]] = {pid: [] for pid in node_cost}
    out_moves: dict[int, list[tuple[int, float, int]]] = {pid: [] for pid in node_cost}
    for i, e in enumerate(graph.edges):
        if e.kind == "enter":
            enter_edge[e.dst] = (e.cost, i)
        elif e.kind == "exit":
            exit_edge[e.src] = (e.cost, i)
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
                total = cost + exit_edge[pid][0]
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
                best = exit_edge[pid][0]
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
            best_cost = exit_edge[cur][0]
            best_next = None
            for dst, mcost, eidx in out_moves[cur]:
                d = tail.get(dst)
                if d is not None and mcost + d < best_cost:
                    best_cost = mcost + d
                    best_next = (dst, eidx)
            if best_next is None:
                chosen_edges.add(exit_edge[cur][1])
                chain_end_term[cur] = exit_edge[cur][1]
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
            chosen_edges.add(exit_edge[prev][1])
            chain_end_term[prev] = exit_edge[prev][1]
        else:
            s = best_div[1]
            parent_term = chain_end_term.pop(s.parent)
            chosen_edges.discard(parent_term)
            divided.add(s.parent)
            chosen_edges.add(set_edges[s.set_id][1])
            chosen_edges.add(set_edges[s.set_id][2])
            walk_tail(s.d1)
            walk_tail(s.d2)

    x = np.zeros(len(props) + len(graph.edges), dtype=np.int8)
    for pid in used:
        x[varmap.node_var[pid]] = 1
    edge_x = x[len(props):]
    edge_x[list(chosen_edges)] = 1
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
    End reasons are "exit" or "division".
    """
    x = np.asarray(x)
    selected = {pid for pid, vi in varmap.node_var.items() if x[vi] == 1}
    edge_x = x[len(graph.proposals):]
    by_id = graph.proposal_by_id()

    in_kind: dict[int, str] = {}
    move_next: dict[int, tuple[int, int]] = {}
    exits: set[int] = set()
    div_out: dict[int, list[int | None]] = {}  # parent pid -> [d1, d2]
    for i, e in enumerate(graph.edges):
        if edge_x[i] != 1:
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
        elif e.kind == "exit":
            if e.src in exits:
                raise ValueError(f"proposal {e.src} has two exit edges")
            exits.add(e.src)
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
        elif cur in exits:
            reason = "exit"
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
            {"indices": indices, "coeffs": coeffs, "sense": sense, "rhs": rhs}
            for indices, coeffs, sense, rhs in instance.constraints.tuples()
        ],
    }


def instance_from_json(obj: dict) -> IlpInstance:
    """The instance a document describes.  Costs must be JSON numbers and
    indices, coefficients and rhs JSON integers; anything else, like every
    other malformed part, raises FormatError."""
    try:
        costs = obj["costs"]
        if not isinstance(costs, list) or not all(
            isinstance(c, (int, float)) and not isinstance(c, bool) for c in costs
        ):
            raise ValueError("costs must be a list of numbers")
        rows = [(c["indices"], c["coeffs"], c["sense"], c["rhs"]) for c in obj["constraints"]]
        return IlpInstance.from_rows(np.array(costs, dtype=np.float64), rows)
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
