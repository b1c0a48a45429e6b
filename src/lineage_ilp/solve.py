"""Exact and greedy solvers for the joint selection problem.

Tracking reduces to binary selection: one variable per proposal and per edge,
additive costs, and linear constraints with unit coefficients keeping the
selection consistent (no conflicting proposals, every selected proposal
explained once, flow through time, divisions picked atomically).

solve() proves optimality with HiGHS (Huangfu & Hall 2018, shipped with
scipy): the conflicts enter as one row per maximal clique (Padberg 1973), the
LP relaxation of that form has been integral on every pipeline graph measured,
and HiGHS branch and bound runs only when it is not.  A feasible warm start (the
pipeline passes the greedy selection under a time or node limit) is kept when
nothing better is found, so solve() is never worse than that start.  solve_greedy() repeatedly applies
the cheapest feasible extension and serves as the fast approximation.
solve_bruteforce() enumerates every assignment and anchors the tests.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .compiled import load_compiled
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
    """Variable layout: proposal i of the graph is variable i, and the edges
    follow in ``graph.edges`` order, so the edge block of a selection x is
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


def _edge_blocks(graph: TrackingGraph) -> tuple[int, int, int, int]:
    """The first variable of the enter, move, exit and division edge blocks:
    an enter edge per proposal, the moves, an exit edge per proposal, then
    the first and second daughter edge of each division set."""
    n, m = len(graph.proposals), len(graph.moves)
    return n, 2 * n, 2 * n + m, 3 * n + m


def _costs(graph: TrackingGraph) -> np.ndarray:
    """The cost of every variable, in variable order."""
    return np.concatenate([
        graph.node_cost, graph.enter_cost, graph.move_cost, graph.exit_cost,
        np.repeat(graph.mitosis_cost, 2),
    ])


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
    n, m, s = len(graph.proposals), len(graph.moves), len(graph.mitosis_sets)
    enter, move, exit_, divide_var = _edge_blocks(graph)
    nodes, moves, halves = np.arange(n), np.arange(m), np.arange(2 * s)
    src, dst = graph.moves.T
    # (proposal, edge variable) per edge into and out of a proposal, in edge
    # order; the second daughter edge does not count as outflow
    in_at = np.concatenate([nodes, dst, graph.mitosis_sets[:, 1:].ravel()])
    in_var = np.concatenate([enter + nodes, move + moves, divide_var + halves])
    out_at = np.concatenate([src, nodes, graph.mitosis_sets[:, 0]])
    out_var = np.concatenate([move + moves, exit_ + nodes, divide_var + halves[::2]])

    cliques = _maximal_cliques(graph.conflicts.tolist())
    # the first rows of the explanation, flow and division blocks
    explain = len(cliques)
    flow = explain + n
    divide = flow + n
    clique_rows = np.repeat(np.arange(explain), [len(c) for c in cliques])
    # (rows, variables, coefficient) per block; a stable sort by row keeps
    # each row's entries in block order
    blocks = [
        (clique_rows, [v for c in cliques for v in c], 1),
        (explain + in_at, in_var, 1),
        (explain + nodes, nodes, -1),
        (flow + in_at, in_var, 1),
        (flow + out_at, out_var, -1),
        (np.repeat(divide + np.arange(s), 2), divide_var + halves, np.tile([1, -1], s)),
    ]
    row = np.concatenate([np.asarray(r, dtype=np.intp) for r, _, _ in blocks])
    order = np.argsort(row, kind="stable")
    col = np.concatenate([np.asarray(c, dtype=np.intp) for _, c, _ in blocks])
    coef = np.concatenate([np.broadcast_to(k, np.shape(r)) for r, _, k in blocks]).astype(np.int8)
    is_eq = np.arange(divide + s) >= explain  # clique rows are <= 1, the rest == 0
    rows = Rows(row[order], col[order], coef[order], (~is_eq).astype(np.int64), is_eq)
    node_var = {p.id: i for i, p in enumerate(graph.proposals)}
    return IlpInstance(_costs(graph), rows), VarMap(node_var=node_var)


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
            p.remove(v)  # p and x are this call's own sets
            x.add(v)

    if adj:  # with no edge the empty clique would be the only maximal one
        extend([], set(adj), set())
    return sorted(cliques)


def objective_value(instance: IlpInstance, x: np.ndarray) -> float:
    return float(instance.costs @ np.asarray(x, dtype=np.float64))


def check_solution(instance: IlpInstance, x: np.ndarray) -> list[str]:
    """Independent feasibility check; returns human-readable violations.

    Every row's value comes from one ``bincount`` over the constraint
    entries, computed here and not by the solvers' own ``Rows.feasible``;
    each violated row is named with its value, sense and rhs, in row
    order."""
    x = np.asarray(x)
    if x.shape != (instance.n_vars,):
        return [f"solution length {x.shape} does not match {instance.n_vars} variables"]
    if not np.isin(x, (0, 1)).all():
        return ["solution contains non-binary entries"]
    rows = instance.constraints
    picked = x.astype(np.int64)[rows.col]
    vals = np.bincount(rows.row, weights=rows.coef * picked, minlength=len(rows)).astype(np.int64)
    bad = np.flatnonzero(np.where(rows.is_eq, vals != rows.rhs, vals > rows.rhs))
    return [
        f"constraint {ci}: value {val} violates {'==' if eq else '<='} {rhs}"
        for ci, val, eq, rhs in zip(
            bad.tolist(), vals[bad].tolist(), rows.is_eq[bad].tolist(), rows.rhs[bad].tolist()
        )
    ]


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
    """scipy's compiled HiGHS module, loaded on first use (see ``compiled``),
    or None when this scipy has no usable one: the caller then falls back to
    scipy.optimize.milp."""
    global _highs_module
    if _highs_module is None:
        _highs_module = load_compiled("optimize._highspy._core", _HIGHS_NAMES) or False
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


def solve_greedy(graph: TrackingGraph) -> SolveResult:
    """Repeated cheapest extension: whole tracks first, then divisions.

    Each iteration compares the best source-to-sink chain over unused,
    unblocked proposals against the best division graft onto an already
    selected track, applying whichever lowers the objective more.  Stops when
    nothing is negative.  The result is always feasible; its objective is an
    upper bound for the exact solver's.  Ties go to the chain; among chains
    to the last proposal first in graph order, and within a chain to the
    enter edge, then to the move first in graph order; among divisions to the
    parent with the lowest id, then to the set first in graph order.  The
    selection is laid out as ``formulate`` lays out the variables.
    """
    t0 = time.monotonic()
    n = len(graph.proposals)
    enter, move, exit_, divide = _edge_blocks(graph)
    ids = [p.id for p in graph.proposals]
    node_cost, exit_cost = graph.node_cost.tolist(), graph.exit_cost.tolist()
    start_cost = (graph.enter_cost + graph.node_cost).tolist()
    # per proposal its moves in and out as (other end, cost, move), in graph
    # order: by source, then destination, both in the same frame by index
    into: list[list[tuple[int, float, int]]] = [[] for _ in range(n)]
    out: list[list[tuple[int, float, int]]] = [[] for _ in range(n)]
    move_src = graph.moves[:, 0].tolist()
    for j, ((a, b), c) in enumerate(zip(graph.moves.tolist(), graph.move_cost.tolist())):
        into[b].append((a, c, j))
        out[a].append((b, c, j))
    sets_of: list[list[int]] = [[] for _ in range(n)]  # division sets by parent
    for k, parent in enumerate(graph.mitosis_sets[:, 0].tolist()):
        sets_of[parent].append(k)
    sets, half = graph.mitosis_sets.tolist(), graph.mitosis_cost.tolist()
    rivals: list[list[int]] = [[] for _ in range(n)]
    for a, b in graph.conflicts.tolist():
        rivals[a].append(b)
        rivals[b].append(a)
    conflicting = set(map(tuple, graph.conflicts.tolist()))

    available = [True] * n
    used = np.zeros(n, dtype=bool)
    chosen: set[int] = set()  # selected edge variables
    tails: set[int] = set()  # the last proposal of each selected track that exits

    def claim(i: int) -> None:
        available[i] = False
        used[i] = True
        for other in rivals[i]:
            available[other] = False

    def best_chain() -> tuple[float, list[tuple[int, int]]]:
        """The cheapest chain over available proposals and its (proposal,
        move into it or -1) steps; inf and no steps when none is left."""
        dist = [np.inf] * n
        how = [-1] * n
        best, end = np.inf, -1
        for i in range(n):  # frames in order, each proposal after its sources
            if not available[i]:
                continue
            cost = start_cost[i]
            for a, c, j in into[i]:
                if dist[a] + c + node_cost[i] < cost:
                    cost = dist[a] + c + node_cost[i]
                    how[i] = j
            dist[i] = cost
            if cost + exit_cost[i] < best:
                best, end = cost + exit_cost[i], i
        steps = []
        while end >= 0:
            steps.append((end, how[end]))
            end = -1 if how[end] < 0 else move_src[how[end]]
        return best, steps[::-1]

    def tail_costs() -> list[float]:
        """Per available proposal the cheapest way to finish a track from
        it, inf for the others."""
        tail = [np.inf] * n
        for i in reversed(range(n)):
            if available[i]:
                best = exit_cost[i]
                for b, c, _ in out[i]:
                    if c + tail[b] < best:
                        best = c + tail[b]
                tail[i] = node_cost[i] + best
        return tail

    def walk_tail(i: int) -> None:
        """Claim a chain from i, taking the cheapest continuation at every
        step.  A claim changes no tail cost past its own frame, so one
        computation serves the whole walk."""
        claim(i)
        tail = tail_costs()
        while True:
            best, step = exit_cost[i], None
            for b, c, j in out[i]:
                if c + tail[b] < best:
                    best, step = c + tail[b], (b, j)
            if step is None:
                chosen.add(exit_ + i)
                tails.add(i)
                return
            i, j = step
            chosen.add(move + j)
            claim(i)

    actions = 0
    while True:
        chain_cost, steps = best_chain()
        tail = None
        best_div, div = np.inf, -1
        for parent in sorted(tails, key=ids.__getitem__):
            for k in sets_of[parent]:
                _, d1, d2 = sets[k]
                if not (available[d1] and available[d2]) or (d1, d2) in conflicting:
                    continue
                tail = tail or tail_costs()
                delta = -exit_cost[parent] + half[k] + half[k] + tail[d1] + tail[d2]
                if delta < best_div:
                    best_div, div = delta, k
        if not (min(chain_cost, best_div) < 0.0):
            break
        actions += 1
        if chain_cost <= best_div:
            for i, j in steps:
                chosen.add(enter + i if j < 0 else move + j)
                claim(i)
            chosen.add(exit_ + steps[-1][0])
            tails.add(steps[-1][0])
        else:
            parent, d1, d2 = sets[div]
            tails.remove(parent)
            chosen.discard(exit_ + parent)
            chosen.update((divide + 2 * div, divide + 2 * div + 1))
            walk_tail(d1)
            walk_tail(d2)

    costs = _costs(graph)
    x = np.zeros(len(costs), dtype=np.int8)
    x[:n] = used
    x[sorted(chosen)] = 1
    return SolveResult("feasible", x, float(costs @ x), None, None, actions, time.monotonic() - t0)


# ---------------------------------------------------------------------------
# Lineage extraction


@dataclass
class Lineage:
    tracks: list[TrackRow] = field(default_factory=list)
    members: dict[int, list[int]] = field(default_factory=dict)
    end_reason: dict[int, str] = field(default_factory=dict)


def extract_lineage(graph: TrackingGraph, x: np.ndarray) -> Lineage:
    """Turn a feasible selection, laid out as ``formulate`` lays out the
    variables, into tracks with parent links.

    Track ids are assigned in order of (birth frame, first proposal id).
    End reasons are "exit" or "division".
    """
    n, s = len(graph.proposals), len(graph.mitosis_sets)
    enter, move, exit_, divide = _edge_blocks(graph)
    on = np.asarray(x) == 1
    nodes, (src, dst), sets = np.arange(n), graph.moves.T, graph.mitosis_sets
    selected = on[:n]
    enters, moves, exits = on[enter:move], on[move:exit_], on[exit_:divide]
    halves = on[divide:].reshape(s, 2)
    divides = halves[:, 0] & halves[:, 1]
    ids = [p.id for p in graph.proposals]

    def refuse(bad: np.ndarray, at: np.ndarray, message: str) -> None:
        if bad.any():
            raise ValueError(message.format(ids[int(at[np.argmax(bad)])]))

    for kind, edge_on, ends in (
        ("enter", enters, nodes), ("move", moves, src), ("move", moves, dst),
        ("exit", exits, nodes), ("mitosis", halves.any(axis=1), sets[:, 0]),
        ("mitosis", halves[:, 0], sets[:, 1]), ("mitosis", halves[:, 1], sets[:, 2]),
    ):
        refuse(edge_on & ~selected[ends], ends, f"selected {kind} edge touches unselected proposal {{}}")
    refuse(halves[:, 0] != halves[:, 1], sets[:, 0], "division at {} is missing a daughter edge")
    refuse(np.bincount(src[moves], minlength=n) > 1, nodes, "proposal {} has two outgoing moves")
    daughters = sets[divides, 1:].ravel()
    incoming = enters + np.bincount(np.concatenate([dst[moves], daughters]), minlength=n)
    refuse(incoming > 1, nodes, "proposal {} has more than one incoming edge")
    refuse(selected & (incoming == 0), nodes, "selected proposal {} has no incoming edge")

    move_next = dict(zip(src[moves].tolist(), dst[moves].tolist()))
    parent_of = dict(zip(daughters.tolist(), np.repeat(sets[divides, 0], 2).tolist()))
    dividing = set(sets[divides, 0].tolist())
    lineage = Lineage()
    track_of: dict[int, int] = {}
    # proposals are in (t, id) order, so track starts come in (birth, id) order
    starts = np.flatnonzero(enters | np.isin(nodes, daughters)).tolist()
    for track_id, start in enumerate(starts, start=1):
        members = [start]
        while members[-1] in move_next:
            members.append(move_next[members[-1]])
        cur = members[-1]
        if cur in dividing:
            reason = "division"
        elif exits[cur]:
            reason = "exit"
        else:
            raise ValueError(f"track ending at {ids[cur]} has no terminal edge")
        track_of.update(dict.fromkeys(members, track_id))
        lineage.members[track_id] = [ids[i] for i in members]
        lineage.end_reason[track_id] = reason
        parent = track_of[parent_of[start]] if start in parent_of else 0
        lineage.tracks.append(TrackRow(
            label=track_id, birth=graph.proposals[start].t, end=graph.proposals[cur].t, parent=parent,
        ))
    return lineage


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
