"""Relaxations of the clustering objective over wedge-restricted constraint sets.

Three linear programs are built here, all of one type, ``LinearProgram``:
min costs.x + c0 subject to three-term signed rows >= b and 0 <= x <= u,
the form ``lamcc.certificate`` checks. The first two constrain far fewer
triples than the all-triples ("canonical") relaxation:

* the covering LP: one constraint z_ij + z_jk + z_ik >= 1 per open wedge,
  in labeling orientation (z = 1 marks a pair weak/missing);
* the intermediate LP: triangle inequalities x_a + x_b - x_c >= 0 in
  distance orientation at every open wedge and, in all three rotations,
  at every triangle;
* the canonical LP: those inequalities at every triple of an all-pairs
  variable space, the ground truth for small graphs.

A program's orientation, "z" (covering) or "x" (distance), fixes its
signs, right side and upper bound.

Only *active* pairs carry variables: every edge, plus every non-adjacent
wedge end pair. A non-adjacent pair with no common neighbor appears in no
constraint and has nonnegative cost, so fixing it at z = 0 (distance
x = 1) is optimal; this restriction is what keeps the programs small on
real graphs.

Pairs are int64 keys u*n + v (u < v) throughout: a variable space is one
key array and a solution is a sorted key array with an aligned value
array, so orientation flips, lookups and certification are vectorized.

Two solvers are provided: an exact one for every program, scipy's HiGHS
dual simplex loaded without ``scipy.optimize``, and a combinatorial
multiplicative-weights solver for covering programs that returns a
(1+epsilon)-approximate solution certified against its own dual bound.
Every bound they return has passed ``lamcc.certificate``, which
recomputes it from the program and the dual alone.

``certify_canonical_feasibility`` checks whether a distance solution also
satisfies every all-triples triangle inequality; when it does, the wedge
LP value is simultaneously the canonical LP optimum.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations
from pathlib import Path

import numpy as np

from .certificate import PRIMAL_TOL, check_primal, dual_bound, row_activity, verify_certificate
from .errors import InfeasibleSolutionError, MwuConvergenceError, ParameterError
from .graph import (
    Graph,
    WedgeIndex,
    _key_pairs,
    _neighbor_pair_chunks,
    _pair_keys,
    _rows_by_column,
    _sorted_unique,
    _triangle_rows,
)
from .stc import _local_ratio, _reduce, check_lambda

__all__ = [
    "PairVariableSpace",
    "LinearProgram",
    "FractionalSolution",
    "SolveResult",
    "build_lambda_stc_lp",
    "build_intermediate_lp",
    "build_canonical_lp",
    "solve_exact",
    "solve_exact_sparse",
    "solve_mwu",
    "solve_general_exact",
    "certify_canonical_feasibility",
]

@dataclass(frozen=True, eq=False)
class PairVariableSpace:
    """Ordered set of node pairs carrying LP variables.

    ``keys`` holds int64 pair keys u*n + v (u < v): edges first (sorted),
    then active non-edges (sorted); the position of a key is its variable
    index.
    """

    n: int
    keys: np.ndarray
    edge_count: int

    @cached_property
    def _sorted_keys(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self.keys)
        return self.keys[order], order

    @property
    def size(self) -> int:
        return int(self.keys.shape[0])

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The (u, v) pair of each variable, in variable order; built per call."""
        return tuple(_key_pairs(self.n, self.keys))

    def is_edge_mask(self) -> np.ndarray:
        mask = np.zeros(self.size, dtype=bool)
        mask[: self.edge_count] = True
        return mask

    def indices_of_keys(self, query: np.ndarray) -> np.ndarray:
        """Map encoded pair keys to variable indices (all must be active)."""
        skeys, order = self._sorted_keys
        pos = np.searchsorted(skeys, query)
        if np.any(pos >= skeys.shape[0]) or np.any(skeys[pos] != query):
            raise KeyError("query contains an inactive pair")
        return order[pos]


_TRIANGLE_SIGN = np.array([1.0, 1.0, -1.0])
_TRIANGLE_SIGN.setflags(write=False)
_FORMS = {"z": (1.0, 1.0, np.inf), "x": (_TRIANGLE_SIGN, 0.0, 1.0)}


@dataclass(frozen=True)
class LinearProgram:
    """min costs.x + c0 subject to (sign . x[row]) >= b per row and 0 <= x <= u.

    Rows hold three integer variable indices (int32 from ``build_*``); a
    covering row may pad with -1, and any other index below 0 or past the
    last variable, or a non-integer dtype, raises ParameterError. The
    orientation fixes the rest of the form, (sign, b, u) in ``_FORMS``:

    * "z", the covering program: sign 1, b = 1, u = inf, positive costs;
    * "x", a distance program: sign ``_TRIANGLE_SIGN`` (row (a, b, c)
      reads x[a] + x[b] - x[c] >= 0), b = 0, u = 1.
    """

    space: PairVariableSpace
    lam: float
    orientation: str
    costs: np.ndarray
    rows: np.ndarray
    c0: float = 0.0

    def __post_init__(self):
        if self.orientation == "z" and np.any(self.costs <= 0):
            raise ParameterError("covering costs must be positive")
        rows, N = self.rows, self.costs.shape[0]
        if rows.dtype.kind not in "iu":
            raise ParameterError(f"constraint rows must hold integer indices, got {rows.dtype}")
        if rows.size and (rows.ndim != 2 or rows.shape[1] != 3
                          or not -1 <= rows.min() <= rows.max() < N):
            raise ParameterError("malformed constraint rows")

    @property
    def sign(self) -> float | np.ndarray:
        return _FORMS[self.orientation][0]

    @property
    def b(self) -> float:
        return _FORMS[self.orientation][1]

    @property
    def u(self) -> float:
        return _FORMS[self.orientation][2]

    @property
    def num_variables(self) -> int:
        return int(self.costs.shape[0])

    @property
    def num_constraints(self) -> int:
        return int(self.rows.shape[0])


@dataclass(frozen=True, eq=False)
class FractionalSolution:
    """Values over active pairs, in distance ('x') or labeling ('z') orientation.

    ``keys`` are the active pairs' int64 keys u*n + v (u < v), strictly
    increasing, and ``vals`` the aligned values; a pair not in ``keys`` is
    inactive and reads x = 1 (z = 0). ``dual_objective`` is the checked
    lower bound of the solve that produced the solution (None for one built
    by hand). ``to_x`` flips non-edge values (x = 1 - z) and carries the
    objective and the bound through unchanged.
    """

    orientation: str
    lam: float
    n: int
    keys: np.ndarray
    vals: np.ndarray
    objective: float
    dual_objective: float | None = None

    def __post_init__(self):
        if self.keys.shape != self.vals.shape or np.any(np.diff(self.keys) <= 0):
            raise ParameterError(
                "solution keys must be strictly increasing and match the values"
            )

    @property
    def values(self) -> dict[tuple[int, int], float]:
        """``{(u, v): value}`` over the active pairs; built per call."""
        return dict(zip(_key_pairs(self.n, self.keys), self.vals.tolist()))

    def at(self, query: np.ndarray) -> np.ndarray:
        """Value at each queried pair key; inactive pairs read x = 1 (z = 0)."""
        default = 1.0 if self.orientation == "x" else 0.0
        if self.keys.shape[0] == 0:
            return np.full(np.shape(query), default)
        pos = np.minimum(np.searchsorted(self.keys, query), self.keys.shape[0] - 1)
        return np.where(self.keys[pos] == query, self.vals[pos], default)

    def to_x(self, g: Graph) -> "FractionalSolution":
        if self.orientation == "x":
            return self
        vals = np.where(g.edge_mask(self.keys), self.vals, 1.0 - self.vals)
        return replace(self, orientation="x", vals=vals)


@dataclass(frozen=True)
class SolveResult:
    """A solution plus the evidence that it is (near-)optimal."""

    solution: FractionalSolution
    dual: np.ndarray | None
    engine: str
    iterations: int

    @property
    def dual_objective(self) -> float:
        """The checked lower bound, as the solution carries it."""
        return self.solution.dual_objective


# ---------------------------------------------------------------------------
# Builders


def build_lambda_stc_lp(
    g: Graph, widx: WedgeIndex, lam: float
) -> tuple[PairVariableSpace, LinearProgram]:
    """Covering LP in labeling orientation: one constraint per open wedge."""
    lam = check_lambda(lam)
    keys, m, rows = widx.covering_layout
    space = PairVariableSpace(g.n, keys, m)
    costs = np.where(space.is_edge_mask(), 1.0 - lam, lam)
    return space, LinearProgram(space, lam, "z", costs, rows)


def build_intermediate_lp(g: Graph, widx: WedgeIndex, lam: float) -> LinearProgram:
    """Distance-orientation LP constrained at wedges and (all rotations of) triangles."""
    lam = check_lambda(lam)
    keys, m, _ = widx.covering_layout
    return _distance_lp(PairVariableSpace(g.n, keys, m), lam, widx.intermediate_rows)


def build_canonical_lp(g: Graph, lam: float) -> LinearProgram:
    """All-pairs, all-triples relaxation: 3 * C(n, 3) triangle inequalities.

    Exists as ground truth for the wedge-restricted programs; n is expected
    to be small.
    """
    lam = check_lambda(lam)
    n = g.n
    u, v = np.triu_indices(n, 1)
    all_keys = u.astype(np.int64) * n + v
    edge_keys = g.edge_keys()
    space = PairVariableSpace(
        n,
        np.concatenate([edge_keys, all_keys[~g.edge_mask(all_keys)]]),
        int(edge_keys.shape[0]),
    )
    ijk = np.array(list(combinations(range(n), 3)), dtype=np.int64).reshape(-1, 3)
    # the three rotations of each triple in turn
    rows = _triangle_rows(n, space.indices_of_keys, *ijk.T).reshape(-1, 3)
    return _distance_lp(space, lam, rows)


def _distance_lp(space: PairVariableSpace, lam: float, rows: np.ndarray) -> LinearProgram:
    """The distance program over ``rows``: a non-edge costs lam (1 - x), so -lam
    per variable plus lam per non-edge in the constant."""
    is_edge = space.is_edge_mask()
    costs = np.where(is_edge, 1.0 - lam, -lam)
    return LinearProgram(space, lam, "x", costs, rows, lam * float((~is_edge).sum()))


# ---------------------------------------------------------------------------
# Exact solvers


def _solution(lp: LinearProgram, v: np.ndarray, dual: float) -> FractionalSolution:
    """The solution of ``lp`` whose variable-order values are ``v``, in key
    order, with its value costs.v + c0 and the checked bound ``dual``.

    Adding 0.0 turns a signed zero from a solver or a grid snap into 0.0.
    """
    skeys, order = lp.space._sorted_keys
    return FractionalSolution(
        lp.orientation, lp.lam, lp.space.n, skeys, v[order] + 0.0,
        float(lp.costs @ v) + lp.c0, dual,
    )


def _highs():
    """scipy's compiled HiGHS core, loaded without importing ``scipy.optimize``.

    Importing ``scipy.optimize`` (and with it ``scipy.sparse``) adds about
    0.6 s to every process; the extension alone loads in about 0.02 s. It
    is registered in ``sys.modules`` under its package name, so a later
    ``import scipy.optimize`` shares this module object, and one imported
    earlier is reused here: the extension is never loaded twice.
    """
    name = "scipy.optimize._highspy._core"
    if name not in sys.modules:
        import scipy

        folder = Path(scipy.__file__).parent / "optimize" / "_highspy"
        found = [folder / f"_core{s}" for s in importlib.machinery.EXTENSION_SUFFIXES]
        found = [f for f in found if f.is_file()]
        if not found:
            raise ImportError(
                f"scipy {scipy.__version__} has no HiGHS core in {folder}; "
                "lamcc needs scipy>=1.15"
            )
        spec = importlib.util.spec_from_file_location(name, found[0])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[name]
            raise
    return sys.modules[name]


def solve_exact(lp: LinearProgram) -> SolveResult:
    """Exact solve of any program by HiGHS, with a verified dual.

    The rows go to HiGHS as row-wise CSR (-1 pads dropped). HiGHS runs
    with its defaults (dual simplex after presolve) and its log off. The
    returned primal is clipped to [0, 1], where every variable of these
    programs lies, and its value and the dual bound pass
    ``verify_certificate``.

    A covering program leaves its z <= 1 bounds out (u = inf): with
    positive costs no optimum exceeds them (clamping a variable to 1 keeps
    every >= 1 row satisfied and lowers cost), so the row duals are the
    whole dual. A distance program keeps x <= 1, and the verified bound
    counts those column duals through the reduced costs.
    """
    h = _highs()
    idx, c, b, u = lp.rows, lp.costs, lp.b, lp.u
    M, N = lp.num_constraints, lp.num_variables
    sign = np.broadcast_to(lp.sign, idx.shape)
    ok = idx >= 0
    model = h.HighsLp()
    model.num_col_, model.num_row_ = N, M
    model.col_cost_ = c
    model.col_lower_ = np.zeros(N)
    model.col_upper_ = np.full(N, u)
    model.row_lower_ = np.full(M, b)
    model.row_upper_ = np.full(M, np.inf)
    a = model.a_matrix_
    a.format_ = h.MatrixFormat.kRowwise
    a.num_col_, a.num_row_ = N, M
    a.start_ = np.concatenate([[0], np.cumsum(ok.sum(axis=1))])
    a.index_ = idx[ok]
    a.value_ = sign[ok]
    highs = h._Highs()
    highs.setOptionValue("output_flag", False)
    highs.passModel(model)
    highs.run()
    status = highs.getModelStatus()
    if status not in (h.HighsModelStatus.kOptimal, h.HighsModelStatus.kModelEmpty):
        raise InfeasibleSolutionError(
            f"HiGHS solve failed: {highs.modelStatusToString(status)}"
        )
    sol = highs.getSolution()
    x = np.clip(np.asarray(sol.col_value, dtype=float), 0.0, 1.0)
    y = np.asarray(sol.row_dual, dtype=float)
    dual = verify_certificate(idx, sign, b, c, u, x, y, lp.c0)
    return SolveResult(
        _solution(lp, x, dual), y, "highs", max(highs.getInfo().simplex_iteration_count, 0)
    )


# former names, kept for callers
solve_exact_sparse = solve_general_exact = solve_exact


# ---------------------------------------------------------------------------
# Multiplicative-weights solver


MWU_BUDGET_CONSTANT = 24.0  # iteration budget ceil(24 ln(M+2) / epsilon^2)
MWU_ETA_START = 0.3  # first decay rate of the constraint potentials


def _check_epsilon(epsilon: float) -> None:
    if not (0.0 < epsilon < 1.0):
        raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}")


def solve_mwu(lp: LinearProgram, epsilon: float) -> SolveResult:
    """Combinatorial (1+epsilon)-approximate covering solve, certified or raised.

    The engine keeps a potential per constraint, repeatedly increments the
    most cost-effective variable under the current potentials, and decays
    the potentials of the constraints that variable covers by a factor
    1 - eta. The potentials are rescaled to a maximum of 1 and every
    variable's load is recomputed exactly after each step. Every few
    iterations it scales the potentials into a feasible dual and ascends
    it by the labeling's local-ratio pass, rows by decreasing potential,
    and turns the average play into a feasible primal by uniform scaling
    and the minimality pass's greedy reduction. When the ratio stops
    improving, eta halves down to max(epsilon/4, 1e-3) and the averaging
    window starts afresh.

    A result is returned only once it is certified: its primal passes
    ``lamcc.certificate.check_primal`` and its value is at most
    (1+epsilon) times ``dual_objective``, the bound of the returned dual
    as ``lamcc.certificate.dual_bound`` checks and sums it. If the
    iteration budget ceil(24 ln(M+2) / epsilon^2) ends first,
    MwuConvergenceError is raised with the best feasible iterate and its
    certified ratio (primal / dual bound). A distance program raises
    ParameterError.
    """
    if lp.orientation != "z":
        raise ParameterError("the mwu engine solves covering programs only")
    _check_epsilon(epsilon)
    M, N = lp.num_constraints, lp.num_variables
    if np.any(np.all(lp.rows < 0, axis=1)):
        raise InfeasibleSolutionError("a covering row has no variable and reads 0 >= 1")
    if M == 0:
        return SolveResult(_solution(lp, np.zeros(N), 0.0), np.zeros(0), "mwu", 0)
    costs = lp.costs.astype(float)
    budget = int(math.ceil(MWU_BUDGET_CONSTANT * math.log(M + 2) / epsilon**2))

    # the constraint matrix as a column -> rows index, and as COO in the
    # same order; each bincount over it adds a column's rows in ascending
    # order, as it would over the rows in row order
    row_ids, col_ptr = _rows_by_column(lp.rows, N)
    col_ids = np.repeat(np.arange(N), np.diff(col_ptr))

    best_dual = 0.0
    best_dual_vec = np.zeros(M)
    best_primal = float(costs.sum())
    best_z = np.ones(N)

    eta_floor = max(epsilon / 4.0, 1e-3)
    eta = MWU_ETA_START
    check = 16
    stalled_checks = 0
    last_ratio = math.inf

    def load(v: np.ndarray) -> np.ndarray:  # A^T v
        return np.bincount(col_ids, weights=v[row_ids], minlength=N)

    w = np.ones(M)
    bang = load(w) / costs
    counts = np.zeros(N)

    def _ascend(y: np.ndarray) -> tuple[np.ndarray, float]:
        """Local-ratio pass from y scaled into the dual, rows by decreasing y
        (numpy's unstable default sort: its tie order fixes the result)."""
        ly = load(y)
        over = ly > costs
        if over.any():
            factor = float((costs[over] / ly[over]).min())
            y = y * factor
            ly *= factor
        order = np.argsort(-y)
        pos, vals, _ = _local_ratio(lp.rows, costs - ly, order)
        y[order[pos]] += vals
        return y, float(y.sum())

    def _tighten(z: np.ndarray, quantum: float | None = None) -> tuple[np.ndarray, float]:
        z = _reduce(lp.rows, row_ids, col_ptr, z, np.argsort(-costs * z), quantum)
        return z, float(costs @ z)

    def _polished_primal() -> tuple[np.ndarray, float] | None:
        """Best of several tightenings of the scaled average play.

        Optima of these covering LPs often sit on small fractional grids
        (half- and third-integral points), which plain greedy reduction
        from the scaled average cannot reach; snapping the start upward
        onto a grid (feasibility-preserving) and reducing in grid steps
        can.
        """
        smin = row_activity(lp.rows, 1.0, counts).min()
        if smin <= 0:
            return None
        z0 = np.minimum(counts / smin, 1.0)
        cands = [_tighten(z0)]
        for denom in (2.0, 3.0):
            zg = np.minimum(np.ceil(z0 * denom - 1e-12) / denom, 1.0)
            cands.append(_tighten(zg, quantum=1.0 / denom))
        return min(cands, key=lambda c: c[1])

    for t in range(1, budget + 1):
        j = int(np.argmax(bang))
        counts[j] += 1.0
        rs = row_ids[col_ptr[j]:col_ptr[j + 1]]
        w[rs] *= 1.0 - eta
        w /= w.max()
        bang = load(w) / costs

        if t % check == 0 or t == budget:
            y, d = _ascend(w / float(bang.max()))
            if d > best_dual:
                best_dual, best_dual_vec = d, y
            scaled = _polished_primal()
            if scaled is not None:
                z, p = scaled
                if p < best_primal:
                    best_primal, best_z = p, z
            if best_dual > 0 and best_primal <= (1.0 + epsilon) * best_dual:
                break
            ratio = best_primal / best_dual if best_dual > 0 else math.inf
            # only a material improvement counts as progress, otherwise
            # micro-movements of the dual would postpone annealing forever
            if ratio < last_ratio * (1.0 - epsilon / 8.0):
                stalled_checks = 0
                last_ratio = ratio
            else:
                stalled_checks += 1
                if stalled_checks >= 8 and eta > eta_floor:
                    stalled_checks = 0
                    eta = max(eta / 2.0, eta_floor)
                    # fresh averaging window for the new rate; the
                    # old window's burn-in would bias the average play
                    counts = np.zeros(N)
            check = min(int(check * 1.3) + 1, 256)

    z = np.clip(best_z, 0.0, 1.0)
    check_primal(lp.rows, lp.sign, lp.b, 1.0, z)
    bound = dual_bound(lp.rows, lp.sign, lp.b, costs, lp.u, best_dual_vec)
    solution = _solution(lp, z, bound)
    if not solution.objective <= (1.0 + epsilon) * bound:
        ratio = solution.objective / bound if bound > 0 else math.inf
        raise MwuConvergenceError(
            f"no (1+{epsilon:g}) certificate within {budget} iterations "
            f"(certified ratio {ratio:.4f})",
            best_solution=solution,
            certified_ratio=ratio,
        )
    return SolveResult(solution, best_dual_vec, "mwu", t)


# ---------------------------------------------------------------------------
# Canonical feasibility certification


@dataclass(frozen=True)
class CertifyResult:
    certified: bool
    violations: list[tuple[int, int, int]]


def certify_canonical_feasibility(g: Graph, sol: FractionalSolution) -> CertifyResult:
    """Check all-triples triangle inequalities against a distance solution.

    Inactive pairs take their default x = 1. Only triples with two
    sub-unit pairs at a shared vertex can violate (x_ik <= 1 always, so a
    violation x_ik > x_ij + x_jk needs x_ij + x_jk < 1, hence both below
    1), which reduces the scan from all n^3 triples to two-paths in the
    graph of sub-unit pairs. Violating triples are reported sorted
    ascending, each listed once however many of its rotations fail.

    When the result is certified, the solution is feasible for the
    all-triples relaxation, whose optimum both bounds and is bounded by
    the wedge-restricted value, so the solution's objective is also the
    canonical optimum.
    """
    x = sol.to_x(g)
    n = g.n
    # every two-path i - j - k (i < k) through pairs below 1
    sub = Graph.from_keys(n, x.keys[x.vals < 1.0 - 1e-12])
    found = [np.zeros((0, 3), dtype=np.int64)]
    for j, i, k in _neighbor_pair_chunks(sub):
        bad = x.at(i * n + k) > x.at(_pair_keys(n, i, j)) + x.at(_pair_keys(n, j, k)) + PRIMAL_TOL
        found.append(np.sort(np.stack([i[bad], j[bad], k[bad]], axis=1), axis=1))
    # (i, j, k) records sort like rows; np.unique(axis=0) would import numpy.ma
    triples = _sorted_unique(np.concatenate(found).view("i8,i8,i8")[:, 0]).tolist()
    return CertifyResult(not triples, triples)

