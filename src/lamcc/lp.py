"""Relaxations of the clustering objective over wedge-restricted constraint sets.

Two linear programs are built here, both sharing the clustering objective
but constraining far fewer triples than the all-triples ("canonical")
relaxation:

* the covering LP: one constraint z_ij + z_jk + z_ik >= 1 per open wedge,
  in labeling orientation (z = 1 marks a pair weak/missing);
* the intermediate LP: triangle inequalities in distance orientation at
  every open wedge and, in all three rotations, at every triangle.

Only *active* pairs carry variables: every edge, plus every non-adjacent
wedge end pair. A non-adjacent pair with no common neighbor appears in no
constraint and has nonnegative cost, so fixing it at z = 0 (distance
x = 1) is optimal; this restriction is what keeps the programs small on
real graphs.

Pairs are int64 keys u*n + v (u < v) throughout: a variable space is one
key array and a solution is a sorted key array with an aligned value
array, so orientation flips, lookups and certification are vectorized.

Two solvers are provided: an exact one, scipy's HiGHS dual simplex loaded
without ``scipy.optimize``, and a combinatorial multiplicative-weights
solver that returns a (1+epsilon)-approximate solution certified against
its own dual bound. Every bound they return has passed
``lamcc.certificate``, which recomputes it from the program and the dual
alone.

``certify_canonical_feasibility`` checks whether a distance solution also
satisfies every all-triples triangle inequality; when it does, the wedge
LP value is simultaneously the canonical LP optimum.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from pathlib import Path

import numpy as np

from .certificate import check_primal, dual_bound, row_activity, verify_certificate
from .errors import InfeasibleSolutionError, MwuConvergenceError, ParameterError
from .graph import (
    Graph,
    WedgeIndex,
    _covering_layout,
    _key_pairs,
    _neighbor_pair_chunks,
    _rows_by_column,
)
from .stc import check_lambda

__all__ = [
    "PairVariableSpace",
    "CoveringInstance",
    "GeneralLp",
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
    "dump_covering_instance",
]

FEAS_TOL = 1e-9


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


@dataclass(frozen=True)
class CoveringInstance:
    """min costs.z subject to (sum of z over each row's variables) >= 1, 0 <= z <= 1.

    Rows hold up to three distinct variable indices, padded with -1.
    """

    space: PairVariableSpace
    lam: float
    costs: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        if np.any(self.costs <= 0):
            raise ParameterError("covering costs must be positive")
        if self.rows.size and (
            self.rows.shape[1] != 3 or self.rows.max() >= self.costs.shape[0]
        ):
            raise ParameterError("malformed constraint rows")

    @property
    def num_variables(self) -> int:
        return int(self.costs.shape[0])

    @property
    def num_constraints(self) -> int:
        return int(self.rows.shape[0])


@dataclass(frozen=True)
class GeneralLp:
    """min c.x + c0 subject to signed three-term rows >= 0 and 0 <= x <= 1.

    Row (a, b, c) of ``col_idx`` reads x[a] + x[b] - x[c] >= 0, so
    ``col_sign`` is one read-only (3,) array ``[1, 1, -1]`` for every row.
    """

    space: PairVariableSpace
    lam: float
    c: np.ndarray
    c0: float
    col_idx: np.ndarray  # (M, 3) variable indices
    col_sign: np.ndarray  # (3,) coefficients, the same in every row

    @property
    def num_variables(self) -> int:
        return int(self.c.shape[0])

    @property
    def num_constraints(self) -> int:
        return int(self.col_idx.shape[0])


@dataclass(frozen=True, eq=False)
class FractionalSolution:
    """Values over active pairs, in distance ('x') or labeling ('z') orientation.

    ``keys`` are the active pairs' int64 keys u*n + v (u < v), strictly
    increasing, and ``vals`` the aligned values; a pair not in ``keys`` is
    inactive and reads x = 1 (z = 0). Orientation flips negate non-edge
    values (z = 1 - x) and carry the objective through unchanged. A
    flipped solution holds the one it came from as ``source``, and
    flipping it back returns that object, so the round trip is
    bit-identical (1-(1-v) alone would not be).
    """

    orientation: str
    lam: float
    n: int
    keys: np.ndarray
    vals: np.ndarray
    objective: float
    source: "FractionalSolution | None" = field(default=None, repr=False)

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

    def value(self, u: int, v: int) -> float:
        if u > v:
            u, v = v, u
        return float(self.at(np.int64(u * self.n + v)))

    def _flipped(self, g: Graph, orientation: str) -> "FractionalSolution":
        if self.source is not None and self.source.orientation == orientation:
            return self.source
        vals = np.where(g.edge_mask(self.keys), self.vals, 1.0 - self.vals)
        return FractionalSolution(
            orientation, self.lam, self.n, self.keys, vals, self.objective, self
        )

    def to_x(self, g: Graph) -> "FractionalSolution":
        return self if self.orientation == "x" else self._flipped(g, "x")

    def to_z(self, g: Graph) -> "FractionalSolution":
        return self if self.orientation == "z" else self._flipped(g, "z")


@dataclass(frozen=True)
class SolveResult:
    """A solution plus the evidence that it is (near-)optimal."""

    solution: FractionalSolution
    dual: np.ndarray | None
    dual_objective: float
    engine: str
    iterations: int


# ---------------------------------------------------------------------------
# Builders


_TRIANGLE_SIGN = np.array([1.0, 1.0, -1.0])
_TRIANGLE_SIGN.setflags(write=False)


def _triangle_rows(
    space: PairVariableSpace, i: np.ndarray, j: np.ndarray, k: np.ndarray
) -> np.ndarray:
    """(T, 3, 3) variable indices of x_uv + x_vw >= x_uw at triangles i < j < k.

    Axis 1 is the choice of center v, in the order j, i, k.
    """
    n = space.n
    e_ij = space.indices_of_keys(i * n + j)
    e_ik = space.indices_of_keys(i * n + k)
    e_jk = space.indices_of_keys(j * n + k)
    return np.stack(
        [
            np.stack([e_ij, e_jk, e_ik], axis=1),  # center j
            np.stack([e_ij, e_ik, e_jk], axis=1),  # center i
            np.stack([e_ik, e_jk, e_ij], axis=1),  # center k
        ],
        axis=1,
    )


def build_lambda_stc_lp(
    g: Graph, widx: WedgeIndex, lam: float
) -> tuple[PairVariableSpace, CoveringInstance]:
    """Covering LP in labeling orientation: one constraint per open wedge."""
    lam = check_lambda(lam)
    keys, m, rows = _covering_layout(g, widx)
    space = PairVariableSpace(g.n, keys, m)
    costs = np.where(space.is_edge_mask(), 1.0 - lam, lam)
    return space, CoveringInstance(space, lam, costs, rows)


def build_intermediate_lp(g: Graph, widx: WedgeIndex, lam: float) -> GeneralLp:
    """Distance-orientation LP constrained at wedges and (all rotations of) triangles."""
    lam = check_lambda(lam)
    keys, m, rows = _covering_layout(g, widx)
    space = PairVariableSpace(g.n, keys, m)
    tri = _triangle_rows(
        space, *(t.astype(np.int64) for t in (widx.tri_i, widx.tri_j, widx.tri_k))
    )
    # the wedge rows, then all center-j, all center-i and all center-k rows
    col_idx = np.concatenate([rows, tri.transpose(1, 0, 2).reshape(-1, 3)])
    c, c0 = _distance_costs(space, lam)
    return GeneralLp(space, lam, c, c0, col_idx, _TRIANGLE_SIGN)


def build_canonical_lp(g: Graph, lam: float) -> GeneralLp:
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
    col_idx = _triangle_rows(space, ijk[:, 0], ijk[:, 1], ijk[:, 2]).reshape(-1, 3)
    c, c0 = _distance_costs(space, lam)
    return GeneralLp(space, lam, c, c0, col_idx, _TRIANGLE_SIGN)


def _distance_costs(space: PairVariableSpace, lam: float) -> tuple[np.ndarray, float]:
    is_edge = space.is_edge_mask()
    c = np.where(is_edge, 1.0 - lam, -lam)
    c0 = lam * float((~is_edge).sum())
    return c, c0


# ---------------------------------------------------------------------------
# Exact solvers


def _solution(
    space: PairVariableSpace,
    orientation: str,
    lam: float,
    v: np.ndarray,
    objective: float,
) -> FractionalSolution:
    """The solution whose variable-order values are ``v``, in key order.

    Adding 0.0 turns a signed zero from a solver or a grid snap into 0.0.
    """
    skeys, order = space._sorted_keys
    return FractionalSolution(
        orientation, lam, space.n, skeys, v[order] + 0.0, objective
    )


def _covering_solution(inst: CoveringInstance, z: np.ndarray) -> FractionalSolution:
    return _solution(inst.space, "z", inst.lam, z, float(inst.costs @ z))


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


def _solve_highs(
    space: PairVariableSpace,
    orientation: str,
    lam: float,
    c: np.ndarray,
    idx: np.ndarray,
    sign,
    b: float,
    u: float,
    c0: float = 0.0,
) -> SolveResult:
    """min c.x + c0 s.t. A x >= b, 0 <= x <= u, by HiGHS; verified before return.

    Row i of A holds ``sign[i]`` at the columns ``idx[i]`` (-1 pads); it
    goes to HiGHS as row-wise CSR. HiGHS runs with its defaults (dual
    simplex after presolve) and its log off. The returned primal is
    clipped to [0, 1], where every variable of these programs lies, and
    its value and the dual bound pass ``verify_certificate``.
    """
    h = _highs()
    M, N = idx.shape[0], c.shape[0]
    sign = np.broadcast_to(sign, idx.shape)
    ok = idx >= 0
    lp = h.HighsLp()
    lp.num_col_, lp.num_row_ = N, M
    lp.col_cost_ = c
    lp.col_lower_ = np.zeros(N)
    lp.col_upper_ = np.full(N, u)
    lp.row_lower_ = np.full(M, b)
    lp.row_upper_ = np.full(M, np.inf)
    a = lp.a_matrix_
    a.format_ = h.MatrixFormat.kRowwise
    a.num_col_, a.num_row_ = N, M
    a.start_ = np.concatenate([[0], np.cumsum(ok.sum(axis=1))])
    a.index_ = idx[ok]
    a.value_ = sign[ok]
    highs = h._Highs()
    highs.setOptionValue("output_flag", False)
    highs.passModel(lp)
    highs.run()
    status = highs.getModelStatus()
    if status not in (h.HighsModelStatus.kOptimal, h.HighsModelStatus.kModelEmpty):
        raise InfeasibleSolutionError(
            f"HiGHS solve failed: {highs.modelStatusToString(status)}"
        )
    sol = highs.getSolution()
    x = np.clip(np.asarray(sol.col_value, dtype=float), 0.0, 1.0)
    y = np.asarray(sol.row_dual, dtype=float)
    dual = verify_certificate(idx, sign, b, c, u, x, y, c0)
    return SolveResult(
        _solution(space, orientation, lam, x, float(c @ x) + c0),
        y,
        dual,
        "highs",
        max(highs.getInfo().simplex_iteration_count, 0),
    )


def solve_exact(inst: CoveringInstance) -> SolveResult:
    """Exact covering solve by HiGHS, with a verified dual.

    The z <= 1 bounds are left out of the program: with positive costs
    no optimum exceeds them (clamping a variable to 1 keeps every >= 1
    row satisfied and lowers cost), so the row duals are the whole dual.
    """
    return _solve_highs(inst.space, "z", inst.lam, inst.costs, inst.rows, 1.0, 1.0, np.inf)


solve_exact_sparse = solve_exact  # former name, kept for callers


def solve_general_exact(lp: GeneralLp) -> SolveResult:
    """Exact solve of an intermediate/canonical LP (distance form) by HiGHS.

    The x <= 1 bounds stay in the program; the verified dual bound counts
    their column duals through the reduced costs.
    """
    return _solve_highs(
        lp.space, "x", lp.lam, lp.c, lp.col_idx, lp.col_sign, 0.0, 1.0, lp.c0
    )


# ---------------------------------------------------------------------------
# Multiplicative-weights solver


MWU_BUDGET_CONSTANT = 24.0  # iteration budget ceil(24 ln(M+2) / epsilon^2)
MWU_ETA_START = 0.3  # first decay rate of the constraint potentials


def solve_mwu(inst: CoveringInstance, epsilon: float) -> SolveResult:
    """Combinatorial (1+epsilon)-approximate covering solve, certified or raised.

    The engine keeps a potential per constraint, repeatedly increments the
    most cost-effective variable under the current potentials, and decays
    the potentials of the constraints that variable covers by a factor
    1 - eta. The potentials are rescaled to a maximum of 1 and every
    variable's load is recomputed exactly after each step. Every few
    iterations it turns the potentials into a feasible dual by one greedy
    ascent, and the average play into a feasible primal by uniform
    scaling and greedy tightening. When the ratio of the two stops
    improving, eta halves down to max(epsilon/4, 1e-3) and the averaging
    window starts afresh.

    A result is returned only once it is certified: its primal passes
    ``lamcc.certificate.check_primal`` and its value is at most
    (1+epsilon) times ``dual_objective``, the bound of the returned dual
    as ``lamcc.certificate.dual_bound`` checks and sums it. If the
    iteration budget ceil(24 ln(M+2) / epsilon^2) ends first,
    MwuConvergenceError is raised with the best feasible iterate and its
    certified ratio (primal / dual bound).
    """
    if not (0.0 < epsilon < 1.0):
        raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    M, N = inst.num_constraints, inst.num_variables
    if M == 0:
        return SolveResult(
            _covering_solution(inst, np.zeros(N)), np.zeros(0), 0.0, "mwu", 0
        )
    costs = inst.costs.astype(float)
    budget = int(math.ceil(MWU_BUDGET_CONSTANT * math.log(M + 2) / epsilon**2))

    # the constraint matrix as a column -> rows index, and as COO in the
    # same order; each bincount over it adds a column's rows in ascending
    # order, as it would over the rows in row order
    row_ids, col_ptr = _rows_by_column(inst.rows, N)
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

    w = np.ones(M)
    bang = np.bincount(col_ids, weights=w[row_ids], minlength=N) / costs
    counts = np.zeros(N)
    coverage = np.zeros(M)

    def _ascend(y: np.ndarray) -> tuple[np.ndarray, float]:
        """Greedy dual ascent from a feasible (or downscaled) start."""
        y = y.copy()
        ly = np.bincount(col_ids, weights=y[row_ids], minlength=N)
        over = ly > costs
        if over.any():
            factor = float((costs[over] / ly[over]).min())
            y *= factor
            ly *= factor
        slack = costs - ly
        for r in np.argsort(-y):
            js = inst.rows[r]
            js = js[js >= 0]
            inc = float(slack[js].min())
            if inc > 0:
                y[r] += inc
                slack[js] -= inc
        return y, float(y.sum())

    def _reduce(
        z: np.ndarray, order: np.ndarray, quantum: float | None = None
    ) -> tuple[np.ndarray, float]:
        z = z.copy()
        sums = row_activity(inst.rows, 1.0, z)
        for j in order:
            if z[j] <= 0.0:
                continue
            rs = row_ids[col_ptr[j]:col_ptr[j + 1]]
            if rs.shape[0] == 0:  # in no row: nothing needs it
                z[j] = 0.0
                continue
            red = min(float(z[j]), float((sums[rs] - 1.0).min()))
            if quantum is not None:
                red = math.floor(red / quantum + 1e-12) * quantum
            if red > 0:
                z[j] -= red
                sums[rs] -= red
        return z, float(costs @ z)

    def _polished_primal() -> tuple[np.ndarray, float] | None:
        """Best of several tightenings of the scaled average play.

        Optima of these covering LPs often sit on small fractional grids
        (half- and third-integral points), which plain greedy reduction
        from the scaled average cannot reach; snapping the start upward
        onto a grid (feasibility-preserving) and reducing in grid steps
        can.
        """
        smin = coverage.min()
        if smin <= 0:
            return None
        z0 = np.minimum(counts / smin, 1.0)
        cands = [_reduce(z0, np.argsort(-costs * z0))]
        for denom in (2.0, 3.0):
            zg = np.minimum(np.ceil(z0 * denom - 1e-12) / denom, 1.0)
            cands.append(_reduce(zg, np.argsort(-costs * zg), quantum=1.0 / denom))
        return min(cands, key=lambda c: c[1])

    for t in range(1, budget + 1):
        j = int(np.argmax(bang))
        counts[j] += 1.0
        rs = row_ids[col_ptr[j]:col_ptr[j + 1]]
        w[rs] *= 1.0 - eta
        w /= w.max()
        coverage[rs] += 1.0
        bang = np.bincount(col_ids, weights=w[row_ids], minlength=N) / costs

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
                    coverage = np.zeros(M)
            check = min(int(check * 1.3) + 1, 256)

    z = np.clip(best_z, 0.0, 1.0)
    check_primal(inst.rows, 1.0, 1.0, 1.0, z)
    solution = _covering_solution(inst, z)
    bound = dual_bound(inst.rows, 1.0, 1.0, costs, np.inf, best_dual_vec)
    if not solution.objective <= (1.0 + epsilon) * bound:
        ratio = solution.objective / bound if bound > 0 else math.inf
        raise MwuConvergenceError(
            f"no (1+{epsilon:g}) certificate within {budget} iterations "
            f"(certified ratio {ratio:.4f})",
            best_solution=solution,
            certified_ratio=ratio,
        )
    return SolveResult(solution, best_dual_vec, bound, "mwu", t)


# ---------------------------------------------------------------------------
# Canonical feasibility certification


@dataclass(frozen=True)
class CertifyResult:
    certified: bool
    violations: list[tuple[int, int, int]]


def certify_canonical_feasibility(
    g: Graph, sol: FractionalSolution, *, tol: float = FEAS_TOL
) -> CertifyResult:
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

    def key(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.minimum(a, b) * n + np.maximum(a, b)

    # every two-path i - j - k (i < k) through pairs below 1
    sub = Graph.from_keys(n, x.keys[x.vals < 1.0 - 1e-12])
    found = [np.zeros((0, 3), dtype=np.int64)]
    for j, i, k in _neighbor_pair_chunks(sub):
        bad = x.at(i * n + k) > x.at(key(i, j)) + x.at(key(j, k)) + tol
        found.append(np.sort(np.stack([i[bad], j[bad], k[bad]], axis=1), axis=1))
    triples = [tuple(t) for t in np.unique(np.concatenate(found), axis=0).tolist()]
    return CertifyResult(not triples, triples)


# ---------------------------------------------------------------------------
# Serialization


def dump_covering_instance(inst: CoveringInstance) -> str:
    """Sparse text dump: header comments, then one constraint per line.

    Format (version 1):
        # covering-lp v1
        # vars <N> constraints <M>
        # cost <index> <value>        (one line per variable)
        <i> <j> <k>                   (variable indices, one row per line)
    """
    out = ["# covering-lp v1"]
    out.append(f"# vars {inst.num_variables} constraints {inst.num_constraints}")
    for i, cost in enumerate(inst.costs.tolist()):
        out.append(f"# cost {i} {cost!r}")
    for row in inst.rows:
        out.append(" ".join(str(int(i)) for i in row if i >= 0))
    return "\n".join(out) + "\n"
