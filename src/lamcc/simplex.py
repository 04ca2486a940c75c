"""Dense two-phase simplex for small linear programs, with dual certificates.

Solves min c.x subject to G x >= h, x >= 0 on a dense numpy tableau.
Written for determinism and verifiability rather than speed: the pivot
rule is Dantzig's with an automatic permanent switch to Bland's rule after
a stall, which guarantees termination; the dual solution is read off the
surplus columns at optimality and the duality gap is checked before
returning, so every answer carries its own optimality certificate.

Intended for desk-scale instances (hundreds of rows/columns); callers
enforce their own size caps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimplexError

__all__ = ["LpSolution", "simplex_min"]


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    dual: np.ndarray
    objective: float
    iterations: int


def simplex_min(
    c: np.ndarray,
    G: np.ndarray,
    h: np.ndarray,
    *,
    c0: float = 0.0,
    tol: float = 1e-9,
    gap_tol: float = 1e-7,
    max_iterations: int | None = None,
) -> LpSolution:
    """Minimize c.x + c0 over {x : G x >= h, x >= 0}.

    Returns an optimal basic solution together with a feasible dual vector
    y (one value per row; y >= 0, G^T y <= c) whose objective h.y + c0
    matches the primal within gap_tol * (1 + |objective|).

    Raises SimplexError on infeasibility (impossible for the covering and
    box-constrained programs this package builds), unboundedness, a blown
    iteration budget, or a failed certificate check.
    """
    c = np.asarray(c, dtype=float)
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    M, N = G.shape
    if c.shape != (N,) or h.shape != (M,):
        raise ValueError("inconsistent LP dimensions")
    if max_iterations is None:
        max_iterations = 200 * (M + N + 10)

    # Standard form: rows with h <= 0 are negated so their slack (+1)
    # starts basic; rows with h > 0 keep a -1 surplus and get an
    # artificial variable for phase 1.
    flip = h <= 0.0
    A_rows = np.where(flip[:, None], -G, G)
    b = np.where(flip, -h, h)
    art_rows = np.flatnonzero(~flip)
    K = art_rows.shape[0]

    ncols = N + M + K
    T = np.zeros((M, ncols + 1))
    T[:, :N] = A_rows
    s_sign = np.where(flip, 1.0, -1.0)
    T[np.arange(M), N + np.arange(M)] = s_sign
    T[art_rows, N + M + np.arange(K)] = 1.0
    T[:, -1] = b

    basis = np.empty(M, dtype=np.int64)
    basis[flip] = N + np.flatnonzero(flip)
    basis[art_rows] = N + M + np.arange(K)

    state = _State(T, basis, tol, max_iterations)

    if K:
        c_phase1 = np.zeros(ncols)
        c_phase1[N + M:] = 1.0
        r1 = _reduced_costs(state, c_phase1)
        _optimize(state, r1, allow=np.ones(ncols, dtype=bool))
        obj1 = float(c_phase1[state.basis] @ state.T[:, -1])
        if obj1 > 1e-7:
            raise SimplexError(f"LP infeasible (phase-1 objective {obj1:.3e})")
        _evict_artificials(state, N + M)

    allow = np.ones(ncols, dtype=bool)
    allow[N + M:] = False  # artificials may not re-enter
    c_full = np.zeros(ncols)
    c_full[:N] = c
    r2 = _reduced_costs(state, c_full)
    _optimize(state, r2, allow=allow)

    x = np.zeros(ncols)
    x[state.basis] = state.T[:, -1]
    x_primal = x[:N]
    y = r2[N:N + M].copy()

    objective = float(c @ x_primal) + c0
    dual_objective = float(h @ y) + c0
    scale = 1.0 + abs(objective)
    if (
        np.any(y < -1e-7)
        or np.any(G.T @ y - c > 1e-7 * scale)
        or abs(objective - dual_objective) > gap_tol * scale
    ):
        raise SimplexError(
            "optimality certificate failed "
            f"(gap {objective - dual_objective:.3e})"
        )
    return LpSolution(x_primal, y, objective, state.iterations)


class _State:
    __slots__ = ("T", "basis", "tol", "max_iterations", "iterations", "bland")

    def __init__(self, T, basis, tol, max_iterations):
        self.T = T
        self.basis = basis
        self.tol = tol
        self.max_iterations = max_iterations
        self.iterations = 0
        self.bland = False


def _reduced_costs(state: _State, cost: np.ndarray) -> np.ndarray:
    r = cost.astype(float).copy()
    cb = cost[state.basis]
    nz = np.flatnonzero(cb)
    for i in nz:
        r -= cb[i] * state.T[i, :-1]
    return r


def _optimize(state: _State, r: np.ndarray, allow: np.ndarray) -> None:
    """Run pivots until no allowed column has negative reduced cost.

    ``r`` is updated in place and stays consistent with the tableau. The
    entering rule is Dantzig's; after 4(M+N)+50 consecutive degenerate
    pivots (minimum ratio <= tol) it permanently switches to Bland's
    smallest-index rule, which cannot cycle.
    """
    T, tol = state.T, state.tol
    M = T.shape[0]
    stall_limit = 4 * (M + r.shape[0]) + 50
    stall = 0
    while True:
        cand = np.flatnonzero(allow & (r < -tol))
        if cand.size == 0:
            return
        j = int(cand[0]) if state.bland else int(cand[np.argmin(r[cand])])

        col = T[:, j]
        pos = np.flatnonzero(col > tol)
        if pos.size == 0:
            raise SimplexError("LP is unbounded below")
        ratios = T[pos, -1] / col[pos]
        best = ratios.min()
        ties = pos[ratios <= best + 1e-12]
        # deterministic leaving rule: smallest basic-variable index
        i = int(ties[np.argmin(state.basis[ties])])

        _pivot(state, i, j, r)

        state.iterations += 1
        if state.iterations > state.max_iterations:
            raise SimplexError("simplex iteration budget exhausted")
        # a degenerate pivot (zero step) stays at the same vertex; a long
        # degenerate run means possible cycling, so fall back to Bland's
        # rule for good
        if best <= tol:
            stall += 1
            if stall > stall_limit:
                state.bland = True
        else:
            stall = 0


def _pivot(state: _State, i: int, j: int, r: np.ndarray) -> None:
    T = state.T
    piv = T[i, j]
    T[i, :] /= piv
    col = T[:, j].copy()
    col[i] = 0.0
    T -= np.outer(col, T[i, :])
    r -= r[j] * T[i, :-1]
    state.basis[i] = j


def _evict_artificials(state: _State, first_artificial: int) -> None:
    """Pivot zero-valued artificials out of the basis where possible.

    A row whose artificial cannot be evicted is linearly dependent on the
    others; zeroing it out is safe because its rhs is zero.
    """
    T, basis, tol = state.T, state.basis, state.tol
    for i in np.flatnonzero(basis >= first_artificial):
        row = T[i, :first_artificial]
        nz = np.flatnonzero(np.abs(row) > tol)
        if nz.size:
            j = int(nz[0])
            dummy = np.zeros(T.shape[1] - 1)
            _pivot(state, i, j, dummy)
        else:
            T[i, :] = 0.0
