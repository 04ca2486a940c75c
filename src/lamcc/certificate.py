"""Solver-independent checks of LP optimality certificates.

Every program this package bounds with has the form

    min c.x + c0  subject to  A x >= b,  0 <= x <= u,

where row i of A holds the coefficients ``sign[i]`` at the columns
``idx[i]`` (an index of -1 pads a short row), every row has the same
right side b and every column the same bound u, 1 or inf. A row dual
y >= 0 gives reduced costs r = c - A^T y, and weak duality makes

    b.y + sum_j min(r_j, 0) u_j + c0

a lower bound on every feasible primal value, provided r_j >= 0 wherever
u_j is infinite. The checks recompute that bound from (A, b, c, u, y)
alone and take it with ``math.fsum``, so a bound the package reports never
rests on a solver's own bookkeeping.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleSolutionError

__all__ = ["check_primal", "dual_bound", "row_activity", "verify_certificate"]

DUAL_TOL = 1e-7
PRIMAL_TOL = 1e-9
GAP_TOL = 1e-6


def row_activity(idx, sign, x) -> np.ndarray:
    """A x, row by row; ``sign`` may be a scalar."""
    return (sign * np.append(x, 0.0)[idx]).sum(axis=1)


def dual_bound(idx, sign, b, c, u, y, c0: float = 0.0, *, tol: float = DUAL_TOL) -> float:
    """The checked lower bound b.y + sum min(r, 0) u + c0 of a row dual y.

    ``b`` and ``u`` are scalars: every program here has one right side for
    all rows and one upper bound for all columns. ``sign`` may be a scalar.
    Raises InfeasibleSolutionError unless y >= -tol and, if u is infinite,
    r >= -tol.
    """
    c = np.asarray(c, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.shape != (idx.shape[0],):
        raise InfeasibleSolutionError(f"dual of shape {y.shape} for {idx.shape[0]} rows")
    live = np.flatnonzero(y != 0.0)  # rows with y = 0 add nothing to A^T y or b.y
    yl = y[live]
    if (yl < -tol).any():
        raise InfeasibleSolutionError(f"negative row dual {float(y.min()):.3e}")
    weights = np.broadcast_to(sign, idx.shape)[live] * yl[:, None]
    # pads (-1) count in bin 0; each column adds its rows in row order
    load = np.bincount(idx[live].ravel() + 1, weights=weights.ravel(), minlength=c.shape[0] + 1)
    r = load.astype(float, copy=False)[1:]  # int64 when no row has y != 0
    np.subtract(c, r, out=r)
    over, boxed = (r, r[:0]) if math.isinf(u) else (r[:0], np.minimum(r, 0.0) * u)
    if (over < -tol).any():
        raise InfeasibleSolutionError(f"dual overloads a column by {float(-over.min()):.3e}")
    return math.fsum((b * yl).tolist() + boxed.tolist() + [c0])


def check_primal(idx, sign, b, u, x) -> None:
    """Check that x satisfies 0 <= x <= u exactly and every row within 1e-9.

    ``sign``, ``b`` and ``u`` may be scalars. Raises InfeasibleSolutionError
    otherwise; a row violation names the first row that fails.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > u):
        raise InfeasibleSolutionError("primal value outside its bounds")
    short = b - row_activity(idx, sign, x)
    bad = np.flatnonzero(short > PRIMAL_TOL)
    if bad.size:
        raise InfeasibleSolutionError(
            f"primal violates a row by {short.max():.3e}, first row {bad[0]}"
        )


def verify_certificate(idx, sign, b, c, u, x, y, c0: float = 0.0) -> float:
    """Check a primal x and a row dual y of the program above; return the bound.

    ``b`` and ``u`` are scalars, as for ``dual_bound``. x must pass
    ``check_primal``, y must pass ``dual_bound``, and the primal value
    c.x + c0 must lie within 1e-6 (1 + |primal|) of the dual bound (both
    taken with ``math.fsum``). Raises InfeasibleSolutionError otherwise.
    """
    x = np.asarray(x, dtype=float)
    check_primal(idx, sign, b, u, x)
    primal = math.fsum(np.append(np.asarray(c, dtype=float) * x, c0).tolist())
    dual = dual_bound(idx, sign, b, c, u, y, c0)
    if abs(primal - dual) > GAP_TOL * (1.0 + abs(primal)):
        raise InfeasibleSolutionError(f"loose certificate (gap {primal - dual:.3e})")
    return dual
