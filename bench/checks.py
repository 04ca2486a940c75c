"""Correctness checks made apart from the algorithms under test.

Each check recomputes what it verifies from the benchmark's own edge
arrays with plain numpy and ``math.fsum``, and raises ``CheckError`` on
the first violation. None of them calls into ``lamcc``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

FEAS_TOL = 1e-7  # HiGHS' default primal and dual feasibility tolerance
GAP_TOL = 1e-6
EXACT_TOL = 1e-9


class CheckError(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def edge_keys(edges: np.ndarray, n: int) -> np.ndarray:
    """Sorted pair keys u*n+v (u < v) of an (m, 2) edge array."""
    u, v = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64)
    return np.sort(np.minimum(u, v) * n + np.maximum(u, v))


def contains(sorted_keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    if sorted_keys.shape[0] == 0:
        return np.zeros(query.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, query), sorted_keys.shape[0] - 1)
    return sorted_keys[pos] == query


def pair_keys(pairs: Iterable[tuple[int, int]], n: int) -> np.ndarray:
    return np.sort(np.fromiter(
        (min(u, v) * n + max(u, v) for u, v in pairs), dtype=np.int64
    ))


# ---------------------------------------------------------------------------
# Graph and wedge index


def check_graph(n: int, ekeys: np.ndarray, g_n: int, degree, indices) -> None:
    """A CSR adjacency (as loaded) holds exactly the benchmark's own edges."""
    rows = np.repeat(np.arange(g_n, dtype=np.int64), degree)
    upper = np.asarray(indices) > rows
    keys = rows[upper] * g_n + np.asarray(indices)[upper]
    _require(g_n == n and np.array_equal(keys, ekeys),
             "the loaded graph differs from the edges written to its file")


def check_wedges(n: int, ekeys: np.ndarray, center, lo, hi, triangles: int) -> None:
    """Every listed wedge is open, and the counts satisfy
    |wedges| + 3|triangles| = sum over vertices of C(degree, 2)."""
    c, a, b = (np.asarray(x, dtype=np.int64) for x in (center, lo, hi))
    _require(bool(np.all(a < b)), "wedge ends are not ordered")
    legs = contains(ekeys, np.minimum(c, a) * n + np.maximum(c, a)) & contains(
        ekeys, np.minimum(c, b) * n + np.maximum(c, b))
    _require(bool(legs.all()), "a wedge leg is not an edge")
    _require(not contains(ekeys, a * n + b).any(), "a wedge is closed")
    deg = np.bincount(np.concatenate([ekeys // n, ekeys % n]), minlength=n)
    two_paths = int((deg * (deg - 1) // 2).sum())
    _require(c.shape[0] + 3 * triangles == two_paths,
             f"wedge/triangle counts {c.shape[0]}/{triangles} miss the "
             f"two-path identity ({two_paths})")


# ---------------------------------------------------------------------------
# Clusterings


def check_partition(assignment, n: int) -> np.ndarray:
    asg = np.asarray(assignment)
    _require(asg.shape == (n,), f"clustering covers {asg.shape[0]} of {n} vertices")
    _require(asg.dtype.kind in "iu" and bool(np.all(asg >= 0)),
             "cluster labels are not nonnegative integers")
    return asg.astype(np.int64)


def cc_objective(n: int, edges: np.ndarray, assignment, lam: float) -> float:
    """(1 - lam) * cut edges + lam * co-clustered non-edges."""
    asg = check_partition(assignment, n)
    m = int(edges.shape[0])
    internal = int(np.count_nonzero(asg[edges[:, 0]] == asg[edges[:, 1]]))
    sizes = np.bincount(asg).astype(object)
    inside = int(sum(s * (s - 1) // 2 for s in sizes))
    return (1.0 - lam) * (m - internal) + lam * (inside - internal)


def check_objective(reported: float, recomputed: float, what: str) -> None:
    _require(abs(reported - recomputed) <= EXACT_TOL * max(1.0, abs(recomputed)),
             f"{what}: reported objective {reported!r} != recomputed {recomputed!r}")


def check_ratios(ratios: list[float], limit: float, what: str) -> None:
    """Every ratio is at least 1 and their mean at most ``limit``."""
    _require(len(ratios) > 0, f"{what}: no ratios")
    low = min(ratios)
    _require(low >= 1.0 - EXACT_TOL, f"{what}: ratio {low!r} below 1")
    mean = math.fsum(ratios) / len(ratios)
    _require(mean <= limit, f"{what}: mean ratio {mean:.4f} above {limit:.4f}")


# ---------------------------------------------------------------------------
# Wedge-cover labeling and its dual


def wedge_pairs(keys3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pairs of the wedges, and each wedge slot's pair index."""
    uniq, inv = np.unique(keys3.ravel(), return_inverse=True)
    return uniq, inv


def check_cover_dual(pairs: tuple[np.ndarray, np.ndarray], ekeys: np.ndarray, lam: float,
                     y, lower_bound: float) -> None:
    """y >= 0; per pair, the y of the wedges holding it sum to at most its
    cost (one bincount); the bound is the fsum of y. ``pairs`` comes from
    ``wedge_pairs``."""
    uniq, inv = pairs
    y = np.asarray(y, dtype=float)
    _require(3 * y.shape[0] == inv.shape[0], "dual has the wrong length")
    _require(bool(np.all(y >= 0.0)), "negative wedge dual value")
    if y.shape[0]:
        load = np.bincount(inv, weights=np.repeat(y, 3), minlength=uniq.shape[0])
        cost = np.where(contains(ekeys, uniq), 1.0 - lam, lam)
        worst = float((load - cost).max())
        _require(worst <= EXACT_TOL, f"wedge dual overloads a pair by {worst:.3e}")
    total = math.fsum(y.tolist())
    _require(abs(total - lower_bound) <= EXACT_TOL * max(1.0, total),
             f"lower bound {lower_bound!r} != fsum of the dual {total!r}")


def check_labeling(keys3: np.ndarray, ekeys: np.ndarray, weak: np.ndarray,
                   missing: np.ndarray, lam: float, lower_bound: float) -> None:
    """Weak pairs are edges, missing pairs are not, every wedge holds a
    labeled pair, and the cost is at most 3 x the bound."""
    _require(bool(contains(ekeys, weak).all()), "a weak pair is not an edge")
    _require(not contains(ekeys, missing).any(), "a missing pair is an edge")
    labeled = np.union1d(weak, missing)
    covered = contains(labeled, keys3).any(axis=1)
    _require(bool(covered.all()),
             f"{int((~covered).sum())} wedges are not covered by the labeling")
    cost = (1.0 - lam) * weak.shape[0] + lam * missing.shape[0]
    _require(cost <= 3.0 * lower_bound + EXACT_TOL * max(1.0, cost),
             f"labeling cost {cost!r} above 3 x bound {lower_bound!r}")


# ---------------------------------------------------------------------------
# Linear programs


def check_covering_instance(keys3: np.ndarray, ekeys: np.ndarray, lam: float,
                            var_keys: np.ndarray, costs, rows) -> None:
    """One row per wedge holding the wedge's three pairs; costs by pair kind."""
    var_keys = np.asarray(var_keys, dtype=np.int64)
    rows = np.asarray(rows)
    _require(rows.shape == keys3.shape, "covering LP has the wrong row count")
    _require(bool(np.all(var_keys[rows] == keys3)), "a covering row is not its wedge")
    want = np.where(contains(ekeys, var_keys), 1.0 - lam, lam)
    _require(bool(np.array_equal(np.asarray(costs), want)), "covering costs are wrong")


def check_covering_solution(rows, costs, z, y, objective: float,
                            dual_objective: float | None = None,
                            gap_tol: float = GAP_TOL) -> None:
    """Primal feasible; y >= 0 with A^T y <= c; fsum gap below ``gap_tol``.

    Pass ``y=None`` to check the primal only.
    """
    rows = np.asarray(rows, dtype=np.int64)
    costs = np.asarray(costs, dtype=float)
    z = np.asarray(z, dtype=float)
    _require(bool(np.all((z >= -FEAS_TOL) & (z <= 1.0 + FEAS_TOL))), "z outside [0, 1]")
    ok = rows >= 0
    sums = np.where(ok, z[np.where(ok, rows, 0)], 0.0).sum(axis=1)
    _require(rows.shape[0] == 0 or float(sums.min()) >= 1.0 - FEAS_TOL,
             "a covering row is violated")
    primal = math.fsum((costs * z).tolist())
    _require(abs(primal - objective) <= EXACT_TOL * max(1.0, primal),
             f"reported LP value {objective!r} != c.z {primal!r}")
    if y is None:
        return
    y = np.asarray(y, dtype=float)
    _require(y.shape == (rows.shape[0],), "dual has the wrong length")
    _require(bool(np.all(y >= -FEAS_TOL)), "negative covering dual")
    load = np.bincount(rows[ok], weights=np.broadcast_to(y[:, None], rows.shape)[ok],
                       minlength=costs.shape[0])
    worst = float((load - costs).max()) if costs.shape[0] else 0.0
    _require(worst <= FEAS_TOL, f"covering dual overloads a variable by {worst:.3e}")
    dual = math.fsum(y.tolist())
    if dual_objective is not None:
        _require(abs(dual - dual_objective) <= GAP_TOL * max(1.0, dual),
                 f"reported dual {dual_objective!r} != fsum of y {dual!r}")
    _require(abs(primal - dual) <= gap_tol * (1.0 + abs(primal)),
             f"primal-dual gap {primal - dual:.3e}")


def violated_triples(n: int, keys: np.ndarray, x: np.ndarray, tol: float = EXACT_TOL):
    """All triples {i, j, k} with x_ik > x_ij + x_jk + tol, by a two-path scan.

    Pairs missing from ``keys`` have x = 1. A violation needs
    x_ij + x_jk < 1, so only two-paths through pairs below 1 are scanned.
    """
    order = np.argsort(keys)
    keys, x = np.asarray(keys)[order], np.asarray(x, dtype=float)[order]
    sub = x < 1.0 - 1e-12
    u, v, xs = keys[sub] // n, keys[sub] % n, x[sub]
    ends = np.concatenate([u, v])
    other = np.concatenate([v, u])
    vals = np.concatenate([xs, xs])
    by = np.argsort(ends, kind="stable")
    ends, other, vals = ends[by], other[by], vals[by]
    ptr = np.searchsorted(ends, np.arange(n + 1))
    found = set()
    for j in range(n):
        lo, hi = int(ptr[j]), int(ptr[j + 1])
        if hi - lo < 2:
            continue
        ii, kk = np.triu_indices(hi - lo, 1)
        a, b = other[lo:hi][ii], other[lo:hi][kk]
        q = np.minimum(a, b) * n + np.maximum(a, b)
        pos = np.minimum(np.searchsorted(keys, q), keys.shape[0] - 1)
        x_ik = np.where(keys[pos] == q, x[pos], 1.0)
        bad = x_ik > vals[lo:hi][ii] + vals[lo:hi][kk] + tol
        for s, t in zip(a[bad].tolist(), b[bad].tolist()):
            found.add(tuple(sorted((s, t, j))))
    return sorted(found)


def check_certificate(n: int, keys: np.ndarray, x: np.ndarray, certified: bool,
                      violations) -> None:
    """A certified solution has no violated triple; reported violations are real."""
    found = violated_triples(n, keys, x)
    if certified:
        _require(not found, f"certified, yet {len(found)} triples are violated")
    else:
        _require(sorted(map(tuple, violations)) == found,
                 "reported violations differ from the two-path scan")


def check_sandwich(lower: dict[str, float], opt: float, objectives: dict[str, float]) -> None:
    """Every lower bound <= OPT <= every objective."""
    for name, value in lower.items():
        _require(value <= opt + EXACT_TOL * max(1.0, opt),
                 f"{name} {value!r} above the optimum {opt!r}")
    for name, value in objectives.items():
        _require(opt <= value + EXACT_TOL * max(1.0, opt),
                 f"{name} objective {value!r} below the optimum {opt!r}")


def check_lp_values(covering: float, intermediate: float | None, highs: float | None,
                    mwu: float | None, epsilon: float) -> None:
    """covering <= intermediate; exact = HiGHS; exact <= MWU <= (1+eps) exact."""
    scale = max(1.0, abs(covering))
    if intermediate is not None:
        _require(covering <= intermediate + EXACT_TOL * scale,
                 f"covering LP {covering!r} above the intermediate LP {intermediate!r}")
    if highs is not None:
        _require(abs(covering - highs) <= GAP_TOL * scale,
                 f"exact {covering!r} and HiGHS {highs!r} disagree")
    if mwu is not None:
        _require(covering - FEAS_TOL * scale <= mwu
                 <= (1.0 + epsilon) * covering + EXACT_TOL * scale,
                 f"MWU value {mwu!r} outside [exact, (1+{epsilon}) exact] of {covering!r}")


def check_cli_records(records, expected, what: str) -> None:
    """CLI run records carry exactly the in-process (lambda, seed, objective, bound)."""
    got = [(r["lambda"], r["seed"], r["objective"], r["lower_bound"]) for r in records]
    _require(len(got) == len(expected),
             f"{what}: {len(got)} CLI records, {len(expected)} in-process runs")
    for g, e in zip(got, expected):
        _require(g == tuple(e), f"{what}: CLI record {g} != in-process {tuple(e)}")
