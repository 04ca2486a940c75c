"""Brute-force exact solvers for tiny instances.

These are the ground truth that every approximation bound in the test
suite is checked against, so they favor being obviously correct over
being clever:

* the clustering optimum enumerates every set partition (restricted
  growth strings, ascending), maintaining internal edge and pair counts
  incrementally;
* the labeling optimum does an exhaustive cost-bounded branch over which
  pair covers each open wedge (every feasible labeling contains such a
  choice, so the search space is complete), with an additive bound from
  pair-disjoint uncovered wedges for pruning;
* the all-triples LP optimum goes through the exact HiGHS engine, whose
  result passes the solver-independent certificate check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import Clustering
from .errors import SizeCapError
from .graph import Graph, WedgeIndex
from .lp import build_canonical_lp, build_lambda_stc_lp, solve_exact
from .stc import StcLabeling, _labeling_of_mask, check_lambda

__all__ = [
    "OracleResult",
    "exact_lambda_cc",
    "exact_lambda_cc_sweep",
    "exact_lambda_stc",
    "exact_canonical_lp",
]

MAX_PARTITION_N = 12
MAX_ACTIVE_PAIRS = 40
MAX_CANONICAL_N = 10


@dataclass(frozen=True)
class OracleResult:
    optimum: float
    witness: object
    enumerated_count: int


# ---------------------------------------------------------------------------
# Clustering optimum over all set partitions


def exact_lambda_cc(g: Graph, lam: float) -> OracleResult:
    """Global clustering optimum by full partition enumeration."""
    return exact_lambda_cc_sweep(g, [lam])[float(lam)]


def exact_lambda_cc_sweep(g: Graph, lams) -> dict[float, OracleResult]:
    """One partition scan evaluated at several lambda values at once.

    Each partition is characterized by its internal edge count and
    internal pair count, so all requested lambdas share the enumeration.
    """
    lams = [check_lambda(l) for l in lams]
    n = g.n
    if n > MAX_PARTITION_N:
        raise SizeCapError(f"partition enumeration capped at n={MAX_PARTITION_N}, got {n}")
    if n == 0:
        empty = Clustering(())
        return {l: OracleResult(0.0, empty, 1) for l in lams}
    adj_mask = [0] * n
    for u in range(n):
        for v in g.neighbors(u):
            adj_mask[u] |= 1 << int(v)
    m = g.m

    best: dict[float, tuple[float, tuple[int, ...]]] = {
        l: (float("inf"), ()) for l in lams
    }
    leaves = 0
    assignment = [0] * n
    cluster_mask = [0] * n
    cluster_size = [0] * n

    def rec(v: int, k: int, e_in: int, p_in: int) -> None:
        nonlocal leaves
        if v == n:
            leaves += 1
            for l in lams:
                obj = (1.0 - l) * (m - e_in) + l * (p_in - e_in)
                if obj < best[l][0]:
                    best[l] = (obj, tuple(assignment))
            return
        av = adj_mask[v]
        bit = 1 << v
        for c in range(k):
            add_e = (av & cluster_mask[c]).bit_count()
            add_p = cluster_size[c]
            assignment[v] = c
            cluster_mask[c] |= bit
            cluster_size[c] += 1
            rec(v + 1, k, e_in + add_e, p_in + add_p)
            cluster_mask[c] &= ~bit
            cluster_size[c] -= 1
        assignment[v] = k
        cluster_mask[k] = bit
        cluster_size[k] = 1
        rec(v + 1, k + 1, e_in, p_in)
        cluster_mask[k] = 0
        cluster_size[k] = 0

    rec(0, 0, 0, 0)
    return {
        l: OracleResult(val, Clustering(wit), leaves)
        for l, (val, wit) in best.items()
    }


# ---------------------------------------------------------------------------
# Labeling optimum


def _labeling_of(space, mask: int) -> StcLabeling:
    """The labeling of the variables whose bits are set in ``mask``."""
    chosen = np.array([(mask >> i) & 1 for i in range(space.size)], dtype=bool)
    return _labeling_of_mask(space.n, space.keys, space.edge_count, chosen)


def exact_lambda_stc(g: Graph, widx: WedgeIndex, lam: float) -> OracleResult:
    """Minimum-cost feasible labeling, found by exhaustive wedge branching.

    Only edges and wedge end pairs can profitably be labeled (anything
    else covers no wedge and has positive cost), so the search runs over
    that active-pair set; it is capped at ``MAX_ACTIVE_PAIRS`` pairs,
    which the branch search handles comfortably where plain subset
    enumeration could not.
    """
    lam = check_lambda(lam)
    space, inst = build_lambda_stc_lp(g, widx, lam)
    if space.size > MAX_ACTIVE_PAIRS:
        raise SizeCapError(
            f"labeling oracle capped at {MAX_ACTIVE_PAIRS} active pairs, "
            f"got {space.size}"
        )
    costs_l = inst.costs.tolist()
    wedge_masks = []
    wedge_pairs = []
    for row in inst.rows:
        ps = [int(i) for i in row if i >= 0]
        mask = 0
        for i in ps:
            mask |= 1 << i
        wedge_masks.append(mask)
        wedge_pairs.append(ps)
    W = len(wedge_masks)

    best_cost = float(sum(costs_l)) + 1.0
    best_mask = (1 << space.size) - 1
    nodes = 0

    def rec(chosen: int, excluded: int, cost: float) -> None:
        nonlocal best_cost, best_mask, nodes
        nodes += 1
        # pick the uncovered wedge with the fewest usable pairs;
        # accumulate an additive bound over pair-disjoint uncovered wedges
        pick = -1
        pick_avail: list[int] = []
        used = 0
        bound = cost
        for w in range(W):
            if wedge_masks[w] & chosen:
                continue
            avail = [p for p in wedge_pairs[w] if not (excluded >> p) & 1]
            if not avail:
                return  # some wedge can no longer be covered
            if pick < 0 or len(avail) < len(pick_avail):
                pick, pick_avail = w, avail
            if not (wedge_masks[w] & used):
                bound += min(costs_l[p] for p in avail)
                used |= wedge_masks[w]
        if pick < 0:
            if cost < best_cost:
                best_cost = cost
                best_mask = chosen
            return
        if bound >= best_cost:
            return
        ex = excluded
        for p in pick_avail:
            if cost + costs_l[p] < best_cost:
                rec(chosen | (1 << p), ex, cost + costs_l[p])
            ex |= 1 << p

    rec(0, 0, 0.0)
    return OracleResult(best_cost, _labeling_of(space, best_mask), nodes)


# ---------------------------------------------------------------------------
# Canonical LP optimum


def exact_canonical_lp(g: Graph, lam: float) -> OracleResult:
    """All-pairs, all-triples LP optimum via the exact HiGHS engine.

    enumerated_count reports HiGHS simplex iterations rather than candidates.
    """
    lam = check_lambda(lam)
    if g.n > MAX_CANONICAL_N:
        raise SizeCapError(f"canonical LP oracle capped at n={MAX_CANONICAL_N}, got {g.n}")
    res = solve_exact(build_canonical_lp(g, lam))
    return OracleResult(res.solution.objective, res.solution, res.iterations)
