"""Parameterized triadic-closure edge labeling.

A labeling marks some edges *weak* and some non-adjacent pairs *missing*
so that every open wedge (i, j, k) is covered: one of its two edges is
weak or its end pair is missing. With resolution parameter lam in (0, 1),
a weak edge costs 1-lam and a missing pair costs lam; the goal is a
minimum-cost feasible labeling.

``cover_label`` is a deterministic 3-approximation: it sweeps the wedges
in canonical order, maintaining a residual budget per node pair
(initially 1-lam on edges, lam on non-edges). For each wedge it subtracts
the minimum residual among the wedge's three pairs from all three; pairs
driven to zero become weak/missing. The per-wedge subtractions form a
feasible dual of the covering relaxation, so their sum is a certified
lower bound on the optimal labeling cost (and on the optimal clustering
cost, see ``lamcc.cluster``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .certificate import dual_bound
from .errors import InvalidLabelingError, ParameterError
from .graph import Graph, WedgeIndex, pair_key

__all__ = [
    "check_lambda",
    "pair_cost",
    "StcLabeling",
    "DualCertificate",
    "StcRegime",
    "stc_objective",
    "is_feasible",
    "cover_label",
    "stc_regime",
]

RESIDUAL_ZERO_TOL = 1e-12


def check_lambda(lam: float) -> float:
    """Validate the resolution parameter: a real strictly inside (0, 1)."""
    lam = float(lam)
    if not (0.0 < lam < 1.0):
        raise ParameterError(f"lambda must lie in (0, 1), got {lam}")
    return lam


def pair_cost(lam: float, is_edge: bool) -> float:
    """Labeling cost of a pair: 1-lam for an edge, lam for a non-edge.

    These are the same weights the clustering objective assigns to
    separating an edge / merging a non-edge, which is what ties the two
    problems together.
    """
    return 1.0 - lam if is_edge else lam


@dataclass(frozen=True)
class StcLabeling:
    """A (weak edges, missing pairs) labeling. Pairs are stored (u, v), u < v."""

    weak: frozenset[tuple[int, int]]
    missing: frozenset[tuple[int, int]]

    @staticmethod
    def normalize(pairs) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) if u < v else (v, u) for u, v in pairs)

    def cost(self, lam: float) -> float:
        return (1.0 - lam) * len(self.weak) + lam * len(self.missing)


EMPTY_LABELING = StcLabeling(frozenset(), frozenset())


@dataclass(frozen=True)
class DualCertificate:
    """Per-wedge dual values y_w >= 0 (canonical wedge order) and their sum.

    Feasibility: for every node pair p, the y-values of wedges containing
    p sum to at most the pair's labeling cost. The total is therefore a
    lower bound on any feasible labeling's cost.
    """

    wedge_values: np.ndarray
    lower_bound: float


class StcRegime(enum.Enum):
    """Which classical labeling problem a (lambda, m) configuration matches."""

    MINSTC_PLUS_EQUIVALENT = "minstc+"
    MINSTC_EQUIVALENT = "minstc"
    GENERAL = "general"


def stc_regime(lam: float, m: int) -> StcRegime:
    """Classify the parameter regime.

    lam = 1/2 weights weak and missing equally (the edge-addition variant,
    up to a factor 2). lam > m/(m+1) makes one missing pair cost more than
    labeling every edge weak, so optimal labelings use no missing pairs
    (the deletion-free variant). lam = 1/2 takes precedence when m = 0
    makes both conditions hold.
    """
    check_lambda(lam)
    if m < 0:
        raise ParameterError(f"edge count must be >= 0, got {m}")
    if lam == 0.5:
        return StcRegime.MINSTC_PLUS_EQUIVALENT
    if lam > m / (m + 1):
        return StcRegime.MINSTC_EQUIVALENT
    return StcRegime.GENERAL


def _validate_labeling(g: Graph, lab: StcLabeling) -> None:
    for u, v in lab.weak:
        if not g.has_edge(u, v):
            raise InvalidLabelingError(f"weak pair ({u},{v}) is not an edge")
    for u, v in lab.missing:
        if g.has_edge(u, v):
            raise InvalidLabelingError(f"missing pair ({u},{v}) is an edge")
        if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
            raise InvalidLabelingError(f"missing pair ({u},{v}) is not a vertex pair")


def stc_objective(g: Graph, lam: float, lab: StcLabeling) -> float:
    """(1-lam) * |weak| + lam * |missing|, after validating the partition."""
    lam = check_lambda(lam)
    _validate_labeling(g, lab)
    return lab.cost(lam)


def is_feasible(g: Graph, widx: WedgeIndex, lab: StcLabeling) -> bool:
    """True iff every open wedge is covered by the labeling."""
    if widx.wedge_count == 0:
        return True
    n = g.n
    labeled = {pair_key(n, u, v) for u, v in lab.weak}
    labeled |= {pair_key(n, u, v) for u, v in lab.missing}
    if not labeled:
        return False
    keys = widx.wedge_pair_keys()
    covered = np.isin(keys, np.fromiter(labeled, dtype=np.int64, count=len(labeled)))
    return bool(covered.any(axis=1).all())


def cover_label(
    g: Graph,
    widx: WedgeIndex,
    lam: float,
    *,
    shuffle_seed: int | None = None,
    minimal: bool = False,
) -> tuple[StcLabeling, DualCertificate]:
    """Feasible labeling within 3x optimal, plus its dual lower bound.

    Wedges are processed in the canonical index order (optionally a seeded
    shuffle of it, for experimentation). The zero test on residuals uses a
    1e-12 tolerance: the subtracted minimum is always one of the three
    stored residuals, so one subtraction per wedge is exact and the others
    only accumulate representation error.

    With ``minimal=True`` a greedy post-pass (canonical pair order) drops
    any labeled pair whose removal keeps every wedge covered. The dual
    certificate is unaffected (removal only lowers the objective).

    Before it is returned the dual is checked apart from the loop that
    built it (``lamcc.certificate.dual_bound``: no pair overloaded by more
    than 1e-12); InfeasibleSolutionError is raised if it fails.
    """
    lam = check_lambda(lam)
    n = g.n
    M = widx.wedge_count
    order = np.arange(M)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(M)

    keys3 = widx.wedge_pair_keys()[order]
    uniq, idx3_flat = np.unique(keys3.ravel(), return_inverse=True)
    idx3 = idx3_flat.reshape(-1, 3)
    is_edge = g.edge_mask(uniq)
    cost = np.where(is_edge, 1.0 - lam, lam)
    residual = cost.tolist()

    a_col = idx3[:, 0].tolist()
    b_col = idx3[:, 1].tolist()
    c_col = idx3[:, 2].tolist()
    y = [0.0] * M
    for w in range(M):
        ia, ib, ic = a_col[w], b_col[w], c_col[w]
        m_ = min(residual[ia], residual[ib], residual[ic])
        if m_ > 0.0:
            residual[ia] -= m_
            residual[ib] -= m_
            residual[ic] -= m_
            y[w] = m_

    res = np.asarray(residual)
    zero = np.abs(res) <= RESIDUAL_ZERO_TOL
    weak_keys = uniq[zero & is_edge]
    miss_keys = uniq[zero & ~is_edge]
    weak = frozenset((int(k) // n, int(k) % n) for k in weak_keys)
    missing = frozenset((int(k) // n, int(k) % n) for k in miss_keys)
    lab = StcLabeling(weak, missing)
    if minimal:
        lab = _drop_redundant(widx, lab, n)

    y = np.asarray(y)
    # costs are at most 1, so the 1e-12 overload allowance is relative;
    # the bound is the fsum of y, as the covering rows have right side 1
    lower_bound = dual_bound(idx3, 1.0, 1.0, cost, np.inf, y, tol=1e-12)
    y_arr = np.zeros(M)
    y_arr[order] = y  # store dual values in canonical wedge positions
    return lab, DualCertificate(y_arr, lower_bound)


def _drop_redundant(widx: WedgeIndex, lab: StcLabeling, n: int) -> StcLabeling:
    """Greedy minimality pass: remove labeled pairs that are never the sole cover."""
    labeled = sorted(lab.weak | lab.missing)
    label_keys = {pair_key(n, u, v) for u, v in labeled}
    keys3 = widx.wedge_pair_keys()
    # wedge -> its labeled pairs; pair -> wedges it covers
    cover_count = np.zeros(widx.wedge_count, dtype=np.int64)
    pair_to_wedges: dict[int, list[int]] = {}
    for w in range(widx.wedge_count):
        for k in keys3[w]:
            k = int(k)
            if k in label_keys:
                cover_count[w] += 1
                pair_to_wedges.setdefault(k, []).append(w)
    kept_weak = set(lab.weak)
    kept_missing = set(lab.missing)
    for u, v in labeled:
        k = pair_key(n, u, v)
        ws = pair_to_wedges.get(k, [])
        if all(cover_count[w] >= 2 for w in ws):
            for w in ws:
                cover_count[w] -= 1
            kept_weak.discard((u, v))
            kept_missing.discard((u, v))
    return StcLabeling(frozenset(kept_weak), frozenset(kept_missing))
