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
from functools import cached_property

import numpy as np

from .certificate import dual_bound
from .errors import InvalidLabelingError, ParameterError
from .graph import Graph, WedgeIndex, _key_pairs, _sorted_unique

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
_BLOCK = 512  # wedges per dead-wedge skip in cover_label


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


@dataclass(frozen=True, eq=False)
class StcLabeling:
    """A (weak edges, missing pairs) labeling of a graph on ``n`` vertices.

    ``weak_keys`` and ``missing_keys`` are sorted, unique int64 pair keys
    u*n + v (u < v). ``weak`` and ``missing`` are frozenset views of the
    same pairs as (u, v) tuples, built on first use. Two labelings are
    equal when their n and keys are.
    """

    n: int
    weak_keys: np.ndarray
    missing_keys: np.ndarray

    def __post_init__(self):
        for arr in (self.weak_keys, self.missing_keys):
            arr.setflags(write=False)

    @classmethod
    def from_pairs(cls, n: int, weak=(), missing=()) -> "StcLabeling":
        """Build from (u, v) pairs in any order and orientation."""
        return cls(n, _keys_of(n, weak, "weak"), _keys_of(n, missing, "missing"))

    @cached_property
    def weak(self) -> frozenset[tuple[int, int]]:
        return frozenset(_key_pairs(self.n, self.weak_keys))

    @cached_property
    def missing(self) -> frozenset[tuple[int, int]]:
        return frozenset(_key_pairs(self.n, self.missing_keys))

    def cost(self, lam: float) -> float:
        return (1.0 - lam) * len(self.weak_keys) + lam * len(self.missing_keys)

    def labeled_keys(self) -> np.ndarray:
        """Sorted, unique keys of every labeled pair, weak or missing."""
        # a sort is about 30x faster than np.union1d at 1e5 keys
        return _sorted_unique(np.concatenate([self.weak_keys, self.missing_keys]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StcLabeling):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.weak_keys, other.weak_keys)
            and np.array_equal(self.missing_keys, other.missing_keys)
        )

    def __hash__(self):
        return hash((self.n, self.weak_keys.tobytes(), self.missing_keys.tobytes()))


def _keys_of(n: int, pairs, kind: str) -> np.ndarray:
    uv = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    bad = np.flatnonzero(((uv < 0) | (uv >= n)).any(axis=1))
    if bad.shape[0]:
        u, v = uv[bad[0]].tolist()
        raise InvalidLabelingError(f"{kind} pair ({u},{v}) is not a vertex pair")
    uv.sort(axis=1)
    return _sorted_unique(uv[:, 0] * n + uv[:, 1])


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
    """Raise InvalidLabelingError naming the smallest offending pair, if any."""
    n = g.n
    if lab.n != n:
        raise InvalidLabelingError(f"labeling of {lab.n} vertices on a graph of {n}")
    bad = lab.weak_keys[~g.edge_mask(lab.weak_keys)]
    if bad.shape[0]:
        u, v = divmod(int(bad[0]), n)
        raise InvalidLabelingError(f"weak pair ({u},{v}) is not an edge")
    mk = lab.missing_keys
    is_edge = g.edge_mask(mk)
    bad = np.flatnonzero(is_edge | (mk // n == mk % n) | (mk < 0) | (mk >= n * n))
    if bad.shape[0]:
        u, v = divmod(int(mk[bad[0]]), n)
        if is_edge[bad[0]]:
            raise InvalidLabelingError(f"missing pair ({u},{v}) is an edge")
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
    covered = np.isin(widx.wedge_pair_keys(), lab.labeled_keys())
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

    Wedges whose pairs include one at residual exactly 0.0 are skipped,
    in blocks of ``_BLOCK`` wedges, with the same result as running them:
    a residual r only ever loses an m <= r, and r - m never rounds below
    0.0, so residuals stay >= 0; the pair that attains the minimum drops
    to exactly 0.0 (x - x == 0.0); and a wedge touching a 0.0 pair has
    minimum 0.0, so it changes no residual and gets y_w = 0. Pairs that
    reach 0.0 are recorded by the loop and marked dead at the next block.
    Residuals merely within the 1e-12 tolerance are never skipped.

    With ``minimal=True`` a greedy post-pass (canonical pair order) drops
    any labeled pair whose removal keeps every wedge covered. The dual
    certificate is unaffected (removal only lowers the objective).

    Before it is returned the dual is checked apart from the loop that
    built it (``lamcc.certificate.dual_bound``: no pair overloaded by more
    than 1e-12); InfeasibleSolutionError is raised if it fails.
    """
    lam = check_lambda(lam)
    M = widx.wedge_count
    cols = widx.wedge_pair_key_columns()
    order = None
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(M)
        cols = [col[order] for col in cols]

    # pair index: edges 0..m-1 in key order, then the wedge end pairs
    # (never edges) in key order, offset by m
    ek = g.edge_keys()
    m = ek.shape[0]
    ends, end_idx = np.unique(cols[2], return_inverse=True)
    idx3 = np.empty((M, 3), dtype=np.int64)
    idx3[:, 0] = np.searchsorted(ek, cols[0])
    idx3[:, 1] = np.searchsorted(ek, cols[1])
    idx3[:, 2] = end_idx + m
    del cols, end_idx
    a, b, c = idx3.T
    cost = np.full(m + ends.shape[0], lam)
    cost[:m] = 1.0 - lam
    residual = [1.0 - lam] * m + [lam] * ends.shape[0]

    dead = np.zeros(cost.shape[0], dtype=bool)
    zeroed: list[int] = []
    pos_w: list[int] = []
    pos_y: list[float] = []
    for s in range(0, M, _BLOCK):
        dead[zeroed] = True
        zeroed.clear()
        e = s + _BLOCK
        live = np.flatnonzero(~(dead[a[s:e]] | dead[b[s:e]] | dead[c[s:e]])) + s
        rows = zip(live.tolist(), a[live].tolist(), b[live].tolist(), c[live].tolist())
        for w, ia, ib, ic in rows:
            ra, rb, rc = residual[ia], residual[ib], residual[ic]
            m_ = ra if ra < rb else rb
            if rc < m_:
                m_ = rc
            if m_ > 0.0:
                residual[ia] = ra - m_
                residual[ib] = rb - m_
                residual[ic] = rc - m_
                pos_w.append(w)
                pos_y.append(m_)
                if ra == m_:
                    zeroed.append(ia)
                if rb == m_:
                    zeroed.append(ib)
                if rc == m_:
                    zeroed.append(ic)
    y = np.zeros(M)
    y[pos_w] = pos_y

    # only pairs on some wedge can be labeled: an edge on none keeps 1 - lam
    touched = np.zeros(m, dtype=bool)
    touched[a] = True
    touched[b] = True
    zero = np.asarray(residual) <= RESIDUAL_ZERO_TOL
    lab = StcLabeling(g.n, ek[zero[:m] & touched], ends[zero[m:]])
    if minimal:
        lab = _drop_redundant(widx, lab)

    # costs are at most 1, so the 1e-12 overload allowance is relative;
    # the bound is the fsum of y, as the covering rows have right side 1
    lower_bound = dual_bound(idx3, 1.0, 1.0, cost, np.inf, y, tol=1e-12)
    if order is not None:
        y_canon = np.empty(M)
        y_canon[order] = y  # store dual values in canonical wedge positions
        y = y_canon
    return lab, DualCertificate(y, lower_bound)


def _drop_redundant(widx: WedgeIndex, lab: StcLabeling) -> StcLabeling:
    """Greedy minimality pass: remove labeled pairs that are never the sole cover.

    Pairs are visited in key order; a pair is dropped iff every wedge it
    lies on still has at least two labeled pairs at that moment. A pair
    that is the sole cover of some wedge can never drop (that wedge's
    count stays 1), so only the other pairs enter the sequential loop.
    """
    labeled = lab.labeled_keys()
    L = labeled.shape[0]
    if not L:
        return lab
    # incidences (wedge, labeled pair), column by column
    w_parts, pair_parts = [], []
    cover_count = np.zeros(widx.wedge_count, dtype=np.int64)
    for col in widx.wedge_pair_key_columns():
        pos = np.searchsorted(labeled, col)
        hit = labeled[np.minimum(pos, L - 1)] == col
        cover_count += hit
        w_parts.append(np.flatnonzero(hit))
        pair_parts.append(pos[hit])
    w = np.concatenate(w_parts)
    pair = np.concatenate(pair_parts)
    by_pair = np.argsort(pair, kind="stable")
    wedges_of = w[by_pair]  # pair i covers wedges_of[start[i]:start[i + 1]]
    start = np.zeros(L + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair, minlength=L), out=start[1:])
    sole = np.zeros(L, dtype=bool)
    sole[pair[cover_count[w] == 1]] = True
    dropped = []
    for i in np.flatnonzero(~sole).tolist():
        ws = wedges_of[start[i]:start[i + 1]]
        if np.all(cover_count[ws] >= 2):
            cover_count[ws] -= 1
            dropped.append(i)
    gone = labeled[dropped]
    return StcLabeling(
        lab.n,
        np.setdiff1d(lab.weak_keys, gone, assume_unique=True),
        np.setdiff1d(lab.missing_keys, gone, assume_unique=True),
    )
