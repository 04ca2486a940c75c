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
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .certificate import dual_bound, row_activity
from .errors import InvalidLabelingError, ParameterError
from .graph import (
    Graph,
    WedgeIndex,
    _key_pairs,
    _row_runs,
    _sorted_unique,
)

__all__ = [
    "check_lambda",
    "StcLabeling",
    "DualCertificate",
    "StcRegime",
    "stc_objective",
    "is_feasible",
    "cover_label",
    "stc_regime",
]

RESIDUAL_ZERO_TOL = 1e-12
_BLOCK = 512  # runs per dead-run skip in _local_ratio


def check_lambda(lam: float) -> float:
    """Validate the resolution parameter: a real strictly inside (0, 1)."""
    lam = float(lam)
    if not (0.0 < lam < 1.0):
        raise ParameterError(f"lambda must lie in (0, 1), got {lam}")
    return lam


@dataclass(frozen=True, eq=False)
class StcLabeling:
    """A (weak edges, missing pairs) labeling of a graph on ``n`` vertices.

    ``weak_keys`` and ``missing_keys`` are sorted, unique int64 pair keys
    u*n + v (u < v). ``weak`` and ``missing`` are frozenset views of the
    same pairs as (u, v) tuples, built on first use. Two labelings are
    equal when their n and keys are. ``_flipped[0]`` is None, or the (graph,
    result) of the last ``lamcc.cluster.derived_graph_from_labeling`` call.
    """

    n: int
    weak_keys: np.ndarray
    missing_keys: np.ndarray
    _flipped: list = field(default_factory=lambda: [None], init=False, repr=False)

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
        """Sorted, unique keys of every labeled pair, weak or missing.

        Built on first use and kept; the array is read-only."""
        return self._labeled_keys

    @cached_property
    def _labeled_keys(self) -> np.ndarray:
        # a sort is about 30x faster than np.union1d at 1e5 keys
        keys = _sorted_unique(np.concatenate([self.weak_keys, self.missing_keys]))
        keys.setflags(write=False)
        return keys

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
    """Wedge duals y_w > 0 at ascending canonical wedge ``positions``, and their sum.

    y is 0 at the other of the ``wedge_count`` wedges; ``wedge_values``, the
    dense y, is built on each access and not kept. Feasibility: for every
    node pair p, the y-values of wedges containing p sum to at most the
    pair's labeling cost. The total is therefore a lower bound on any
    feasible labeling's cost.
    """

    positions: np.ndarray
    values: np.ndarray
    wedge_count: int
    lower_bound: float

    @property
    def wedge_values(self) -> np.ndarray:
        y = np.zeros(self.wedge_count)
        y[self.positions] = self.values
        return y


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
    minimal: bool = False,
) -> tuple[StcLabeling, DualCertificate]:
    """Feasible labeling within 3x optimal, plus its dual lower bound.

    Wedges are processed in the canonical index order, so the graph and
    lambda fix the result; the pass is ``_local_ratio`` on the run index
    kept on the wedge index (``widx.cover_runs``). The zero test on
    residuals uses a 1e-12 tolerance: the subtracted minimum is always one
    of the three stored residuals, so one subtraction per wedge is exact
    and the others only accumulate representation error.

    With ``minimal=True`` the greedy ``_reduce`` (canonical pair order) drops
    any labeled pair whose removal keeps every wedge covered. The dual
    certificate is unaffected (removal only lowers the objective).

    Before it is returned the dual is checked apart from the loop that
    built it (``lamcc.certificate.dual_bound``: no pair overloaded by more
    than 1e-12); InfeasibleSolutionError is raised if it fails.
    """
    lam = check_lambda(lam)
    keys, m, rows = widx.covering_layout
    runs, touched = widx.cover_runs
    cost = np.full(keys.shape[0], lam)
    cost[:m] = 1.0 - lam
    pos, vals, residual = _local_ratio(rows, cost, runs=runs)

    # only pairs on some wedge can be labeled: an edge on none keeps 1 - lam
    labeled = residual <= RESIDUAL_ZERO_TOL
    labeled[:m] &= touched
    del residual  # freed before dual_bound allocates its loads
    if minimal:
        cand = np.flatnonzero(labeled)
        z = _reduce(rows, *widx.rows_by_column, labeled.astype(float),
                    cand[np.argsort(keys[cand])])
        labeled = z > 0.0
    lab = _labeling_of_mask(g.n, keys, m, labeled)

    # costs are at most 1, so the 1e-12 overload allowance is relative;
    # the bound is the fsum of y, as the covering rows have right side 1;
    # dual_bound reads only the rows with y != 0, at pos
    lower_bound = dual_bound(rows[pos], 1.0, 1.0, cost, np.inf, vals, tol=1e-12)
    return lab, DualCertificate(pos, vals, rows.shape[0], lower_bound)


def _labeling_of_mask(n: int, keys: np.ndarray, edge_count: int, mask) -> StcLabeling:
    """The labeling of the covering variables ``keys[mask]``.

    ``keys`` lists the edges first (``edge_count`` of them), so the
    chosen edges are weak and the other chosen pairs missing.
    """
    e = edge_count
    return StcLabeling(n, keys[:e][mask[:e]], keys[e:][mask[e:]])


def _local_ratio(rows, residual, order=None, runs=None):
    """One sequential local-ratio pass over covering rows (Bar-Yehuda & Even).

    ``rows`` is (M, 3) integer (int32 from the layout) with -1 pads,
    ``residual`` one start value per variable. Each row, in ``order``
    (default: row order), takes the least residual m of its variables and,
    if m > 0, subtracts m from each of them. Returns the visit positions
    where m > 0, those m, and the final residuals. ``runs``, if given, is
    ``lamcc.graph._row_runs`` of the rows in order. ``cover_label`` passes
    the canonical row order with its kept run index; MWU's dual ascent
    passes its own ``order`` and no runs, so the pass builds the run index
    of that order.

    A residual r only ever loses an m <= r, and r - m never rounds below
    0.0, so residuals never rise; the one that attains m drops to exactly
    0.0 (x - x == 0.0). A row touching a residual <= 0.0 has m <= 0.0 and
    changes nothing, so skipping it gives the same result. The pass skips
    in runs: stretches of consecutive rows that share their first variable
    (in canonical wedge order, the wedges on one edge (center, lo)). At
    the start of each ``_BLOCK`` runs it drops the runs whose first
    variable has a residual <= 0.0, and the runs of one row (as MWU's
    order makes) with any such variable; a live run is walked row by row
    and left as soon as its first variable reaches 0.0. Pads read a +inf
    slot, so they never bind nor die; a row of pads alone would take
    m = inf, and callers reject it. Residuals are read and written in
    place in a float64 copy through a memoryview.
    """
    res = np.append(residual, np.inf)
    r = memoryview(res)
    # np.take gathers whole rows, about 3x as fast as rows[order] at 2.6M rows
    a, b, c = (rows if order is None else np.take(rows, order, axis=0)).T
    heads, first, ends, second, third = _row_runs(a, b, c) if runs is None else runs
    bv, cv = memoryview(b), memoryview(c)
    pos, vals = [], []
    for s in range(0, heads.shape[0], _BLOCK):
        e = s + _BLOCK
        live = np.flatnonzero(
            (res[first[s:e]] > 0.0) & (res[second[s:e]] > 0.0) & (res[third[s:e]] > 0.0)
        ) + s
        for ia, lo, hi in zip(first[live].tolist(), heads[live].tolist(), ends[live].tolist()):
            ra = r[ia]  # held here while the run is walked
            if ra <= 0.0:  # died earlier in this block
                continue
            for w in range(lo, hi):
                ib, ic = bv[w], cv[w]
                rb, rc = r[ib], r[ic]
                m_ = ra if ra < rb else rb
                if rc < m_:
                    m_ = rc
                if m_ > 0.0:
                    r[ib] = rb - m_
                    r[ic] = rc - m_
                    pos.append(w)
                    vals.append(m_)
                    ra -= m_
                    r[ia] = ra
                    if ra == 0.0:  # the rest of the run is dead
                        break
    return np.array(pos, dtype=np.int64), np.array(vals), res[:-1]


def _reduce(rows, row_of, ptr, z, order, quantum=None) -> np.ndarray:
    """Greedy reduction of a feasible point z of a covering program; returns a copy.

    ``row_of``/``ptr`` index the rows (-1 pads) by variable
    (``lamcc.graph._rows_by_column``). Each variable of ``order``, visited
    once, lowers by min(z_j, least row sum - 1 over its rows), rounded down
    to a multiple of ``quantum`` if given; one on no row drops to 0. A
    variable at z <= 0 or on a row whose sum is <= 1 at the start is
    skipped, as sums only fall. On a 0/1 point the sums are exact counts,
    so this is the minimality pass: a labeled variable drops iff every row
    it lies on keeps another.
    """
    z = z.copy()
    sums = row_activity(rows, 1.0, z)
    tight = np.zeros(z.shape[0] + 1, dtype=bool)
    tight[rows[sums <= 1.0]] = True
    for j in order[(z[order] > 0.0) & ~tight[order]].tolist():
        rs = row_of[ptr[j]:ptr[j + 1]]
        if rs.shape[0] == 0:  # in no row: nothing needs it
            z[j] = 0.0
            continue
        red = min(float(z[j]), float((sums[rs] - 1.0).min()))
        if quantum is not None:
            red = math.floor(red / quantum + 1e-12) * quantum
        if red > 0:
            z[j] -= red
            sums[rs] -= red
    return z
