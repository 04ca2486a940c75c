"""Clustering algorithms driven by labelings and LP relaxations.

The clustering objective charges 1-lam for every edge cut between
clusters and lam for every non-adjacent pair placed inside a cluster.
All approximation algorithms here share one skeleton: build a derived
graph whose edges encode "should be together", then run the random pivot
of Ailon, Charikar & Newman on it: visit the vertices in a seeded random
order and make each still-unclustered vertex a pivot whose unclustered
neighbors join it. That order defines the result, which ``pivot`` computes
in a few synchronous rounds of whole-array steps (Blelloch, Fineman & Shun,
SPAA 2012; Pan et al., NeurIPS 2015). The derived graph is a plain ``Graph``:
the input graph with a set of pairs toggled (``Graph.toggled``, a symmetric
difference of sorted pair keys). What varies is which pairs are toggled:

* cover_flip_pivot flips the pairs labeled by the wedge-cover algorithm
  (expected cost at most twice the labeling cost, hence 6x optimal for
  lam >= 1/2 since the labeling is 3-approximate);
* round_lambda_stc_lp thresholds the wedge-LP distances
  (factor 7 - 2/lam for lam >= 1/2, 1 + 1/lam below);
* round_intermediate_lp thresholds the wedge+triangle LP at 1/3
  (factor 3 for lam >= 1/2).

All run at every lam in (0, 1): the lower bound each reports holds at every lam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificate import check_primal
from .errors import ParameterError
from .graph import Graph, WedgeIndex
from .lp import _FORMS, FractionalSolution
from .stc import DualCertificate, StcLabeling, check_lambda, cover_label

__all__ = [
    "Clustering",
    "RunReport",
    "lambda_cc_objective",
    "pivot",
    "cover_flip_pivot",
    "derived_graph_from_labeling",
    "round_lambda_stc_lp",
    "round_intermediate_lp",
    "lambda_louvain",
    "assignment_text",
]


@dataclass(frozen=True, eq=False)
class Clustering:
    """Partition of 0..n-1; cluster ids are contiguous 0..k-1.

    ``labels`` is the read-only int64 array of cluster ids (a copy of any
    sequence given), ``assignment`` the same ids as a tuple, built on each
    access. Two clusterings are equal when their labels are.
    """

    labels: np.ndarray

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_assignment(cls, labels) -> "Clustering":
        """The partition of ``labels``, renumbered by first appearance."""
        return cls(_first_appearance(labels))

    @property
    def assignment(self) -> tuple[int, ...]:
        return tuple(self.labels.tolist())

    @property
    def num_clusters(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.shape[0] else 0

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    def __eq__(self, other) -> bool:
        return isinstance(other, Clustering) and np.array_equal(self.labels, other.labels)

    def __hash__(self):
        return hash(self.labels.tobytes())


@dataclass(frozen=True)
class RunReport:
    """One algorithm run: the clustering, its objective, and its evidence."""

    algorithm: str
    lam: float
    seed: int | None
    clustering: Clustering
    objective: float
    lower_bound: float | None
    lb_provenance: str | None
    ratio: float | None

    @property
    def num_clusters(self) -> int:
        return self.clustering.num_clusters


def _first_appearance(labels) -> list[int]:
    """Labels renumbered 0..k-1 in order of first appearance."""
    remap: dict = {}
    return [remap.setdefault(lbl, len(remap)) for lbl in labels]


def _ratio(objective: float, lower_bound: float | None) -> float | None:
    if lower_bound is None:
        return None
    if lower_bound > 0:
        return objective / lower_bound
    return 1.0 if objective == 0 else None


# ---------------------------------------------------------------------------
# Objective


def lambda_cc_objective(g: Graph, lam: float, c: Clustering) -> float:
    """Clustering cost: (1-lam) * cut edges + lam * co-clustered non-edges.

    Computed from per-cluster sizes and internal edge counts, linear in
    n + m, never by scanning all vertex pairs.
    """
    lam = check_lambda(lam)
    if c.n != g.n:
        raise ParameterError(
            f"clustering covers {c.n} vertices, graph has {g.n}"
        )
    asg = c.labels
    ek = g.edge_keys()
    u = ek // g.n
    internal = int((asg[u] == asg[ek - u * g.n]).sum())
    sizes = np.bincount(asg)
    pairs_inside = int((sizes * (sizes - 1) // 2).sum())
    return (1.0 - lam) * (g.m - internal) + lam * (pairs_inside - internal)


# ---------------------------------------------------------------------------
# Pivot


def pivot(gh: Graph, seed: int) -> Clustering:
    """Random-pivot clustering of a graph (Ailon, Charikar & Newman, 2008).

    Visits the vertices in the order ``np.random.default_rng(seed).permutation(n)``;
    each vertex still unclustered when visited becomes a pivot, and its
    unclustered neighbors join its cluster. Cluster ids follow pivot order.
    The first unclustered vertex of a uniformly random order is uniform
    among the unclustered vertices, so this is the same distribution over
    clusterings as drawing each pivot uniformly from those left.

    That order defines the result, computed in synchronous rounds with the
    same output (Blelloch, Fineman & Shun, SPAA 2012; Pan et al., C4, NeurIPS
    2015): each round, every open vertex with no open earlier neighbor becomes
    a pivot and takes its open later neighbors, which join their earliest
    pivot neighbor.
    """
    n = gh.n
    rank = np.empty(n, dtype=np.int64)
    rank[np.random.default_rng(seed).permutation(n)] = np.arange(n)
    ru, rv = (rank[x] for x in np.divmod(gh.edge_keys(), n))
    # from here a vertex is its rank; edge (a, b) has a < b, sorted by b then a
    key = np.sort(np.maximum(ru, rv) * n + np.minimum(ru, rv))
    b_all, a_all = b, a = np.divmod(key, n)
    live, piv = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    while b.shape[0]:  # every edge left has both ends open
        new = live.copy()
        new[b] = False  # not blocked by an open earlier neighbor
        piv |= new
        live &= ~new
        live[b[new[a]]] = False  # taken by a new pivot
        keep = live[a] & live[b]
        a, b = a[keep], b[keep]
    piv |= live
    ta, tb = a_all[piv[a_all]], b_all[piv[a_all]]  # edges from a pivot, by b then a
    first = np.ones(tb.shape[0], dtype=bool)
    first[1:] = tb[1:] != tb[:-1]  # so a taken vertex's first is its earliest pivot
    owner = np.arange(n)
    owner[tb[first]] = ta[first]
    return Clustering((np.cumsum(piv) - 1)[owner[rank]])


# ---------------------------------------------------------------------------
# Cover -> flip -> pivot


def derived_graph_from_labeling(g: Graph, lab: StcLabeling) -> Graph:
    """Delete weak edges, insert missing pairs; kept on the labeling for the last graph."""
    last = lab._flipped[0]
    if last is None or last[0] is not g:
        last = lab._flipped[0] = g, g.toggled(lab.labeled_keys())
    return last[1]


def cover_flip_pivot(
    g: Graph,
    widx: WedgeIndex,
    lam: float,
    seed: int,
    *,
    labeling: StcLabeling | None = None,
    certificate: DualCertificate | None = None,
) -> RunReport:
    """Label wedges, flip the labeled pairs, pivot on the result.

    The labeling's dual certificate rides along as the report's lower
    bound, giving every run an a-posteriori ratio. The factor 6 holds for
    lam >= 1/2; the bound holds at every lam, since any clustering's cut
    edges and co-clustered non-edges are a feasible labeling of its cost.
    A precomputed labeling/certificate pair may be passed to amortize the
    cover step across seeds; passing only one of the two is an error.
    """
    lam = check_lambda(lam)
    if (labeling is None) != (certificate is None):
        raise ParameterError("pass labeling and certificate together, or neither")
    if labeling is None:
        labeling, certificate = cover_label(g, widx, lam)
    clustering = pivot(derived_graph_from_labeling(g, labeling), seed)
    return _report("cfp", g, lam, seed, clustering, certificate.lower_bound,
                   "dual_certificate")


def _report(algorithm, g, lam, seed, clustering, lb, provenance) -> RunReport:
    """The report of a run: its objective, and its ratio against lb (no lb, no provenance)."""
    objective = lambda_cc_objective(g, lam, clustering)
    return RunReport(algorithm, lam, seed, clustering, objective, lb,
                     None if lb is None else provenance, _ratio(objective, lb))


# ---------------------------------------------------------------------------
# LP roundings


def stc_rounding_threshold(lam: float) -> float:
    """Distance threshold for building the derived graph from the wedge LP."""
    lam = check_lambda(lam)
    if lam >= 0.5:
        return 2.0 * lam / (7.0 * lam - 2.0)
    return lam / (1.0 + lam)


def stc_rounding_factor(lam: float) -> float:
    """Guaranteed expected approximation factor of the wedge-LP rounding."""
    lam = check_lambda(lam)
    return 7.0 - 2.0 / lam if lam >= 0.5 else 1.0 + 1.0 / lam


def round_lambda_stc_lp(
    g: Graph,
    widx: WedgeIndex,
    lam: float,
    sol: FractionalSolution,
    seed: int,
) -> RunReport:
    """Threshold the wedge-LP distances into a derived graph and pivot.

    For lam >= 1/2 the derived edges are exactly the graph edges with
    x < 2*lam/(7*lam - 2) (non-edges never join); below 1/2 every graph
    edge stays and non-edges with x < lam/(1 + lam) join. Strict
    inequalities: a pair sitting exactly on the threshold is excluded.
    The bound is sol's checked ``dual_objective``, if it carries one.
    """
    lam = check_lambda(lam)
    clustering = pivot(_rounded_graph(g, widx, lam, sol), seed)
    return _report("lp-round", g, lam, seed, clustering, sol.dual_objective, "lp_dual")


def round_intermediate_lp(
    g: Graph,
    widx: WedgeIndex,
    lam: float,
    sol: FractionalSolution,
    seed: int,
) -> RunReport:
    """Threshold the wedge+triangle LP at 1/3 and pivot.

    Every pair, edge or not, with x strictly below 1/3 becomes a derived
    edge. The factor 3 needs lam >= 1/2; sol's checked ``dual_objective``,
    if it carries one, is a bound at every lam.
    """
    lam = check_lambda(lam)
    clustering = pivot(_rounded_graph(g, widx, lam, sol, intermediate=True), seed)
    return _report("lp3-round", g, lam, seed, clustering, sol.dual_objective, "lp_dual")


def _rounded_graph(g, widx, lam, sol, *, intermediate=False) -> Graph:
    """Check sol's distances on its program's rows; toggle the pairs its threshold selects.

    The rows are the covering rows, or with ``intermediate`` the intermediate
    program's, all over the covering layout's pairs. The derived graph
    depends on sol and lam only, so one serves every seed.
    """
    x = sol.to_x(g)
    rows = widx.intermediate_rows if intermediate else widx.covering_layout[2]
    check_primal(rows, *_FORMS["x"], x.at(widx.covering_layout[0]))
    is_edge = g.edge_mask(x.keys)
    if intermediate:
        flip = is_edge != (x.vals < 1.0 / 3.0)
    elif lam >= 0.5:
        flip = is_edge & (x.vals >= stc_rounding_threshold(lam))  # edges that leave
    else:
        flip = ~is_edge & (x.vals < stc_rounding_threshold(lam))  # non-edges that join
    return g.toggled(x.keys[flip])


# ---------------------------------------------------------------------------
# Greedy local-move heuristic


LOUVAIN_MAX_PASSES = 16  # local-move passes per level


def lambda_louvain(g: Graph, lam: float, seed: int) -> RunReport:
    """Greedy node-move heuristic for the clustering objective.

    The LambdaCC Louvain method of Veldt, Gleich & Wirth (WWW 2018). It
    starts from singletons; each pass visits vertices in a seeded random
    order and moves each to the neighboring cluster (or back to a
    singleton) with the best strictly-negative cost delta, computed in
    O(deg) per vertex. Passes repeat until no move improves or
    ``LOUVAIN_MAX_PASSES`` passes have run. Then the clusters collapse
    into supernodes and the passes repeat on them until a level merges
    nothing; every later move lowers the cost, so the result is never
    worse than level 0's labels. Every level is a CSR graph with integer
    edge weights and vertex sizes (level 0 is g, all ones), so no cost
    delta depends on summation order.
    No approximation guarantee: the report carries no lower bound.
    """
    lam = check_lambda(lam)
    rng = np.random.default_rng(seed)

    indptr, indices = g.indptr, g.indices
    weights, sizes = np.ones(indices.shape[0]), np.ones(g.n)
    assignment = np.arange(g.n)  # original vertex -> current supernode
    while True:
        labels = _greedy_passes(indptr, indices, weights, sizes, lam, rng)
        assignment = labels[assignment]
        k = int(labels.max(initial=-1)) + 1
        if k == sizes.shape[0]:  # nothing merged
            break
        indptr, indices, weights, sizes = _aggregate(
            indptr, indices, weights, sizes, labels, k
        )
    clustering = Clustering(assignment)
    return _report("louvain", g, lam, seed, clustering, None, None)


def _greedy_passes(indptr, indices, weights, sizes, lam, rng):
    """Local-move passes over one weighted CSR level, from singletons; returns
    the labels, numbered by first appearance (the identity if no vertex moved)."""
    n = sizes.shape[0]
    indptr, indices, weights = indptr.tolist(), indices.tolist(), weights.tolist()
    sizes = sizes.tolist()
    labels = list(range(n))
    members_size = sizes.copy()  # total size per cluster id
    for _ in range(LOUVAIN_MAX_PASSES):
        improved = False
        for v in rng.permutation(n).tolist():
            c0 = labels[v]
            sv = sizes[v]
            # edge weight from v to each adjacent cluster
            w_to: dict[int, float] = {}
            lo, hi = indptr[v], indptr[v + 1]
            for u, w in zip(indices[lo:hi], weights[lo:hi]):
                w_to[labels[u]] = w_to.get(labels[u], 0.0) + w
            size_c0 = members_size[c0] - sv
            w_c0 = w_to.get(c0, 0.0)
            # cost delta of detaching v from its cluster
            detach = (1.0 - lam) * w_c0 - lam * (size_c0 * sv - w_c0)
            best_delta = 0.0
            best_c = c0
            for c, w in w_to.items():
                if c == c0:
                    continue
                size_c = members_size[c]
                join = -(1.0 - lam) * w + lam * (size_c * sv - w)
                delta = detach + join
                if delta < best_delta - 1e-12 or (
                    abs(delta - best_delta) <= 1e-12 and best_c != c0 and c < best_c
                ):
                    best_delta = delta
                    best_c = c
            if size_c0 > 0 and detach < best_delta - 1e-12:
                best_delta = detach  # move v to a fresh singleton
                best_c = -1
            if best_c != c0:
                members_size[c0] -= sv
                if best_c == -1:
                    # v's cluster keeps a member, so at most n - 1 of the n
                    # ids are in use and some size is exactly 0.0
                    best_c = members_size.index(0.0)
                labels[v] = best_c
                members_size[best_c] += sv
                improved = True
        if not improved:
            break
    return np.array(_first_appearance(labels), dtype=np.int64)


def _aggregate(indptr, indices, weights, sizes, labels, k):
    """Collapse each of the k clusters into one vertex: the CSR (indptr, indices,
    weights) of the summed weights between distinct clusters, and the summed sizes."""
    src = labels[np.repeat(np.arange(sizes.shape[0]), np.diff(indptr))]
    dst = labels[indices]
    cross = src != dst
    pairs, inverse = np.unique(src[cross] * k + dst[cross], return_inverse=True)
    new_indptr = np.searchsorted(pairs, np.arange(k + 1) * k)
    new_weights = np.bincount(inverse, weights=weights[cross])
    new_sizes = np.bincount(labels, weights=sizes, minlength=k)
    return new_indptr, pairs % k, new_weights, new_sizes


# ---------------------------------------------------------------------------
# Reports


def assignment_text(c: Clustering) -> str:
    """Two-column 'vertex cluster' dump."""
    return "".join(f"{v} {cid}\n" for v, cid in enumerate(c.labels.tolist()))
