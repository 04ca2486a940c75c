"""Seeded input generators for the benchmark workloads.

Every input is a pure function of its parameters and a seed (PCG64), and is
written as an edge-list file, so the in-process pass and the ``lamcc`` CLI
parse the same bytes. The generators live here, not in ``lamcc``, so that a
change to the library cannot change the benchmark's inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri


@dataclass(frozen=True)
class CollabParams:
    """Overlapping-clique ("collaboration") graph parameters.

    Authors carry lognormal weights and belong to groups of lognormal size.
    Every author leads one paper, and further papers get leads drawn by
    weight. A paper's team is its lead plus ``size - 1`` co-author draws
    (with replacement, by weight), each from the lead's group with
    probability ``p_in_group`` and from all authors otherwise. The team
    becomes a clique. Team size is ``2 + floor(lognormal)``, capped.
    Weights, group sizes and team sizes are stratified lognormal quantiles
    in a seeded order (see ``_lognormal_quantiles``).
    """

    n: int
    papers_per_author: float
    team_mu: float
    team_sigma: float
    team_max: int
    weight_sigma: float
    group_mu: float
    group_sigma: float
    group_max: int
    p_in_group: float


# Sizes of the collaboration networks in the source paper: ca-HepPh
# (about 12k vertices, 118k edges) and ca-GrQc (about 5k / 14k).
HEPPH = CollabParams(
    n=12008, papers_per_author=2.0, team_mu=0.3, team_sigma=0.9, team_max=150,
    weight_sigma=0.75, group_mu=2.5, group_sigma=0.8, group_max=400, p_in_group=0.7,
)
GRQC = CollabParams(
    n=5242, papers_per_author=1.25, team_mu=-0.1, team_sigma=0.9, team_max=60,
    weight_sigma=1.0, group_mu=2.0, group_sigma=0.8, group_max=400, p_in_group=0.7,
)


def collaboration_edges(p: CollabParams, seed: int) -> np.ndarray:
    """(m, 2) int64 array of distinct edges (u < v), sorted."""
    rng = np.random.default_rng(seed)
    n = p.n
    weight = rng.permutation(_lognormal_quantiles(0.0, p.weight_sigma, n))
    def group_sizes(k: int) -> np.ndarray:
        q = _lognormal_quantiles(p.group_mu, p.group_sigma, k)
        return np.clip(np.rint(q), 2, p.group_max).astype(np.int64)

    groups = int(np.ceil(n / group_sizes(n).mean()))
    while group_sizes(groups).sum() < n:
        groups += 1
    ends = np.minimum(np.cumsum(rng.permutation(group_sizes(groups))), n)
    starts = np.concatenate([[0], ends[:-1]])
    slot_author = rng.permutation(n)  # authors laid out group by group
    author_group = np.empty(n, dtype=np.int64)
    author_group[slot_author] = np.repeat(np.arange(groups), ends - starts)
    cum = np.cumsum(weight[slot_author])
    cum_before = np.concatenate([[0.0], cum])

    def draw(u: np.ndarray, grp: np.ndarray | None) -> np.ndarray:
        if grp is None:
            lo, hi = np.zeros_like(u), np.full_like(u, cum[-1])
            first, last = np.zeros(u.shape[0], np.int64), np.full(u.shape[0], n - 1)
        else:
            lo, hi = cum_before[starts[grp]], cum_before[ends[grp]]
            first, last = starts[grp], ends[grp] - 1
        slot = np.searchsorted(cum, lo + u * (hi - lo), side="right")
        return slot_author[np.clip(slot, first, last)]

    papers = int(round(p.papers_per_author * n))
    leads = np.concatenate([np.arange(n), draw(rng.random(papers - n), None)])
    team = np.minimum(
        2 + np.floor(_lognormal_quantiles(p.team_mu, p.team_sigma, papers)).astype(np.int64),
        p.team_max,
    )[rng.permutation(papers)]
    paper_of_draw = np.repeat(np.arange(papers), team - 1)
    in_group = rng.random(paper_of_draw.shape[0]) < p.p_in_group
    u = rng.random(paper_of_draw.shape[0])
    coauthor = np.empty(paper_of_draw.shape[0], dtype=np.int64)
    coauthor[in_group] = draw(u[in_group], author_group[leads[paper_of_draw[in_group]]])
    coauthor[~in_group] = draw(u[~in_group], None)

    # members[ptr[q]:ptr[q+1]] = lead of paper q, then its co-authors
    ptr = np.concatenate([[0], np.cumsum(team)])
    members = np.empty(ptr[-1], dtype=np.int64)
    members[ptr[:-1]] = leads
    rest = np.ones(ptr[-1], dtype=bool)
    rest[ptr[:-1]] = False
    members[rest] = coauthor
    keys = []
    for k in np.unique(team).tolist():
        qs = np.flatnonzero(team == k)
        block = members[ptr[qs][:, None] + np.arange(k)[None, :]]
        ii, jj = np.triu_indices(k, 1)
        a, b = block[:, ii].ravel(), block[:, jj].ravel()
        keep = a != b
        a, b = a[keep], b[keep]
        keys.append(np.minimum(a, b) * n + np.maximum(a, b))
    keys = np.unique(np.concatenate(keys))
    return np.stack([keys // n, keys % n], axis=1)


def _lognormal_quantiles(mu: float, sigma: float, size: int) -> np.ndarray:
    """The lognormal at the midpoints of ``size`` equal-probability strata.

    Author weights and team sizes are these values in a seeded order, so
    the heavy tails that set the wedge count are the same for every seed
    and the seed moves only who works with whom.
    """
    return np.exp(mu + sigma * ndtri((np.arange(size) + 0.5) / size))


def gnp_edges(n: int, p: float, seed: int) -> np.ndarray:
    """G(n, p) edges (u < v), drawn exactly as ``lamcc.testing.erdos_renyi``."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    mask = rng.random(iu.shape[0]) < p
    return np.stack([iu[mask], ju[mask]], axis=1).astype(np.int64)


@dataclass(frozen=True)
class DeskGraph:
    n: int
    p: float
    seed: int


# Fixed rule, independent of the run's --seed: n = 8..12 outer, p middle,
# four replicates inner, graph seed 9000 + position. The corpus must not
# depend on the run seed, because some of its intermediate-LP solves fail
# on every run (see README) and the failed share must not move.
DESK_CORPUS = tuple(
    DeskGraph(n, p, 9000 + i)
    for i, (n, p, _) in enumerate(
        itertools.product(range(8, 13), (0.25, 0.4, 0.55), range(4))
    )
)


def write_edge_list(path: Path, edges: np.ndarray, n: int) -> None:
    """One 'u v' line per edge, after a comment naming the vertex count.

    The ``lamcc`` parser skips the comment and renumbers vertices in order
    of first appearance; the benchmark reads the comment to restore the
    generator's own ids where it needs them.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# vertices {n}\n"]
    lines += [f"{u} {v}\n" for u, v in edges.tolist()]
    path.write_text("".join(lines))


def first_appearance(edges: np.ndarray) -> np.ndarray:
    """File vertex ids in order of first appearance: parser id -> file id."""
    tokens = edges.ravel()
    uniq, first = np.unique(tokens, return_index=True)
    return uniq[np.argsort(first)]
