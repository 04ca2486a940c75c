import itertools
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import lamcc.cluster
from lamcc.cluster import (
    Clustering,
    assignment_text,
    cover_flip_pivot,
    derived_graph_from_labeling,
    lambda_cc_objective,
    lambda_louvain,
    pivot,
    round_intermediate_lp,
    round_lambda_stc_lp,
    stc_rounding_factor,
    stc_rounding_threshold,
)
from lamcc.errors import InfeasibleSolutionError, ParameterError
from lamcc.graph import Graph, enumerate_wedges
from lamcc.lp import (
    build_intermediate_lp,
    build_lambda_stc_lp,
    solve_exact,
    solve_general_exact,
    solve_mwu,
)
from lamcc.oracle import exact_lambda_cc, exact_lambda_cc_sweep
from lamcc.stc import StcLabeling, cover_label, stc_objective
from lamcc.testing import erdos_renyi


def _keys(g, pairs):
    return np.array(sorted(u * g.n + v for u, v in pairs), dtype=np.int64)


def _set_toggle(g, flipped):
    """Reference derived graph: neighbor sets of g with each (u, v) pair toggled."""
    adj = [set(map(int, g.neighbors(v))) for v in range(g.n)]
    for u, v in {(min(p), max(p)) for p in flipped}:
        adj[u] ^= {v}
        adj[v] ^= {u}
    return [tuple(sorted(s)) for s in adj]


def _list_pivot(adj, seed):
    """Reference random pivot over neighbor tuples: sets of unclustered
    vertices, visited in the order of the same seeded permutation."""
    unclustered = set(range(len(adj)))
    clusters = []
    for k in np.random.default_rng(seed).permutation(len(adj)).tolist():
        if k in unclustered:
            clusters.append(({k} | set(adj[k])) & unclustered)
            unclustered -= clusters[-1]
    assignment = [0] * len(adj)
    for cid, members in enumerate(clusters):
        for v in members:
            assignment[v] = cid
    return Clustering(tuple(assignment))


def _adjacency(g):
    return [tuple(g.neighbors(v).tolist()) for v in range(g.n)]


def _assert_matches_reference(gh, g, flipped):
    ref = _set_toggle(g, flipped)
    assert isinstance(gh, Graph) and gh.n == g.n
    assert _adjacency(gh) == ref
    assert gh == Graph.from_edges(g.n, [(u, v) for u in range(g.n) for v in ref[u]])
    for seed in range(3):
        assert pivot(gh, seed) == _list_pivot(ref, seed)


def _stc_flip(g, lam, x):
    thr = stc_rounding_threshold(lam)
    return {p for p, val in x.values.items()
            if (g.has_edge(*p) and val >= thr if lam >= 0.5
                else not g.has_edge(*p) and val < thr)}


def _third_flip(g, x):
    return {p for p, val in x.values.items() if g.has_edge(*p) != (val < 1.0 / 3.0)}


def _spy_pivot(monkeypatch):
    """Record every graph the roundings hand to pivot."""
    seen = []
    real = lamcc.cluster.pivot

    def spy(gh, seed):
        seen.append(gh)
        return real(gh, seed)

    monkeypatch.setattr(lamcc.cluster, "pivot", spy)
    return seen


# ---------------------------------------------------------------------------
# Objective


def test_a_clustering_keeps_its_labels_as_one_read_only_array():
    c, d = Clustering((0, 0, 1)), Clustering(np.array([0, 0, 1]))
    assert c == d and hash(c) == hash(d)
    assert c != Clustering((0, 1, 1)) and c != Clustering((0, 0))
    for x in (c, d, Clustering(np.array([0, 0, 1], dtype=np.int32))):
        assert x.labels.dtype == np.int64 and x.labels.tolist() == [0, 0, 1]
        assert not x.labels.flags.writeable
        assert x.assignment == (0, 0, 1) and type(x.assignment[0]) is int
        assert (x.n, x.num_clusters) == (3, 2)
    # a given array is copied, so the caller's stays writable and its own
    given = np.array([0, 1, 1])
    e = Clustering(given)
    given[0] = 1
    assert given.flags.writeable and e.assignment == (0, 1, 1)
    empty = Clustering(())
    assert (empty.labels.dtype, empty.assignment, empty.n, empty.num_clusters) == (
        np.int64, (), 0, 0)
    assert Clustering.from_assignment(["b", "a", "b"]) == Clustering((0, 1, 0))


def test_objective_examples(path3, k3, star4):
    assert lambda_cc_objective(k3, 0.8, Clustering((0, 0, 0))) == 0.0
    assert lambda_cc_objective(path3, 0.3, Clustering((0, 0, 0))) == pytest.approx(0.3)
    assert lambda_cc_objective(star4, 0.5, Clustering((0, 0, 1, 2))) == pytest.approx(1.0)


def test_objective_requires_full_assignment(path3):
    with pytest.raises(ParameterError):
        lambda_cc_objective(path3, 0.5, Clustering((0, 0)))


def _objective_pairwise(g, lam, c):
    total = 0.0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            together = c.assignment[u] == c.assignment[v]
            if g.has_edge(u, v) and not together:
                total += 1.0 - lam
            elif not g.has_edge(u, v) and together:
                total += lam
    return total


def test_objective_formula_matches_pairwise_definition():
    rng = np.random.default_rng(1)
    for seed in range(25):
        n = int(rng.integers(2, 50))
        g = erdos_renyi(n, 0.15, seed)
        c = Clustering.from_assignment(rng.integers(0, max(2, n // 3), size=n).tolist())
        lam = float(rng.uniform(0.05, 0.95))
        assert lambda_cc_objective(g, lam, c) == pytest.approx(
            _objective_pairwise(g, lam, c)
        )
    for g, c in ((Graph.from_edges(0, []), Clustering(())),
                 (Graph.from_edges(5, []), Clustering((0, 0, 1, 0, 2)))):
        assert lambda_cc_objective(g, 0.3, c) == _objective_pairwise(g, 0.3, c)


# ---------------------------------------------------------------------------
# Pivot


def test_pivot_edgeless_gives_singletons():
    g = Graph.from_edges(4, [])
    for seed in (0, 7, 123):
        assert pivot(g, seed).num_clusters == 4


def test_pivot_complete_graph_single_cluster():
    k4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    for seed in range(6):
        assert pivot(k4, seed).num_clusters == 1


def test_pivot_path_center_first(path3):
    # find a seed whose order visits vertex 1 first; the whole path collapses
    for seed in range(50):
        if np.random.default_rng(seed).permutation(3)[0] == 1:
            assert pivot(path3, seed).num_clusters == 1
            return
    pytest.fail("no seed drew the center first")


@pytest.mark.parametrize("g", [
    Graph.from_edges(0, []),
    Graph.from_edges(1, []),
    Graph.from_edges(9, []),
    Graph.from_edges(7, [(u, v) for u in range(7) for v in range(u + 1, 7)]),
], ids=["empty", "single", "edgeless", "complete"])
def test_pivot_matches_reference_on_extreme_graphs(g):
    for seed in range(8):
        assert pivot(g, seed) == _list_pivot(_adjacency(g), seed)


def _clique_union(n, teams, seed):
    """A collaboration-shaped graph: ``teams`` cliques of 2-7 random vertices."""
    rng = np.random.default_rng(seed)
    edges = []
    for _ in range(teams):
        team = sorted(set(rng.choice(n, size=int(rng.integers(2, 8))).tolist()))
        edges += [(u, v) for i, u in enumerate(team) for v in team[i + 1:]]
    return Graph.from_edges(n, edges)


def test_pivot_matches_reference_on_mid_size_derived_graphs(monkeypatch):
    seen = _spy_pivot(monkeypatch)
    for gseed, lam in ((71, 0.55), (72, 0.75), (73, 0.3)):
        g = _clique_union(300, 150, gseed)
        widx = enumerate_wedges(g)
        labeling, _ = cover_label(g, widx, lam)
        graphs = [derived_graph_from_labeling(g, labeling)]
        x = solve_exact(build_lambda_stc_lp(g, widx, lam)[1]).solution.to_x(g)
        round_lambda_stc_lp(g, widx, lam, x, 0)
        graphs.append(seen.pop())
        for gh in graphs:
            ref = _adjacency(gh)
            for seed in range(24):
                assert pivot(gh, seed) == _list_pivot(ref, seed)


@pytest.mark.parametrize("make", [
    lambda: Graph.from_edges(2000, [(v, v + 1) for v in range(1999)]),
    lambda: Graph.from_edges(501, [(0, v) for v in range(1, 501)]),
    lambda: Graph.from_edges(60, [(u, v) for u in range(30) for v in range(30, 60)]),
    lambda: Graph.from_edges(200, [(5 * c + i, 5 * c + j) for c in range(40)
                                   for i in range(5) for j in range(i + 1, 5)]),
    lambda: _clique_union(3000, 1500, 74),
], ids=["path-2000", "star-500", "k-30-30", "k5-x40", "clique-union-3000"])
def test_pivot_matches_reference_on_round_loop_shapes(make):
    g = make()
    ref = _adjacency(g)
    for seed in range(24):
        assert pivot(g, seed) == _list_pivot(ref, seed)


def test_pivot_matches_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw):
        n = draw(st.integers(0, 40))
        if n == 0:
            return Graph.from_edges(0, [])
        vertex = st.integers(0, n - 1)
        return Graph.from_edges(n, draw(st.lists(st.tuples(vertex, vertex), max_size=200)))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(graphs(), st.integers(0, 2**64 - 1))
    def check(g, seed):
        assert pivot(g, seed) == _list_pivot(_adjacency(g), seed)

    check()


def test_pivot_is_deterministic_per_seed():
    g = erdos_renyi(30, 0.2, 9)
    assert pivot(g, 42).assignment == pivot(g, 42).assignment
    seen = {pivot(g, s).assignment for s in range(20)}
    assert len(seen) > 1  # different seeds explore different outcomes


def _uniform_draw_distribution(adj):
    """Exact outcome distribution of drawing each pivot uniformly from the
    unclustered vertices, one recursion level per cluster."""
    dist: Counter = Counter()

    def draw(assignment, cid, p):
        left = [v for v, c in enumerate(assignment) if c < 0]
        if not left:
            dist[tuple(assignment)] += p
        for k in left:
            nxt = [cid if v in adj[k] and c < 0 else c for v, c in enumerate(assignment)]
            nxt[k] = cid
            draw(nxt, cid + 1, p / len(left))

    draw([-1] * len(adj), 0, Fraction(1))
    return dist


def test_random_order_has_the_uniform_draw_distribution(monkeypatch):
    graphs = [
        Graph.from_edges(6, [(i, i + 1) for i in range(5)]),  # path
        Graph.from_edges(6, [(0, v) for v in range(1, 6)]),  # star
        Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),  # triangles sharing an edge
        Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]),  # joined by one
    ] + [erdos_renyi(6, 0.5, seed) for seed in range(5)]
    orders: list = []

    class EveryOrder:
        """Stands in for the generator: seed i visits the i-th order."""

        def __init__(self, seed):
            self.seed = seed

        def permutation(self, n):
            return np.array(orders[self.seed], dtype=np.int64)

    monkeypatch.setattr(np.random, "default_rng", EveryOrder)
    for g in graphs:
        orders[:] = itertools.permutations(range(g.n))
        outcomes = Counter(pivot(g, i).assignment for i in range(len(orders)))
        got = {a: Fraction(count, len(orders)) for a, count in outcomes.items()}
        assert got == _uniform_draw_distribution(_adjacency(g))


# seed -> pivot's assignment on erdos_renyi(12, 0.3, 6)
PIVOT_PINS = {
    0: "3 5 1 1 0 2 4 0 1 0 1 2",
    1: "1 0 0 1 2 0 1 3 0 2 3 1",
    2: "1 5 0 0 0 3 4 2 0 2 0 1",
}


@pytest.mark.parametrize("seed", PIVOT_PINS)
def test_pivot_assignments_are_pinned(seed):
    g = erdos_renyi(12, 0.3, 6)
    want = tuple(map(int, PIVOT_PINS[seed].split()))
    assert pivot(g, seed).assignment == want


def test_derived_graph_flips_adjacency(path3):
    gh = path3.toggled(_keys(path3, {(0, 1), (0, 2)}))
    assert not gh.has_edge(0, 1)  # edge deleted
    assert gh.has_edge(0, 2)      # non-edge inserted
    assert gh.has_edge(1, 2)      # untouched
    assert tuple(gh.neighbors(0)) == (2,)


def test_toggled_empty_flip_set_is_identity():
    g = erdos_renyi(12, 0.3, 5)
    gh = g.toggled(np.zeros(0, dtype=np.int64))
    assert gh is g


def test_derived_graph_matches_set_toggle_on_edgeless_graph(wedges_of):
    g = Graph.from_edges(6, [])
    labeling, _ = cover_label(g, wedges_of(g), 0.6)
    _assert_matches_reference(derived_graph_from_labeling(g, labeling), g, set())
    flipped = {(0, 5), (1, 2)}
    _assert_matches_reference(g.toggled(_keys(g, flipped)), g, flipped)


@pytest.mark.parametrize("lam", [0.3, 0.55, 0.75])
def test_derived_graph_from_labeling_matches_set_toggle(lam):
    for seed in range(6):
        g = erdos_renyi(14, 0.35, 300 + seed)
        labeling, _ = cover_label(g, enumerate_wedges(g), lam)
        gh = derived_graph_from_labeling(g, labeling)
        _assert_matches_reference(gh, g, labeling.weak | labeling.missing)


def test_derived_graph_is_kept_on_the_labeling_per_graph():
    g = erdos_renyi(14, 0.35, 310)
    labeling, _ = cover_label(g, enumerate_wedges(g), 0.55)
    flipped = labeling.weak | labeling.missing
    gh = derived_graph_from_labeling(g, labeling)
    assert derived_graph_from_labeling(g, labeling) is gh
    _assert_matches_reference(gh, g, flipped)
    # another graph object, with other edges, gets its own flip
    other = Graph.from_edges(g.n, list(g.edges())[1:] + [(0, 13)])
    assert other.edge_keys().tolist() != g.edge_keys().tolist()
    _assert_matches_reference(derived_graph_from_labeling(other, labeling), other, flipped)
    _assert_matches_reference(derived_graph_from_labeling(g, labeling), g, flipped)
    # the kept graph is no part of equality or hash
    same = StcLabeling(labeling.n, labeling.weak_keys, labeling.missing_keys)
    assert same == labeling and hash(same) == hash(labeling)


def test_cfp_toggles_once_per_passed_labeling(monkeypatch):
    g = erdos_renyi(30, 0.2, 311)
    widx = enumerate_wedges(g)
    lab, cert = cover_label(g, widx, 0.55)
    ref = _set_toggle(g, lab.weak | lab.missing)
    real = Graph.toggled
    calls = []
    monkeypatch.setattr(Graph, "toggled", lambda self, keys: calls.append(1) or real(self, keys))
    reports = [cover_flip_pivot(g, widx, 0.55, seed, labeling=lab, certificate=cert)
               for seed in range(3)]
    assert len(calls) == 1
    for seed, rep in enumerate(reports):
        assert rep.clustering == _list_pivot(ref, seed)
        assert rep.objective == lambda_cc_objective(g, 0.55, rep.clustering)
        assert (rep.lower_bound, rep.lb_provenance) == (cert.lower_bound, "dual_certificate")
        assert rep.ratio == rep.objective / cert.lower_bound


@pytest.mark.parametrize("lam", [0.3, 0.55, 0.75])
def test_rounding_graphs_match_set_toggle(lam, monkeypatch):
    seen = _spy_pivot(monkeypatch)
    for seed in range(3):
        g = erdos_renyi(9, 0.4, 350 + seed)
        widx = enumerate_wedges(g)
        x = solve_exact(build_lambda_stc_lp(g, widx, lam)[1]).solution.to_x(g)
        rep = round_lambda_stc_lp(g, widx, lam, x, seed)
        _assert_matches_reference(seen.pop(), g, _stc_flip(g, lam, x))
        assert rep.clustering == _list_pivot(_set_toggle(g, _stc_flip(g, lam, x)), seed)
        if lam >= 0.5:
            x3 = solve_general_exact(build_intermediate_lp(g, widx, lam)).solution
            rep = round_intermediate_lp(g, widx, lam, x3, seed)
            _assert_matches_reference(seen.pop(), g, _third_flip(g, x3))
            assert rep.clustering == _list_pivot(_set_toggle(g, _third_flip(g, x3)), seed)
    assert seen == []


def test_equal_arguments_give_equal_reports():
    # a report holds no wall-clock time, so a run is a function of its arguments
    g, lam = erdos_renyi(14, 0.35, 320), 0.6
    widx = enumerate_wedges(g)
    x = solve_exact(build_lambda_stc_lp(g, widx, lam)[1]).solution.to_x(g)
    x3 = solve_general_exact(build_intermediate_lp(g, widx, lam)).solution
    runs = [
        lambda: cover_flip_pivot(g, widx, lam, 1),
        lambda: round_lambda_stc_lp(g, widx, lam, x, 1),
        lambda: round_intermediate_lp(g, widx, lam, x3, 1),
        lambda: lambda_louvain(g, lam, 1),
    ]
    for run in runs:
        assert run() == run()
    assert [run().algorithm for run in runs] == ["cfp", "lp-round", "lp3-round", "louvain"]


def _loop_violation(widx, x, triangles):
    """Reference feasibility scan, one pair lookup at a time (absent pairs: x = 1)."""

    def value(u, v):
        return float(x.at(np.int64(min(u, v) * x.n + max(u, v))))

    wedges = zip(widx.wedge_center.tolist(), widx.wedge_lo.tolist(), widx.wedge_hi.tolist())
    for c, i, k in wedges:
        if value(i, k) > value(i, c) + value(c, k) + 1e-9:
            return "open-wedge"
    tris = zip(widx.tri_i.tolist(), widx.tri_j.tolist(), widx.tri_k.tolist())
    for i, j, k in tris if triangles else ():
        xij, xik, xjk = value(i, j), value(i, k), value(j, k)
        if xik > xij + xjk + 1e-9 or xjk > xij + xik + 1e-9 or xij > xik + xjk + 1e-9:
            return "closed triple"
    return None


def _violated_kind(widx, rounding_call):
    """Run a rounding that must fail; the kind of the first row its error names
    (the wedge rows come before the triangle rows)."""
    with pytest.raises(InfeasibleSolutionError, match="violates a row") as err:
        rounding_call()
    row = int(re.search(r"first row (\d+)$", str(err.value)).group(1))
    return "open-wedge" if row < widx.wedge_count else "closed triple"


def test_rounding_feasibility_checks_match_loop_reference(solution_of):
    rng = np.random.default_rng(8)
    verdicts = set()
    for trial in range(40):
        g = erdos_renyi(9, 0.45, 500 + trial % 8)
        widx = enumerate_wedges(g)
        x = solve_exact(build_lambda_stc_lp(g, widx, 0.75)[1]).solution.to_x(g)
        values = dict(x.values)
        for p in list(values):
            r = rng.random()
            if r < 0.1:
                del values[p]  # inactive: the checks must read x = 1
            elif r < 0.25:
                values[p] = float(rng.choice([0.0, 0.5, 1.0]))
        bad = solution_of(g, "x", 0.75, values, x.objective)
        for rounding, triangles in ((round_lambda_stc_lp, False), (round_intermediate_lp, True)):
            expected = _loop_violation(widx, bad, triangles)
            verdicts.add(expected)
            call = lambda: rounding(g, widx, 0.75, bad, seed=trial)
            if expected is None:
                call()
            else:
                assert _violated_kind(widx, call) == expected
    assert verdicts == {None, "open-wedge", "closed triple"}


# ---------------------------------------------------------------------------
# Cover-flip-pivot


def test_cfp_k3_no_flips(k3, wedges_of):
    rep = cover_flip_pivot(k3, wedges_of(k3), 0.6, seed=0)
    assert rep.objective == 0.0
    assert rep.num_clusters == 1
    assert rep.ratio == 1.0  # 0 / 0 treated as 1


def test_cfp_path_example(path3, wedges_of):
    rep = cover_flip_pivot(path3, wedges_of(path3), 0.6, seed=11)
    # Ghat is edgeless: three singletons, objective 2*(1-lambda)
    assert rep.num_clusters == 3
    assert rep.objective == pytest.approx(0.8)
    assert rep.lower_bound == pytest.approx(0.4)
    assert rep.ratio == pytest.approx(2.0)
    assert rep.objective <= 2.0 * 0.8 + 1e-12  # twice the labeling cost


def test_cfp_star_every_seed(star4, wedges_of):
    widx = wedges_of(star4)
    for seed in range(8):
        rep = cover_flip_pivot(star4, widx, 0.5, seed=seed)
        a = rep.clustering.assignment
        assert a[0] == a[3] != a[1] == a[2]
        assert rep.objective == pytest.approx(1.5)


def test_cfp_runs_below_half_with_a_valid_bound():
    # no factor below 1/2, but the cover dual still bounds the optimum
    for graph_seed in range(6):
        g = erdos_renyi(8, 0.45, 900 + graph_seed)
        widx = enumerate_wedges(g)
        for lam in (0.05, 0.3, 0.45):
            opt = exact_lambda_cc(g, lam).optimum
            rep = cover_flip_pivot(g, widx, lam, seed=graph_seed)
            assert rep.lower_bound <= opt + 1e-9
            assert opt <= rep.objective + 1e-9


def test_cfp_rejects_half_a_labeling_pair():
    g = erdos_renyi(12, 0.4, 3)
    widx = enumerate_wedges(g)
    lab, cert = cover_label(g, widx, 0.6)
    for half in ({"labeling": StcLabeling.from_pairs(g.n)}, {"certificate": cert}):
        with pytest.raises(ParameterError, match="together"):
            cover_flip_pivot(g, widx, 0.6, seed=0, **half)
    both = cover_flip_pivot(g, widx, 0.6, seed=0, labeling=lab, certificate=cert)
    neither = cover_flip_pivot(g, widx, 0.6, seed=0)
    assert (both.clustering, both.lower_bound) == (neither.clustering, neither.lower_bound)


def test_cfp_flip_covers_every_wedge():
    for seed in range(15):
        g = erdos_renyi(9, 0.4, 600 + seed)
        widx = enumerate_wedges(g)
        labeling, _ = cover_label(g, widx, 0.6)
        gh = derived_graph_from_labeling(g, labeling)
        flipped = {divmod(int(k), g.n) for k in np.setxor1d(g.edge_keys(), gh.edge_keys())}
        wedges = zip(widx.wedge_center.tolist(), widx.wedge_lo.tolist(), widx.wedge_hi.tolist())
        for c, i, k in wedges:
            pairs = [tuple(sorted((i, c))), tuple(sorted((c, k))), (i, k)]
            assert any(p in flipped for p in pairs)


def test_cfp_statistical_bound_small_sample():
    for seed in range(10):
        g = erdos_renyi(8, 0.5, 70 + seed)
        widx = enumerate_wedges(g)
        for lam in (0.5, 0.8):
            labeling, cert = cover_label(g, widx, lam)
            cost = stc_objective(g, lam, labeling)
            gh = derived_graph_from_labeling(g, labeling)
            objs = [
                lambda_cc_objective(g, lam, pivot(gh, s)) for s in range(300)
            ]
            assert np.mean(objs) <= 2.0 * cost * 1.15 + 1e-9


def test_flip_bound_holds_for_any_feasible_labeling():
    # the twice-the-labeling-cost expectation bound is a statement about
    # every feasible labeling, not just the cover algorithm's output
    from lamcc.oracle import exact_lambda_stc

    for seed in range(8):
        g = erdos_renyi(8, 0.5, 130 + seed)
        widx = enumerate_wedges(g)
        for lam in (0.5, 0.8):
            all_weak = StcLabeling.from_pairs(g.n, weak=g.edges())  # trivially feasible
            optimal = exact_lambda_stc(g, widx, lam).witness
            for labeling in (all_weak, optimal):
                cost = stc_objective(g, lam, labeling)
                gh = derived_graph_from_labeling(g, labeling)
                objs = [
                    lambda_cc_objective(g, lam, pivot(gh, s)) for s in range(300)
                ]
                assert np.mean(objs) <= 2.0 * cost * 1.15 + 1e-9


def test_louvain_deterministic_per_seed():
    g = erdos_renyi(15, 0.3, 11)
    a = lambda_louvain(g, 0.6, seed=4)
    b = lambda_louvain(g, 0.6, seed=4)
    assert a.clustering == b.clustering and a.objective == b.objective


# ---------------------------------------------------------------------------
# LP roundings


def test_rounding_thresholds_and_factors():
    assert stc_rounding_threshold(0.5) == pytest.approx(2.0 / 3.0)
    assert stc_rounding_threshold(0.25) == pytest.approx(0.2)
    assert stc_rounding_factor(0.25) == pytest.approx(5.0)
    assert stc_rounding_factor(0.5) == pytest.approx(3.0)
    assert stc_rounding_factor(1.0 - 1e-9) == pytest.approx(5.0)


def test_round_stc_lp_k3_all_zero(k3, wedges_of, solution_of):
    sol = solution_of(k3, "x", 0.75, {(0, 1): 0.0, (0, 2): 0.0, (1, 2): 0.0}, 0.0)
    rep = round_lambda_stc_lp(k3, wedges_of(k3), 0.75, sol, seed=0)
    assert rep.num_clusters == 1 and rep.objective == 0.0


def test_round_stc_lp_rejects_infeasible(path3, wedges_of, solution_of):
    bad = solution_of(path3, "x", 0.6, {(0, 1): 0.0, (1, 2): 0.0, (0, 2): 1.0}, 0.0)
    with pytest.raises(InfeasibleSolutionError):
        round_lambda_stc_lp(path3, wedges_of(path3), 0.6, bad, seed=0)


def test_round_stc_lp_small_lambda_keeps_all_edges(star4, wedges_of):
    widx = wedges_of(star4)
    _, inst = build_lambda_stc_lp(star4, widx, 0.25)
    sol = solve_exact(inst).solution.to_x(star4)
    rep = round_lambda_stc_lp(star4, widx, 0.25, sol, seed=3)
    # edges of G always survive into Ghat for lambda < 1/2, so the star
    # stays connected and every pivot returns one cluster
    assert rep.num_clusters == 1


def test_round_intermediate_path_example(path3, wedges_of, solution_of):
    sol = solution_of(path3, "x", 0.6, {(0, 1): 1.0, (1, 2): 0.0, (0, 2): 1.0}, 0.4)
    for seed in range(5):
        rep = round_intermediate_lp(path3, wedges_of(path3), 0.6, sol, seed=seed)
        a = rep.clustering.assignment
        assert a[0] != a[1] == a[2]
        assert rep.objective == pytest.approx(0.4)
        assert rep.objective == pytest.approx(exact_lambda_cc(path3, 0.6).optimum)


def test_round_intermediate_boundary_is_strict(path3, wedges_of, solution_of):
    third = 1.0 / 3.0
    sol = solution_of(path3, "x", 0.6, {(0, 1): third, (1, 2): third, (0, 2): 2 * third}, 0.0)
    rep = round_intermediate_lp(path3, wedges_of(path3), 0.6, sol, seed=0)
    assert rep.num_clusters == 3  # x == 1/3 pairs are excluded from Ghat


def test_round_intermediate_rejects_triangle_infeasible(k3, wedges_of, solution_of):
    widx = wedges_of(k3)
    bad = solution_of(k3, "x", 0.6, {(0, 1): 0.0, (0, 2): 0.0, (1, 2): 1.0}, 0.0)
    call = lambda: round_intermediate_lp(k3, widx, 0.6, bad, seed=0)
    assert _violated_kind(widx, call) == "closed triple"


def test_wedge_check_defaults_omitted_end_pair_to_one(path3, wedges_of, solution_of):
    # (0, 2) is the open end pair of path3's wedge; left out, it reads x = 1
    widx = wedges_of(path3)
    bad = solution_of(path3, "x", 0.6, {(0, 1): 0.25, (1, 2): 0.5}, 0.0)
    ok = solution_of(path3, "x", 0.6, {(0, 1): 0.5, (1, 2): 0.5}, 0.0)
    for rounding in (round_lambda_stc_lp, round_intermediate_lp):
        assert _violated_kind(widx, lambda: rounding(path3, widx, 0.6, bad, seed=0)) == "open-wedge"
        rounding(path3, widx, 0.6, ok, seed=0)


# n <= 9; on erdos_renyi(8, 0.55, 9008) at lambda 0.55 the MWU primal (3.15)
# lies above the clustering optimum (2.8), and its checked dual (2.786) below
SANDWICH_GRAPHS = [(n, p, 9100 + 100 * (p > 0.5) + n) for n in (6, 7, 8, 9)
                   for p in (0.35, 0.55)] + [(8, 0.55, 9008)]


@pytest.mark.parametrize("n, p, graph_seed", SANDWICH_GRAPHS)
def test_lp_roundings_report_the_checked_dual_below_the_optimum(n, p, graph_seed):
    g = erdos_renyi(n, p, graph_seed)
    widx = enumerate_wedges(g)
    sweep = exact_lambda_cc_sweep(g, [0.3, 0.55, 0.75])
    for lam, exact in sweep.items():
        inst = build_lambda_stc_lp(g, widx, lam)[1]
        for res, rounding in [
            (solve_exact(inst), round_lambda_stc_lp),
            (solve_mwu(inst, 0.2), round_lambda_stc_lp),
            (solve_general_exact(build_intermediate_lp(g, widx, lam)), round_intermediate_lp),
        ]:
            rep = rounding(g, widx, lam, res.solution.to_x(g), seed=graph_seed)
            assert (rep.lower_bound, rep.lb_provenance) == (res.dual_objective, "lp_dual")
            assert rep.lower_bound <= exact.optimum + 1e-9 <= rep.objective + 2e-9
            assert rep.ratio == rep.objective / rep.lower_bound


def test_a_hand_built_solution_gives_no_bound(path3, wedges_of, solution_of):
    widx = wedges_of(path3)
    sol = solution_of(path3, "x", 0.6, {(0, 1): 0.5, (1, 2): 0.5}, 0.4)
    assert sol.dual_objective is None
    for rounding in (round_lambda_stc_lp, round_intermediate_lp):
        rep = rounding(path3, widx, 0.6, sol, seed=0)
        assert (rep.lower_bound, rep.lb_provenance, rep.ratio) == (None, None, None)


def test_round_intermediate_runs_below_half_with_a_valid_bound():
    # no factor below 1/2, but the intermediate LP still relaxes every clustering
    for graph_seed in range(6):
        g = erdos_renyi(8, 0.45, 900 + graph_seed)
        widx = enumerate_wedges(g)
        for lam in (0.05, 0.3, 0.45):
            opt = exact_lambda_cc(g, lam).optimum
            sol = solve_general_exact(build_intermediate_lp(g, widx, lam)).solution
            rep = round_intermediate_lp(g, widx, lam, sol, seed=graph_seed)
            assert rep.lower_bound <= opt + 1e-9
            assert opt <= rep.objective + 1e-9


# ---------------------------------------------------------------------------
# Greedy local moves


def test_louvain_k3_single_cluster(k3):
    rep = lambda_louvain(k3, 0.4, seed=0)
    assert rep.num_clusters == 1 and rep.objective == 0.0


def test_louvain_edgeless_stays_singletons():
    g = Graph.from_edges(5, [])
    rep = lambda_louvain(g, 0.5, seed=0)
    assert rep.num_clusters == 5


def test_louvain_star_matches_oracle(star4):
    rep = lambda_louvain(star4, 0.5, seed=1)
    assert rep.objective == pytest.approx(1.0)
    assert rep.lower_bound is None and rep.ratio is None


def test_louvain_never_worse_than_singletons():
    for seed in range(12):
        g = erdos_renyi(12, 0.3, 80 + seed)
        lam = (0.3, 0.6, 0.9)[seed % 3]
        rep = lambda_louvain(g, lam, seed=seed)
        singletons = lambda_cc_objective(
            g, lam, Clustering(tuple(range(g.n)))
        )
        assert rep.objective <= singletons + 1e-9


def _level0_labels(g, lam, seed):
    """The labels of Louvain's first level: local moves from singletons."""
    return lamcc.cluster._greedy_passes(
        g.indptr, g.indices, np.ones(g.indices.shape[0]), np.ones(g.n), lam,
        np.random.default_rng(seed),
    )


def _level0_objective(g, lam, seed):
    return lambda_cc_objective(g, lam, Clustering.from_assignment(_level0_labels(g, lam, seed)))


# (n, p, graph seed, lambda, seed) -> (level 0, aggregated) assignments
LOUVAIN_PINS = {
    (12, 0.3, 6, 0.3, 0): ("0 1 2 2 3 4 5 1 4 3 5 0", "0 1 2 2 3 1 0 1 1 3 0 0"),
    (12, 0.5, 0, 0.55, 0): ("0 1 0 0 2 3 1 3 2 1 2 1", "0 1 0 0 1 2 1 2 1 1 1 1"),
    (12, 0.5, 1, 0.3, 0): ("0 1 1 1 0 1 0 2 0 1 0 2", "0 0 0 0 0 0 0 1 0 0 0 1"),
    (12, 0.5, 9, 0.55, 0): ("0 1 1 2 3 4 2 3 4 0 3 1", "0 1 1 2 2 3 2 2 3 0 2 1"),
    (12, 0.4, 3, 0.75, 1): ("0 1 2 3 2 0 4 1 0 4 3 1", "0 1 2 3 2 0 4 1 0 4 3 1"),
    (30, 0.2, 5, 0.3, 2): (
        "0 1 2 3 4 0 5 4 4 4 6 7 4 6 6 2 8 3 7 4 0 1 3 1 8 2 4 1 5 4",
        "0 1 2 2 3 0 4 3 3 3 5 6 3 5 5 2 5 2 6 3 0 1 2 1 5 2 3 1 4 3",
    ),
    (30, 0.2, 5, 0.55, 2): (
        "0 1 2 3 4 5 6 4 7 0 7 8 9 10 9 2 10 3 8 11 0 1 3 1 4 2 4 5 6 11",
    ) * 2,
}


@pytest.mark.parametrize("case", LOUVAIN_PINS)
@pytest.mark.parametrize("aggregated", [False, True])
def test_louvain_assignments_are_pinned(case, aggregated):
    n, p, graph_seed, lam, seed = case
    g = erdos_renyi(n, p, graph_seed)
    want = tuple(map(int, LOUVAIN_PINS[case][aggregated].split()))
    if not aggregated:  # the first level's RNG draws and tie rule
        assert tuple(_level0_labels(g, lam, seed).tolist()) == want
        return
    rep = lambda_louvain(g, lam, seed)
    assert rep.clustering.assignment == want
    assert rep.objective == lambda_cc_objective(g, lam, Clustering(want))
    assert (rep.lower_bound, rep.lb_provenance, rep.ratio) == (None, None, None)


def test_louvain_aggregate_matches_dict_reference():
    rng = np.random.default_rng(3)
    for trial in range(20):
        g = erdos_renyi(15, 0.3, 40 + trial)
        k = int(rng.integers(1, 8))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, g.n - k)])
        weights = rng.integers(1, 4, g.indices.shape[0]).astype(float)
        sizes = rng.integers(1, 5, g.n).astype(float)
        indptr, indices, w, s = lamcc.cluster._aggregate(
            g.indptr, g.indices, weights, sizes, labels, k
        )
        ref: list[dict[int, float]] = [{} for _ in range(k)]
        ref_sizes = [0.0] * k
        for v in range(g.n):
            ref_sizes[labels[v]] += sizes[v]
            for i in range(g.indptr[v], g.indptr[v + 1]):
                cv, cu = labels[v], labels[g.indices[i]]
                if cu != cv:
                    ref[cv][cu] = ref[cv].get(cu, 0.0) + weights[i]
        got = [dict(zip(indices[indptr[c]:indptr[c + 1]].tolist(),
                        w[indptr[c]:indptr[c + 1]].tolist())) for c in range(k)]
        assert got == ref and s.tolist() == ref_sizes


def test_louvain_is_never_worse_than_its_first_level():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.integers(1, 24), st.floats(0.05, 0.6), st.integers(0, 2**32 - 1),
                      st.floats(0.01, 0.99), st.integers(0, 2**32 - 1))
    def check(n, p, graph_seed, lam, seed):
        g = erdos_renyi(n, p, graph_seed)
        assert lambda_louvain(g, lam, seed).objective <= _level0_objective(g, lam, seed)

    check()


def test_louvain_multilevel_smoke():
    g = erdos_renyi(20, 0.25, 5)
    assert lambda_louvain(g, 0.5, seed=2).objective <= _level0_objective(g, 0.5, 2) + 1e-9


def test_louvain_multilevel_finds_a_lower_objective():
    # aggregating the level-0 clusters finds a lower objective here
    g = erdos_renyi(10, 0.3, 1)
    assert _level0_objective(g, 0.3, 0) == 3.8
    assert lambda_louvain(g, 0.3, seed=0).objective == 3.5999999999999996


# ---------------------------------------------------------------------------
# Reports


def test_a_posteriori_zero_over_zero(k3, wedges_of):
    # K3 has no open wedge, so the cover bound is 0; pivot keeps the triangle whole
    rep = cover_flip_pivot(k3, wedges_of(k3), 0.6, seed=0)
    assert (rep.lower_bound, rep.objective, rep.ratio) == (0.0, 0.0, 1.0)


def test_table_style_ratio():
    # objective 4092 against lower bound 2064 reads as roughly 2.0
    assert 4092 / 2064 == pytest.approx(1.98, abs=0.005)


def test_assignment_text(path3):
    assert assignment_text(Clustering((0, 0, 1))) == "0 0\n1 0\n2 1\n"
