import functools
import math

import numpy as np
import pytest

from lamcc import graph as graph_module
from lamcc import stc
from lamcc.certificate import dual_bound
from lamcc.errors import InvalidLabelingError, ParameterError
from lamcc.graph import Graph, _rows_by_column, enumerate_wedges
from lamcc.oracle import exact_lambda_stc
from lamcc.stc import (
    RESIDUAL_ZERO_TOL,
    StcLabeling,
    StcRegime,
    cover_label,
    is_feasible,
    stc_objective,
    stc_regime,
)
from lamcc.testing import erdos_renyi

def lab(g, weak=(), missing=()):
    return StcLabeling.from_pairs(g.n, weak, missing)


# ---------------------------------------------------------------------------
# Objective and feasibility


def test_objective_examples(path3, k3, star4):
    assert stc_objective(k3, 0.7, lab(k3)) == 0.0
    assert stc_objective(path3, 0.6, lab(path3, weak=[(0, 1)])) == pytest.approx(0.4)
    full = lab(star4, weak=[(0, 1), (0, 2)], missing=[(1, 2)])
    assert stc_objective(star4, 0.5, full) == pytest.approx(1.5)


def test_objective_rejects_mislabeled_pairs(path3):
    with pytest.raises(InvalidLabelingError):
        stc_objective(path3, 0.5, lab(path3, weak=[(0, 2)]))  # not an edge
    with pytest.raises(InvalidLabelingError):
        stc_objective(path3, 0.5, lab(path3, missing=[(0, 1)]))  # an edge


def test_lambda_validation(path3):
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ParameterError):
            stc_objective(path3, bad, lab(path3))


def test_feasibility_examples(path3, star4):
    wp = enumerate_wedges(path3)
    assert not is_feasible(path3, wp, lab(path3))
    assert is_feasible(path3, wp, lab(path3, missing=[(0, 2)]))
    ws = enumerate_wedges(star4)
    assert is_feasible(star4, ws, lab(star4, weak=[(0, 1), (0, 2)]))
    assert not is_feasible(star4, ws, lab(star4, weak=[(0, 1)]))


def test_feasibility_no_wedges_always_true(k3):
    assert is_feasible(k3, enumerate_wedges(k3), lab(k3))


# ---------------------------------------------------------------------------
# Cover algorithm


def test_cover_label_k3(k3):
    labeling, cert = cover_label(k3, enumerate_wedges(k3), 0.4)
    assert labeling == lab(k3)
    assert cert.lower_bound == 0.0


def test_cover_label_path(path3):
    widx = enumerate_wedges(path3)
    labeling, cert = cover_label(path3, widx, 0.6)
    # single wedge, M = min(0.4, 0.4, 0.6) = 0.4 zeroes both edges
    assert labeling.weak == frozenset({(0, 1), (1, 2)})
    assert labeling.missing == frozenset()
    assert cert.lower_bound == pytest.approx(0.4)
    assert is_feasible(path3, widx, labeling)


def test_cover_label_star_tight_for_factor_three(star4):
    widx = enumerate_wedges(star4)
    labeling, cert = cover_label(star4, widx, 0.5)
    assert labeling.weak == frozenset({(0, 1), (0, 2)})
    assert labeling.missing == frozenset({(1, 2)})
    assert cert.lower_bound == pytest.approx(0.5)
    obj = stc_objective(star4, 0.5, labeling)
    assert obj == pytest.approx(1.5)
    assert obj == pytest.approx(3.0 * cert.lower_bound)  # factor 3 is tight here
    assert exact_lambda_stc(star4, widx, 0.5).optimum == pytest.approx(1.0)


def test_cover_label_deterministic(star4):
    widx = enumerate_wedges(star4)
    a = cover_label(star4, widx, 0.5)
    b = cover_label(star4, widx, 0.5)
    assert a[0] == b[0]
    assert a[1].lower_bound == b[1].lower_bound


def test_cover_label_shuffled_order_still_feasible():
    g = erdos_renyi(10, 0.4, 3)
    widx = enumerate_wedges(g)
    for seed in (0, 1, 2):
        labeling, cert = _cover_label_shuffled(g, widx, 0.6, seed)
        assert is_feasible(g, widx, labeling)
        assert stc_objective(g, 0.6, labeling) <= 3.0 * cert.lower_bound + 1e-12


def test_minimal_post_pass_keeps_feasibility_and_never_costs_more():
    for seed in range(15):
        g = erdos_renyi(9, 0.5, 100 + seed)
        widx = enumerate_wedges(g)
        plain, _ = cover_label(g, widx, 0.7)
        slim, _ = cover_label(g, widx, 0.7, minimal=True)
        assert is_feasible(g, widx, slim)
        assert slim.weak <= plain.weak and slim.missing <= plain.missing
        assert stc_objective(g, 0.7, slim) <= stc_objective(g, 0.7, plain)


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.75, 0.95])
def test_cover_label_properties_random_graphs(lam):
    for seed in range(25):
        g = erdos_renyi(4 + seed % 6, (0.2, 0.4, 0.6)[seed % 3], 200 + seed)
        widx = enumerate_wedges(g)
        labeling, cert = cover_label(g, widx, lam)
        assert is_feasible(g, widx, labeling)
        obj = stc_objective(g, lam, labeling)
        assert obj <= 3.0 * cert.lower_bound + 1e-12
        # dual feasibility: per-pair wedge contributions stay within cost
        contributions: dict[int, float] = {}
        keys = widx.wedge_pair_keys()
        for w in range(widx.wedge_count):
            for key in keys[w]:
                contributions[int(key)] = contributions.get(int(key), 0.0) + float(
                    cert.wedge_values[w]
                )
        for key, total in contributions.items():
            u, v = key // g.n, key % g.n
            assert total <= (1.0 - lam if g.has_edge(u, v) else lam) + 1e-12


def test_dual_lower_bound_below_exact_optimum():
    for seed in range(20):
        g = erdos_renyi(8, 0.5, 300 + seed)
        widx = enumerate_wedges(g)
        for lam in (0.4, 0.6):
            _, cert = cover_label(g, widx, lam)
            opt = exact_lambda_stc(g, widx, lam).optimum
            assert cert.lower_bound <= opt + 1e-12


def test_minstc_equivalent_regime_places_no_missing_pairs():
    for seed in range(10):
        g = erdos_renyi(8, 0.5, 500 + seed)
        if g.m == 0:
            continue
        lam = (g.m + 0.9) / (g.m + 1.0)  # just above m/(m+1)
        assert stc_regime(lam, g.m) is StcRegime.MINSTC_EQUIVALENT
        labeling, _ = cover_label(g, enumerate_wedges(g), lam)
        assert labeling.missing == frozenset()


# ---------------------------------------------------------------------------
# The cover loop and the minimality pass against their plain references

EQUALITY_LAMBDAS = (1e-9, 0.3, 0.5, 0.55, 0.75, 1.0 - 1e-9)


def _reference_cover_label(g, widx, lam, shuffle_seed=None):
    """The cover loop without the dead-wedge skip: every wedge, in order.

    Returns (weak pairs, missing pairs, wedge_values, lower_bound).
    """
    n, M = g.n, widx.wedge_count
    order = np.arange(M)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(M)
    keys3 = widx.wedge_pair_keys()[order]
    uniq, idx3_flat = np.unique(keys3.ravel(), return_inverse=True)
    idx3 = idx3_flat.reshape(-1, 3)
    is_edge = g.edge_mask(uniq)
    cost = np.where(is_edge, 1.0 - lam, lam)
    residual = cost.tolist()
    y = [0.0] * M
    for w, (ia, ib, ic) in enumerate(idx3.tolist()):
        m_ = min(residual[ia], residual[ib], residual[ic])
        if m_ > 0.0:
            residual[ia] -= m_
            residual[ib] -= m_
            residual[ic] -= m_
            y[w] = m_
    zero = np.abs(np.asarray(residual)) <= RESIDUAL_ZERO_TOL
    weak = {(int(k) // n, int(k) % n) for k in uniq[zero & is_edge]}
    missing = {(int(k) // n, int(k) % n) for k in uniq[zero & ~is_edge]}
    y = np.asarray(y, dtype=float)
    lower_bound = dual_bound(idx3, 1.0, 1.0, cost, np.inf, y, tol=1e-12)
    y_canon = np.zeros(M)
    y_canon[order] = y
    return weak, missing, y_canon, lower_bound


def _cover_label_shuffled(g, widx, lam, shuffle_seed, minimal=False):
    """``cover_label``'s steps with the local-ratio pass in a seeded shuffle.

    ``stc._local_ratio`` gets the row order and no run index, as MWU's dual
    ascent calls it, so it builds the run index of that order itself.
    """
    keys, m, rows = widx.covering_layout
    order = np.random.default_rng(shuffle_seed).permutation(rows.shape[0])
    cost = np.full(keys.shape[0], lam)
    cost[:m] = 1.0 - lam
    pos, vals, residual = stc._local_ratio(rows, cost, order)
    y = np.zeros(rows.shape[0])
    y[order[pos]] = vals  # canonical wedge positions
    labeled = residual <= RESIDUAL_ZERO_TOL
    labeled[:m] &= widx.cover_runs[1]
    if minimal:
        cand = np.flatnonzero(labeled)
        labeled = stc._reduce(rows, *widx.rows_by_column, labeled.astype(float),
                              cand[np.argsort(keys[cand])]) > 0.0
    lower_bound = dual_bound(rows, 1.0, 1.0, cost, np.inf, y, tol=1e-12)
    positions = np.flatnonzero(y)
    cert = stc.DualCertificate(positions, y[positions], rows.shape[0], lower_bound)
    return stc._labeling_of_mask(g.n, keys, m, labeled), cert


def _reference_drop_redundant(widx, weak, missing, n):
    """The minimality pass as a double loop over wedges and pairs."""
    labeled = sorted(set(weak) | set(missing))
    label_keys = {u * n + v for u, v in labeled}
    keys3 = widx.wedge_pair_keys()
    cover_count = [0] * widx.wedge_count
    pair_to_wedges: dict[int, list[int]] = {}
    for w in range(widx.wedge_count):
        for k in keys3[w].tolist():
            if k in label_keys:
                cover_count[w] += 1
                pair_to_wedges.setdefault(k, []).append(w)
    kept_weak, kept_missing = set(weak), set(missing)
    for u, v in labeled:
        ws = pair_to_wedges.get(u * n + v, [])
        if all(cover_count[w] >= 2 for w in ws):
            for w in ws:
                cover_count[w] -= 1
            kept_weak.discard((u, v))
            kept_missing.discard((u, v))
    return kept_weak, kept_missing


def _assert_cover_matches_reference(g, lam, shuffle_seed=None):
    widx = enumerate_wedges(g)
    if shuffle_seed is None:
        cover = functools.partial(cover_label, g, widx, lam)
    else:
        cover = functools.partial(_cover_label_shuffled, g, widx, lam, shuffle_seed)
    labeling, cert = cover()
    weak, missing, y, lower_bound = _reference_cover_label(g, widx, lam, shuffle_seed)
    assert labeling.weak == weak and labeling.missing == missing
    assert np.array_equal(cert.wedge_values, y)
    assert cert.lower_bound == lower_bound
    slim, slim_cert = cover(minimal=True)
    assert (slim.weak, slim.missing) == _reference_drop_redundant(widx, weak, missing, g.n)
    assert slim_cert.lower_bound == lower_bound


def _overlapping_cliques(seed, authors=70, papers=45):
    """A small collaboration-shaped graph: papers are cliques of 2-7 authors."""
    rng = np.random.default_rng(seed)
    group = rng.integers(0, 6, authors)
    edges = []
    for _ in range(papers):
        lead = int(rng.integers(authors))
        pool = np.flatnonzero(group == group[lead]) if rng.random() < 0.7 else np.arange(authors)
        team = {lead, *rng.choice(pool, size=min(int(rng.integers(1, 7)), pool.shape[0])).tolist()}
        team = sorted(team)
        edges += [(u, v) for i, u in enumerate(team) for v in team[i + 1:]]
    return Graph.from_edges(authors, edges)


@pytest.mark.parametrize("lam", EQUALITY_LAMBDAS)
@pytest.mark.parametrize("shuffle_seed", [None, 11])
def test_cover_label_equals_reference_on_random_graphs(lam, shuffle_seed):
    for seed in range(6):
        g = erdos_renyi(5 + 3 * seed, (0.2, 0.4, 0.6)[seed % 3], 700 + seed)
        _assert_cover_matches_reference(g, lam, shuffle_seed)


@pytest.mark.parametrize("lam", EQUALITY_LAMBDAS)
@pytest.mark.parametrize("shuffle_seed", [None, 12])
def test_cover_label_equals_reference_across_many_blocks(lam, shuffle_seed):
    g = erdos_renyi(200, 0.1, 41)
    assert enumerate_wedges(g).wedge_count > 20 * stc._BLOCK
    _assert_cover_matches_reference(g, lam, shuffle_seed)


@pytest.mark.parametrize("block", [1, 3, 64])
@pytest.mark.parametrize("lam", [0.3, 0.55, 0.75])
def test_cover_label_equals_reference_at_small_blocks(monkeypatch, block, lam):
    monkeypatch.setattr(stc, "_BLOCK", block)
    for shuffle_seed in (None, 13):
        _assert_cover_matches_reference(erdos_renyi(40, 0.2, 43), lam, shuffle_seed)
        _assert_cover_matches_reference(_overlapping_cliques(44), lam, shuffle_seed)


@pytest.mark.parametrize("lam", EQUALITY_LAMBDAS)
def test_cover_label_equals_reference_on_overlapping_cliques(lam):
    for seed in range(3):
        g = _overlapping_cliques(seed)
        assert enumerate_wedges(g).triangle_count > 0
        for shuffle_seed in (None, 14):
            _assert_cover_matches_reference(g, lam, shuffle_seed)


@pytest.mark.parametrize("lam", EQUALITY_LAMBDAS)
def test_cover_label_on_an_edgeless_graph(lam):
    g = Graph.from_edges(5, [])
    _assert_cover_matches_reference(g, lam)
    labeling, cert = cover_label(g, enumerate_wedges(g), lam)
    assert labeling == lab(g) and cert.wedge_values.shape == (0,)
    assert cert.lower_bound == 0.0


@pytest.mark.parametrize("lam", [1e-13, 1.0 - 1e-13])
def test_cover_label_equals_reference_with_costs_inside_the_zero_tolerance(lam):
    # a pair whose cost is already within RESIDUAL_ZERO_TOL is labeled iff
    # it lies on a wedge; the triangle's edges lie on none
    g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 5)])
    _assert_cover_matches_reference(g, lam)
    labeling, _ = cover_label(g, enumerate_wedges(g), lam)
    assert not labeling.weak & {(0, 1), (1, 2), (0, 2)}
    for seed in range(4):
        _assert_cover_matches_reference(erdos_renyi(12, 0.3, 900 + seed), lam, seed or None)


def test_cover_label_equals_reference_property(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw):
        n = draw(st.integers(1, 24))
        vertex = st.integers(0, n - 1)
        return Graph.from_edges(n, draw(st.lists(st.tuples(vertex, vertex), max_size=120)))

    lams = st.sampled_from(EQUALITY_LAMBDAS) | st.floats(
        1e-9, 1.0 - 1e-9, exclude_min=True, exclude_max=True
    )

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        graphs(), lams, st.none() | st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 7, 512])
    )
    def check(g, lam, shuffle_seed, block):
        monkeypatch.setattr(stc, "_BLOCK", block)
        _assert_cover_matches_reference(g, lam, shuffle_seed)

    check()


def _counting(monkeypatch, module, name):
    """Wrap module.name so that every call is counted; return the count list."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or real(*args))
    return calls


def _cover_tuple(labeling, cert):
    return labeling.weak, labeling.missing, cert.wedge_values.tolist(), cert.lower_bound


def _reference_tuple(g, widx, lam, shuffle_seed=None):
    weak, missing, y, lower_bound = _reference_cover_label(g, widx, lam, shuffle_seed)
    return weak, missing, y.tolist(), lower_bound


def test_cover_label_builds_its_run_index_and_touched_once_per_index(monkeypatch):
    g = _overlapping_cliques(46, authors=300, papers=300)
    widx = enumerate_wedges(g)
    assert "cover_runs" not in vars(widx)  # built on first use only
    built = _counting(monkeypatch, graph_module, "_row_runs")
    per_call = _counting(monkeypatch, stc, "_row_runs")
    first = [_cover_tuple(*cover_label(g, widx, lam)) for lam in (0.55, 0.75)]
    cached = vars(widx)["cover_runs"]
    runs, touched = cached
    assert len(built) == 1 and not per_call
    assert not any(arr.flags.writeable for arr in (*runs, touched))
    # the pass in a shuffled order builds its own run index, not the kept one
    shuffled = _cover_tuple(*_cover_label_shuffled(g, widx, 0.55, 3))
    assert widx.cover_runs is cached and len(built) == 1 and len(per_call) == 1
    assert first == [_reference_tuple(g, widx, lam) for lam in (0.55, 0.75)]
    assert shuffled == _reference_tuple(g, widx, 0.55, 3)


def test_touched_marks_the_edges_on_some_wedge_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw):
        n = draw(st.integers(1, 20))
        vertex = st.integers(0, n - 1)
        return Graph.from_edges(n, draw(st.lists(st.tuples(vertex, vertex), max_size=80)))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(graphs())
    def check(g):
        # edge (u, v) lies on an open wedge iff some third vertex is
        # adjacent to exactly one of u and v
        nbrs = [set(g.neighbors(v).tolist()) for v in range(g.n)]
        expect = [nbrs[u] - {v} != nbrs[v] - {u} for u, v in g.edges()]
        assert enumerate_wedges(g).cover_runs[1].tolist() == expect

    check()


def test_minimal_builds_the_rows_by_column_index_once_per_index(monkeypatch):
    g = _overlapping_cliques(47)
    widx = enumerate_wedges(g)
    built = _counting(monkeypatch, graph_module, "_rows_by_column")
    cover_label(g, widx, 0.55)
    assert "rows_by_column" not in vars(widx) and not built  # only minimal=True asks
    slim = [_cover_tuple(*cover_label(g, widx, lam, minimal=True)) for lam in (0.55, 0.75)]
    assert len(built) == 1
    assert not any(arr.flags.writeable for arr in widx.rows_by_column)
    keys, _, rows = widx.covering_layout
    assert all(np.array_equal(a, b) for a, b in zip(
        widx.rows_by_column, _rows_by_column(rows, keys.shape[0])))
    for lam, (weak, missing, _, lower_bound) in zip((0.55, 0.75), slim):
        ref_weak, ref_missing, _, ref_bound = _reference_tuple(g, widx, lam)
        assert (weak, missing) == _reference_drop_redundant(widx, ref_weak, ref_missing, g.n)
        assert lower_bound == ref_bound


def test_drop_redundant_equals_double_loop():
    rng = np.random.default_rng(45)
    for seed in range(8):
        g = erdos_renyi(9 + 2 * seed, 0.35, 800 + seed) if seed % 2 else _overlapping_cliques(seed)
        widx = enumerate_wedges(g)
        keys3 = widx.wedge_pair_keys()
        edges = g.edge_keys()
        ends = np.unique(keys3[:, 2])
        labelings = [
            cover_label(g, widx, 0.6)[0],
            StcLabeling(g.n, edges, ends),  # every edge weak and every end missing
            StcLabeling(g.n, edges[rng.random(edges.shape[0]) < 0.7],
                        ends[rng.random(ends.shape[0]) < 0.5]),
        ]
        keys, m, rows = widx.covering_layout
        row_of, ptr = _rows_by_column(rows, keys.shape[0])
        for labeling in labelings:
            labeled = np.isin(keys, labeling.labeled_keys())
            cand = np.flatnonzero(labeled)
            z = stc._reduce(rows, row_of, ptr, labeled.astype(float),
                            cand[np.argsort(keys[cand])])
            slim = stc._labeling_of_mask(g.n, keys, m, z > 0.0)
            expect = _reference_drop_redundant(widx, labeling.weak, labeling.missing, g.n)
            assert (slim.weak, slim.missing) == expect


# ---------------------------------------------------------------------------
# The shared local-ratio pass and greedy reduction on generic covering programs


def _reference_local_ratio(rows, residual, order):
    """The local-ratio pass as a plain loop: every row, no skip, pads dropped."""
    res = list(residual)
    pos, vals = [], []
    for p, r in enumerate(order):
        js = [j for j in rows[r] if j >= 0]
        m_ = min(res[j] for j in js)
        if m_ > 0.0:
            for j in js:
                res[j] -= m_
            pos.append(p)
            vals.append(m_)
    return pos, vals, res


def _reference_reduce(rows, z, order, quantum):
    """The greedy reduction as a plain loop: every variable of order, no filter."""
    z = list(z)
    sums = [sum(z[j] if j >= 0 else 0.0 for j in row) for row in rows]
    for j in order:
        if z[j] <= 0.0:
            continue
        rs = [r for r, row in enumerate(rows) if j in row]
        if not rs:
            z[j] = 0.0
            continue
        red = min(z[j], min(sums[r] - 1.0 for r in rs))
        if quantum is not None:
            red = math.floor(red / quantum + 1e-12) * quantum
        if red > 0:
            z[j] -= red
            for r in rs:
                sums[r] -= red
    return z


def _covering_programs(st, values):
    """(rows, start values, row order, variable order) of a covering program.

    Rows hold one to three distinct variables, padded with -1 anywhere in
    the row; the last variable lies on no row.
    """

    @st.composite
    def programs(draw):
        n = draw(st.integers(1, 10))
        row = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
        rows = [draw(st.permutations(r + [-1] * (3 - len(r))))
                for r in draw(st.lists(row, max_size=40))]
        start = draw(st.lists(values, min_size=n + 1, max_size=n + 1))
        row_order = draw(st.permutations(range(len(rows))))
        var_order = draw(st.permutations(range(n + 1)))
        return np.array(rows, dtype=np.int64).reshape(-1, 3), start, row_order, var_order

    return programs()


def _run_programs(st, values):
    """(rows, start values, row order, None) of a covering program in runs.

    Rows are sorted by their first variable, so rows that share it stand
    together, as the wedges on one edge do in canonical order; some runs
    are long. The first variable may be a -1 pad, and there may be no row.
    """

    @st.composite
    def programs(draw):
        n = draw(st.integers(1, 10))
        rows = []
        for head in sorted(draw(st.lists(st.integers(-1, n - 1), max_size=6))):
            others = [j for j in range(n) if j != head]
            # a row needs one variable besides pads
            tail = st.lists(st.sampled_from(others), min_size=1 if head < 0 else 0,
                            max_size=2, unique=True) if others else st.just([])
            for _ in range(draw(st.integers(1, 30))):
                rest = draw(tail)
                rows.append([head] + draw(st.permutations(rest + [-1] * (2 - len(rest)))))
        start = draw(st.lists(values, min_size=n + 1, max_size=n + 1))
        row_order = draw(st.permutations(range(len(rows))))
        return np.array(rows, dtype=np.int64).reshape(-1, 3), start, row_order, None

    return programs()


def test_local_ratio_equals_plain_loop_property(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # exact zeros and small negatives start dead; the rest are costs
    residuals = st.sampled_from([0.0, -0.0, -1e-17, -1e-3, 0.25, 0.5]) | st.floats(
        1e-6, 2.0
    )
    programs = _covering_programs(st, residuals) | _run_programs(st, residuals)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(programs, st.booleans(), st.sampled_from([1, 3, 512]))
    @hypothesis.example((np.zeros((0, 3), dtype=np.int64), [0.5], [], None), False, 1)
    @hypothesis.example((np.array([[-1, 0, -1]]), [0.25, 0.0], [0], None), True, 3)
    @hypothesis.example((np.array([[0, 1, -1]] * 4 + [[1, 0, -1]]), [0.0, 0.5], range(5), None),
                        False, 512)
    def check(program, shuffled, block):
        rows, residual, row_order, _ = program
        monkeypatch.setattr(stc, "_BLOCK", block)
        order = np.array(row_order, dtype=np.int64) if shuffled else None
        visit = row_order if shuffled else range(rows.shape[0])
        pos, vals, res = stc._local_ratio(rows, np.array(residual), order)
        ref_pos, ref_vals, ref_res = _reference_local_ratio(rows.tolist(), residual, visit)
        assert pos.tolist() == ref_pos and vals.tolist() == ref_vals
        assert res.tolist() == ref_res

    check()


@pytest.mark.parametrize("lam", [0.3, 0.55, 0.75])
def test_local_ratio_equals_plain_loop_in_canonical_order(lam):
    # a clustered graph's wedges share their first pair in long runs
    g = _overlapping_cliques(46, authors=300, papers=300)
    keys, m, rows = enumerate_wedges(g).covering_layout
    runs = np.diff(np.flatnonzero(np.append(np.diff(rows[:, 0]) != 0, True)), prepend=-1)
    assert runs.shape[0] > 2 * stc._BLOCK and runs.mean() > 5 and runs.max() >= 30
    cost = np.full(keys.shape[0], lam)
    cost[:m] = 1.0 - lam
    pos, vals, res = stc._local_ratio(rows, cost)
    ref_pos, ref_vals, ref_res = _reference_local_ratio(
        rows.tolist(), cost.tolist(), range(rows.shape[0])
    )
    assert pos.tolist() == ref_pos and vals.tolist() == ref_vals
    assert res.tolist() == ref_res


def test_reduce_equals_plain_loop_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # grid points make rows tight at the start and steps land on the grid
    values = st.sampled_from([0.0, 1 / 3, 0.5, 2 / 3, 1.0]) | st.floats(0.0, 1.0)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        _covering_programs(st, values), st.sampled_from([None, 1 / 2, 1 / 3])
    )
    def check(program, quantum):
        rows, z, _, order = program
        row_of, ptr = _rows_by_column(rows, len(z))
        got = stc._reduce(rows, row_of, ptr, np.array(z), np.array(order), quantum)
        assert got.tolist() == _reference_reduce(rows.tolist(), z, order, quantum)

    check()


# ---------------------------------------------------------------------------
# StcLabeling as pair-key arrays


def test_labeling_from_pairs_normalizes_and_views_match_keys():
    a = StcLabeling.from_pairs(5, weak=[(3, 1), (0, 2), (1, 3)], missing={(4, 0)})
    assert a.weak_keys.tolist() == [0 * 5 + 2, 1 * 5 + 3]
    assert a.missing_keys.tolist() == [0 * 5 + 4]
    assert a.weak == frozenset({(0, 2), (1, 3)}) and a.missing == frozenset({(0, 4)})
    b = StcLabeling(5, np.array([2, 8]), np.array([4]))
    assert a == b and hash(a) == hash(b)
    assert a != StcLabeling.from_pairs(6, weak=[(0, 2), (1, 3)], missing=[(0, 4)])
    assert a != StcLabeling.from_pairs(5, weak=[(0, 2)], missing=[(0, 4)])
    assert not a.weak_keys.flags.writeable
    assert a.cost(0.25) == 0.75 * 2 + 0.25
    assert a.labeled_keys().tolist() == [2, 4, 8]
    assert a.labeled_keys() is a.labeled_keys() and not a.labeled_keys().flags.writeable
    assert StcLabeling(5, np.array([2, 8]), np.array([2])).labeled_keys().tolist() == [2, 8]
    assert StcLabeling.from_pairs(5).labeled_keys().shape == (0,)


def test_labeling_from_pairs_rejects_pairs_outside_the_vertex_set():
    with pytest.raises(InvalidLabelingError, match=r"weak pair \(0,3\)"):
        StcLabeling.from_pairs(3, weak=[(0, 3)])
    with pytest.raises(InvalidLabelingError, match=r"missing pair \(-1,2\)"):
        StcLabeling.from_pairs(3, missing=[(-1, 2)])


def test_validation_names_the_smallest_offending_pair(star4):
    with pytest.raises(InvalidLabelingError, match=r"weak pair \(1,2\) is not an edge"):
        stc_objective(star4, 0.5, lab(star4, weak=[(2, 3), (0, 1), (1, 2)]))
    with pytest.raises(InvalidLabelingError, match=r"missing pair \(0,2\) is an edge"):
        stc_objective(star4, 0.5, lab(star4, missing=[(2, 3), (0, 3), (0, 2)]))
    with pytest.raises(InvalidLabelingError, match=r"missing pair \(1,1\) is not a vertex pair"):
        stc_objective(star4, 0.5, lab(star4, missing=[(2, 3), (1, 1), (1, 3)]))
    with pytest.raises(InvalidLabelingError, match="labeling of 5 vertices"):
        stc_objective(star4, 0.5, StcLabeling.from_pairs(5))


# ---------------------------------------------------------------------------
# Regimes


def test_regime_examples():
    assert stc_regime(0.5, 100) is StcRegime.MINSTC_PLUS_EQUIVALENT
    assert stc_regime(0.995, 100) is StcRegime.MINSTC_EQUIVALENT  # > 100/101
    assert stc_regime(0.7, 100) is StcRegime.GENERAL


def test_regime_boundary_is_strict():
    # lambda exactly m/(m+1) does not qualify
    assert stc_regime(0.5, 1) is StcRegime.MINSTC_PLUS_EQUIVALENT
    assert stc_regime(2.0 / 3.0, 2) is StcRegime.GENERAL
    assert stc_regime(0.67, 2) is StcRegime.MINSTC_EQUIVALENT


def test_regime_precedence_with_no_edges():
    assert stc_regime(0.5, 0) is StcRegime.MINSTC_PLUS_EQUIVALENT
