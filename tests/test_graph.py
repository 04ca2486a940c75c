import io
import math

import numpy as np
import pytest

from lamcc import graph
from lamcc.errors import EdgeListParseError, SizeCapError
from lamcc.graph import (
    MAX_KEYED_VERTICES,
    Graph,
    count_wedges_and_triangles,
    enumerate_wedges,
    graph_stats,
    load_graph,
    parse_edge_list,
    parse_matrix_market,
    to_edge_list_text,
)
from lamcc.lp import build_intermediate_lp, build_lambda_stc_lp
from lamcc.stc import cover_label
from lamcc.testing import erdos_renyi


# ---------------------------------------------------------------------------
# Parsing


def test_parse_plain_edge_list():
    g = parse_edge_list("0 1\n1 2\n")
    assert (g.n, g.m) == (3, 2)
    assert list(g.edges()) == [(0, 1), (1, 2)]


def test_parse_drops_self_loops_and_duplicates():
    g = parse_edge_list("1 1\n1 2\n2 1\n")
    assert (g.n, g.m) == (2, 1)
    assert list(g.edges()) == [(0, 1)]


def test_parse_remaps_first_appearance_order():
    g = parse_edge_list("# c\n5 9\n")
    assert (g.n, g.m) == (2, 1)
    # 5 -> 0, 9 -> 1
    assert g.has_edge(0, 1)


def test_parse_remap_is_stable_for_token_order():
    g = parse_edge_list("7 3\n3 1\n")
    # 7 -> 0, 3 -> 1, 1 -> 2
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(EdgeListParseError, match="line 2"):
        parse_edge_list("0 1\n0 x\n")
    with pytest.raises(EdgeListParseError, match="line 3"):
        parse_edge_list("0 1\n# fine\n1 2 3\n")


def test_parse_empty_input_is_an_error():
    with pytest.raises(EdgeListParseError):
        parse_edge_list("")
    with pytest.raises(EdgeListParseError):
        parse_edge_list("# only comments\n% more\n")


def test_parse_comment_prefixes_and_delimiter():
    g = parse_edge_list("% c\n0,1\n1,2\n", delimiter=",")
    assert (g.n, g.m) == (3, 2)


def test_parse_one_indexed():
    # the 1-based reading parse_matrix_market uses; ids are renumbered by first
    # appearance, so it gives the graph the 0-based reading gives
    g = graph._parse_lines(["1 2", "2 3", ""], ("#", "%"), None, True)
    assert (g.n, g.m) == (3, 2)
    assert g == parse_edge_list("1 2\n2 3\n")
    with pytest.raises(EdgeListParseError):
        graph._parse_lines(["0 1", ""], ("#", "%"), None, True)


def test_parse_accepts_bytes_and_streams():
    assert parse_edge_list(b"0 1\n").m == 1
    assert parse_edge_list(io.StringIO("0 1\n")).m == 1


def test_parse_merges_duplicate_and_reversed_edges_at_scale():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    try:
        import networkx as nx  # an independent cross-check, where installed
    except ImportError:
        nx = None

    @hypothesis.settings(max_examples=20, deadline=None)
    @hypothesis.given(st.integers(0, 2**32 - 1), st.integers(40, 600), st.integers(500, 3000),
                      st.integers(1, 4))
    def check(seed, n, m, most):
        # m distinct pairs over sparse file ids, each written 1..most times
        # in either orientation, lines shuffled
        rng = np.random.default_rng(seed)
        ids = rng.choice(10 * n, size=n, replace=False)
        uv = ids[rng.integers(0, n, size=(m, 2))]
        uv = np.unique(np.sort(uv[uv[:, 0] != uv[:, 1]], axis=1), axis=0)
        lines = np.repeat(uv, rng.integers(1, most + 1, uv.shape[0]), axis=0)
        flip = rng.random(lines.shape[0]) < 0.5
        lines[flip] = lines[flip, ::-1]
        lines = lines[rng.permutation(lines.shape[0])]
        g = parse_edge_list("".join(f"{u} {v}\n" for u, v in lines.tolist()))

        renum = {}  # the parser's ids: order of first appearance
        for t in lines.ravel().tolist():
            renum.setdefault(t, len(renum))
        assert g == Graph.from_edges(len(renum), [(renum[u], renum[v]) for u, v in uv.tolist()])
        if nx is not None:
            ref = nx.relabel_nodes(nx.Graph(lines.tolist()), renum)
            assert (g.n, g.m) == (ref.number_of_nodes(), ref.number_of_edges())
            assert sorted(g.edges()) == sorted((min(e), max(e)) for e in ref.edges())

    check()


def test_matrix_market_reader():
    text = (
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "% a comment\n"
        "3 3 2\n"
        "2 1\n"
        "3 2\n"
    )
    g = parse_matrix_market(text)
    assert (g.n, g.m) == (3, 2)
    with pytest.raises(EdgeListParseError):
        parse_matrix_market("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n")


_MM_HEADER = "%%MatrixMarket matrix coordinate pattern symmetric\n"


def test_matrix_market_requires_its_dimensions_line():
    # without the check the first entry would be taken for the dimensions line
    bad = "dimensions line must hold three integers, got"
    with pytest.raises(EdgeListParseError, match=f"^line 2: {bad} '1 2'$"):
        parse_matrix_market(_MM_HEADER + "1 2\n2 3\n3 4\n")
    with pytest.raises(EdgeListParseError, match=f"^line 4: {bad} 'foo bar'$") as info:
        parse_matrix_market(_MM_HEADER + "% c\n\nfoo bar\n1 2\n")
    assert info.value.line_number == 4
    with pytest.raises(EdgeListParseError, match=f"^line 2: {bad} '3 3 x'$"):
        parse_matrix_market(_MM_HEADER + "3 3 x\n1 2\n")
    with pytest.raises(EdgeListParseError, match="^missing dimensions line$"):
        parse_matrix_market(_MM_HEADER + "% only comments\n")


def test_matrix_market_reads_bytes_and_streams_as_text():
    text = _MM_HEADER + "% c\n4 4 3\n2 1\n3 2\n\n4 3\n"
    g = parse_matrix_market(text)
    assert (g.n, g.m) == (4, 3)
    for source in (text.encode(), io.BytesIO(text.encode()), io.StringIO(text)):
        got = parse_matrix_market(source)
        assert got == g
        assert np.array_equal(got.edge_keys(), g.edge_keys())


def test_load_graph_takes_the_format_from_the_first_line(tmp_path):
    edges = "0 1\n1 2\n2 0\n2 3\n"
    (tmp_path / "g.txt").write_text(edges)
    (tmp_path / "g.mtx").write_text(_MM_HEADER + "% c\n4 4 4\n1 2\n2 3\n3 1\n3 4\n")
    # a file whose first line is a '%' comment, not the header, is an edge list
    (tmp_path / "c.txt").write_text("% 1 2\n" + edges)
    want = load_graph(tmp_path / "g.txt")
    assert (want.n, want.m) == (4, 4)
    assert load_graph(str(tmp_path / "g.mtx")) == want
    assert load_graph(tmp_path / "c.txt") == want


def test_serialize_parse_idempotent_on_normalized_graphs():
    # ids of generator output are arbitrary; one parse pass normalizes
    # them to first-appearance order, after which serialize/parse is a
    # fixed point
    rng = np.random.default_rng(0)
    for seed in range(60):
        raw = erdos_renyi(3 + seed % 10, (0.2, 0.4, 0.7)[seed % 3], seed)
        if raw.m == 0:
            continue
        lines = [f"{u} {v}\n" for u, v in raw.edges()]
        rng.shuffle(lines)
        g = parse_edge_list("".join(lines))
        text = to_edge_list_text(g)
        g2 = parse_edge_list(text)
        assert g2 == g
        assert to_edge_list_text(g2) == text


# ---------------------------------------------------------------------------
# Wedge and triangle enumeration


def _wedges(idx):
    """(center, (lo, hi)) of each wedge row, in index order."""
    rows = zip(idx.wedge_center.tolist(), idx.wedge_lo.tolist(), idx.wedge_hi.tolist())
    return [(c, (a, b)) for c, a, b in rows]


def _triangles(idx):
    """(i, j, k) of each triangle row, in index order."""
    return list(zip(idx.tri_i.tolist(), idx.tri_j.tolist(), idx.tri_k.tolist()))


def test_path_has_single_wedge(path3):
    idx = enumerate_wedges(path3)
    assert _wedges(idx) == [(1, (0, 2))]
    assert _triangles(idx) == []


def test_triangle_is_not_open(k3):
    idx = enumerate_wedges(k3)
    assert _wedges(idx) == []
    assert _triangles(idx) == [(0, 1, 2)]


def test_star_wedges(star4):
    idx = enumerate_wedges(star4)
    assert _wedges(idx) == [
        (0, (1, 2)),
        (0, (1, 3)),
        (0, (2, 3)),
    ]
    assert idx.triangle_count == 0


def test_canonical_order_is_center_then_ends():
    g = Graph.from_edges(5, [(0, 2), (2, 4), (1, 2), (0, 1)])
    idx = enumerate_wedges(g)
    keys = _wedges(idx)
    assert keys == sorted(keys)


def _triples_by_brute_force(g):
    """Every vertex triple checked directly against the adjacency."""
    wedges, triangles = [], []
    for i in range(g.n):
        for j in range(i + 1, g.n):
            for k in range(j + 1, g.n):
                edges = [g.has_edge(i, j), g.has_edge(i, k), g.has_edge(j, k)]
                if all(edges):
                    triangles.append((i, j, k))
                elif sum(edges) == 2:
                    if not edges[2]:
                        wedges.append((i, (j, k)))  # center i
                    elif not edges[1]:
                        wedges.append((j, (i, k)))
                    else:
                        wedges.append((k, (i, j)))
    wedges.sort()
    return wedges, triangles


@pytest.mark.parametrize("seed", range(40))
def test_enumeration_matches_exhaustive_triples(seed):
    g = erdos_renyi(4 + seed % 8, (0.2, 0.5, 0.8)[seed % 3], seed)
    idx = enumerate_wedges(g)
    want_w, want_t = _triples_by_brute_force(g)
    assert _wedges(idx) == want_w
    assert _triangles(idx) == want_t


def test_every_emitted_triple_matches_adjacency():
    g = erdos_renyi(12, 0.4, 99)
    idx = enumerate_wedges(g)
    for c, (i, k) in _wedges(idx):
        assert g.has_edge(i, c) and g.has_edge(c, k)
        assert not g.has_edge(i, k)
        assert i < k
    for i, j, k in _triangles(idx):
        assert i < j < k
        assert g.has_edge(i, j) and g.has_edge(i, k) and g.has_edge(j, k)


def test_wedge_count_identity_random_graphs():
    for seed in range(60):
        g = erdos_renyi(5 + seed % 20, (0.1, 0.3, 0.6)[seed % 3], seed)
        idx = enumerate_wedges(g)
        from_degrees = sum(int(d) * (int(d) - 1) // 2 for d in g.degree)
        assert idx.wedge_count == from_degrees - 3 * idx.triangle_count


def test_counting_pass_agrees_with_materialized_index():
    for seed in range(20):
        g = erdos_renyi(15, 0.3, 400 + seed)
        idx = enumerate_wedges(g)
        assert count_wedges_and_triangles(g) == (idx.wedge_count, idx.triangle_count)


@pytest.mark.parametrize("g", [
    parse_edge_list("1 1\n2 2\n"),  # self-loops only: n = 0
    parse_edge_list("0 1\n"),
    parse_edge_list("0 1\n2 3\n4 5\n5 6\n"),  # disconnected, one open wedge
    erdos_renyi(15, 0.3, 401),
], ids=["self-loops-only", "single-edge", "disconnected", "gnp"])
def test_covering_layout_rows_are_the_wedge_pairs(g):
    widx = enumerate_wedges(g)
    keys, m, rows = widx.covering_layout
    assert rows.dtype == np.int32 and rows.shape == (widx.wedge_count, 3)
    assert np.array_equal(keys[:m], g.edge_keys())
    assert np.all(np.diff(keys[m:]) > 0) and not g.edge_mask(keys[m:]).any()
    # the wedge's pairs (center, lo), (center, hi), (lo, hi), keyed here
    n = g.n
    pairs = [
        [min(c, a) * n + max(c, a), min(c, b) * n + max(c, b), a * n + b]
        for c, a, b in zip(
            widx.wedge_center.tolist(), widx.wedge_lo.tolist(), widx.wedge_hi.tolist()
        )
    ]
    assert keys[rows].tolist() == pairs
    assert np.array_equal(widx.wedge_pair_keys(), keys[rows])


@pytest.mark.parametrize("g", [
    parse_edge_list("0 1\n"),
    parse_edge_list("0 1\n1 2\n0 2\n2 3\n"),  # one triangle, two open wedges
    erdos_renyi(15, 0.3, 401),
], ids=["single-edge", "triangle-and-tail", "gnp"])
def test_intermediate_rows_are_built_once_and_match_a_loop_reference(g):
    widx = enumerate_wedges(g)
    assert "intermediate_rows" not in vars(widx)  # built on first use only
    rows = widx.intermediate_rows
    assert widx.intermediate_rows is rows
    assert build_intermediate_lp(g, widx, 0.55).rows is rows
    with pytest.raises(ValueError):
        rows[0, 0] = 0
    # the wedge rows, then x_uv + x_vw >= x_uw of every triangle i < j < k
    # with center v = j, then with v = i, then with v = k
    keys, _, wedge_rows = widx.covering_layout
    n = g.n
    tris = list(zip(widx.tri_i.tolist(), widx.tri_j.tolist(), widx.tri_k.tolist()))
    want = keys[wedge_rows].tolist()
    want += [[i * n + j, j * n + k, i * n + k] for i, j, k in tris]
    want += [[i * n + j, i * n + k, j * n + k] for i, j, k in tris]
    want += [[i * n + k, j * n + k, i * n + j] for i, j, k in tris]
    assert rows.dtype == np.int32 and keys[rows].tolist() == want


def test_one_covering_layout_serves_every_call():
    g = erdos_renyi(15, 0.3, 401)
    widx = enumerate_wedges(g)
    assert "covering_layout" not in vars(widx)  # built on first use only
    cover_label(g, widx, 0.55)
    layout = vars(widx)["covering_layout"]
    keys, _, rows = layout
    cover_label(g, widx, 0.75, minimal=True)
    space, inst = build_lambda_stc_lp(g, widx, 0.6)
    lp = build_intermediate_lp(g, widx, 0.6)
    assert widx.covering_layout is layout
    assert inst.rows is rows and space.keys is keys and lp.space.keys is keys
    assert widx.edge_keys is g.edge_keys()
    with pytest.raises(ValueError):
        rows[0, 0] = 0
    with pytest.raises(ValueError):
        keys[0] = 0


def test_empty_graph_has_empty_index():
    g = Graph.from_edges(4, [])
    idx = enumerate_wedges(g)
    assert idx.wedge_count == 0 and idx.triangle_count == 0


# ---------------------------------------------------------------------------
# Statistics


def test_graph_stats_examples(path3, k3, cycle4):
    assert graph_stats(k3) == {
        "n": 3, "m": 3, "wedge_count": 0, "triangle_count": 1,
        "canonical_constraint_count": 3,
    }
    assert graph_stats(path3) == {
        "n": 3, "m": 2, "wedge_count": 1, "triangle_count": 0,
        "canonical_constraint_count": 3,
    }
    assert graph_stats(cycle4) == {
        "n": 4, "m": 4, "wedge_count": 4, "triangle_count": 0,
        "canonical_constraint_count": 12,
    }


def test_canonical_constraint_count_formula():
    for n in (3, 5, 9):
        g = Graph.from_edges(n, [])
        stats = graph_stats(g)
        assert stats["canonical_constraint_count"] == 3 * math.comb(n, 3)


def test_wedge_pair_keys_layout(star4):
    idx = enumerate_wedges(star4)
    keys = idx.wedge_pair_keys()
    n = star4.n
    # first wedge (0; 1, 2): pairs (0,1), (0,2), (1,2)
    assert list(keys[0]) == [0 * n + 1, 0 * n + 2, 1 * n + 2]


def test_from_keys_refuses_n_whose_pair_keys_overflow_int64():
    # the largest key n*n - 1 must fit int64; the check allocates nothing
    assert MAX_KEYED_VERTICES**2 - 1 <= 2**63 - 1 < (MAX_KEYED_VERTICES + 1) ** 2 - 1
    with pytest.raises(SizeCapError, match="overflow int64"):
        Graph.from_keys(MAX_KEYED_VERTICES + 1, np.zeros(0, dtype=np.int64))


def test_covering_layout_refuses_variables_beyond_int32(monkeypatch):
    g = erdos_renyi(15, 0.3, 401)  # 101 variables on 109 rows
    keys, _, rows = enumerate_wedges(g).covering_layout
    N = keys.shape[0]
    assert graph.MAX_ROW_INDEX == 2**31 - 1 and N < rows.shape[0]
    monkeypatch.setattr(graph, "MAX_ROW_INDEX", N)
    assert np.array_equal(enumerate_wedges(g).covering_layout[2], rows)
    monkeypatch.setattr(graph, "MAX_ROW_INDEX", N - 1)
    with pytest.raises(SizeCapError, match=f"^the covering program has {N} variables; "
                                           f"int32 program rows index at most {N - 1}$"):
        enumerate_wedges(g).covering_layout
