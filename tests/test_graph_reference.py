"""The bulk edge-list parser and the chunked wedge enumeration against
line-by-line and double-loop references kept here."""

import functools
import io
import tracemalloc

import numpy as np
import pytest

from lamcc import graph, lp
from lamcc.errors import EdgeListParseError
from lamcc.graph import (
    Graph,
    _neighbor_pair_chunks,
    count_wedges_and_triangles,
    enumerate_wedges,
    parse_edge_list,
    parse_matrix_market,
    to_edge_list_text,
)
from lamcc.cluster import cover_flip_pivot, derived_graph_from_labeling
from lamcc.lp import FractionalSolution, certify_canonical_feasibility
from lamcc.stc import cover_label
from lamcc.testing import erdos_renyi

WEDGE_FIELDS = ("wedge_center", "wedge_lo", "wedge_hi", "tri_i", "tri_j", "tri_k")


# ---------------------------------------------------------------------------
# Wedge enumeration


def _reference_enumerate_wedges(g):
    """A double loop over each center's sorted neighbor list, the definition of
    the canonical order: center, then lo, then hi."""
    edges = set(g.edges())
    wedges, triangles = [], []
    for j in range(g.n):
        nbrs = g.neighbors(j).tolist()
        for a, i in enumerate(nbrs):
            for k in nbrs[a + 1:]:
                if (i, k) not in edges:
                    wedges.append((j, i, k))
                elif j < i:
                    triangles.append((j, i, k))
    return tuple(
        np.array([t[c] for t in found], dtype=np.int64)
        for found in (wedges, triangles) for c in range(3)
    )


def _assert_enumeration_matches_reference(g):
    got = enumerate_wedges(g)
    for name, want in zip(WEDGE_FIELDS, _reference_enumerate_wedges(g)):
        arr = getattr(got, name)
        assert arr.dtype == want.dtype, name
        assert np.array_equal(arr, want), name


def _overlapping_cliques(seed, authors=60, papers=40):
    """Cliques of 2-8 vertices that overlap, so degrees fall into many classes."""
    rng = np.random.default_rng(seed)
    edges = []
    for _ in range(papers):
        team = sorted(set(rng.choice(authors, size=int(rng.integers(2, 9))).tolist()))
        edges += [(u, v) for i, u in enumerate(team) for v in team[i + 1:]]
    return Graph.from_edges(authors, edges)


SMALL_SHAPES = {
    "empty": Graph.from_edges(0, []),
    "edgeless": Graph.from_edges(5, []),
    "star": Graph.from_edges(6, [(0, k) for k in range(1, 6)]),
    "star-last-center": Graph.from_edges(6, [(5, k) for k in range(5)]),
    "complete": Graph.from_edges(7, [(u, v) for u in range(7) for v in range(u + 1, 7)]),
}


@pytest.mark.parametrize("g", SMALL_SHAPES.values(), ids=SMALL_SHAPES.keys())
def test_enumeration_equals_lexsort_reference_on_small_shapes(g):
    _assert_enumeration_matches_reference(g)


@pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.9])
@pytest.mark.parametrize("seed", range(3))
def test_enumeration_equals_lexsort_reference_on_gnp(p, seed):
    _assert_enumeration_matches_reference(erdos_renyi(40, p, 300 + seed))


@pytest.mark.parametrize("seed", range(4))
def test_enumeration_equals_lexsort_reference_on_overlapping_cliques(seed):
    g = _overlapping_cliques(seed)
    assert np.unique(g.degree).shape[0] >= 8
    _assert_enumeration_matches_reference(g)


def _distances(g, seed):
    """A distance solution on g's pairs with some sub-unit values, so the
    canonical certification scans two-paths and finds violations."""
    keys = np.array([u * g.n + v for u in range(g.n) for v in range(u + 1, g.n)], dtype=np.int64)
    vals = np.random.default_rng(seed).choice([0.0, 0.3, 0.6, 1.0], keys.shape[0])
    return FractionalSolution("x", 0.5, g.n, keys, vals, 0.0)


@pytest.mark.parametrize("chunk_pairs", [1, 3, 10])
def test_enumeration_equals_reference_with_whole_centers_per_chunk(monkeypatch, chunk_pairs):
    g = _overlapping_cliques(7)
    sol = _distances(g, 7)
    default = (enumerate_wedges(g), count_wedges_and_triangles(g),
               certify_canonical_feasibility(g, sol))
    assert not default[2].certified
    small = functools.partial(_neighbor_pair_chunks, chunk_pairs=chunk_pairs)
    chunks = [c for c, _, _ in small(g)]
    assert len(chunks) > 1
    # every center's pairs, centers ascending, each center whole in one chunk
    assert np.array_equal(np.concatenate(chunks),
                          np.repeat(np.arange(g.n), g.degree * (g.degree - 1) // 2))
    assert all(a[-1] < b[0] for a, b in zip(chunks, chunks[1:]))
    # about chunk_pairs pairs each: a chunk reaches it only with its last center
    assert all((c != c[-1]).sum() < chunk_pairs <= c.shape[0] for c in chunks[:-1])
    monkeypatch.setattr(graph, "_neighbor_pair_chunks", small)
    monkeypatch.setattr(lp, "_neighbor_pair_chunks", small)
    _assert_enumeration_matches_reference(g)
    got = enumerate_wedges(g)
    for name in WEDGE_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(default[0], name)), name
    assert count_wedges_and_triangles(g) == default[1]
    assert certify_canonical_feasibility(g, sol) == default[2]


# ---------------------------------------------------------------------------
# Covering layout and run index


def _reference_row_runs(a, b, c):
    """(heads, first, ends, second, third) of the runs of rows that share a:
    a compare of every row with the one before it."""
    heads = np.flatnonzero(np.append(a.shape[0] > 0, a[1:] != a[:-1]))
    ends = np.append(heads[1:], a.shape[0])
    one = ends - heads == 1
    return heads, a[heads], ends, np.where(one, b[heads], -1), np.where(one, c[heads], -1)


def _reference_covering_layout(widx):
    """(keys, m, rows, runs, touched) by ``np.unique`` of the end keys, one
    binary search per wedge and edge, the run index of the rows in row order
    and a scatter of both edge columns."""
    n, edge_keys = widx.n, widx.edge_keys
    c, a, b = widx.wedge_center, widx.wedge_lo, widx.wedge_hi
    m = int(edge_keys.shape[0])
    end_keys, end_idx = np.unique(a * n + b, return_inverse=True)
    rows = np.empty((widx.wedge_count, 3), dtype=np.int64)
    rows[:, 0] = np.searchsorted(edge_keys, np.minimum(c, a) * n + np.maximum(c, a))
    rows[:, 1] = np.searchsorted(edge_keys, np.minimum(c, b) * n + np.maximum(c, b))
    rows[:, 2] = end_idx + m
    touched = np.zeros(m, dtype=bool)
    touched[rows[:, :2]] = True
    keys = np.concatenate([edge_keys, end_keys])
    return keys, m, rows, _reference_row_runs(*rows.T), touched


def _assert_layout_matches_reference(g):
    widx = enumerate_wedges(g)
    keys, m, rows, runs, touched = _reference_covering_layout(widx)
    got_runs, got_touched = widx.cover_runs
    assert widx.covering_layout[1] == m and type(widx.covering_layout[1]) is int
    got = (widx.covering_layout[0], widx.covering_layout[2], *got_runs, got_touched)
    # the reference keeps int64 formulas; variable indices are int32, positions int64
    dtypes = (np.int64, np.int32, np.int64, np.int32, np.int64, np.int32, np.int32, bool)
    for a, b, dtype in zip(got, (keys, rows, *runs, touched), dtypes):
        assert a.dtype == dtype and a.shape == b.shape
        assert np.array_equal(a, b)
        assert not a.flags.writeable


# wedges (0; 1, 5) and (1; 0, 2): two (center, lo) heads, both on edge (0, 1)
MERGED_RUN = Graph.from_edges(6, [(0, 1), (0, 5), (1, 2)])


@pytest.mark.parametrize("g", [*SMALL_SHAPES.values(), MERGED_RUN],
                         ids=[*SMALL_SHAPES.keys(), "merged-run"])
def test_covering_layout_and_runs_equal_reference_on_small_shapes(g):
    _assert_layout_matches_reference(g)


def test_two_center_lo_stretches_on_one_edge_form_one_run():
    widx = enumerate_wedges(MERGED_RUN)
    assert widx.wedge_center.tolist() == [0, 1] and widx.wedge_lo.tolist() == [1, 0]
    heads, first, ends, second, third = widx.cover_runs[0]
    assert (heads.tolist(), first.tolist(), ends.tolist()) == ([0], [0], [2])
    assert (second.tolist(), third.tolist()) == ([-1], [-1])


@pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.9])
@pytest.mark.parametrize("seed", range(3))
def test_covering_layout_and_runs_equal_reference_on_gnp(p, seed):
    _assert_layout_matches_reference(erdos_renyi(40, p, 300 + seed))


@pytest.mark.parametrize("seed", range(4))
def test_covering_layout_and_runs_equal_reference_on_overlapping_cliques(seed):
    _assert_layout_matches_reference(_overlapping_cliques(seed))


# ---------------------------------------------------------------------------
# Memory of the wedge arrays, the covering layout and the cover dual


def test_enumeration_peak_stays_near_its_output(monkeypatch):
    """No full-size copy beside the masked parts and one joined column at a time."""
    g = _overlapping_cliques(46, authors=300, papers=300)
    monkeypatch.setattr(graph, "_neighbor_pair_chunks",
                        functools.partial(_neighbor_pair_chunks, chunk_pairs=4096))
    tracemalloc.start()
    try:
        widx = enumerate_wedges(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = sum(getattr(widx, name).nbytes for name in WEDGE_FIELDS)
    assert widx.wedge_count > 50_000
    assert peak <= 1.6 * out  # 2.02 when all six columns are joined at once


def test_covering_layout_peak_stays_near_its_output():
    """The end-key sort, its variables and the edge searches do not all live at once."""
    widx = enumerate_wedges(_overlapping_cliques(46, authors=300, papers=300))
    tracemalloc.start()
    try:
        keys, _, rows = widx.covering_layout
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert widx.wedge_count > 50_000
    assert peak <= 1.9 * (keys.nbytes + rows.nbytes)


@pytest.mark.parametrize("lam", [0.3, 0.55, 0.75])
def test_a_cover_certificate_keeps_16_bytes_per_positive_dual(lam):
    g = _overlapping_cliques(46, authors=300, papers=300)
    _, cert = cover_label(g, enumerate_wedges(g), lam)
    positive = int(np.count_nonzero(cert.wedge_values > 0))
    held = sum(v.nbytes for v in vars(cert).values() if isinstance(v, np.ndarray))
    assert 0 < positive and held <= 16 * positive


@pytest.mark.parametrize("lam", [0.3, 0.55, 0.75])
def test_cover_label_peak_holds_no_residuals_beside_the_loads(lam):
    """The final residuals are dropped before ``dual_bound`` allocates its loads:
    about 18 bytes per variable (26 with the residuals) and 110 per positive dual."""
    g = _overlapping_cliques(46, authors=300, papers=300)
    widx = enumerate_wedges(g)
    widx.cover_runs
    tracemalloc.start()
    try:
        _, cert = cover_label(g, widx, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    variables, positive = widx.covering_layout[0].shape[0], cert.positions.shape[0]
    assert positive > 1000
    assert peak <= 21 * variables + 120 * positive


def test_cfp_reports_hold_8_bytes_per_vertex_and_no_tuple():
    """30 reports keep each clustering as one int64 array. At these lambdas most
    clusters are singletons, so cluster ids pass 256, past Python's cached small
    ints, as on a HepPh-size graph: a tuple would also hold one int per vertex."""
    g = _overlapping_cliques(46, authors=300, papers=300)
    widx = enumerate_wedges(g)
    labelings = [(lam, *cover_label(g, widx, lam)) for lam in (0.9, 0.95)]
    for _, lab, _ in labelings:
        derived_graph_from_labeling(g, lab)  # kept on the labeling, not on a report
    tracemalloc.start()
    try:
        reports = [cover_flip_pivot(g, widx, lam, seed, labeling=lab, certificate=cert)
                   for lam, lab, cert in labelings for seed in range(15)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert min(r.num_clusters for r in reports) > 257
    assert held <= 30 * (8 * g.n + 1024)
    for r in reports:
        assert r.clustering.labels.nbytes == 8 * g.n
        assert not any(isinstance(v, tuple) for v in vars(r.clustering).values())


# ---------------------------------------------------------------------------
# Edge-list parsing


def _reference_lines(source):
    """The lines of a str, of UTF-8 bytes or of a text or byte stream, split
    at "\\n" only."""
    if not isinstance(source, (str, bytes)):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    return source.split("\n")


def _reference_parse_edge_list(
    source, *, comment_prefixes=("#", "%"), delimiter=None, one_indexed=False
):
    """The line-by-line parser the bulk one replaced."""
    remap = {}
    edges = []
    saw_data = False
    for lineno, raw in enumerate(_reference_lines(source), start=1):
        line = raw.strip()
        if not line or any(line.startswith(p) for p in comment_prefixes):
            continue
        saw_data = True
        tokens = line.split(delimiter) if delimiter else line.split()
        tokens = [t for t in tokens if t]
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"expected two integer tokens, got {len(tokens)}", lineno
            )
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer token in {tokens!r}", lineno) from None
        if one_indexed:
            if u < 1 or v < 1:
                raise EdgeListParseError(
                    f"token < 1 in one-indexed input: {line!r}", lineno
                )
            u, v = u - 1, v - 1
        if u == v:
            continue
        for t in (u, v):
            if t not in remap:
                remap[t] = len(remap)
        edges.append((remap[u], remap[v]))
    if not saw_data:
        raise EdgeListParseError("empty input: no edge lines found")
    n = len(remap)
    uv = np.array(edges, dtype=np.int64).reshape(-1, 2)
    uv.sort(axis=1)
    return Graph.from_keys(n, np.unique(uv[:, 0] * n + uv[:, 1]))


def _outcome(parse, source, kwargs):
    """The Graph a parse gives, or the type and message of what it raises."""
    if isinstance(source, (io.StringIO, io.BytesIO)):  # each parse reads a fresh stream
        source = type(source)(source.getvalue())
    try:
        return parse(source, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def _bulk_parse(source, *, comment_prefixes=("#", "%"), delimiter=None, one_indexed=False):
    """parse_edge_list, or for other comment prefixes or 1-based ids its body
    ``graph._parse_lines``, which parse_matrix_market calls with those."""
    if tuple(comment_prefixes) == ("#", "%") and not one_indexed:
        return parse_edge_list(source, delimiter=delimiter)
    raw = graph._text(source).split("\n")
    return graph._parse_lines(raw, comment_prefixes, delimiter, one_indexed)


def _assert_parsers_agree(source, **kwargs):
    want = _outcome(_reference_parse_edge_list, source, kwargs)
    got = _outcome(_bulk_parse, source, kwargs)
    assert got == want
    if isinstance(want, Graph):
        for a, b in ((got.indptr, want.indptr), (got.indices, want.indices)):
            assert a.dtype == b.dtype
        assert np.array_equal(got.edge_keys(), want.edge_keys())


PARSE_CASES = {
    "plain": ("0 1\n1 2\n", {}),
    "both comment prefixes": ("# a\n% b\n3 4\n  # indented\n4 5\n", {}),
    "custom prefixes": ("// c\n# 1 2\n", {"comment_prefixes": ("//",)}),
    "prefixes as a list": ("// c\n; d\n1 2\n", {"comment_prefixes": ["//", ";"]}),
    "blank lines": ("\n\n0 1\n   \n\t\n1 2\n\n", {}),
    "crlf": ("0 1\r\n1 2\r\n# c\r\n2 3\r\n", {}),
    "lone cr joins lines": ("0 1\r1 2\n", {}),
    "lone cr between ids": ("0\r1\n", {}),
    "tabs": ("0\t1\n1 \t 2\n", {}),
    "no final newline": ("0 1\n1 2", {}),
    "self-loops": ("1 1\n1 2\n2 2\n7 7\n", {}),
    "only self-loops": ("3 3\n", {}),
    "duplicate and reversed": ("5 9\n9 5\n5 9\n2 5\n", {}),
    "negative ids": ("-1 -2\n-2 3\n", {}),
    "plus and underscore": ("+3 1_000\n1_000 -0\n", {}),
    "beyond int64": ("100000000000000000000000 1\n1 2\n", {}),
    "beyond int64 both": (f"{2**70} {-2**70}\n{2**70} 5\n", {}),
    "one-indexed": ("1 2\n2 3\n", {"one_indexed": True}),
    "one-indexed zero": ("1 2\n0 3\n", {"one_indexed": True}),
    "one-indexed negative": ("2 -1\n", {"one_indexed": True}),
    "one-indexed self-loop": ("1 1\n1 2\n", {"one_indexed": True}),
    "comma delimiter": ("% c\n0,1\n1,,2\n2, 3\n", {"delimiter": ","}),
    "comma delimiter, three": ("0,1\n1,2,3\n", {"delimiter": ","}),
    "empty": ("", {}),
    "comments only": ("# only\n% comments\n", {}),
    "whitespace only": ("  \n\t\n", {}),
    "one token": ("0 1\n2\n", {}),
    "three tokens": ("0 1\n# fine\n1 2 3\n", {}),
    "non-integer": ("0 1\n0 x\n", {}),
    "float": ("0 1.0\n", {}),
    "first error wins: int before count": ("0 x\n1 2 3\n", {}),
    "first error wins: count before int": ("1 2 3\n0 x\n", {}),
    "first error wins: one-indexed before int": (
        "1 2\n0 2\n1 x\n", {"one_indexed": True}),
    "first error wins: int before one-indexed": (
        "1 2\n1 x\n0 2\n", {"one_indexed": True}),
    "first error wins: count before one-indexed": (
        "1 2\n3\n0 2\n", {"one_indexed": True}),
    # two tokens per line in total, but not on every line
    "three and one tokens": ("1 2 3\n4\n", {}),
    "two, one and three tokens": ("0 1\n2\n3 4 5\n", {}),
    "zero and four fields": (",,\n1,2,3,4\n", {"delimiter": ","}),
    "first error wins: int before count, even total": ("0 x\n1\n2 3 4\n", {}),
    "first error wins: count before int, even total": ("1\n0 x\n2 3 4\n", {}),
    "first error wins: one-indexed before count, even total": (
        "1 2\n0 2\n3\n4 5 6\n", {"one_indexed": True}),
    # fields of a delimiter
    "empty field between": ("1,,2\n", {"delimiter": ","}),
    "delimiters at both ends": (",1,2,\n", {"delimiter": ","}),
    "space inside a field": ("1 ,2\n", {"delimiter": ","}),
    "self-overlapping delimiter": ("1--2-\n3--4\n", {"delimiter": "--"}),
    "newline delimiter": ("0 1\n", {"delimiter": "\n"}),
    # whitespace beyond space and tab, as str.split and str.strip see it
    "file separator": ("0\x1c1\n", {}),
    "no-break space": ("0\xa01\n", {}),
    "em space": ("0\u20031\n", {}),
    "next line at the end": ("0 1\x85\n", {}),
    "lone cr inside a line": ("0 1\r2 3\n", {}),
}


@pytest.mark.parametrize("text,kwargs", PARSE_CASES.values(), ids=PARSE_CASES.keys())
@pytest.mark.parametrize("kind", ["str", "bytes", "stringio"])
def test_parse_equals_line_by_line_reference(text, kwargs, kind):
    source = {"str": text, "bytes": text.encode(), "stringio": io.StringIO(text)}[kind]
    _assert_parsers_agree(source, **kwargs)


def test_parse_keeps_ids_beyond_int64():
    g = parse_edge_list("100000000000000000000000 1\n1 2\n")
    assert (g.n, g.m) == (3, 2)


def test_parse_of_a_byte_stream_equals_reference():
    _assert_parsers_agree(io.BytesIO(b"# c\r\n0 1\r\n1 2\n"))
    _assert_parsers_agree(io.BytesIO(b"0 1\n1 x\n"))


def test_matrix_market_parses_its_body_with_the_bulk_parser():
    text = (
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "% a comment\n"
        "3 3 3\n"
        "2 1\n"
        "% between\n"
        "3 2\n"
        "3 3\n"
    )
    g = parse_matrix_market(text)
    assert g == _reference_parse_edge_list(
        "2 1\n% between\n3 2\n3 3\n", comment_prefixes=("%",), one_indexed=True
    )
    assert (g.n, g.m) == (3, 2)
    # errors carry the file's line numbers, header and comments included
    with pytest.raises(EdgeListParseError, match="line 6: token < 1"):
        parse_matrix_market(text.replace("3 2\n", "0 2\n"))
    with pytest.raises(EdgeListParseError, match="line 4: non-integer token"):
        parse_matrix_market(text.replace("2 1\n", "2 x\n"))
    with pytest.raises(EdgeListParseError, match="line 7: expected two integer tokens"):
        parse_matrix_market(text.replace("3 2\n3 3\n", "3 2\n3 3 3\n"))


def test_parse_equals_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ident = st.integers(-3, 12) | st.sampled_from([2**63, -(2**63) - 1, 10**22])
    spelled = ident.map(str) | st.sampled_from(["+3", "1_0", "-0", "x", "1.5", "0x1", ""])
    space = st.sampled_from([" ", "\t", "  ", " \t ", ",", "\x1c", "\xa0", "\r"])
    line = st.one_of(
        st.tuples(spelled, space, spelled).map("".join),
        st.tuples(spelled, space, spelled, space, spelled).map("".join),
        spelled,
        st.sampled_from(["", "  ", "# c", "% c", "#1 2", " % 3 4"]),
    )
    ending = st.sampled_from(["\n", "\r\n", "\r"])
    texts = st.lists(st.tuples(line, ending).map("".join), max_size=25).map("".join)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        texts,
        st.sampled_from([None, ","]),
        st.booleans(),
        st.sampled_from([("#", "%"), ("%",), ()]),
    )
    def check(text, delimiter, one_indexed, prefixes):
        _assert_parsers_agree(
            text, delimiter=delimiter, one_indexed=one_indexed, comment_prefixes=prefixes
        )

    check()


def test_serialize_then_parse_round_trips_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def parsed_graphs(draw):
        n = draw(st.integers(2, 30))
        vertex = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=150))
        hypothesis.assume(any(u != v for u, v in pairs))
        return parse_edge_list("".join(f"{u} {v}\n" for u, v in pairs))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(parsed_graphs())
    def check(g):
        assert parse_edge_list(to_edge_list_text(g)) == g

    check()
