"""The bulk edge-list parser and the one-sort wedge enumeration against
line-by-line and three-key-lexsort references kept here."""

import functools
import io

import numpy as np
import pytest

from lamcc import graph
from lamcc.errors import EdgeListParseError
from lamcc.graph import (
    Graph,
    _iter_text_lines,
    _neighbor_pair_chunks,
    enumerate_wedges,
    parse_edge_list,
    parse_matrix_market,
    to_edge_list_text,
)
from lamcc.testing import erdos_renyi

WEDGE_FIELDS = ("wedge_center", "wedge_lo", "wedge_hi", "tri_i", "tri_j", "tri_k")


# ---------------------------------------------------------------------------
# Wedge enumeration


def _reference_enumerate_wedges(g):
    """Every chunk's open and closed pairs, put in order by a three-key lexsort."""
    w_parts, t_parts = [], []
    for centers, lo, hi in _neighbor_pair_chunks(g):
        closed = g.edge_mask(lo * g.n + hi)
        open_mask = ~closed
        w_parts.append((centers[open_mask], lo[open_mask], hi[open_mask]))
        tri_mask = closed & (centers < lo)
        t_parts.append((centers[tri_mask], lo[tri_mask], hi[tri_mask]))

    def _gather(parts):
        if parts:
            c = np.concatenate([p[0] for p in parts])
            a = np.concatenate([p[1] for p in parts])
            b = np.concatenate([p[2] for p in parts])
        else:
            c = a = b = np.zeros(0, dtype=np.int64)
        order = np.lexsort((b, a, c))
        return c[order], a[order], b[order]

    return (*_gather(w_parts), *_gather(t_parts))


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


@pytest.mark.parametrize(
    "g",
    [
        Graph.from_edges(0, []),
        Graph.from_edges(5, []),
        Graph.from_edges(6, [(0, k) for k in range(1, 6)]),
        Graph.from_edges(6, [(5, k) for k in range(5)]),
        Graph.from_edges(7, [(u, v) for u in range(7) for v in range(u + 1, 7)]),
    ],
    ids=["empty", "edgeless", "star", "star-last-center", "complete"],
)
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


@pytest.mark.parametrize("chunk_pairs", [1, 3, 10])
def test_enumeration_equals_reference_with_degree_classes_split_over_chunks(
    monkeypatch, chunk_pairs
):
    g = _overlapping_cliques(7)
    small = functools.partial(_neighbor_pair_chunks, chunk_pairs=chunk_pairs)
    chunks = list(small(g))
    # more chunks than degree classes: some class is split over several
    assert len(chunks) > np.unique(g.degree[g.degree >= 2]).shape[0]
    # the reference keeps the default chunks: it imported the chunker itself
    monkeypatch.setattr(graph, "_neighbor_pair_chunks", small)
    _assert_enumeration_matches_reference(g)


# ---------------------------------------------------------------------------
# Edge-list parsing


def _reference_parse_edge_list(
    source, *, comment_prefixes=("#", "%"), delimiter=None, one_indexed=False
):
    """The line-by-line parser the bulk one replaced."""
    remap = {}
    edges = []
    saw_data = False
    for lineno, raw in enumerate(_iter_text_lines(source), start=1):
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


def _assert_parsers_agree(source, **kwargs):
    want = _outcome(_reference_parse_edge_list, source, kwargs)
    got = _outcome(parse_edge_list, source, kwargs)
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
        parse_matrix_market(text.replace("3 3\n", "3 3 3\n"))


def test_parse_equals_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ident = st.integers(-3, 12) | st.sampled_from([2**63, -(2**63) - 1, 10**22])
    spelled = ident.map(str) | st.sampled_from(["+3", "1_0", "-0", "x", "1.5", "0x1", ""])
    space = st.sampled_from([" ", "\t", "  ", " \t ", ","])
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
