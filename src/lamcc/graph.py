"""Immutable undirected simple graphs and open-wedge / triangle enumeration.

A graph is stored in CSR adjacency form with sorted neighbor lists and
contiguous vertex ids 0..n-1. Parsing normalizes arbitrary edge lists
(self-loops dropped, duplicates and reversed copies merged, ids remapped
in first-appearance order) so that downstream algorithms can assume a
clean substrate.

An *open wedge* is a vertex triple (i, j, k) centered at j with edges
(i, j) and (j, k) present and (i, k) absent. Wedges and triangles are
enumerated in a fixed canonical order (by center, then by the sorted end
pair) because several algorithms in this package process wedges
sequentially and their output depends on the order. Each unordered wedge
is counted exactly once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, product
from operator import ne
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import EdgeListParseError, SizeCapError

__all__ = [
    "Graph",
    "WedgeIndex",
    "parse_edge_list",
    "parse_matrix_market",
    "load_graph",
    "to_edge_list_text",
    "enumerate_wedges",
    "count_wedges_and_triangles",
    "graph_stats",
]


# the largest n with n*n - 1 (the largest pair key) within int64
MAX_KEYED_VERTICES = 3_037_000_499
# the most variables that int32 program rows can index
MAX_ROW_INDEX = int(np.iinfo(np.int32).max)
_SEARCH_CHUNK = 1 << 15  # wedges per binary-search batch of the covering layout


def _pair_keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The keys min * n + max of the id pairs (u[i], v[i])."""
    return np.minimum(u, v) * n + np.maximum(u, v)


def _key_pairs(n: int, keys: np.ndarray):
    """The (u, v) tuples of an array of pair keys, in array order."""
    u, v = np.divmod(keys, n)
    return zip(u.tolist(), v.tolist())


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted unique values of an array: a sort and a neighbour compare.

    Gives what ``np.unique`` gives; numpy 2.x answers ``np.unique`` with a
    hash-based path that is several times slower on pair keys, and its first
    call imports ``numpy.ma`` (12-16 ms).
    """
    keys = np.sort(keys)
    first = np.ones(keys.shape[0], dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


class Graph:
    """Undirected simple graph in CSR adjacency form.

    Attributes:
        n: vertex count (ids are 0..n-1).
        m: edge count (each undirected edge counted once).
        indptr, indices: CSR arrays; indices[indptr[v]:indptr[v+1]] is the
            sorted neighbor list of v.
        degree: per-vertex neighbor count.

    Instances are immutable; the backing arrays are marked read-only.
    """

    __slots__ = ("n", "m", "indptr", "indices", "degree", "_edge_keys")

    def __init__(
        self, n: int, indptr: np.ndarray, indices: np.ndarray, edge_keys: np.ndarray
    ):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.degree = np.diff(indptr)
        self.m = int(indices.shape[0]) // 2
        self._edge_keys = edge_keys
        for arr in (self.indptr, self.indices, self.degree, self._edge_keys):
            arr.setflags(write=False)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from (u, v) pairs; drops self-loops and duplicates."""
        uv = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        uv = uv[uv[:, 0] != uv[:, 1]]
        bad = np.flatnonzero(((uv < 0) | (uv >= n)).any(axis=1))
        if bad.shape[0]:
            u, v = uv[bad[0]].tolist()
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        uv.sort(axis=1)
        return cls.from_keys(n, _sorted_unique(uv[:, 0] * n + uv[:, 1]))

    @classmethod
    def from_keys(cls, n: int, keys: np.ndarray) -> "Graph":
        """Build a graph from the sorted, unique pair keys of its edges.

        Raises SizeCapError when n > MAX_KEYED_VERTICES, where u*n + v would
        wrap int64.
        """
        if n > MAX_KEYED_VERTICES:
            raise SizeCapError(
                f"pair keys u*n + v overflow int64 above n={MAX_KEYED_VERTICES}, got {n}"
            )
        keys = np.array(keys, dtype=np.int64)
        both = np.concatenate([keys, (keys % n) * n + keys // n])
        both.sort()
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(both // n, minlength=n), out=indptr[1:])
        return cls(n, indptr, both % n, keys)

    def toggled(self, keys: np.ndarray) -> "Graph":
        """This graph with the adjacency of each (unique) pair key flipped;
        the graph itself when no key is given."""
        if not len(keys):
            return self
        return Graph.from_keys(
            self.n, np.setxor1d(self.edge_keys(), keys, assume_unique=True)
        )

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        pos = int(np.searchsorted(row, v))
        return pos < row.shape[0] and int(row[pos]) == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        return _key_pairs(self.n, self._edge_keys)

    def edge_keys(self) -> np.ndarray:
        """Sorted array of the pair keys u*n + v over all edges (u < v)."""
        return self._edge_keys

    def edge_mask(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask: which of the pair keys (u < v) are edges."""
        ek = self.edge_keys()
        if ek.shape[0] == 0:
            return np.zeros(np.shape(keys), dtype=bool)
        pos = np.minimum(np.searchsorted(ek, keys), ek.shape[0] - 1)
        return ek[pos] == keys

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self):
        return hash((self.n, self.m, self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# Parsing


def _text(source: str | bytes | IO) -> str:
    """The whole text of a str, of UTF-8 bytes or of a stream; bad UTF-8 names its line."""
    if not isinstance(source, (str, bytes)):
        source = source.read()
    if isinstance(source, str):
        return source
    try:
        return source.decode("utf-8")
    except UnicodeDecodeError as err:
        line = source.count(b"\n", 0, err.start) + 1
        raise EdgeListParseError(f"not UTF-8 text ({err.reason})", line) from None


def parse_edge_list(source: str | bytes | IO, *, delimiter: str | None = None) -> Graph:
    """Parse a whitespace- or delimiter-separated edge list into a Graph.

    Lines starting with ``#`` or ``%`` are comments; every other non-blank
    line must hold exactly two integer tokens. The result is normalized:
    self-loops dropped, duplicate and reversed edges merged, and vertex ids
    remapped to contiguous 0..n-1 in order of first appearance on a
    retained edge (so output ids are stable for a fixed input file, 0- or
    1-based alike, and serialize/parse round-trips are exact).

    The text is parsed in bulk, not line by line, with line-by-line
    semantics: lines end at "\\n" only (a lone "\\r" does not end one),
    Python's ``int`` decides which tokens are integers (``+3``, ``1_000``
    and negative ids are accepted), and file ids of any size work, ids
    beyond int64 included, because only the remapped ids become arrays.

    Raises:
        EdgeListParseError: malformed line (with its 1-based number; the
            first one when there are several) or input containing no edge
            lines at all.
    """
    raw = _text(source).split("\n")
    return _parse_lines(raw, ("#", "%"), delimiter, False)


def _parse_lines(raw: list[str], prefixes, delimiter, one_based) -> Graph:
    """The body of parse_edge_list over the file's lines, raw[i] being line i+1.

    Lines starting with one of ``prefixes`` are comments; with ``one_based``
    (MatrixMarket) every id must be at least 1. The lines are tokenized as
    one text; only if a regex finds a line of under two tokens, or the count
    or ``int`` fails, are they split one by one to name the first bad line.
    """
    stripped = list(map(str.strip, raw))
    prefixes = tuple(prefixes)
    linenos = [
        i for i, s in enumerate(stripped, start=1) if s and not s.startswith(prefixes)
    ]
    if not linenos:
        raise EdgeListParseError("empty input: no edge lines found")
    lines = [stripped[i - 1] for i in linenos]
    text = "\n".join(["", *lines, ""])
    if delimiter:
        d = re.escape(delimiter)  # with "\n" in it, the count fails
        flat = [t for t in text.replace(delimiter, "\n").split("\n") if t]
        short = rf"\n(?:{d})*(?:(?!{d})[^\n])*(?:{d})*\n"
    else:  # the lines are stripped: one of at most one token holds no space
        flat, short = text.split(), r"\n\S*\n"
    ok = len(lines)  # lines[:ok] are well formed
    vals = _ints(flat) if len(flat) == 2 * ok and not re.search(short, text) else None
    if vals is None:  # lines[ok] is the first with the wrong count or a non-integer
        tokens = [[t for t in s.split(delimiter or None) if t] for s in lines]
        ok = next((k for k, t in enumerate(tokens) if len(t) != 2 or _ints(t) is None), ok)
        vals = _ints(chain.from_iterable(tokens[:ok]))
    us, vs = vals[0::2], vals[1::2]
    # ids are renumbered by first appearance below, so 1-based ids need no shift
    if one_based and vals and min(vals) < 1:
        k = next(k for k in range(ok) if us[k] < 1 or vs[k] < 1)
        raise EdgeListParseError(
            f"token < 1 in one-indexed input: {lines[k]!r}", linenos[k]
        )
    if ok < len(lines):
        if len(tokens[ok]) != 2:
            raise EdgeListParseError(
                f"expected two integer tokens, got {len(tokens[ok])}", linenos[ok]
            )
        raise EdgeListParseError(f"non-integer token in {tokens[ok]!r}", linenos[ok])
    keep = list(map(ne, us, vs))
    if not all(keep):
        us, vs = list(compress(us, keep)), list(compress(vs, keep))
    # dict.fromkeys keeps first-appearance order in one pass over the ids
    seen = dict.fromkeys(chain.from_iterable(zip(us, vs)))
    remap = dict(zip(seen, range(len(seen))))
    n = len(remap)
    u = np.fromiter(map(remap.__getitem__, us), dtype=np.int64, count=len(us))
    v = np.fromiter(map(remap.__getitem__, vs), dtype=np.int64, count=len(vs))
    return Graph.from_keys(n, _sorted_unique(_pair_keys(n, u, v)))


def _ints(tokens) -> list[int] | None:
    try:
        return list(map(int, tokens))
    except ValueError:
        return None


def parse_matrix_market(source: str | bytes | IO) -> Graph:
    """Parse a MatrixMarket ``coordinate pattern symmetric`` file.

    Entries are 1-indexed (i, j) coordinates; the result is the same
    normalized Graph the edge-list reader produces, except that the header
    dimension fixes nothing (ids are still remapped by first appearance).
    The first line after the header that is neither blank nor a ``%``
    comment is the dimensions line and must hold three integers.
    """
    raw = _text(source).split("\n")
    if raw == [""]:
        raise EdgeListParseError("empty input: no header line")
    fields = raw[0].lower().split()
    if not raw[0].startswith("%%MatrixMarket") or "coordinate" not in fields:
        raise EdgeListParseError("not a MatrixMarket coordinate file", 1)
    if "pattern" not in fields:
        raise EdgeListParseError("only 'pattern' matrices are supported", 1)
    for dims in range(1, len(raw)):
        line = raw[dims].strip()
        if line and not line.startswith("%"):
            break
    else:
        raise EdgeListParseError("missing dimensions line")
    tokens = line.split()
    if len(tokens) != 3 or _ints(tokens) is None:
        raise EdgeListParseError(
            f"dimensions line must hold three integers, got {line!r}", dims + 1
        )
    if not any(map(str.strip, raw[dims + 1:])):
        raise EdgeListParseError("empty input: no entries found")
    # blank lines in place of the header keep error line numbers the file's
    raw[:dims + 1] = [""] * (dims + 1)
    return _parse_lines(raw, ("%",), None, True)


def load_graph(path: str | Path) -> Graph:
    """Load a graph file: MatrixMarket if it starts with ``%%MatrixMarket``,
    else an edge list."""
    data = Path(path).read_bytes()
    if data.startswith(b"%%MatrixMarket"):
        return parse_matrix_market(data)
    return parse_edge_list(data)


def to_edge_list_text(g: Graph) -> str:
    """Serialize to the edge-list format (one 'u v' per line, u < v).

    Lines are ordered so that vertex ids make their first appearance in
    ascending order: one introduction edge per vertex up front, then the
    remaining edges sorted. Re-parsing such text reproduces the identical
    Graph, because the parser assigns ids in first-appearance order.
    Every parser output admits this ordering (vertex k was first seen next
    to an already-seen vertex or to k+1); graphs whose labeling cannot be
    realized that way (possible via from_edges) fall back to plain
    sorted order, which re-parses to an isomorphic relabeling.
    """
    order: dict[tuple[int, int], None] = {}
    k = 0
    while k < g.n:
        nbrs = g.neighbors(k)
        smaller = nbrs[nbrs < k]
        if smaller.shape[0]:
            order[int(smaller[0]), k] = None
            k += 1
        elif g.has_edge(k, k + 1) if k + 1 < g.n else False:
            order[k, k + 1] = None
            k += 2
        else:
            order.clear()
            break
    order.update(dict.fromkeys(g.edges()))
    return "".join(f"{u} {v}\n" for u, v in order)


# ---------------------------------------------------------------------------
# Wedge and triangle enumeration


@dataclass(frozen=True)
class WedgeIndex:
    """All open wedges and triangles of a graph, in canonical order.

    Wedges are sorted by center, then by end pair; triangles are sorted
    triples (i < j < k); ``edge_keys`` is the graph's own read-only
    ``Graph.edge_keys()``. The raw arrays are the only representation:
    wedge w is (wedge_center[w], wedge_lo[w], wedge_hi[w]) and triangle t is
    (tri_i[t], tri_j[t], tri_k[t]). The covering layout, its indexes and the
    intermediate rows are built from them on first use and kept read-only.
    """

    n: int
    wedge_center: np.ndarray
    wedge_lo: np.ndarray
    wedge_hi: np.ndarray
    tri_i: np.ndarray
    tri_j: np.ndarray
    tri_k: np.ndarray
    edge_keys: np.ndarray

    @property
    def wedge_count(self) -> int:
        return int(self.wedge_center.shape[0])

    @property
    def triangle_count(self) -> int:
        return int(self.tri_i.shape[0])

    @cached_property
    def covering_layout(self) -> tuple[np.ndarray, int, np.ndarray]:
        """Variables and rows of the wedge covering program: (keys, edge_count, rows).

        The variables are the int64 pairs ``keys``: the edge_count edges in
        key order, then the wedge end pairs (never edges) in key order. Row w
        of the (wedge_count, 3) int32 ``rows`` holds the variables of wedge
        w's pairs (center, lo), (center, hi), (lo, hi). Only these pairs can
        cover a wedge, so every labeling and LP over wedges lives on them.
        It does not depend on lambda, so it is built once and kept read-only.
        Raises SizeCapError when the variables outnumber ``MAX_ROW_INDEX``.
        Column 0 is filled per run of rows on one edge
        (``_run_heads``, shared with ``cover_runs``): each (center, lo)
        starts one, except that a (c', c) right after a (c, c') continues.
        """
        heads, first = self._run_heads
        n, edge_keys, w = self.n, self.edge_keys, self.wedge_count
        c, a, b = self.wedge_center, self.wedge_lo, self.wedge_hi  # int64
        m = int(edge_keys.shape[0])
        ends = a * n + b
        perm = np.argsort(ends)
        ends.sort()
        new = np.ones(w, dtype=bool)
        np.not_equal(ends[1:], ends[:-1], out=new[1:])
        keys = np.concatenate([edge_keys, ends[new]])
        del ends
        if keys.shape[0] > MAX_ROW_INDEX:
            raise SizeCapError(f"the covering program has {keys.shape[0]} variables; int32 "
                               f"program rows index at most {MAX_ROW_INDEX}")
        var = np.cumsum(new, dtype=np.int32)  # of the first-occurrence mask:
        var += m - 1  # the sorted wedges' end variables
        third = np.empty(w, dtype=np.int32)
        third[perm] = var
        del new, perm, var
        rows = np.empty((w, 3), dtype=np.int32)
        rows[:, 2] = third
        del third
        for s in range(0, w, _SEARCH_CHUNK):
            cs, bs = c[s:s + _SEARCH_CHUNK], b[s:s + _SEARCH_CHUNK]
            rows[s:s + _SEARCH_CHUNK, 1] = np.searchsorted(edge_keys, _pair_keys(n, cs, bs))
        rows[:, 0] = np.repeat(first, np.diff(heads, append=w))
        keys.setflags(write=False)
        rows.setflags(write=False)
        return keys, m, rows

    def wedge_pair_keys(self) -> np.ndarray:
        """(wedge_count, 3) array of pair keys per wedge.

        Columns are (center, lo), (center, hi), (lo, hi): the two edges
        followed by the open end pair, each as the key u*n + v (u < v).
        """
        keys, _, rows = self.covering_layout
        return keys[rows]

    @cached_property
    def _run_heads(self) -> tuple[np.ndarray, np.ndarray]:
        """(heads, first): run i of the covering rows starts at heads[i], on edge first[i]."""
        c, a = self.wedge_center, self.wedge_lo
        heads = np.flatnonzero(np.append(c.shape[0] > 0, (c[1:] != c[:-1]) | (a[1:] != a[:-1])))
        c, a = c[heads], a[heads]
        first = np.searchsorted(self.edge_keys, _pair_keys(self.n, c, a)).astype(np.int32)
        new = np.flatnonzero(np.append(first.shape[0] > 0, first[1:] != first[:-1]))
        return heads[new], first[new]

    @cached_property
    def cover_runs(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """(runs, touched): ``_row_runs`` of the covering rows at the layout's heads,
        and the mask of the edges on some wedge, for ``lamcc.stc.cover_label``."""
        _, m, rows = self.covering_layout
        runs = _row_runs(*rows.T, self._run_heads[0])
        touched = np.zeros(m, dtype=bool)
        touched[runs[1]] = touched[rows[:, 1]] = True
        for arr in (*runs, touched):
            arr.setflags(write=False)
        return runs, touched

    @cached_property
    def intermediate_rows(self) -> np.ndarray:
        """The intermediate LP's rows, read-only: wedge rows, then center-j, -i, -k rows."""
        tri = _triangle_rows(self.n, lambda q: np.searchsorted(self.edge_keys, q),
                             self.tri_i, self.tri_j, self.tri_k)
        rows = np.concatenate([self.covering_layout[2], tri.transpose(1, 0, 2).reshape(-1, 3)])
        rows.setflags(write=False)
        return rows

    @cached_property
    def rows_by_column(self) -> tuple[np.ndarray, np.ndarray]:
        """``_rows_by_column`` of the covering rows, read-only."""
        keys, _, rows = self.covering_layout
        index = _rows_by_column(rows, keys.shape[0])
        for arr in index:
            arr.setflags(write=False)
        return index


def _triangle_rows(n: int, index_of, i, j, k) -> np.ndarray:
    """(T, 3, 3) int32 variable indices of x_uv + x_vw >= x_uw at triangles i < j < k, where
    ``index_of`` maps pair keys to variable indices; axis 1 is the center v: j, i, k."""
    e_ij, e_ik, e_jk = (index_of(q).astype(np.int32) for q in (i * n + j, i * n + k, j * n + k))
    rotations = ((e_ij, e_jk, e_ik), (e_ij, e_ik, e_jk), (e_ik, e_jk, e_ij))
    return np.stack([np.stack(r, axis=1) for r in rotations], axis=1)


def _row_runs(a: np.ndarray, b: np.ndarray, c: np.ndarray, heads=None) -> tuple[np.ndarray, ...]:
    """(heads, first, ends, second, third): run i is the rows heads[i]:ends[i]
    that share a = first[i] (heads, unless given, where a changes); a run of
    one row also names its b and c in second/third (-1, a pad, if longer)."""
    # few numpy calls: on a tiny program each costs about as much as the work
    n = a.shape[0]
    if heads is None:
        change = np.empty(n, dtype=bool)
        change[:1] = True
        np.not_equal(a[1:], a[:-1], out=change[1:])
        heads = change.nonzero()[0]
    ends = np.concatenate((heads[1:], [n]))
    second, third = b[heads], c[heads]
    long = ends - heads > 1
    second[long] = third[long] = -1
    return heads, a[heads], ends, second, third


def _rows_by_column(rows: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Column -> rows CSR of a (M, 3) index array whose -1 entries pad.

    Variable j lies on rows ``row_of[ptr[j]:ptr[j + 1]]``, in ascending
    row order. Row ids stay int64: numpy gathers 3-6x slower by int32 ones.
    """
    row_ids = np.repeat(np.arange(rows.shape[0], dtype=np.int64), 3)
    col_ids = rows.ravel()
    keep = col_ids >= 0
    row_ids, col_ids = row_ids[keep], col_ids[keep]
    order = np.argsort(col_ids, kind="stable")
    return row_ids[order], np.searchsorted(col_ids[order], np.arange(N + 1))


def _neighbor_pair_chunks(g: Graph, chunk_pairs: int = 2_000_000):
    """Yield (center, lo, hi) id arrays covering every sorted neighbor pair.

    A chunk is a run of consecutive centers holding about ``chunk_pairs``
    pairs (at least that many, unless it ends the graph); a center is never
    split. Each center's pairs are a ragged triu over its sorted CSR slots:
    slot s pairs with every later slot of its center, s ascending. So the
    pairs come out in canonical order, by center, then lo, then hi.
    """
    indptr, deg = g.indptr, g.degree
    ends = np.cumsum(deg * (deg - 1) // 2)  # pairs up to and including each center
    v0, done = 0, 0
    while done < (int(ends[-1]) if g.n else 0):
        v1 = min(int(np.searchsorted(ends, done + chunk_pairs)) + 1, g.n)
        rows = np.repeat(np.arange(v0, v1), deg[v0:v1])  # center of each slot
        slots = np.arange(indptr[v0], indptr[v1])
        later = indptr[rows + 1] - slots - 1  # slots after s in its center
        # the k-th pair of slot s pairs it with slot s + 1 + k
        hi = np.repeat(slots + 1 - (np.cumsum(later) - later), later)
        hi += np.arange(hi.shape[0])
        hi = g.indices[hi]
        yield np.repeat(rows, later), g.indices[np.repeat(slots, later)], hi
        v0, done = v1, int(ends[v1 - 1])


def _classified_pairs(g: Graph):
    """Yield (center, lo, hi, open, triangle) per ``_neighbor_pair_chunks`` chunk.

    ``open`` masks the open wedges (one binary search per pair against the
    edge set), ``triangle`` the closed pairs seen from their smallest corner.
    """
    for centers, lo, hi in _neighbor_pair_chunks(g):
        closed = g.edge_mask(lo * g.n + hi)
        yield centers, lo, hi, ~closed, closed & (centers < lo)
        del centers, lo, hi, closed


def enumerate_wedges(g: Graph) -> WedgeIndex:
    """Enumerate all open wedges and triangles, each exactly once.

    Runs in O(sum of squared degrees): every sorted neighbor pair of every
    center is classified open/closed by ``_classified_pairs``.

    The canonical order (center, then lo, then hi) needs no sort: the
    chunks of ``_neighbor_pair_chunks`` are runs of consecutive centers,
    each center whole and with its pairs in (lo, hi) order, so masking each
    chunk and concatenating the parts in chunk order keeps that order.
    Triangles (center < lo < hi) follow by the same argument.
    """
    parts = [[] for _ in range(6)]  # center, lo, hi of the open wedges, then of the triangles
    for centers, lo, hi, *masks in _classified_pairs(g):
        for col, (mask, x) in zip(parts, product(masks, (centers, lo, hi))):
            col.append(x[mask])
        del centers, lo, hi, masks, mask, x
    joined = []
    while parts:  # one column at a time, its parts freed before the next is joined
        col = parts.pop(0)
        joined.append(np.concatenate(col) if col else np.zeros(0, dtype=np.int64))
    return WedgeIndex(g.n, *joined, g.edge_keys())


def count_wedges_and_triangles(g: Graph) -> tuple[int, int]:
    """Counting-only pass: (open wedge count, triangle count).

    Avoids materializing the index; used for statistics on graphs whose
    wedge list would be large.
    """
    wedges = 0
    triangles = 0
    for _, _, _, open_mask, tri_mask in _classified_pairs(g):
        wedges += int(open_mask.sum())
        triangles += int(tri_mask.sum())
    return wedges, triangles


def graph_stats(g: Graph) -> dict[str, int]:
    """Basic counts plus the size of the all-triples constraint family.

    canonical_constraint_count is n(n-1)(n-2)/2, the number of triangle
    inequalities over every vertex triple and rotation, which the
    wedge-restricted formulations avoid.
    """
    w, t = count_wedges_and_triangles(g)
    return {
        "n": g.n,
        "m": g.m,
        "wedge_count": w,
        "triangle_count": t,
        "canonical_constraint_count": g.n * (g.n - 1) * (g.n - 2) // 2,
    }
