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

import io
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from operator import ne
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import EdgeListParseError, SizeCapError

__all__ = [
    "Graph",
    "Wedge",
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


def pair_key(n: int, u: int, v: int) -> int:
    """Encode an unordered pair as a single sortable integer."""
    if u > v:
        u, v = v, u
    return u * n + v


def _key_pairs(n: int, keys: np.ndarray):
    """The (u, v) tuples of an array of pair keys, in array order."""
    u, v = np.divmod(keys, n)
    return zip(u.tolist(), v.tolist())


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted unique values of an int64 key array: a sort and a neighbour compare.

    Gives what ``np.unique`` gives; numpy 2.x answers ``np.unique`` with a
    hash-based path that is several times slower on pair keys.
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

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.degree = np.diff(indptr)
        self.m = int(indices.shape[0]) // 2
        for arr in (self.indptr, self.indices, self.degree):
            arr.setflags(write=False)
        self._edge_keys = None

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
        g = cls(n, indptr, both % n)
        keys.setflags(write=False)
        g._edge_keys = keys
        return g

    def toggled(self, keys: np.ndarray) -> "Graph":
        """This graph with the adjacency of each (unique) pair key flipped."""
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
        for u in range(self.n):
            for v in self.neighbors(u):
                if v > u:
                    yield u, int(v)

    def edge_keys(self) -> np.ndarray:
        """Sorted array of pair_key(n, u, v) over all edges (u < v)."""
        if self._edge_keys is None:
            rowids = np.repeat(np.arange(self.n, dtype=np.int64), self.degree)
            mask = self.indices > rowids
            keys = rowids[mask] * self.n + self.indices[mask].astype(np.int64)
            keys.setflags(write=False)
            self._edge_keys = keys
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


class Wedge(NamedTuple):
    """Open wedge: edges (ends[0], center) and (center, ends[1]), non-edge ends."""

    center: int
    ends: tuple[int, int]


# ---------------------------------------------------------------------------
# Parsing


def _iter_text_lines(source: str | bytes | IO) -> Iterator[str]:
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        yield from io.StringIO(source)
        return
    for raw in source:
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        yield raw


def parse_edge_list(
    source: str | bytes | IO,
    *,
    comment_prefixes: tuple[str, ...] = ("#", "%"),
    delimiter: str | None = None,
    one_indexed: bool = False,
) -> Graph:
    """Parse a whitespace- or delimiter-separated edge list into a Graph.

    Each non-comment line must hold exactly two integer tokens. The result
    is normalized: self-loops dropped, duplicate and reversed edges merged,
    and vertex ids remapped to contiguous 0..n-1 in order of first
    appearance on a retained edge (so output ids are stable for a fixed
    input file, and serialize/parse round-trips are exact).

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
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        raw = source.split("\n")
    else:
        raw = list(_iter_text_lines(source))
    stripped = list(map(str.strip, raw))
    prefixes = tuple(comment_prefixes)
    linenos = [
        i for i, s in enumerate(stripped, start=1) if s and not s.startswith(prefixes)
    ]
    if not linenos:
        raise EdgeListParseError("empty input: no edge lines found")
    lines = [stripped[i - 1] for i in linenos]
    if delimiter:
        tokens = [[t for t in s.split(delimiter) if t] for s in lines]
    else:
        tokens = list(map(str.split, lines))
    counts = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    # lines[:ok] are well formed; lines[ok], if any, is the first line with
    # the wrong token count or a non-integer token
    bad = np.flatnonzero(counts != 2)
    ok = int(bad[0]) if bad.shape[0] else len(lines)
    try:
        vals = list(map(int, chain.from_iterable(tokens[:ok])))
    except ValueError:
        ok = next(k for k in range(ok) if not _all_int(tokens[k]))
        vals = list(map(int, chain.from_iterable(tokens[:ok])))
    us, vs = vals[0::2], vals[1::2]
    if one_indexed:
        if vals and min(vals) < 1:
            k = next(k for k in range(ok) if us[k] < 1 or vs[k] < 1)
            raise EdgeListParseError(
                f"token < 1 in one-indexed input: {lines[k]!r}", linenos[k]
            )
        us = [u - 1 for u in us]
        vs = [v - 1 for v in vs]
    if ok < len(lines):
        if counts[ok] != 2:
            raise EdgeListParseError(
                f"expected two integer tokens, got {int(counts[ok])}", linenos[ok]
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
    return Graph.from_keys(n, _sorted_unique(np.minimum(u, v) * n + np.maximum(u, v)))


def _all_int(tokens: list[str]) -> bool:
    try:
        list(map(int, tokens))
    except ValueError:
        return False
    return True


def parse_matrix_market(source: str | bytes | IO) -> Graph:
    """Parse a MatrixMarket ``coordinate pattern symmetric`` file.

    Entries are 1-indexed (i, j) coordinates; the result is the same
    normalized Graph the edge-list reader produces, except that the header
    dimension fixes nothing (ids are still remapped by first appearance).
    """
    lines = _iter_text_lines(source)
    try:
        header = next(lines)
    except StopIteration:
        raise EdgeListParseError("empty input: no header line") from None
    fields = header.lower().split()
    if not header.startswith("%%MatrixMarket") or "coordinate" not in fields:
        raise EdgeListParseError("not a MatrixMarket coordinate file", 1)
    if "pattern" not in fields:
        raise EdgeListParseError("only 'pattern' matrices are supported", 1)
    # skip comment lines, then the dimensions line
    lineno = 1
    for raw in lines:
        lineno += 1
        if not raw.strip().startswith("%") and raw.strip():
            break
    else:
        raise EdgeListParseError("missing dimensions line")
    body = "".join(lines)
    if not body.strip():
        raise EdgeListParseError("empty input: no entries found")
    # blank lines in place of the header keep error line numbers the file's
    body = "\n" * lineno + body
    return parse_edge_list(body, comment_prefixes=("%",), one_indexed=True)


def load_graph(path: str | Path, fmt: str = "auto") -> Graph:
    """Load a graph file; ``fmt`` is 'edgelist', 'mtx', or 'auto' (sniff)."""
    path = Path(path)
    data = path.read_bytes()
    if fmt == "auto":
        fmt = "mtx" if data.startswith(b"%%MatrixMarket") else "edgelist"
    if fmt == "mtx":
        return parse_matrix_market(data)
    if fmt == "edgelist":
        return parse_edge_list(data)
    raise EdgeListParseError(f"unknown format {fmt!r}")


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
    intro: list[tuple[int, int]] = []
    used: set[tuple[int, int]] = set()
    k = 0
    realizable = True
    while k < g.n:
        nbrs = g.neighbors(k)
        smaller = nbrs[nbrs < k]
        if smaller.shape[0]:
            e = (int(smaller[0]), k)
            intro.append(e)
            used.add(e)
            k += 1
        elif g.has_edge(k, k + 1) if k + 1 < g.n else False:
            e = (k, k + 1)
            intro.append(e)
            used.add(e)
            k += 2
        else:
            realizable = False
            break
    if not realizable:
        return "".join(f"{u} {v}\n" for u, v in g.edges())
    rest = (e for e in g.edges() if e not in used)
    return "".join(f"{u} {v}\n" for u, v in intro) + "".join(
        f"{u} {v}\n" for u, v in rest
    )


# ---------------------------------------------------------------------------
# Wedge and triangle enumeration


@dataclass(frozen=True)
class WedgeIndex:
    """All open wedges and triangles of a graph, in canonical order.

    Wedges are sorted by center, then by end pair; triangles are sorted
    triples (i < j < k). The raw arrays are the primary representation;
    the ``wedges`` / ``triangles`` views exist for convenience at small
    scale.
    """

    n: int
    wedge_center: np.ndarray
    wedge_lo: np.ndarray
    wedge_hi: np.ndarray
    tri_i: np.ndarray
    tri_j: np.ndarray
    tri_k: np.ndarray

    @property
    def wedge_count(self) -> int:
        return int(self.wedge_center.shape[0])

    @property
    def triangle_count(self) -> int:
        return int(self.tri_i.shape[0])

    @cached_property
    def wedges(self) -> list[Wedge]:
        return [
            Wedge(int(c), (int(a), int(b)))
            for c, a, b in zip(self.wedge_center, self.wedge_lo, self.wedge_hi)
        ]

    @cached_property
    def triangles(self) -> list[tuple[int, int, int]]:
        return [
            (int(i), int(j), int(k))
            for i, j, k in zip(self.tri_i, self.tri_j, self.tri_k)
        ]

    def wedge_pair_keys(self) -> np.ndarray:
        """(wedge_count, 3) array of pair keys per wedge.

        Columns are (center, lo), (center, hi), (lo, hi): the two edges
        followed by the open end pair, each encoded with pair_key.
        """
        return np.stack(self.wedge_pair_key_columns(), axis=1)

    def wedge_pair_key_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three columns of ``wedge_pair_keys`` as separate arrays."""
        n = self.n
        c = self.wedge_center.astype(np.int64, copy=False)
        a = self.wedge_lo.astype(np.int64, copy=False)
        b = self.wedge_hi.astype(np.int64, copy=False)
        e1 = np.minimum(c, a) * n + np.maximum(c, a)
        e2 = np.minimum(c, b) * n + np.maximum(c, b)
        return e1, e2, a * n + b


def _covering_layout(g: Graph, widx: WedgeIndex) -> tuple[np.ndarray, int, np.ndarray]:
    """Variables and rows of the wedge covering program: (keys, edge_count, rows).

    The variables are the pairs ``keys``: the edge_count edges in key
    order, then the wedge end pairs (never edges) in key order. Row w of
    the (wedge_count, 3) int64 ``rows`` holds the variables of wedge w's
    pairs (center, lo), (center, hi), (lo, hi). Only these pairs can
    cover a wedge, so every labeling and LP over wedges lives on them.
    """
    e1, e2, ends = widx.wedge_pair_key_columns()
    edge_keys = g.edge_keys()
    m = int(edge_keys.shape[0])
    end_keys, end_idx = np.unique(ends, return_inverse=True)
    rows = np.empty((widx.wedge_count, 3), dtype=np.int64)
    rows[:, 0] = np.searchsorted(edge_keys, e1)
    rows[:, 1] = np.searchsorted(edge_keys, e2)
    rows[:, 2] = end_idx + m
    return np.concatenate([edge_keys, end_keys]), m, rows


def _rows_by_column(rows: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Column -> rows CSR of a (M, 3) index array whose -1 entries pad.

    Variable j lies on rows ``row_of[ptr[j]:ptr[j + 1]]``, in ascending
    row order.
    """
    row_ids = np.repeat(np.arange(rows.shape[0], dtype=np.int64), 3)
    col_ids = rows.ravel()
    keep = col_ids >= 0
    row_ids, col_ids = row_ids[keep], col_ids[keep]
    order = np.argsort(col_ids, kind="stable")
    return row_ids[order], np.searchsorted(col_ids[order], np.arange(N + 1))


def _neighbor_pair_chunks(g: Graph, chunk_pairs: int = 2_000_000):
    """Yield (center, lo, hi) id arrays covering every sorted neighbor pair.

    Centers are grouped by degree so a single triu template serves a whole
    batch; work per chunk is capped at roughly ``chunk_pairs`` pairs.
    """
    deg = g.degree
    for d in np.unique(deg):
        d = int(d)
        if d < 2:
            continue
        verts = np.flatnonzero(deg == d)
        ii, jj = np.triu_indices(d, 1)
        per = ii.shape[0]
        step = max(1, chunk_pairs // per)
        for s in range(0, verts.shape[0], step):
            vs = verts[s:s + step]
            base = g.indptr[vs]
            lo = g.indices[base[:, None] + ii[None, :]].ravel()
            hi = g.indices[base[:, None] + jj[None, :]].ravel()
            centers = np.repeat(vs, per)
            yield centers, lo, hi


def enumerate_wedges(g: Graph) -> WedgeIndex:
    """Enumerate all open wedges and triangles, each exactly once.

    Runs in O(sum of squared degrees): every sorted neighbor pair of every
    center is classified open/closed with one binary search against the
    edge set. A triangle is seen from its three corners; only the
    occurrence whose center is the smallest vertex is kept.

    The canonical order (center, then lo, then hi) comes from one stable
    sort on the center: all neighbor pairs of a center come from a single
    chunk, centers ascend inside a chunk, and a center's pairs come out of
    ``triu_indices`` over its sorted neighbor list, so they are already in
    (lo, hi) order. Triangles (center < lo < hi) follow by the same argument.
    """
    w_parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    t_parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for centers, lo, hi in _neighbor_pair_chunks(g):
        closed = g.edge_mask(lo * g.n + hi)
        open_mask = ~closed
        w_parts.append((centers[open_mask], lo[open_mask], hi[open_mask]))
        tri_mask = closed & (centers < lo)
        t_parts.append((centers[tri_mask], lo[tri_mask], hi[tri_mask]))

    def _gather(parts, empty_dtype=np.int64):
        if parts:
            c = np.concatenate([p[0] for p in parts])
            a = np.concatenate([p[1] for p in parts])
            b = np.concatenate([p[2] for p in parts])
        else:
            c = a = b = np.zeros(0, dtype=empty_dtype)
        order = np.argsort(c, kind="stable")
        return c[order], a[order], b[order]

    wc, wa, wb = _gather(w_parts)
    tc, ta, tb = _gather(t_parts)
    return WedgeIndex(g.n, wc, wa, wb, tc, ta, tb)


def count_wedges_and_triangles(g: Graph) -> tuple[int, int]:
    """Counting-only pass: (open wedge count, triangle count).

    Avoids materializing the index; used for statistics on graphs whose
    wedge list would be large.
    """
    wedges = 0
    triangles = 0
    for centers, lo, hi in _neighbor_pair_chunks(g):
        closed = g.edge_mask(lo * g.n + hi)
        wedges += int((~closed).sum())
        triangles += int((closed & (centers < lo)).sum())
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
