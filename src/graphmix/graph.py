"""Undirected labeled graphs and degree statistics.

Graphs are immutable once built.  The edge table is a read-only (m, 2)
int64 array with every row stored as (min, max) and rows sorted
lexicographically, so equality, hashing of files, and iteration order are
reproducible across runs.  Rows given in that canonical order skip the
sort and are only checked and copied; rows the library has just built
for the graph (an edge file's rows, a join's rows, a W-random sample's
rows, a sequence member's rows) are frozen in place instead of copied,
and a member that keeps all of its sample's rows shares them.  A star
forest takes its counts and degrees from its star sizes, and a mixture's
joined graph from its blocks; either builds its rows only on the first
read of edges, every check above runs then, and the rows are frozen.
Node labels are 0..node_count-1; isolated nodes are allowed and matter
(they enter node counts and densities).
Node counts and degrees must be integers, or ValueError is raised.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import TextIO

import numpy as np

__all__ = [
    "Graph",
    "GraphFormatError",
    "DegreeSpectrum",
    "degree_spectrum",
    "edge_density",
    "top_k_degrees",
    "component_labels",
    "write_edge_list",
    "read_edge_list",
]


class GraphFormatError(ValueError):
    """Raised when an edge-list file cannot be parsed."""


# largest node count whose pair keys lo * n + hi stay below 2**63
_KEY_NODE_LIMIT = 3_037_000_499


def _count(value, name: str, low: int = 0) -> int:
    """value as an int if it is a Python or numpy integer, not a bool, >= low."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low:
        return int(value)
    raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _int(token: str) -> int:
    """int(token); an integer literal (ASCII digits after at most one sign)
    that int() refuses for having more digits than
    sys.get_int_max_str_digits() reads as 2**64, whatever its sign: a value
    beyond int64, so out of every range a parser accepts."""
    try:
        return int(token)
    except ValueError:
        digits = token[1:] if token[:1] in ("+", "-") else token
        if digits.isascii() and digits.isdigit():
            return 2**64
        raise


def _real(value, name: str, low: float, high: float = math.inf, low_open: bool = False) -> float:
    """value as a float if it is a finite Python or numpy real, not a bool
    or str, in [low, high] ((low, high] when low_open)."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:  # an int beyond the float range
            real = math.nan
        if math.isfinite(real) and (low < real if low_open else low <= real) and real <= high:
            return real
    if high < math.inf:
        span = f"in {'(' if low_open else '['}{low:g}, {high:g}]"
    else:
        span = f"{'>' if low_open else '>='} {low:g}"
    raise ValueError(f"{name} must be a finite number {span}, got {value!r}")


def _endpoint_array(raw: np.ndarray) -> np.ndarray:
    """raw as int64, or ValueError for non-integer or beyond-int64 values."""
    if raw.dtype.kind == "f":
        # Python ints in 2**63..2**64-1 mixed with small ones arrive as float64
        if not np.all(np.isfinite(raw) & (np.floor(raw) == raw)):
            raise ValueError("edge endpoints must be integer values")
        if np.any(np.abs(raw) >= 2.0**63):
            raise ValueError("edge endpoint out of range 0..node_count-1")
    try:
        with np.errstate(invalid="ignore"):
            arr = raw.astype(np.int64, copy=False)
    except OverflowError:  # Python ints beyond int64
        raise ValueError("edge endpoint out of range 0..node_count-1") from None
    if raw.dtype.kind not in "iubf" and not np.array_equal(arr, raw):
        raise ValueError("edge endpoints must be integer values")
    return arr


class _Fresh:
    """Edge rows the library has just built for one Graph and then drops,
    or frozen rows of another Graph that the new one may share.

    Graph(n, _Fresh(rows)) runs every check on rows, but when they are
    already canonical it freezes and keeps them instead of copying.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows


def _canonical_edges(node_count: int, edges) -> np.ndarray:
    """Rows (min, max), sorted and distinct, as one sorted int64 key per edge.

    Rows that are already canonical (u < v on every row, keys strictly
    increasing) skip the sort and come back C-contiguous: a copy, unless
    they come wrapped in _Fresh.
    """
    fresh = isinstance(edges, _Fresh)
    raw = np.asarray(edges.rows if fresh else edges)
    if raw.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    arr = _endpoint_array(raw)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be an iterable of (u, v) pairs")
    lo, hi = arr[:, 0], arr[:, 1]
    oriented = bool(np.all(lo < hi))
    if not oriented:
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    if lo.min() < 0 or hi.max() >= node_count:
        raise ValueError("edge endpoint out of range 0..node_count-1")
    if not oriented and np.any(lo == hi):
        raise ValueError("self loops are not allowed")
    if node_count <= _KEY_NODE_LIMIT:
        # key order is lexicographic (lo, hi) order
        key = lo * node_count + hi
        if oriented and np.all(key[1:] > key[:-1]):
            # Graph freezes what it gets, so never the caller's array
            return np.ascontiguousarray(arr) if fresh else arr.copy()
        key = np.sort(key)
        lo, hi = np.divmod(key, node_count)
    else:
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
    dup = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    if dup.any():
        i = int(dup.argmax()) + 1
        raise ValueError(f"duplicate edge ({lo[i]}, {hi[i]})")
    return np.column_stack([lo, hi])


class Graph:
    """Simple undirected graph on nodes 0..node_count-1."""

    __slots__ = ("node_count", "edge_count", "_edges", "_degrees", "_rows")

    def __init__(self, node_count: int, edges=()):
        node_count = _count(node_count, "node_count")
        if node_count >= 2**63:
            raise ValueError("node_count out of range 0..2**63-1")
        arr = _canonical_edges(node_count, edges)
        _set_state(self, node_count, arr.shape[0], arr, None, None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return _graph_from_state, tuple(getattr(self, name) for name in Graph.__slots__)

    @property
    def edges(self) -> np.ndarray:
        """The read-only canonical (m, 2) edge table."""
        if self._edges is None:
            arr = Graph(self.node_count, _Fresh(self._rows())).edges
            if arr.shape[0] != self.edge_count:
                raise ValueError("deferred rows disagree with the edge count")
            # known degrees stay; both functions go, and the data they read
            deg = self._degrees if isinstance(self._degrees, np.ndarray) else None
            _set_state(self, self.node_count, self.edge_count, arr, deg, None)
        return self._edges

    def degrees(self) -> np.ndarray:
        """Degree of every node, indexed by node label."""
        deg = self._degrees  # an array, None, or a deferred graph's function
        if not isinstance(deg, np.ndarray):
            deg = deg() if deg else np.bincount(self.edges.ravel(), minlength=self.node_count)
            deg.setflags(write=False)
            object.__setattr__(self, "_degrees", deg)
        return deg

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self.edge_count == other.edge_count
            and np.array_equal(self.edges, other.edges)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Graph(n={self.node_count}, m={self.edge_count})"


def _set_state(g: Graph, node_count, edge_count, edges, degrees, rows) -> None:
    for arr in (edges, degrees):
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    for name, value in zip(Graph.__slots__, (node_count, edge_count, edges, degrees, rows)):
        object.__setattr__(g, name, value)


def _graph_from_state(node_count, edge_count, edges, degrees, rows) -> Graph:
    """A Graph holding exactly this state; no check runs here.

    It restores a pickled or copied graph, rows built or not, and makes
    a deferred one: edges None, rows a function returning the edge rows,
    and degrees known or a function called on their first read; both are
    data (functools.partial of a module-level function) so the graph
    pickles.  The first read of edges builds and checks the rows as
    Graph(node_count, _Fresh(rows())) does and drops both functions.
    """
    g = object.__new__(Graph)
    _set_state(g, node_count, edge_count, edges, degrees, rows)
    return g


def _fields_equal(self, other) -> bool:
    """__eq__ for frozen dataclasses that hold arrays: field by field, by
    value, with np.array_equal where either side is an array and == on
    the rest.  Such classes set eq=False and __hash__ = None."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    for f in fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            if not np.array_equal(a, b):
                return False
        elif not a == b:
            return False
    return True


def component_labels(g: Graph) -> np.ndarray:
    """Smallest node id of each node's connected component.

    Min-label hooking with full pointer jumping (Shiloach-Vishkin 1982):
    each round hooks every root onto the smallest root it shares an edge
    with, then jumps every node straight to its root, until both ends of
    every edge carry the same label.  Roots only move to smaller ids, so
    a component's last root is its smallest node.  Round 1 reads the rows
    as they are: every node is its own root and lo < hi, so only hi moves.
    """
    parent = np.arange(g.node_count, dtype=np.int64)
    u, v = g.edges[:, 0], g.edges[:, 1]
    np.minimum.at(parent, v, u)
    while True:
        while not np.array_equal(jumped := parent[parent], parent):
            parent = jumped
        pu, pv = parent[u], parent[v]
        if np.array_equal(pu, pv):
            return parent
        np.minimum.at(parent, pu, pv)
        np.minimum.at(parent, pv, pu)


class DegreeSpectrum:
    """Sorted degree views consumed by every estimator.

    Derived from node degrees given in any order: sorted_degrees keeps
    multiplicity (non-increasing); unique_degrees is strictly decreasing.
    """

    __slots__ = ("sorted_degrees", "unique_degrees")

    def __init__(self, degrees):
        deg = np.asarray(degrees)
        if deg.ndim != 1 or (deg.size and deg.dtype.kind not in "iu"):
            raise ValueError("degrees must be a 1-D array of integers")
        sd = np.sort(deg.astype(np.int64, copy=False))[::-1]
        if sd.size and sd[-1] < 0:
            raise ValueError("degrees must be non-negative")
        ud = _distinct_sorted(sd)
        sd.setflags(write=False)
        ud.setflags(write=False)
        object.__setattr__(self, "sorted_degrees", sd)
        object.__setattr__(self, "unique_degrees", ud)

    def __setattr__(self, name, value):
        raise AttributeError("DegreeSpectrum is immutable")

    @property
    def node_count(self) -> int:
        return int(self.sorted_degrees.size)


def _distinct_sorted(a: np.ndarray) -> np.ndarray:
    """Distinct values of a sorted array, in its order (sort-and-mask, no hashing)."""
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def degree_spectrum(g: Graph) -> DegreeSpectrum:
    return DegreeSpectrum(g.degrees())


def edge_density(g: Graph) -> float:
    """2m / n^2 (graphon-style normalization, not binomial)."""
    if g.node_count == 0:
        raise ValueError("density undefined for the empty node set")
    return 2.0 * g.edge_count / float(g.node_count) ** 2


def top_k_degrees(spectrum: DegreeSpectrum, k: int) -> np.ndarray:
    if _count(k, "k", 1) > spectrum.sorted_degrees.size:
        raise ValueError(f"k={k} out of range 1..{spectrum.sorted_degrees.size}")
    return spectrum.sorted_degrees[:k].copy()


# edge rows rendered per write call; bounds the temporary arrays and text
_WRITE_ROWS = 1 << 16
# edge-list body characters checked and parsed per block, rounded up to a line end
_READ_CHARS = 1 << 16


def write_edge_list(g: Graph, fobj: TextIO) -> None:
    """Text format: header line "n <node_count>", then one "u v" per edge."""
    fobj.write(f"n {g.node_count}\n")
    width = len(str(g.node_count - 1))
    for start in range(0, g.edge_count, _WRITE_ROWS):
        fobj.write(_edge_text(g.edges[start : start + _WRITE_ROWS], width))


def _edge_text(rows: np.ndarray, width: int) -> str:
    """rows as "u v" lines, every value at most width decimal digits.

    Each value is rendered right-aligned into a width-byte field of a
    uint8 matrix followed by its space or newline byte; leading-zero
    bytes are left as NUL and deleted from the text in one pass.
    """
    value = rows.astype(np.uint64).ravel()
    text = np.empty((value.size, width + 1), dtype=np.uint8)
    text[0::2, width] = ord(" ")
    text[1::2, width] = ord("\n")
    for col in range(width - 1, -1, -1):
        digit = value.astype(np.uint8)  # value mod 256
        leading = value == 0  # no digits left: a leading zero
        np.floor_divide(value, 10, out=value)
        digit -= 10 * value.astype(np.uint8)  # value mod 10, exact modulo 256
        digit += ord("0")
        if col < width - 1:
            digit[leading] = 0
        text[:, col] = digit
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _bulk_edges(body: str) -> np.ndarray | None:
    """All edge rows parsed in blocks, or None if any line needs the line scan.

    np.fromstring loses row structure ("1 2 3\n4" gives two pairs) and
    clamps values beyond int64, so it only sees blocks of ASCII digits and
    blanks whose every line holds no digit run or exactly two, of at most
    18 digits each.
    """
    if not body.isascii():
        return None
    values = []
    start = 0
    while start < len(body):
        end = body.find("\n", start + _READ_CHARS) + 1 or len(body)
        block = _block_values(body[start:end].encode("ascii"))
        if block is None:
            return None
        values.append(block)
        start = end
    return np.concatenate(values or [np.empty(0, np.int64)]).reshape(-1, 2)


def _block_values(raw: bytes) -> np.ndarray | None:
    """The integers in raw (whole lines), or None unless every line is blank or "u v"."""
    a = np.frombuffer(raw, dtype=np.uint8)
    digit = (a - ord("0")) < 10  # bytes below '0' wrap past 9
    if not np.all(digit | ((a - ord("\t")) < 5) | (a == ord(" "))):  # \t \n \v \f \r
        return None
    run = digit  # run[i]: bytes i.. are digits, for 2, 4, 8, 16 and 19 bytes
    for shift in (1, 2, 4, 8, 3):
        run = run[:-shift] & run[shift:]
    if run.any():
        return None
    first = digit.copy()
    first[1:] &= ~digit[:-1]
    # run starts and newlines in order, the block's ends counting as
    # newlines: lines of none or two runs are exactly those sequences in
    # which every run start's two neighbours differ
    events = np.flatnonzero(first | (a == ord("\n")))
    is_run = np.zeros(events.size + 2, dtype=bool)
    is_run[1:-1] = first[events]
    if np.any(is_run[1:-1] & (is_run[:-2] == is_run[2:])):
        return None
    if not is_run.any():  # fromstring reads a blank text as [0]
        return np.empty(0, dtype=np.int64)
    return np.fromstring(raw, dtype=np.int64, sep=" ")


def _scan_edges(body: list[str], first_lineno: int) -> list[tuple[int, int]]:
    """Edge rows line by line; errors name the line (body[0] is first_lineno)."""
    edges = []
    for lineno, raw in enumerate(body, start=first_lineno):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v'")
        try:
            edges.append((_int(parts[0]), _int(parts[1])))
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer endpoint") from None
    return edges


def read_edge_list(fobj: TextIO) -> Graph:
    """Parse the write_edge_list format from an open text file.

    Lines up to the first non-blank one, the header, are read one by one;
    the rest is read at once and parsed in bulk.  A body the bulk parse
    cannot take (extra columns, non-integers, values beyond 18 digits)
    goes through the line scan, so format errors still name their line.
    """
    header = None
    for header_lineno, raw in enumerate(iter(fobj.readline, ""), start=1):
        if raw.strip():
            header = raw.split()
            break
    if header is None:
        raise GraphFormatError("empty edge-list input")
    if len(header) != 2 or header[0] != "n":
        raise GraphFormatError(f"bad header {' '.join(header)!r}, expected 'n <count>'")
    try:
        n = _int(header[1])
    except ValueError:
        raise GraphFormatError(f"bad node count {header[1]!r}") from None
    body = fobj.read()
    edges = _bulk_edges(body)
    if edges is None:
        edges = _scan_edges(body.split("\n"), header_lineno + 1)
    try:
        return Graph(n, _Fresh(edges))
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
