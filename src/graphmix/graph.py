"""Undirected labeled graphs and degree statistics.

Graphs are immutable once built.  The edge table is a read-only (m, 2)
int64 array with every row stored as (min, max) and rows sorted
lexicographically, so equality, hashing of files, and iteration order are
reproducible across runs.  Node labels are 0..node_count-1; isolated
nodes are allowed and matter (they enter node counts and densities).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

__all__ = [
    "Graph",
    "GraphFormatError",
    "DegreeSpectrum",
    "degree_spectrum",
    "edge_density",
    "square_degree_ratio",
    "max_degree_ratio",
    "top_k_degrees",
    "component_labels",
    "write_edge_list",
    "read_edge_list",
]


class GraphFormatError(ValueError):
    """Raised when an edge-list file cannot be parsed."""


def _canonical_edges(node_count: int, edges) -> np.ndarray:
    raw = np.asarray(edges)
    if raw.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    try:
        with np.errstate(invalid="ignore"):
            arr = raw.astype(np.int64, copy=False)
    except OverflowError:  # Python ints beyond int64
        raise ValueError("edge endpoint out of range 0..node_count-1") from None
    if raw.dtype.kind not in "iub" and not np.array_equal(arr, raw):
        raise ValueError("edge endpoints must be integer values")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be an iterable of (u, v) pairs")
    if arr.min() < 0 or arr.max() >= node_count:
        raise ValueError("edge endpoint out of range 0..node_count-1")
    lo = arr.min(axis=1)
    hi = arr.max(axis=1)
    if np.any(lo == hi):
        raise ValueError("self loops are not allowed")
    arr = np.column_stack([lo, hi])
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    arr = arr[order]
    dup = (arr[1:] == arr[:-1]).all(axis=1)
    if dup.any():
        u, v = arr[1:][dup][0]
        raise ValueError(f"duplicate edge ({u}, {v})")
    return arr


class Graph:
    """Simple undirected graph on nodes 0..node_count-1."""

    __slots__ = ("node_count", "edges", "_degrees")

    def __init__(self, node_count: int, edges=()):
        node_count = int(node_count)
        if not 0 <= node_count < 2**63:
            raise ValueError("node_count out of range 0..2**63-1")
        object.__setattr__(self, "node_count", node_count)
        arr = _canonical_edges(node_count, edges)
        arr.setflags(write=False)
        object.__setattr__(self, "edges", arr)
        object.__setattr__(self, "_degrees", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    def degrees(self) -> np.ndarray:
        """Degree of every node, indexed by node label."""
        if self._degrees is None:
            deg = np.bincount(self.edges.ravel(), minlength=self.node_count)
            deg.setflags(write=False)
            object.__setattr__(self, "_degrees", deg)
        return self._degrees

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.node_count == other.node_count and np.array_equal(
            self.edges, other.edges
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Graph(n={self.node_count}, m={self.edge_count})"


def component_labels(g: Graph) -> np.ndarray:
    """Smallest node id of each node's connected component.

    Min-label hooking with full pointer jumping (Shiloach-Vishkin 1982):
    each round hooks every component root onto the smallest root it
    shares an edge with, then jumps every node straight to its root.
    Roots only ever move to smaller ids, so the final root of a component
    is its smallest node.  Rounds stop once both ends of every edge carry
    the same label.
    """
    parent = np.arange(g.node_count, dtype=np.int64)
    u, v = g.edges[:, 0], g.edges[:, 1]
    while True:
        pu, pv = parent[u], parent[v]
        if np.array_equal(pu, pv):
            return parent
        np.minimum.at(parent, pu, pv)
        np.minimum.at(parent, pv, pu)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


@dataclass(frozen=True)
class DegreeSpectrum:
    """Sorted degree views consumed by every estimator.

    sorted_degrees keeps multiplicity (non-increasing); unique_degrees is
    strictly decreasing.
    """

    sorted_degrees: np.ndarray
    unique_degrees: np.ndarray

    def __post_init__(self):
        sd = np.asarray(self.sorted_degrees, dtype=np.int64)
        ud = np.asarray(self.unique_degrees, dtype=np.int64)
        if sd.size and np.any(np.diff(sd) > 0):
            raise ValueError("sorted_degrees must be non-increasing")
        if ud.size and np.any(np.diff(ud) >= 0):
            raise ValueError("unique_degrees must be strictly decreasing")
        sd.setflags(write=False)
        ud.setflags(write=False)
        object.__setattr__(self, "sorted_degrees", sd)
        object.__setattr__(self, "unique_degrees", ud)

    @property
    def node_count(self) -> int:
        return int(self.sorted_degrees.size)


def degree_spectrum(g: Graph) -> DegreeSpectrum:
    deg = g.degrees()
    sd = np.sort(deg)[::-1]
    ud = np.unique(deg)[::-1]
    return DegreeSpectrum(sorted_degrees=sd, unique_degrees=ud)


def edge_density(g: Graph) -> float:
    """2m / n^2 (graphon-style normalization, not binomial)."""
    if g.node_count == 0:
        raise ValueError("density undefined for the empty node set")
    return 2.0 * g.edge_count / float(g.node_count) ** 2


def square_degree_ratio(g: Graph) -> float:
    """sum(deg^2) / (sum deg)^2; detects star-like degree concentration."""
    deg = g.degrees()
    total = deg.sum()
    if total == 0:
        raise ValueError("square_degree_ratio undefined without edges")
    return float((deg.astype(np.float64) ** 2).sum()) / float(total) ** 2


def max_degree_ratio(g: Graph) -> float:
    """max degree / edge count."""
    if g.edge_count == 0:
        raise ValueError("max_degree_ratio undefined without edges")
    return float(g.degrees().max()) / float(g.edge_count)


def top_k_degrees(spectrum: DegreeSpectrum, k: int) -> np.ndarray:
    if k < 1 or k > spectrum.sorted_degrees.size:
        raise ValueError(f"k={k} out of range 1..{spectrum.sorted_degrees.size}")
    return spectrum.sorted_degrees[:k].copy()


def write_edge_list(g: Graph, fobj: TextIO) -> None:
    """Text format: header line "n <node_count>", then one "u v" per edge."""
    fobj.write(f"n {g.node_count}\n")
    for u, v in g.edges:
        fobj.write(f"{u} {v}\n")


def read_edge_list(lines: Iterable[str]) -> Graph:
    it = iter(lines)
    header = None
    for raw in it:
        if raw.strip():
            header = raw.split()
            break
    if header is None:
        raise GraphFormatError("empty edge-list input")
    if len(header) != 2 or header[0] != "n":
        raise GraphFormatError(f"bad header {' '.join(header)!r}, expected 'n <count>'")
    try:
        n = int(header[1])
    except ValueError:
        raise GraphFormatError(f"bad node count {header[1]!r}") from None
    edges = []
    for lineno, raw in enumerate(it, start=2):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v'")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer endpoint") from None
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
