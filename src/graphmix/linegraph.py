"""Line graphs, their inverses on disjoint-clique inputs, and star forests.

The inverse line graph is only taken on graphs whose components are all
cliques; clique K_c maps back to the star K_{1,c} and an isolated vertex
maps to a single disconnected edge.  The triangle is genuinely ambiguous
(K_3 is the line graph of both K_3 and K_{1,3}); the star preimage is
chosen so the output is always a star forest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .graph import Graph, _count, _Fresh, _graph_from_state, component_labels

__all__ = [
    "StructureError",
    "line_graph",
    "decompose_disjoint_cliques",
    "star_forest",
    "inverse_line_graph_disjoint",
]


class StructureError(ValueError):
    """Input graph violates a structural precondition."""


def line_graph(g: Graph) -> Graph:
    """L(G): one node per edge of G, adjacent iff the edges share an endpoint.

    Node i of the output is edge i in G's canonical edge order.  Output
    size is sum over vertices of C(deg, 2), so hubs blow up quadratically.
    The pairs go into one table, which Graph freezes in place when the
    rows come out canonical (as a star forest's do).
    """
    m = g.edge_count
    if m == 0:
        raise ValueError("line graph of an edgeless graph is undefined here")
    ends = g.edges.ravel()
    order = np.argsort(ends, kind="stable")
    incident = order // 2  # edge ids grouped by endpoint, ascending in each group
    # each slot pairs with the slots after it in its endpoint's group;
    # pair j of slot s sits in row start[s] + j and takes slot s + 1 + j
    later = np.cumsum(g.degrees())[ends[order]] - np.arange(1, 2 * m + 1)
    start = np.cumsum(later) - later
    rows = np.empty((later.sum(), 2), dtype=np.int64)
    rows[:, 0] = np.repeat(incident, later)
    rows[:, 1] = incident[np.arange(len(rows)) - np.repeat(start - np.arange(2 * m) - 1, later)]
    return Graph(m, _Fresh(rows))


@dataclass(frozen=True)
class _CliqueDecomposition:
    """Clique sizes (non-increasing, sizes >= 2) plus isolated vertices."""

    clique_sizes: tuple[int, ...]
    isolated_count: int


def decompose_disjoint_cliques(h: Graph) -> _CliqueDecomposition:
    """Split h into cliques, or fail naming a non-clique component.

    The error names the smallest node of the non-clique component whose
    smallest node is lowest.
    """
    labels = component_labels(h)
    nodes = np.bincount(labels, minlength=h.node_count)
    edges = np.bincount(labels[h.edges[:, 0]], minlength=h.node_count)
    roots = np.flatnonzero(nodes)
    c, e = nodes[roots], edges[roots]
    bad = np.flatnonzero(e != c * (c - 1) // 2)
    if bad.size:
        i = bad[0]
        raise StructureError(
            f"component containing node {int(roots[i])} has {int(c[i])} nodes and "
            f"{int(e[i])} edges, not a clique"
        )
    sizes = np.sort(c[c >= 2])[::-1]
    return _CliqueDecomposition(
        clique_sizes=tuple(sizes.tolist()), isolated_count=int(np.sum(c == 1))
    )


def star_forest(star_sizes, isolated_edges: int = 0) -> tuple[Graph, np.ndarray]:
    """Build disjoint stars K_{1,c} (in the given order) plus isolated edges.

    Returns the graph and the hub node index of each star.  Layout per
    star is hub first then its leaves; each isolated edge appends two
    fresh nodes.  The sizes fix the graph's node and edge counts and its
    degrees (the star size on each hub, 1 on every other node), so only
    those are computed here; the edge table is built on the first read of
    edges, and every check of Graph runs then.
    """
    try:
        sizes = np.asarray(star_sizes)
    except ValueError:  # ragged nesting
        sizes = None
    if sizes is None or sizes.ndim != 1:
        raise ValueError("star sizes must be a flat (1-D) sequence of integers")
    if sizes.size and (sizes.dtype.kind not in "iu" or sizes.min() < 1):
        raise ValueError("star sizes must be integers >= 1")
    isolated_edges = _count(isolated_edges, "isolated_edges")
    leaf_count = sum(sizes.tolist())  # exact: int64 sums wrap
    node_count = leaf_count + sizes.size + 2 * isolated_edges
    if node_count >= 2**63:
        raise ValueError(f"star forest of {node_count} nodes exceeds 2**63-1")
    sizes = sizes.astype(np.int64)
    hubs = np.cumsum(sizes + 1) - (sizes + 1)
    deg = np.ones(node_count, dtype=np.int64)
    deg[hubs] = sizes
    rows = partial(_star_forest_rows, sizes, hubs.copy(), isolated_edges)  # hubs is the caller's
    return _graph_from_state(node_count, leaf_count + isolated_edges, None, deg, rows), hubs


def _star_forest_rows(sizes: np.ndarray, hubs: np.ndarray, isolated_edges: int) -> np.ndarray:
    """star_forest's edge rows, canonical: stars by hub, leaves ascending,
    then the isolated pairs."""
    leaf_count = int(sizes.sum())
    tail = leaf_count + sizes.size
    edges = np.empty((leaf_count + isolated_edges, 2), dtype=np.int64)
    star, pairs = edges[:leaf_count], edges[leaf_count:]
    star[:, 0] = np.repeat(hubs, sizes)
    # leaf slots 0..leaf_count-1 skip one hub node per star started so far
    star[:, 1] = np.repeat(np.arange(1, sizes.size + 1), sizes)
    star[:, 1] += np.arange(leaf_count)
    pairs.flat = np.arange(tail, tail + 2 * isolated_edges)
    return edges


def inverse_line_graph_disjoint(h: Graph) -> Graph:
    """Preimage of a disjoint-clique graph under the line-graph map.

    Clique of size c -> star K_{1,c}; isolated vertex -> isolated edge.
    The output has node_count(h) edges, one per input vertex.  It is a
    star_forest, so its edge table is built, and checked, on the first
    read of its edges.
    """
    dec = decompose_disjoint_cliques(h)
    return star_forest(dec.clique_sizes, isolated_edges=dec.isolated_count)[0]
