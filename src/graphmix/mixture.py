"""Joining a dense graphon-sampled graph with a sparse star forest.

The generator draws a dense part from a graphon W, a sparse star forest
as the inverse line graph of a disjoint-clique sample from partition U,
and then adds m_new = round(c * m_dense) brand-new edges, each pairing a
uniform dense node with a uniform sparse node.  Joining edges are
cross edges only: the join never deletes, never collapses, and never
touches dense-dense or sparse-sparse pairs.  Duplicate cross pairs are
rejection-resampled.

Sequences of growing mixtures share their latent streams (uniform
positions and clique assignments), mirroring cumulative snapshots of a
growing network: each member still has the exact single-graph law, and
earlier members are statistically nested in later ones.  Joining edges
are redrawn per member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .graph import Graph, _distinct_sorted, component_labels, edge_density
from .graphon import Graphon, _graph_from_latents, sample_w_random_graph
from .linegraph import star_forest
from .masspartition import MassPartition, clique_size_counts, sample_clique_labels

__all__ = [
    "CapacityError",
    "JoinConfig",
    "NodeOrigin",
    "MixtureGraph",
    "join_graphs",
    "generate_mixture",
    "MixtureSequence",
    "RatioSchedule",
    "density_trajectory",
]


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


class NodeOrigin(IntEnum):
    DENSE = 0
    SPARSE_HUB = 1
    SPARSE_LEAF = 2
    SPARSE_ISOLATED = 3


class CapacityError(RuntimeError):
    """Raised when a join cannot place the distinct cross pairs it asks for."""


# cross-pair sampling gives up after this many draws per joining edge,
# scaled up by how full the pair grid gets
COLLISION_RETRIES = 100


@dataclass(frozen=True)
class JoinConfig:
    """edge_multiplier_c scales m_new = round(c * m_dense)."""

    edge_multiplier_c: float = 1.0

    def __post_init__(self):
        c = self.edge_multiplier_c
        if not (math.isfinite(c) and c >= 0):
            raise ValueError(f"edge_multiplier_c must be finite and >= 0, got {c}")


@dataclass(frozen=True)
class MixtureGraph:
    """A joined graph plus provenance of every node.

    node_origin holds NodeOrigin codes; hubs maps partition index ->
    node id for every clique realized in the sparse sample.
    """

    graph: Graph
    node_origin: np.ndarray
    hubs: dict[int, int]
    n_dense: int
    n_sparse: int
    m_dense: int
    m_sparse: int
    m_new: int

    def __post_init__(self):
        if self.graph.node_count != self.n_dense + self.n_sparse:
            raise ValueError("node conservation violated")
        if self.graph.edge_count != self.m_dense + self.m_sparse + self.m_new:
            raise ValueError("edge accounting violated")
        if self.node_origin.shape != (self.graph.node_count,):
            raise ValueError("node_origin must tag every node")
        origin = np.asarray(self.node_origin, dtype=np.int8)
        origin.setflags(write=False)
        object.__setattr__(self, "node_origin", origin)


def _sample_cross_pairs(
    n_d: int,
    n_s: int,
    m_new: int,
    rng: np.random.Generator,
    taken: np.ndarray = np.empty((0, 2), dtype=np.int64),
) -> np.ndarray:
    """m_new distinct (dense, sparse) pairs, uniform via rejection.

    taken holds the (d, s) pairs already placed; only the m_new new
    pairs are returned, none of them in taken.  The draw budget grows
    as the free part of the n_d x n_s grid shrinks.
    """
    if m_new == 0:
        return np.empty((0, 2), dtype=np.int64)
    taken = taken[:, 0] * n_s + taken[:, 1]  # pair codes d * n_s + s
    free = n_d * n_s - taken.size
    if m_new > free:
        raise CapacityError(
            f"cannot place {m_new} distinct cross edges between {n_d} x {n_s} "
            f"nodes ({taken.size} pairs already taken)"
        )
    budget = COLLISION_RETRIES * m_new * (n_d * n_s) // (free - m_new + 1)
    goal = taken.size + m_new
    codes = taken
    attempts = 0
    while codes.size < goal:
        if attempts >= budget:
            raise CapacityError(
                f"cross-edge sampling exhausted {budget} draws with "
                f"{codes.size - taken.size}/{m_new} placed"
            )
        batch = min(goal - codes.size, budget - attempts)
        d = rng.integers(0, n_d, batch)
        s = rng.integers(0, n_s, batch)
        attempts += batch
        codes = _distinct_sorted(np.sort(np.concatenate([codes, d * n_s + s])))
    codes = np.setdiff1d(codes, taken, assume_unique=True)
    return np.column_stack([codes // n_s, codes % n_s])


def _derive_sparse_meta(g_s: Graph) -> tuple[np.ndarray, dict[int, int]]:
    """Best-effort provenance for a bare sparse graph.

    Components of two nodes count as isolated edges; larger components
    are treated as stars whose hub is the maximum-degree node (ties by
    smallest node).  Ranks (largest component first, ties by smallest
    node) give partition ids.

    A bare graph cannot tell a K_{1,1} star from an isolated edge, so
    both are tagged SPARSE_ISOLATED, whereas generate_mixture, which
    knows the draw, tags a K_{1,1} as hub plus leaf.  Tagging 2-node
    components as stars would instead mislabel every isolated edge.
    """
    labels = component_labels(g_s)
    size = np.bincount(labels, minlength=g_s.node_count)[labels]
    origin = np.full(g_s.node_count, NodeOrigin.SPARSE_LEAF, dtype=np.int8)
    origin[size == 2] = NodeOrigin.SPARSE_ISOLATED
    order = np.lexsort((np.arange(g_s.node_count), -g_s.degrees(), labels))
    _, first = np.unique(labels[order], return_index=True)
    hub_nodes = order[first]  # one per component, ascending label
    hub_nodes = hub_nodes[size[hub_nodes] >= 3]
    hub_nodes = hub_nodes[np.lexsort((labels[hub_nodes], -size[hub_nodes]))]
    origin[hub_nodes] = NodeOrigin.SPARSE_HUB
    return origin, {rank: int(hub) for rank, hub in enumerate(hub_nodes)}


def join_graphs(
    g_d: Graph,
    g_s: Graph,
    cfg: JoinConfig | None = None,
    rng: np.random.Generator | None = None,
    sparse_meta: tuple[np.ndarray, dict[int, int]] | None = None,
) -> MixtureGraph:
    """Union both graphs and add m_new = round(c * m_dense) cross edges.

    Dense nodes keep labels 0..n_d-1; sparse labels shift by n_d.  When
    the caller knows the sparse provenance (generate_mixture does) it is
    passed through; otherwise tags are derived from the star structure,
    and a K_{1,1} star is then tagged as an isolated edge (see
    _derive_sparse_meta).
    """
    if g_d.node_count < 1 or g_s.node_count < 1:
        raise ValueError("both parts need at least one node")
    cfg = cfg or JoinConfig()
    n_d, n_s = g_d.node_count, g_s.node_count
    want = cfg.edge_multiplier_c * g_d.edge_count  # inf when c * m_dense overflows
    if want + 0.5 >= n_d * n_s + 1:  # round(want) exceeds the pair grid
        raise CapacityError(
            f"cannot place {want:.6g} distinct cross edges between {n_d} x {n_s} nodes"
        )
    m_new = _round_half_up(want)
    if m_new > 0 and rng is None:
        raise ValueError("joining edges require an rng")
    cross = _sample_cross_pairs(n_d, n_s, m_new, rng)
    graph = Graph(n_d + n_s, np.concatenate([g_d.edges, g_s.edges + n_d, cross + (0, n_d)]))
    if sparse_meta is None:
        sparse_origin, sparse_hubs = _derive_sparse_meta(g_s)
    else:
        sparse_origin, sparse_hubs = sparse_meta
    origin = np.concatenate(
        [np.zeros(n_d, dtype=np.int8), np.asarray(sparse_origin, dtype=np.int8)]
    )
    hubs = {j: node + n_d for j, node in sparse_hubs.items()}
    return MixtureGraph(
        graph=graph,
        node_origin=origin,
        hubs=hubs,
        n_dense=n_d,
        n_sparse=n_s,
        m_dense=g_d.edge_count,
        m_sparse=g_s.edge_count,
        m_new=m_new,
    )


def _sparse_part_from_labels(
    u: MassPartition, labels: np.ndarray
) -> tuple[Graph, np.ndarray, dict[int, int]]:
    """Star forest for one clique-label sample, with exact provenance."""
    counts, isolated = clique_size_counts(u, labels)
    realized = np.flatnonzero(counts)
    g_s, hub_nodes = star_forest(counts[realized], isolated_edges=isolated)
    origin = np.full(g_s.node_count, NodeOrigin.SPARSE_LEAF, dtype=np.int8)
    hubs: dict[int, int] = {}
    for hub, j in zip(hub_nodes, realized):
        origin[hub] = NodeOrigin.SPARSE_HUB
        hubs[int(j)] = int(hub)
    tail = int(counts[realized].sum()) + realized.size
    origin[tail:] = NodeOrigin.SPARSE_ISOLATED
    return g_s, origin, hubs


def generate_mixture(
    u: MassPartition,
    w: Graphon,
    n_dense: int,
    m_sparse: int,
    cfg: JoinConfig | None = None,
    rng: np.random.Generator | None = None,
) -> MixtureGraph:
    """One mixture graph: dense W-sample joined to a U-driven star forest.

    m_sparse counts sparse edges (one per clique-sample vertex); the
    sparse node count = m_sparse + #cliques + #isolated emerges from
    the draw.
    """
    if n_dense < 1 or m_sparse < 1:
        raise ValueError("n_dense and m_sparse must be >= 1")
    rng = rng if rng is not None else np.random.default_rng()
    g_d = sample_w_random_graph(w, n_dense, rng)
    labels = sample_clique_labels(u, m_sparse, rng)
    g_s, origin, hubs = _sparse_part_from_labels(u, labels)
    return join_graphs(g_d, g_s, cfg, rng, sparse_meta=(origin, hubs))


def _sequence_latents(
    u: MassPartition, w: Graphon, n_max: int, m_max: int, joins: int, seed
) -> tuple[Graph, np.ndarray, list[np.random.SeedSequence]]:
    """Dense graph, clique labels and join streams of a growing sequence.

    seed (int, None or SeedSequence) spawns 3 + joins children in a fixed
    order: positions, dense edges, labels, then one stream per join.  A
    child does not depend on how many are spawned, so callers that differ
    only in joins share the dense part and labels.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = ss.spawn(3 + joins)
    xs = np.random.default_rng(streams[0]).random(n_max)
    dense = _graph_from_latents(w, xs, np.random.default_rng(streams[1]))
    labels = sample_clique_labels(u, m_max, np.random.default_rng(streams[2]))
    return dense, labels, streams[3:]


class MixtureSequence:
    """Coupled growing mixtures over a list of (n_dense, m_sparse) sizes.

    Latent positions and clique assignments are drawn once at the
    largest size; member i uses the leading n_d_i positions and m_s_i
    assignments, so each member has the exact single-graph law while
    consecutive members grow like cumulative snapshots.  Joining edges
    are redrawn per member from a per-member stream.
    """

    def __init__(
        self,
        u: MassPartition,
        w: Graphon,
        sizes,
        cfg: JoinConfig | None = None,
        seed=None,
    ):
        self.sizes = [(int(a), int(b)) for a, b in sizes]
        if not self.sizes:
            raise ValueError("need at least one size")
        for n_d, m_s in self.sizes:
            if n_d < 1 or m_s < 1:
                raise ValueError("sizes must be positive")
        self.u = u
        self.w = w
        self.cfg = cfg or JoinConfig()
        n_max = max(n for n, _ in self.sizes)
        m_max = max(m for _, m in self.sizes)
        self._dense_full, self._labels, self._join_streams = _sequence_latents(
            u, w, n_max, m_max, len(self.sizes), seed
        )

    def __len__(self) -> int:
        return len(self.sizes)

    def member(self, i: int) -> MixtureGraph:
        n_d, m_s = self.sizes[i]
        e = self._dense_full.edges
        g_d = Graph(n_d, e[(e[:, 0] < n_d) & (e[:, 1] < n_d)])
        g_s, origin, hubs = _sparse_part_from_labels(self.u, self._labels[:m_s])
        rng = np.random.default_rng(self._join_streams[i])
        return join_graphs(g_d, g_s, self.cfg, rng, sparse_meta=(origin, hubs))

    def __iter__(self):
        return (self.member(i) for i in range(len(self.sizes)))


# ratio(i) of each schedule kind, given its scale a
_RATIOS = {
    "constant": lambda a, i: a,
    "sqrt_growth": lambda a, i: a * math.sqrt(i),
    "linear": lambda a, i: a * i,
    "quadratic": lambda a, i: a * i * i,
    "inverse_sqrt": lambda a, i: a / math.sqrt(i),
}


@dataclass(frozen=True)
class RatioSchedule:
    """How the sparse/dense node ratio n_s/n_d evolves along a sequence.

    kind constant keeps the ratio at a; sqrt_growth, linear and
    quadratic scale it by sqrt(i), i and i^2 (unbounded ratios give the
    locally sparse regime); inverse_sqrt shrinks it.  Dense size grows
    linearly: n_d(i) = base_n_d * i.
    """

    kind: str = "constant"
    a: float = 1.0
    base_n_d: int = 100

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _RATIOS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"schedule a must be finite and > 0, got {self.a}")
        if not isinstance(self.base_n_d, (int, np.integer)) or self.base_n_d < 1:
            raise ValueError(f"schedule base_n_d must be an integer >= 1, got {self.base_n_d}")

    def ratio(self, i: int) -> float:
        if i < 1:
            raise ValueError("sequence index starts at 1")
        return _RATIOS[self.kind](self.a, i)

    def n_dense(self, i: int) -> int:
        return self.base_n_d * i

    def sizes_for(self, u: MassPartition, steps: int) -> list[tuple[int, int]]:
        """Target (n_dense, m_sparse) pairs; m_sparse is solved so the
        realized sparse node count lands near ratio(i) * n_dense(i)."""
        out = []
        for i in range(1, steps + 1):
            n_d = self.n_dense(i)
            n_s_target = max(1.0, self.ratio(i) * n_d)
            m_s = max(1, _round_half_up((n_s_target - len(u)) / (1.0 + u.leftover)))
            out.append((n_d, m_s))
        return out


def density_trajectory(
    u: MassPartition,
    w: Graphon,
    schedule: RatioSchedule,
    steps: int,
    cfg: JoinConfig | None = None,
    seed=None,
) -> list[tuple[int, int, float]]:
    """Edge densities 2m/n^2 along a growing mixture sequence.

    Returns (index, node_count, density) rows; needs steps >= 2 to say
    anything about a trend.
    """
    if steps < 2:
        raise ValueError("need at least two steps for a trajectory")
    seq = MixtureSequence(u, w, schedule.sizes_for(u, steps), cfg=cfg, seed=seed)
    out = []
    for i in range(steps):
        g = seq.member(i).graph
        out.append((i + 1, g.node_count, edge_density(g)))
    return out
