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
from functools import cached_property, partial

import numpy as np

from .graph import Graph, _count, _distinct_sorted, _fields_equal, _Fresh, _graph_from_state
from .graph import _real, component_labels, edge_density
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


def _cross_edge_count(c: float, m_dense: int, n_d: int, n_s: int) -> int:
    """round(c * m_dense) joining edges, or CapacityError when that many
    distinct pairs do not fit the n_d x n_s grid."""
    want = c * m_dense  # inf when c * m_dense overflows
    if want + 0.5 >= n_d * n_s + 1:  # round(want) exceeds the pair grid
        raise CapacityError(
            f"cannot place {want:.6g} distinct cross edges between {n_d} x {n_s} nodes"
        )
    return _round_half_up(want)


@dataclass(frozen=True)
class JoinConfig:
    """edge_multiplier_c scales m_new = round(c * m_dense)."""

    edge_multiplier_c: float = 1.0

    def __post_init__(self):
        _real(self.edge_multiplier_c, "edge_multiplier_c", 0)


@dataclass(frozen=True, eq=False)
class MixtureGraph:
    """A joined graph kept as its three blocks, plus provenance of every node.

    dense and sparse are the two parts; cross holds the joining edges as
    sorted (dense id, sparse id) rows.  Joined node ids are dense ids,
    then sparse ids shifted by n_dense.  graph is the joined Graph,
    deferred like a star forest: its counts come from the blocks, its
    degrees are summed from them on their first read, and its rows are
    built, and checked, on the first read of its edges.

    node_origin holds NodeOrigin codes; hubs maps partition index ->
    node id for every clique realized in the sparse sample.
    """

    dense: Graph
    sparse: Graph
    cross: np.ndarray
    node_origin: np.ndarray
    hubs: dict[int, int]

    __eq__ = _fields_equal
    __hash__ = None

    def __post_init__(self):
        if self.node_origin.shape != (self.n_dense + self.n_sparse,):
            raise ValueError("node_origin must tag every node")
        origin = np.asarray(self.node_origin, dtype=np.int8)
        origin.setflags(write=False)
        object.__setattr__(self, "node_origin", origin)
        self.cross.setflags(write=False)

    @property
    def n_dense(self) -> int:
        return self.dense.node_count

    @property
    def n_sparse(self) -> int:
        return self.sparse.node_count

    @property
    def m_dense(self) -> int:
        return self.dense.edge_count

    @property
    def m_sparse(self) -> int:
        return self.sparse.edge_count

    @property
    def m_new(self) -> int:
        return self.cross.shape[0]

    @cached_property
    def graph(self) -> Graph:
        """The joined graph; nothing is built until its degrees or edges are read."""
        n, m = self.n_dense + self.n_sparse, self.m_dense + self.m_sparse + self.m_new
        blocks = (self.dense, self.sparse, self.cross)
        return _graph_from_state(
            n, m, None, partial(_joined_degrees, *blocks), partial(_joined_edges, *blocks)
        )


def _joined_degrees(g_d: Graph, g_s: Graph, cross: np.ndarray) -> np.ndarray:
    """Degree of every joined node, summed from the blocks."""
    n_d = g_d.node_count
    deg = np.empty(n_d + g_s.node_count, dtype=np.int64)
    for part, side, out in ((g_d, 0, deg[:n_d]), (g_s, 1, deg[n_d:])):
        np.add(part.degrees(), np.bincount(cross[:, side], minlength=out.size), out=out)
    return deg


def _sample_cross_pairs(
    n_d: int,
    n_s: int,
    m_new: int,
    rng: np.random.Generator,
    taken: np.ndarray = np.empty((0, 2), dtype=np.int64),
) -> np.ndarray:
    """m_new distinct (dense, sparse) pairs, uniform via rejection.

    taken holds the (d, s) pairs already placed, in any order; only the
    m_new new pairs are returned, sorted and none of them in taken.
    Each retry batch is merged into the sorted pair codes, not re-sorted
    with them.  The draw budget grows as the free part of the n_d x n_s
    grid shrinks.
    """
    if m_new == 0:
        return np.empty((0, 2), dtype=np.int64)
    if n_d * n_s >= 2**63:
        raise CapacityError(f"{n_d} x {n_s} cross pairs do not fit int64 pair codes")
    taken = np.sort(taken[:, 0] * n_s + taken[:, 1])  # pair codes d * n_s + s
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
        codes = _merge_codes(codes, _distinct_sorted(np.sort(d * n_s + s)))
    if taken.size:
        codes = np.setdiff1d(codes, taken, assume_unique=True)
    pairs = np.empty((codes.size, 2), dtype=np.int64)
    np.divmod(codes, n_s, out=(pairs[:, 0], pairs[:, 1]))
    return pairs


def _merge_codes(codes: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Sorted distinct union of two sorted distinct code arrays.

    Only the codes of new that codes lacks are inserted, so codes is
    never sorted again.
    """
    if not codes.size:
        return new
    at = np.searchsorted(codes, new)
    fresh = codes[np.minimum(at, codes.size - 1)] != new
    return np.insert(codes, at[fresh], new[fresh])


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


def _joined_edges(g_d: Graph, g_s: Graph, cross: np.ndarray) -> np.ndarray:
    """Canonical rows of the union, from three blocks that are each sorted.

    Dense and cross rows both start at a dense node, so they interleave:
    their keys lo * n + hi merge in one stable sort (two sorted runs).
    Shifted sparse rows start at n_d or later and follow both.  The
    parts' edges are read here, so a star forest builds its rows only now.
    """
    dense, sparse = g_d.edges, g_s.edges
    n_d = g_d.node_count
    n = n_d + g_s.node_count
    if n * n >= 2**63:  # keys would overflow; Graph sorts the blocks instead
        return np.concatenate([dense, cross + (0, n_d), sparse + n_d])
    key = np.sort(
        np.concatenate([dense[:, 0] * n + dense[:, 1], cross[:, 0] * n + (cross[:, 1] + n_d)]),
        kind="stable",
    )
    rows = np.empty((key.size + sparse.shape[0], 2), dtype=np.int64)
    rows[: key.size, 0], rows[: key.size, 1] = np.divmod(key, n)
    rows[key.size :] = sparse + n_d
    return rows


def join_graphs(
    g_d: Graph,
    g_s: Graph,
    cfg: JoinConfig | None = None,
    rng: np.random.Generator | None = None,
    sparse_meta: tuple[np.ndarray, dict[int, int]] | None = None,
) -> MixtureGraph:
    """Union both graphs and add m_new = round(c * m_dense) cross edges.

    Dense nodes keep labels 0..n_d-1; sparse labels shift by n_d.  The
    cross pairs are drawn here, so a join that does not fit raises
    CapacityError here; the result keeps the two graphs and the cross
    pairs, and its graph builds the joined edge table only when its
    edges are first read, never for its degrees.  When the caller knows
    the sparse provenance (generate_mixture does) it is passed through;
    otherwise tags are derived from the star structure, and a K_{1,1}
    star is then tagged as an isolated edge (see _derive_sparse_meta).
    """
    if g_d.node_count < 1 or g_s.node_count < 1:
        raise ValueError("both parts need at least one node")
    cfg = cfg or JoinConfig()
    n_d, n_s = g_d.node_count, g_s.node_count
    m_new = _cross_edge_count(cfg.edge_multiplier_c, g_d.edge_count, n_d, n_s)
    if m_new > 0 and rng is None:
        raise ValueError("joining edges require an rng")
    cross = _sample_cross_pairs(n_d, n_s, m_new, rng)
    if sparse_meta is None:
        sparse_origin, sparse_hubs = _derive_sparse_meta(g_s)
    else:
        sparse_origin, sparse_hubs = sparse_meta
    origin = np.concatenate(
        [np.zeros(n_d, dtype=np.int8), np.asarray(sparse_origin, dtype=np.int8)]
    )
    hubs = {j: node + n_d for j, node in sparse_hubs.items()}
    return MixtureGraph(dense=g_d, sparse=g_s, cross=cross, node_origin=origin, hubs=hubs)


def _sparse_part_from_labels(
    u: MassPartition, labels: np.ndarray
) -> tuple[Graph, np.ndarray, dict[int, int]]:
    """Star forest for one clique-label sample, with exact provenance."""
    counts, isolated = clique_size_counts(u, labels)
    realized = np.flatnonzero(counts)
    g_s, hub_nodes = star_forest(counts[realized], isolated_edges=isolated)
    origin = np.full(g_s.node_count, NodeOrigin.SPARSE_LEAF, dtype=np.int8)
    origin[hub_nodes] = NodeOrigin.SPARSE_HUB
    origin[g_s.node_count - 2 * isolated :] = NodeOrigin.SPARSE_ISOLATED
    return g_s, origin, dict(zip(realized.tolist(), hub_nodes.tolist()))


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
    n_dense, m_sparse = _count(n_dense, "n_dense", 1), _count(m_sparse, "m_sparse", 1)
    rng = rng if rng is not None else np.random.default_rng()
    g_d = sample_w_random_graph(w, n_dense, rng)
    labels = sample_clique_labels(u, m_sparse, rng)
    g_s, origin, hubs = _sparse_part_from_labels(u, labels)
    return join_graphs(g_d, g_s, cfg, rng, sparse_meta=(origin, hubs))


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
        self.sizes = [(_count(a, "n_dense", 1), _count(b, "m_sparse", 1)) for a, b in sizes]
        if not self.sizes:
            raise ValueError("need at least one size")
        self.u = u
        self.cfg = cfg or JoinConfig()
        n_max = max(n for n, _ in self.sizes)
        m_max = max(m for _, m in self.sizes)
        # seed (int, None or SeedSequence) spawns 3 + len(sizes) children in
        # a fixed order: positions, dense edges, labels, then one join stream
        # per member.  A child does not depend on how many are spawned.
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        positions, dense, labels, *self._join_streams = ss.spawn(3 + len(self.sizes))
        xs = np.random.default_rng(positions).random(n_max)
        self._dense_full = _graph_from_latents(w, xs, np.random.default_rng(dense))
        self._labels = sample_clique_labels(u, m_max, np.random.default_rng(labels))

    def __len__(self) -> int:
        return len(self.sizes)

    def member(self, i: int) -> MixtureGraph:
        n_d, m_s = self.sizes[i]
        e = self._dense_full.edges
        e = e[: np.searchsorted(e[:, 0], n_d)]  # rows are sorted (lo, hi)
        keep = e[:, 1] < n_d
        # a member that keeps every row shares the sample's frozen rows
        g_d = Graph(n_d, _Fresh(e if keep.all() else np.compress(keep, e, axis=0)))
        g_s, origin, hubs = _sparse_part_from_labels(self.u, self._labels[:m_s])
        rng = np.random.default_rng(self._join_streams[i])
        return join_graphs(g_d, g_s, self.cfg, rng, sparse_meta=(origin, hubs))

    def __iter__(self):
        return (self.member(i) for i in range(len(self.sizes)))

    def events(self) -> list[tuple[str, str, int]]:
        """Timestamped events of the growing mixture, with stable node ids.

        Sizes must be non-decreasing; each edge is stamped with the first
        step (1-based) at which it exists.  Dense nodes are d<i>, hubs h<j>,
        sparse leaves s<i> (one per clique-sample vertex).  Dense edges and
        clique labels are the members' own.  Joins come from the sampler of
        join_graphs, drawing on member 0's join stream, but accumulate: step
        t adds cross pairs d<a> s<i> (never a hub) until round(c * m_dense(t))
        exist, so snapshots of the event list reproduce the growing graphs.
        Raises CapacityError when a step's joins do not fit.
        """
        nd_steps = np.asarray([a for a, _ in self.sizes])
        ms_steps = np.asarray([b for _, b in self.sizes])
        if np.any(np.diff(nd_steps) < 0) or np.any(np.diff(ms_steps) < 0):
            raise ValueError("event sizes must be non-decreasing")
        join_rng = np.random.default_rng(self._join_streams[0])
        edges = self._dense_full.edges

        # dense edge exists once both endpoints are inside the dense prefix;
        # rows are (lo, hi), so that is once hi is
        edge_step = np.searchsorted(nd_steps, edges[:, 1], side="right")
        events = [(f"d{a}", f"d{b}", int(t) + 1) for (a, b), t in zip(edges, edge_step)]
        # sparse vertex i contributes one star (or isolated) edge
        k = len(self.u)
        vert_step = np.searchsorted(ms_steps, np.arange(ms_steps[-1]), side="right")
        events += [
            (f"h{j}", f"s{i}", int(t) + 1) if j < k else (f"s{i}", f"s{i}b", int(t) + 1)
            for i, (j, t) in enumerate(zip(self._labels, vert_step))
        ]
        m_dense_at = np.cumsum(np.bincount(edge_step, minlength=len(self.sizes))).tolist()
        placed = np.empty((0, 2), dtype=np.int64)
        for t_idx, (n_d, m_s) in enumerate(self.sizes):
            target = _cross_edge_count(self.cfg.edge_multiplier_c, m_dense_at[t_idx], n_d, m_s)
            new = _sample_cross_pairs(n_d, m_s, target - len(placed), join_rng, placed)
            placed = np.concatenate([placed, new])
            events.extend((f"d{a}", f"s{i}", t_idx + 1) for a, i in new.tolist())
        events.sort(key=lambda e: e[2])
        return events


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
        _real(self.a, "schedule a", 0, low_open=True)
        _count(self.base_n_d, "schedule base_n_d", 1)

    def ratio(self, i: int) -> float:
        return _RATIOS[self.kind](self.a, _count(i, "i", 1))

    def n_dense(self, i: int) -> int:
        return self.base_n_d * _count(i, "i", 1)

    def sizes_for(self, u: MassPartition, steps: int) -> list[tuple[int, int]]:
        """Target (n_dense, m_sparse) pairs; m_sparse is solved so the
        realized sparse node count lands near ratio(i) * n_dense(i)."""
        out = []
        for i in range(1, _count(steps, "steps", 1) + 1):
            n_d = self.n_dense(i)
            where = f"schedule a={self.a!r}, step {i}"
            out.append((n_d, _sparse_edge_count(u, self.ratio(i) * n_d, where)))
        return out


def _sparse_edge_count(u: MassPartition, n_sparse, where: str) -> int:
    """m_sparse (at least 1) whose star forest has about n_sparse nodes:
    m * (1 + leftover) + len(u) for m labels.  where names what set
    n_sparse, for the error when it is not finite."""
    if not math.isfinite(n_sparse):
        raise ValueError(f"sparse node target {n_sparse} is not finite ({where})")
    return max(1, _round_half_up((n_sparse - len(u)) / (1.0 + u.leftover)))


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
    sizes = schedule.sizes_for(u, _count(steps, "steps", 2))
    seq = MixtureSequence(u, w, sizes, cfg=cfg, seed=seed)
    return [(i, mix.graph.node_count, edge_density(mix.graph)) for i, mix in enumerate(seq, 1)]
