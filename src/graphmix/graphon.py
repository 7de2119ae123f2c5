"""Graphons: symmetric kernels on [0,1]^2 with values in [0,1].

Four kinds cover everything the samplers and experiments need:
constant, analytic (named vectorized evaluator), step (square grid,
cells are the empirical graphon of some graph), and disjoint-clique
(driven by a mass partition).  Evaluation maps x=1.0 into the last
cell/interval so boundary probes behave like interior ones.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from .graph import Graph
from .masspartition import MassPartition, parse_mass_partition

__all__ = [
    "Graphon",
    "CapacityError",
    "register_graphon",
    "parse_graphon",
    "sample_w_random_graph",
    "empirical_graphon",
    "degree_function",
    "brute_force_cut_distance",
]

_ONE_BELOW = np.nextafter(1.0, 0.0)


class CapacityError(RuntimeError):
    """Raised when an exact algorithm is asked for more than it can do."""


def _check_symmetric_unit(fn, name):
    grid = np.linspace(0.0, 1.0, 17)
    vals = fn(grid[:, None], grid[None, :])
    vals = np.asarray(vals, dtype=np.float64)
    if vals.shape != (17, 17):
        raise ValueError(f"evaluator {name!r} must broadcast over arrays")
    if np.any(vals < -1e-12) or np.any(vals > 1.0 + 1e-12):
        raise ValueError(f"evaluator {name!r} leaves [0,1] on the test grid")
    if np.max(np.abs(vals - vals.T)) > 1e-9:
        raise ValueError(f"evaluator {name!r} is not symmetric on the test grid")


class Graphon:
    """Symmetric measurable kernel W: [0,1]^2 -> [0,1]."""

    __slots__ = ("kind", "name", "_fn", "_grid", "_partition")

    def __init__(self, kind, name, fn=None, grid=None, partition=None):
        self.kind = kind
        self.name = name
        self._fn = fn
        self._grid = grid
        self._partition = partition

    @classmethod
    def constant(cls, value: float) -> "Graphon":
        value = float(value)
        if not (0.0 <= value <= 1.0):
            raise ValueError("constant graphon value must be in [0,1]")
        return cls("constant", f"const:{value}", fn=value)

    @classmethod
    def analytic(cls, fn: Callable, name: str) -> "Graphon":
        _check_symmetric_unit(fn, name)
        return cls("analytic", name, fn=fn)

    @classmethod
    def step(cls, grid) -> "Graphon":
        g = np.asarray(grid, dtype=np.float64)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] == 0:
            raise ValueError("step graphon needs a non-empty square grid")
        if np.any(g < 0) or np.any(g > 1):
            raise ValueError("step values must lie in [0,1]")
        if not np.array_equal(g, g.T):
            raise ValueError("step grid must be symmetric")
        g = g.copy()
        g.setflags(write=False)
        return cls("step", f"step[{g.shape[0]}]", grid=g)

    @classmethod
    def disjoint_clique(cls, partition: MassPartition) -> "Graphon":
        return cls("disjoint_clique", f"cliques[{len(partition)}]", partition=partition)

    @property
    def partition(self) -> MassPartition | None:
        return self._partition

    @property
    def grid(self) -> np.ndarray | None:
        return self._grid

    def _cells(self, x):
        n = self._grid.shape[0]
        return np.minimum((np.asarray(x, dtype=np.float64) * n).astype(np.int64), n - 1)

    def _intervals(self, x):
        # first interval closed at 0, interiors half-open; x=1.0 snaps inward
        xx = np.minimum(np.asarray(x, dtype=np.float64), _ONE_BELOW)
        return np.searchsorted(self._partition.boundaries(), xx, side="right")

    def __call__(self, x, y):
        """Pointwise evaluation; broadcasts over array arguments."""
        if self.kind == "constant":
            return np.broadcast_arrays(
                np.full_like(np.asarray(x, dtype=np.float64), self._fn),
                np.asarray(y, dtype=np.float64),
            )[0]
        if self.kind == "analytic":
            return np.asarray(self._fn(x, y), dtype=np.float64)
        if self.kind == "step":
            return self._grid[self._cells(x), self._cells(y)]
        ix, iy = self._intervals(x), self._intervals(y)
        k = len(self._partition)
        return ((ix == iy) & (ix < k)).astype(np.float64)

    def prob_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Connection probabilities for all (x_i, y_j) pairs."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        return self(xs[:, None], ys[None, :])

    def __repr__(self):
        return f"Graphon({self.name})"


_REGISTRY: dict[str, Callable] = {}


def register_graphon(name: str, fn: Callable) -> None:
    """Register a named analytic evaluator; fn must broadcast over arrays."""
    _check_symmetric_unit(fn, name)
    _REGISTRY[name] = fn


register_graphon("exp_sum", lambda x, y: np.exp(-(np.asarray(x, dtype=np.float64) + y)))


def parse_graphon(text: str) -> Graphon:
    """Parse a graphon config string.

    Accepts "const:<v>", any registered analytic name ("exp_sum") and
    every mass-partition literal, which yields the disjoint-clique
    graphon of that partition.
    """
    text = text.strip()
    if text in _REGISTRY:
        return Graphon.analytic(_REGISTRY[text], text)
    if text.startswith("const:"):
        try:
            return Graphon.constant(float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise ValueError(f"bad graphon literal {text!r}: {exc}") from None
    try:
        return Graphon.disjoint_clique(parse_mass_partition(text))
    except ValueError:
        raise ValueError(f"unknown graphon literal {text!r}") from None


_BLOCK = 512


def sample_w_random_graph(w: Graphon, n: int, rng: np.random.Generator) -> Graph:
    """Sample the n-node W-random graph.

    Latent positions are iid uniform; pair (i, j) connects independently
    with probability W(x_i, x_j).  Uniforms are drawn in fixed-size row
    blocks so memory stays O(block * n) for large n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = rng.random(n)
    return _graph_from_latents(w, xs, rng)


def _graph_from_latents(w: Graphon, xs: np.ndarray, rng: np.random.Generator) -> Graph:
    n = xs.size
    cols = np.arange(n)
    chunks = []
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        probs = w.prob_matrix(xs[start:stop], xs)
        u = rng.random((stop - start, n))
        hit = u < probs
        rows = np.arange(start, stop)[:, None]
        hit &= cols[None, :] > rows
        r, c = np.nonzero(hit)
        if r.size:
            chunks.append(np.column_stack([r + start, c]))
    edges = np.concatenate(chunks) if chunks else np.empty((0, 2), dtype=np.int64)
    return Graph(n, edges)


def empirical_graphon(g: Graph) -> Graphon:
    """The step graphon whose n x n cells copy the adjacency matrix."""
    n = g.node_count
    if n == 0:
        raise ValueError("empirical graphon needs at least one node")
    adj = np.zeros((n, n), dtype=np.float64)
    if g.edge_count:
        adj[g.edges[:, 0], g.edges[:, 1]] = 1.0
        adj[g.edges[:, 1], g.edges[:, 0]] = 1.0
    return Graphon.step(adj)


def degree_function(w: Graphon, x: float, quad_points: int = 4096) -> float:
    """D(x) = integral of W(x, y) dy by the midpoint rule."""
    if quad_points < 1:
        raise ValueError("quad_points must be >= 1")
    mids = (np.arange(quad_points) + 0.5) / quad_points
    return float(np.mean(w(np.full(quad_points, float(x)), mids)))


def _cut_norm_step(diff: np.ndarray, subsets: np.ndarray) -> float:
    # sup over row set S, column set T of |sum diff[S x T]| / n^2; for a
    # step kernel the sup is attained on unions of cells, and for fixed S
    # the best T keeps columns whose partial sums share a sign.
    colsums = subsets @ diff
    pos = np.clip(colsums, 0.0, None).sum(axis=1).max()
    neg = np.clip(-colsums, 0.0, None).sum(axis=1).max()
    return max(pos, neg) / float(diff.shape[0]) ** 2


def brute_force_cut_distance(a: Graphon, b: Graphon) -> float:
    """Exact cut metric between two same-sized step graphons.

    Minimizes the cut norm of the difference over all cell relabelings,
    so cost grows like n! * 2^n; refuses n > 10 (and 10 is already slow,
    tests stick to n <= 4).
    """
    if a.kind != "step" or b.kind != "step":
        raise ValueError("cut distance is implemented for step graphons only")
    ga, gb = a.grid, b.grid
    if ga.shape != gb.shape:
        raise ValueError("step graphons must share the same grid size")
    n = ga.shape[0]
    if n > 10:
        raise CapacityError(f"brute-force cut distance capped at n=10, got {n}")
    masks = np.arange(1 << n)
    subsets = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        p = np.asarray(perm)
        diff = ga - gb[np.ix_(p, p)]
        best = min(best, _cut_norm_step(diff, subsets))
    return float(best)
