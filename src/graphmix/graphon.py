"""Graphons: symmetric kernels on [0,1]^2 with values in [0,1].

Three kinds cover everything the samplers and experiments need:
constant, analytic (named vectorized evaluator), and disjoint-clique
(driven by a mass partition).  Evaluation maps x=1.0 into the last
interval so boundary probes behave like interior ones.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .graph import Graph
from .masspartition import MassPartition, parse_mass_partition

__all__ = [
    "Graphon",
    "parse_graphon",
    "sample_w_random_graph",
]

_ONE_BELOW = np.nextafter(1.0, 0.0)


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

    __slots__ = ("kind", "name", "_fn", "_partition")

    def __init__(self, kind, name, fn=None, partition=None):
        self.kind = kind
        self.name = name
        self._fn = fn
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
    def disjoint_clique(cls, partition: MassPartition) -> "Graphon":
        return cls("disjoint_clique", f"cliques[{len(partition)}]", partition=partition)

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


# named analytic evaluators; each must broadcast over arrays
_ANALYTIC: dict[str, Callable] = {
    "exp_sum": lambda x, y: np.exp(-(np.asarray(x, dtype=np.float64) + y)),
}


def parse_graphon(text: str) -> Graphon:
    """Parse a graphon config string.

    Accepts "const:<v>", a named analytic kernel ("exp_sum") and
    every mass-partition literal, which yields the disjoint-clique
    graphon of that partition.
    """
    text = text.strip()
    if text in _ANALYTIC:
        return Graphon.analytic(_ANALYTIC[text], text)
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
