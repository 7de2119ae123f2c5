"""Graphons: symmetric kernels on [0,1]^2 with values in [0,1].

A graphon is a name plus one vectorized evaluator; the constructor
checks every evaluator on the same grid.  Built-in kernels: constant
("const:p"), exp_sum (exp(-(x+y))) and the disjoint-clique kernel of a
mass partition, which maps x=1.0 into the last interval so boundary
probes behave like interior ones.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .graph import Graph, _Fresh
from .masspartition import MassPartition, parse_mass_partition

__all__ = [
    "Graphon",
    "parse_graphon",
    "sample_w_random_graph",
]


class Graphon:
    """Symmetric measurable kernel W: [0,1]^2 -> [0,1].

    fn must broadcast over arrays; it is checked for range and symmetry
    on a 17 x 17 grid.
    """

    __slots__ = ("name", "_fn")

    def __init__(self, name: str, fn: Callable):
        grid = np.linspace(0.0, 1.0, 17)
        vals = np.asarray(fn(grid[:, None], grid[None, :]), dtype=np.float64)
        if vals.shape != (17, 17):
            raise ValueError(f"evaluator {name!r} must broadcast over arrays")
        if not np.all((vals >= -1e-12) & (vals <= 1.0 + 1e-12)):
            raise ValueError(f"evaluator {name!r} leaves [0,1] on the test grid")
        if np.max(np.abs(vals - vals.T)) > 1e-9:
            raise ValueError(f"evaluator {name!r} is not symmetric on the test grid")
        self.name = name
        self._fn = fn

    @classmethod
    def constant(cls, value: float) -> "Graphon":
        value = float(value)

        def fn(x, y):
            return np.broadcast_to(value, np.broadcast_shapes(np.shape(x), np.shape(y)))

        return cls(f"const:{value}", fn)

    @classmethod
    def disjoint_clique(cls, partition: MassPartition) -> "Graphon":
        k = len(partition)

        def fn(x, y):
            ix, iy = partition.locate(x), partition.locate(y)
            return ((ix == iy) & (ix < k)).astype(np.float64)

        return cls(f"cliques[{k}]", fn)

    def __call__(self, x, y):
        """Pointwise evaluation; broadcasts over array arguments."""
        return np.asarray(self._fn(x, y), dtype=np.float64)

    def __repr__(self):
        return f"Graphon({self.name})"


def _exp_sum(x, y):
    return np.exp(-(np.asarray(x, dtype=np.float64) + y))


def parse_graphon(text: str) -> Graphon:
    """Parse a graphon config string.

    Accepts "const:<v>", "exp_sum" and every mass-partition literal,
    which yields the disjoint-clique graphon of that partition.
    """
    if not isinstance(text, str):
        raise ValueError(f"graphon literal must be a string, got {text!r}")
    text = text.strip()
    if text == "exp_sum":
        return Graphon(text, _exp_sum)
    if text.startswith("const:"):
        try:
            return Graphon.constant(float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise ValueError(f"bad graphon literal {text!r}: {exc}") from None
    try:
        return Graphon.disjoint_clique(parse_mass_partition(text))
    except ValueError:
        raise ValueError(f"unknown graphon literal {text!r}") from None


_BLOCK = 128


def sample_w_random_graph(w: Graphon, n: int, rng: np.random.Generator) -> Graph:
    """Sample the n-node W-random graph.

    Latent positions are iid uniform; pair (i, j) connects independently
    with probability W(x_i, x_j).  A uniform is drawn for every ordered
    pair, row by row, and pair i < j uses the one in row i, column j;
    only those pairs are evaluated.  Rows come in fixed-size blocks so
    memory stays O(block * n), and since whole rows are drawn in order
    the output does not depend on the block size.  Edges come out sorted,
    each block's flat hit indexes decoded by one divmod by its width.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = rng.random(n)
    return _graph_from_latents(w, xs, rng)


def _graph_from_latents(w: Graphon, xs: np.ndarray, rng: np.random.Generator) -> Graph:
    """The W-random graph on latents xs, its rows drawn from rng as
    sample_w_random_graph describes.  Block rows start..top-1 meet columns
    start+1..n-1, so the pairs at or left of a row's diagonal all lie in
    the leading rows x rows square, which alone is masked, in place.
    """
    n = xs.size
    keep = ~np.tri(min(_BLOCK, n), k=-1, dtype=bool)  # a row's diagonal and right of it
    blocks = []  # (first row, flat hit indexes, width)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        u = rng.random((stop - start, n))  # whole rows keep the stream block-free
        top = min(stop, n - 1)  # row n - 1 has no pair right of its diagonal
        first = start + 1  # no pair of the block has its right end before this column
        rows, width = top - start, n - first
        if rows <= 0:
            continue
        hit = u[:rows, first:] < w(xs[start:top, None], xs[None, first:])
        # row start + r keeps columns first + c with c >= r; rows <= width
        hit[:, :rows] &= keep[:rows, :rows]
        blocks.append((start, np.flatnonzero(hit), width))
    edges = np.empty((sum(at.size for _, at, _ in blocks), 2), dtype=np.int64)
    pos = 0
    for start, at, width in blocks:
        lo, hi = edges[pos : pos + at.size, 0], edges[pos : pos + at.size, 1]
        np.divmod(at, width, out=(lo, hi))
        lo += start
        hi += start + 1
        pos += at.size
    return Graph(n, _Fresh(edges))
