"""Mass partitions: the weight sequences behind disjoint-clique kernels.

A mass partition is a non-increasing sequence of positive weights with
total at most 1.  Weight j is the measure of interval j on [0, 1];
leftover mass (1 - total) is the "dust" that turns into isolated
vertices when sampling.  Entries below 1e-15 are dropped at
construction so factorial-type tails do not produce empty cliques.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import _count, _fields_equal

__all__ = [
    "MassPartition",
    "make_mass_partition",
    "parse_mass_partition",
    "sample_clique_labels",
    "clique_size_counts",
    "expected_hub_degree",
]

_DROP_BELOW = 1e-15
_TOTAL_TOL = 1e-12
_ONE_BELOW = np.nextafter(1.0, 0.0)
# locate's guide tables have at most 2**_GUIDE_BITS cells; the edges of a
# table with g cells are every (_GUIDE_CELLS // g)-th entry of _CELL_EDGES
_GUIDE_BITS = 12
_GUIDE_CELLS = 1 << _GUIDE_BITS
_CELL_EDGES = np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS


@dataclass(frozen=True, eq=False)
class MassPartition:
    """Validated non-increasing positive weights with sum <= 1."""

    weights: np.ndarray
    total: float = field(init=False)

    __eq__ = _fields_equal
    __hash__ = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("mass partition needs at least one weight")
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError("weights must be finite and positive")
        if np.any(np.diff(w) > 0):
            raise ValueError("weights must be non-increasing")
        total = float(w.sum())
        if total > 1.0 + _TOTAL_TOL:
            raise ValueError(f"weights sum to {total}, must be <= 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "total", min(total, 1.0))

    def __len__(self) -> int:
        return int(self.weights.size)

    def __getitem__(self, j: int) -> float:
        return float(self.weights[j])

    def boundaries(self) -> np.ndarray:
        """Right endpoints of the consecutive intervals, cumulative sums."""
        return np.cumsum(self.weights)

    def locate(self, x) -> np.ndarray:
        """Interval index of each point of [0, 1]; len(self) is the leftover.

        The first interval is closed at 0, the others half-open; x = 1.0
        snaps into the last interval.  Weights that sum to 1 within
        _TOTAL_TOL leave no leftover: the last interval ends at 1 even
        where the cumulative sums round below it.

        Labels are those of searchsorted(ends, min(x, _ONE_BELOW),
        side="right") over the interval ends, for every input, but most
        come from a guide table (Chen & Asau 1974): [0, 1) is cut into g
        equal cells, g a power of two no larger than the input size and
        at most _GUIDE_CELLS, so x * g is exact and its integer part is
        x's cell.  A cell that holds no end has one label, read off the
        table; points in a cell that holds one are searched, and so is
        NaN.  Points below 0 count as in the first cell and points at or
        above 1 as in the last, which gives them label 0 and the snapped
        label.
        """
        ends = self.boundaries()
        if self.total >= 1.0 - _TOTAL_TOL:
            ends[-1] = 1.0
        x = np.asarray(x)
        g = 1 << min(max(x.size, 1).bit_length() - 1, _GUIDE_BITS)
        # table[c] = label of cell c; -1 where an end falls in the cell, and
        # in the extra entry g, the cell of NaN
        table = np.searchsorted(ends, _CELL_EDGES[:: _GUIDE_CELLS // g], side="right")
        table[(ends * g).astype(np.intp)] = -1
        table[g] = -1
        with np.errstate(over="ignore"):
            cell = np.multiply(x, g, out=np.empty(x.shape), dtype=np.float64)
        np.fmin(np.clip(cell, 0, g - 1, out=cell), g, out=cell)  # clip keeps NaN, fmin maps it to g
        at = cell.astype(np.intp)
        del cell  # at most two input-sized arrays live at once, as with one search
        # every index is in range; mode "clip" writes to out without a buffer copy
        label = np.take(table, at, out=np.empty(x.shape, dtype=np.intp), mode="clip")
        del at
        miss = np.flatnonzero(label < 0)
        label.flat[miss] = np.searchsorted(
            ends, np.minimum(x.flat[miss], _ONE_BELOW), side="right"
        )
        return label[()]

    @property
    def leftover(self) -> float:
        return max(0.0, 1.0 - self.total)


def make_mass_partition(raw, rescale: bool = False) -> MassPartition:
    """Build a partition from raw weights.

    Zero and sub-1e-15 entries are dropped.  With rescale=True the
    remaining weights are normalized to total exactly 1; otherwise the
    raw total must already be <= 1.
    """
    w = np.asarray(list(raw), dtype=np.float64)
    if w.size == 0:
        raise ValueError("mass partition needs at least one weight")
    if np.any(w < 0) or np.any(~np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    if rescale:
        total = w.sum()
        if total <= 0:
            raise ValueError("cannot rescale all-zero weights")
        w = w / total
    w = w[w >= _DROP_BELOW]
    if w.size == 0:
        raise ValueError("all weights below the 1e-15 floor")
    if rescale:
        w = w / w.sum()
    w = np.sort(w)[::-1]
    return MassPartition(weights=w)


def _power_weights(a: float, jmin: int, jmax: int) -> np.ndarray:
    return np.arange(jmin, jmax + 1, dtype=np.float64) ** (-a)

def _geom_weights(r: float, jmin: int, jmax: int) -> np.ndarray:
    return r ** (-np.arange(jmin, jmax + 1, dtype=np.float64))

def _loglaw_weights(jmax: int) -> np.ndarray:
    j = np.arange(2, jmax + 1, dtype=np.float64)
    return 1.0 / (j * np.log(j))

def _factorial_weights(jmax: int) -> np.ndarray:
    # 171! is past the largest float; its 1/j! terms are all below the floor
    return np.array([1.0 / math.factorial(j) for j in range(2, min(jmax, 170) + 1)])


def parse_mass_partition(text: str) -> MassPartition:
    """Parse a partition literal.

    Syntaxes:
      mass:[0.5,0.3]          explicit weights, used as given (sum <= 1)
      power:<a>:<jmin>:<jmax> 1/j^a for j in jmin..jmax, rescaled to 1
      geom:<r>:<jmin>:<jmax>  1/r^j for j in jmin..jmax, rescaled
      loglaw:<jmax>           1/(j log j) for j in 2..jmax, rescaled
      factorial:<jmax>        1/j! for j in 2..jmax, rescaled
    """
    if not isinstance(text, str):
        raise ValueError(f"partition literal must be a string, got {text!r}")
    text = text.strip()
    kind, _, rest = text.partition(":")
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            if kind == "mass":
                vals = json.loads(rest)
                if not isinstance(vals, list) or any(type(v) not in (int, float) for v in vals):
                    raise ValueError("mass literal must be a JSON list of numbers")
                return make_mass_partition(vals, rescale=False)
            if kind == "power":
                a, jmin, jmax = rest.split(":")
                return make_mass_partition(
                    _power_weights(float(a), int(jmin), int(jmax)), rescale=True
                )
            if kind == "geom":
                r, jmin, jmax = rest.split(":")
                return make_mass_partition(
                    _geom_weights(float(r), int(jmin), int(jmax)), rescale=True
                )
            if kind == "loglaw":
                return make_mass_partition(_loglaw_weights(int(rest)), rescale=True)
            if kind == "factorial":
                return make_mass_partition(_factorial_weights(int(rest)), rescale=True)
    except Exception as exc:
        raise ValueError(f"bad partition literal {text!r}: {exc}") from None
    raise ValueError(f"unknown partition literal {text!r}")


def sample_clique_labels(p: MassPartition, m: int, rng: np.random.Generator) -> np.ndarray:
    """Assign m vertices to cliques by inverse-CDF lookup of uniforms.

    Returns int labels; label j < len(p) means clique j, label len(p)
    means the leftover (isolated) region.
    """
    return p.locate(rng.random(_count(m, "m", 1)))


def clique_size_counts(p: MassPartition, labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Counts per clique index plus the isolated-vertex count."""
    counts = np.bincount(labels, minlength=len(p) + 1)
    return counts[: len(p)], int(counts[len(p)])


def expected_hub_degree(
    p_j: float, m_s: int, m_new: int, n_s: int
) -> tuple[float, float]:
    """Mean and variance of a hub degree after joining.

    The hub for clique j collects one edge per sparse vertex assigned to
    the clique plus a thinned share of the m_new joining edges, each of
    which hits a given sparse node with probability 1/n_s (the edge
    multiplier c is already in m_new).
    """
    if not (0.0 < p_j <= 1.0):
        raise ValueError("p_j must be in (0, 1]")
    m_s, n_s, m_new = _count(m_s, "m_s", 1), _count(n_s, "n_s", 1), _count(m_new, "m_new")
    hit = 1.0 / n_s
    mean = m_s * p_j + m_new * hit
    var = m_s * p_j * (1.0 - p_j) + m_new * hit * (1.0 - hit)
    return mean, var
