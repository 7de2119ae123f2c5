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


@dataclass(frozen=True)
class MassPartition:
    """Validated non-increasing positive weights with sum <= 1."""

    weights: np.ndarray
    total: float = field(init=False)

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
        snaps into the last interval.
        """
        return np.searchsorted(self.boundaries(), np.minimum(x, _ONE_BELOW), side="right")

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
    return np.array([1.0 / math.factorial(j) for j in range(2, jmax + 1)])


def parse_mass_partition(text: str) -> MassPartition:
    """Parse a partition literal.

    Syntaxes:
      mass:[0.5,0.3]          explicit weights, used as given (sum <= 1)
      power:<a>:<jmin>:<jmax> 1/j^a for j in jmin..jmax, rescaled to 1
      geom:<r>:<jmin>:<jmax>  1/r^j for j in jmin..jmax, rescaled
      loglaw:<jmax>           1/(j log j) for j in 2..jmax, rescaled
      factorial:<jmax>        1/j! for j in 2..jmax, rescaled
    """
    text = text.strip()
    kind, _, rest = text.partition(":")
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            if kind == "mass":
                vals = json.loads(rest)
                if not isinstance(vals, list):
                    raise ValueError("mass literal must be a JSON list")
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
    except ValueError:
        raise
    except Exception as exc:
        raise ValueError(f"bad partition literal {text!r}: {exc}") from None
    raise ValueError(f"unknown partition literal {text!r}")


def sample_clique_labels(p: MassPartition, m: int, rng: np.random.Generator) -> np.ndarray:
    """Assign m vertices to cliques by inverse-CDF lookup of uniforms.

    Returns int labels; label j < len(p) means clique j, label len(p)
    means the leftover (isolated) region.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return p.locate(rng.random(m))


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
    if m_s < 1 or n_s < 1 or m_new < 0:
        raise ValueError("m_s, n_s must be positive and m_new >= 0")
    hit = 1.0 / n_s
    mean = m_s * p_j + m_new * hit
    var = m_s * p_j * (1.0 - p_j) + m_new * hit * (1.0 - hit)
    return mean, var
