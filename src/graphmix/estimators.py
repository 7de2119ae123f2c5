"""Estimating the sparse component from observed degree spectra.

Two regimes share one idea: hub degrees of the star forest dominate the
top of the spectrum and scale linearly with the sparse edge count.

* finite partitions: the hub count k is the position of the largest
  log-gap between consecutive top degrees;
* infinite partitions: no single gap exists, so (rank, log degree) is
  split into two least-squares lines and k is the fitted breakpoint
  (the sparse segment falls faster than log(m/j), the dense one
  slower); one prefix-sum pass gives the loss of every breakpoint.

Either way the partition weights are the top-k degrees normalized by
their own sum; the naive baseline normalizes by the total degree mass,
which the dense part inflates by orders of magnitude.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .graph import DegreeSpectrum, _count, _fields_equal, _real, top_k_degrees

__all__ = [
    "AUTO_GAP_THRESHOLD",
    "predict_top_k",
    "baseline_sqrt_predict",
    "forecast_top_k",
    "estimate_k_finite",
    "estimate_partition_finite",
    "ols_fit",
    "SegmentFit",
    "fit_two_segments",
    "retained_log_points",
    "estimate_k_infinite",
    "estimate_partition_infinite",
    "estimate_partition",
    "baseline_partition",
    "mape",
    "PartitionEstimate",
]

log = logging.getLogger(__name__)

AUTO_GAP_THRESHOLD = math.log(10.0)
# the gap scan reads at most this many of the largest unique degrees
_MAX_UNIQUE = 64
# fewest points on either side of the two-segment breakpoint
_MIN_SEG = 3


def _check_forecast_input(train_top, n_train: int, n_test: int) -> np.ndarray:
    top = np.asarray(train_top, dtype=np.float64)
    if top.size and np.any(np.diff(top) > 0):
        raise ValueError("train_top must be non-increasing")
    _count(n_train, "n_train", 1)
    _count(n_test, "n_test", 1)
    return top


def predict_top_k(train_top: np.ndarray, n_train: int, n_test: int) -> np.ndarray:
    """Scale the training top degrees by the node-count ratio.

    Hub degrees grow linearly in the graph size, so the forecast for the
    rank-j test degree is deg_train(j) * n_test / n_train.
    """
    return _check_forecast_input(train_top, n_train, n_test) * (n_test / n_train)


def baseline_sqrt_predict(train_top: np.ndarray, n_train: int, n_test: int) -> np.ndarray:
    """Dense-regime baseline: scale by sqrt(n_test / n_train)."""
    return _check_forecast_input(train_top, n_train, n_test) * math.sqrt(n_test / n_train)


def forecast_top_k(
    spec_train: DegreeSpectrum, spec_test: DegreeSpectrum, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-k test degrees (float) with their node-ratio forecast and sqrt
    baseline from the top-k train degrees: (actual, predicted, baseline)."""
    train_top = top_k_degrees(spec_train, k)
    n_train, n_test = spec_train.node_count, spec_test.node_count
    return (
        top_k_degrees(spec_test, k).astype(np.float64),
        predict_top_k(train_top, n_train, n_test),
        baseline_sqrt_predict(train_top, n_train, n_test),
    )


def _retained_degrees(spectrum: DegreeSpectrum, percentile: float) -> np.ndarray:
    # dropping zeros and small degrees shields the gap scan from the huge
    # artificial gap between leaf degrees and dense-part degrees
    uniq = spectrum.unique_degrees
    uniq = uniq[uniq > 0]
    if uniq.size == 0:
        raise ValueError("no positive degrees to scan")
    uniq = uniq[uniq >= np.percentile(uniq, _real(percentile, "percentile", 0, 100))]
    floor = int(uniq[:_MAX_UNIQUE][-1])
    sd = spectrum.sorted_degrees
    return sd[sd >= floor]


def estimate_k_finite(
    spectrum: DegreeSpectrum, percentile: float = 50.0
) -> tuple[int, np.ndarray]:
    """Hub count for a finite partition: argmax log-gap position.

    The scan runs over the degrees whose value is among the 64 largest
    unique values and at least the percentile-th percentile of unique
    positive values; zeros never survive.  Returns (k_hat, gaps)
    where gaps[l-1] = log d_(l) - log d_(l+1) over those degrees; k_hat
    is the 1-based position of the largest gap (first one wins ties).
    """
    seq = _retained_degrees(spectrum, percentile)
    if np.unique(seq).size < 3:
        raise ValueError("need at least three distinct retained degrees")
    logs = np.log(seq.astype(np.float64))
    gaps = logs[:-1] - logs[1:]
    return int(np.argmax(gaps)) + 1, gaps


def _ratio_partition(spectrum: DegreeSpectrum, k_hat: int) -> np.ndarray:
    # both scans count only positive degrees, so the top k_hat are positive
    top = top_k_degrees(spectrum, k_hat).astype(np.float64)
    return top / top.sum()


@dataclass(frozen=True, eq=False)
class PartitionEstimate:
    """Weights summing to 1 (k_hat of them), with the mode and fit diagnostics."""

    mode: str
    weights: np.ndarray
    diagnostics: object = None

    __eq__ = _fields_equal
    __hash__ = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if np.any(w <= 0) or np.any(np.diff(w) > 0):
            raise ValueError("weights must be positive and non-increasing")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def k_hat(self) -> int:
        return self.weights.size


def estimate_partition_finite(
    spectrum: DegreeSpectrum, percentile: float = 50.0
) -> PartitionEstimate:
    """Weights = top-k degrees over their sum, k from the gap scan."""
    k_hat, gaps = estimate_k_finite(spectrum, percentile)
    return PartitionEstimate("finite", _ratio_partition(spectrum, k_hat), gaps)


def ols_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line through (x, y): (slope, intercept, sq. loss)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two points")
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("degenerate fit: all x identical")
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    return slope, float(intercept), float((resid**2).sum())


@dataclass(frozen=True)
class SegmentFit:
    """Two-line fit of (rank, log degree): break after point cutoff."""

    cutoff: int
    slope1: float
    intercept1: float
    loss1: float
    slope2: float
    intercept2: float
    loss2: float

    @property
    def total_loss(self) -> float:
        return self.loss1 + self.loss2


def _prefix_fits(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares line through the first r points, r = 1..n: its loss,
    and |slope| * max|x| + |intercept|, the size of the terms ols_fit rounds.

    Running sums are taken about the first point, so no loss subtracts
    one large running total from another; NaN where x[:r] is constant.
    Floating-point warnings are the caller's to silence.
    """
    a, b = x - x[0], y - y[0]
    r = np.arange(1, x.size + 1)
    sa, sb = np.cumsum(a), np.cumsum(b)
    saa = np.cumsum(a * a) - sa * sa / r
    sab = np.cumsum(a * b) - sa * sb / r
    sbb = np.cumsum(b * b) - sb * sb / r
    slope = np.where(saa > 0, sab / saa, np.nan)
    intercept = y[0] + sb / r - slope * (x[0] + sa / r)
    return sbb - slope * sab, np.abs(slope) * np.abs(x).max() + np.abs(intercept)


def _breakpoint_candidates(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cutoffs r whose two-segment loss may be the smallest under ols_fit.

    One prefix-sum pass over each end gives every cutoff's loss.  Each
    running sum is within n + 1 times its segment's own centred sum, so
    these losses are off by O(n^2 * eps) of the total sum of squares ss.
    ols_fit's losses are off by its rounding of each residual, at most
    delta = 4 * eps * (|slope| * max|x| + |intercept| + max|y|), which
    moves a loss by at most 2 * sqrt(n * ss) * delta + n * delta^2.  A
    cutoff farther above the smallest prefix loss than twice both bounds
    (the first at least 1e-9 * max(1, ss), a margin for their constants)
    loses in the exact fit too.  Cutoffs whose prefix loss is not finite
    (constant x, overflow) stay candidates.
    """
    n = x.size
    cutoffs = np.arange(_MIN_SEG, n - _MIN_SEG + 1)
    if x.ndim != 1 or y.shape != x.shape or not np.isfinite(x).all() or not np.isfinite(y).all():
        return cutoffs  # every cutoff: ols_fit raises or warns as it always did
    with np.errstate(all="ignore"):
        left, left_size = (v[cutoffs - 1] for v in _prefix_fits(x, y))
        right, right_size = (v[n - cutoffs - 1] for v in _prefix_fits(x[::-1], y[::-1]))
        total = left + right
        ss = float(((y - y.mean()) ** 2).sum())
        finite = np.isfinite(total)
        if not finite.any():
            return cutoffs
        eps = np.finfo(np.float64).eps
        delta = 4 * eps * (np.maximum(left_size, right_size)[finite].max() + np.abs(y).max())
        tol = 2 * (
            max(1e-9, 8 * n * n * eps) * max(1.0, ss)
            + 2 * math.sqrt(n * ss) * delta
            + n * delta * delta
        )
        return cutoffs[~finite | (total <= total[finite].min() + tol)]


def fit_two_segments(x: np.ndarray, y: np.ndarray) -> SegmentFit:
    """Scan of the breakpoint; ties go to the smallest cutoff.

    The first segment takes points [0, r), the second [r, N); both need
    at least 3 points.  One prefix-sum pass gives every cutoff's loss;
    ols_fit then refits only the cutoffs within rounding of the smallest,
    so the result equals fitting every cutoff with ols_fit.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    if n < 2 * _MIN_SEG:
        raise ValueError(f"need at least {2 * _MIN_SEG} points, got {n}")
    best = None
    for r in _breakpoint_candidates(x, y).tolist():
        s1, i1, l1 = ols_fit(x[:r], y[:r])
        s2, i2, l2 = ols_fit(x[r:], y[r:])
        if best is None or l1 + l2 < best.total_loss:
            best = SegmentFit(r, s1, i1, l1, s2, i2, l2)
    return best


def retained_log_points(
    spectrum: DegreeSpectrum, percentile: float = 50.0
) -> tuple[np.ndarray, np.ndarray]:
    """(rank, log degree) points for the two-segment fit.

    One point per unique positive degree strictly above the
    percentile-th percentile of unique positive values.  The rank of a
    value is the 1-based position of its first holder in the full
    descending degree order, so a value shared by many nodes keeps its
    width on the rank axis; that keeps the near-flat run of bulk degrees
    long enough to anchor the second segment.
    """
    uniq = spectrum.unique_degrees.astype(np.float64)
    uniq = uniq[uniq > 0]
    if uniq.size == 0:
        raise ValueError("no positive degrees")
    uniq = uniq[uniq > np.percentile(uniq, _real(percentile, "percentile", 0, 100))]
    ranks = 1.0 + np.searchsorted(-spectrum.sorted_degrees, -uniq)
    return ranks, np.log(uniq)


def estimate_k_infinite(
    spectrum: DegreeSpectrum, percentile: float = 50.0
) -> tuple[int, SegmentFit]:
    """Hub count for power-like partitions via the two-segment fit.

    Fits two lines to the retained (rank, log degree) points, each
    through at least 3 of them, and returns the number of points on the
    first segment as k_hat.
    """
    x, y = retained_log_points(spectrum, percentile)
    if x.size < 2 * _MIN_SEG:
        raise ValueError(
            f"only {x.size} unique degrees above the percentile cutoff, "
            f"need {2 * _MIN_SEG}"
        )
    fit = fit_two_segments(x, y)
    return fit.cutoff, fit


def estimate_partition_infinite(
    spectrum: DegreeSpectrum, percentile: float = 50.0
) -> PartitionEstimate:
    """Same ratio formula as the finite mode, k from the segment fit."""
    k_hat, fit = estimate_k_infinite(spectrum, percentile)
    return PartitionEstimate("infinite", _ratio_partition(spectrum, k_hat), fit)


def estimate_partition(
    spectrum: DegreeSpectrum, mode: str = "auto", percentile: float = 50.0
) -> PartitionEstimate:
    """Front door for the CLI: finite, infinite, or auto dispatch.

    percentile is the unique-degree cutoff of both the gap scan and the
    two-segment fit.  Auto mode runs the gap scan first and keeps the
    finite answer only when a dominant gap (> AUTO_GAP_THRESHOLD = ln 10
    in log scale) exists; otherwise it falls back to the two-segment fit.
    """
    if mode == "finite":
        return estimate_partition_finite(spectrum, percentile)
    if mode == "infinite":
        return estimate_partition_infinite(spectrum, percentile)
    if mode != "auto":
        raise ValueError(f"unknown mode {mode!r}")
    try:
        est = estimate_partition_finite(spectrum, percentile)
        if est.diagnostics.max() > AUTO_GAP_THRESHOLD:
            return est
    except ValueError:
        pass
    est = estimate_partition_infinite(spectrum, percentile)
    log.warning("no dominant degree gap; treating the partition as infinite-type")
    return est


def baseline_partition(spectrum: DegreeSpectrum, k_hat: int) -> np.ndarray:
    """Naive weights: top-k degrees over the total degree mass."""
    top = top_k_degrees(spectrum, k_hat).astype(np.float64)
    total = float(spectrum.sorted_degrees.sum())
    if total <= 0:
        raise ValueError("graph has no edges")
    return top / total


def mape(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Mean absolute percentage error, in percent."""
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape or a.size == 0:
        raise ValueError("actual and predicted must be same-length, non-empty")
    if np.any(a == 0):
        raise ValueError("actual values must be nonzero")
    return float(100.0 * np.mean(np.abs((p - a) / a)))
