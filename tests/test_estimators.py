"""Hub-count and partition estimators, segment fits, and forecasts."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from graphmix import (
    DegreeSpectrum,
    Graph,
    PartitionEstimate,
    SegmentFit,
    baseline_partition,
    baseline_sqrt_predict,
    degree_spectrum,
    estimate_k_finite,
    estimate_k_infinite,
    estimate_partition,
    estimate_partition_finite,
    estimate_partition_infinite,
    fit_two_segments,
    forecast_top_k,
    generate_mixture,
    join_graphs,
    mape,
    ols_fit,
    parse_graphon,
    parse_mass_partition,
    predict_top_k,
    retained_log_points,
    star_forest,
)
from graphmix import estimators
from graphmix.graphon import sample_w_random_graph

W = parse_graphon("exp_sum")


def spec_of(degs):
    return DegreeSpectrum(degs)


def test_predict_top_k_scales_linearly():
    top = np.array([1000, 500, 200])
    np.testing.assert_allclose(predict_top_k(top, 11000, 13200), [1200.0, 600.0, 240.0])
    np.testing.assert_array_equal(predict_top_k(top, 500, 500), top.astype(float))


def test_predict_validation():
    with pytest.raises(ValueError):
        predict_top_k(np.array([1, 2]), 10, 10)
    with pytest.raises(ValueError):
        predict_top_k(np.array([2, 1]), 0, 10)
    with pytest.raises(ValueError):
        baseline_sqrt_predict(np.array([1, 2]), 10, 10)


def test_baseline_sqrt_predict():
    top = np.array([100.0, 50.0])
    np.testing.assert_allclose(baseline_sqrt_predict(top, 100, 400), [200.0, 100.0])
    np.testing.assert_allclose(baseline_sqrt_predict(top, 7, 7), top)


def test_forecast_top_k_scales_train_degrees():
    spec_tr = spec_of([8, 4, 2, 1, 1])  # 5 nodes
    spec_te = spec_of([30, 9, 3] + [1] * 17)  # 20 nodes
    actual, predicted, baseline = forecast_top_k(spec_tr, spec_te, 2)
    assert actual.dtype == np.float64
    np.testing.assert_array_equal(actual, [30.0, 9.0])
    np.testing.assert_allclose(predicted, [32.0, 16.0])
    np.testing.assert_allclose(baseline, [16.0, 8.0])
    with pytest.raises(ValueError):
        forecast_top_k(spec_tr, spec_te, 6)


def test_self_prediction_has_zero_error():
    top = np.array([900, 450, 150])
    assert mape(top, predict_top_k(top, 123, 123)) == 0.0


def test_k_finite_hand_case():
    k, gaps = estimate_k_finite(spec_of([1000, 500, 10, 9, 8, 7]))
    # retained degrees are [1000, 500, 10]; the 500 -> 10 drop wins
    assert k == 2
    assert gaps.size == 2
    assert gaps[1] == pytest.approx(np.log(50.0))


def test_k_finite_retention_keywords():
    # 72 unique values: 10000, 5000, then 200 down to 131; 139 is the
    # 64th largest and has three holders
    spec = spec_of([10000, 5000] + list(range(200, 130, -1)) + [139, 139])
    # percentile 0 keeps every unique value; the 64-value cap stops the
    # scan at 139, and every holder of a scanned value is scanned
    k, gaps = estimate_k_finite(spec, percentile=0.0)
    assert (k, gaps.size) == (2, 65)
    assert gaps[-1] == 0.0 and gaps[-3] == pytest.approx(np.log(140 / 139))
    est = estimate_partition(spec, mode="finite", percentile=0.0)
    np.testing.assert_array_equal(est.diagnostics, gaps)
    with pytest.raises(ValueError, match="three distinct"):
        estimate_k_finite(spec, percentile=100.0)


def test_k_finite_needs_three_distinct():
    with pytest.raises(ValueError):
        estimate_k_finite(spec_of([1, 1]))
    with pytest.raises(ValueError):
        estimate_k_finite(spec_of([0, 0, 0]))


def test_k_finite_scale_invariance():
    degs = [1200, 640, 330, 12, 11, 10, 9, 5, 3]
    k1, g1 = estimate_k_finite(spec_of(degs))
    k2, g2 = estimate_k_finite(spec_of([7 * d for d in degs]))
    assert k1 == k2
    np.testing.assert_allclose(g1, g2)


def test_k_finite_recovers_three_blocks():
    u = parse_mass_partition("mass:[0.5,0.3333333333333333,0.16666666666666666]")
    hits = 0
    for s in range(100):
        mix = generate_mixture(u, W, 500, 50000, rng=np.random.default_rng(1000 + s))
        k, _ = estimate_k_finite(degree_spectrum(mix.graph))
        hits += k == 3
    assert hits >= 95


def test_k_finite_recovers_ten_uniform_blocks():
    u = parse_mass_partition("mass:[" + ",".join(["0.1"] * 10) + "]")
    for s in range(5):
        mix = generate_mixture(u, W, 500, 10450, rng=np.random.default_rng(s))
        k, _ = estimate_k_finite(degree_spectrum(mix.graph))
        assert k == 10


def test_partition_finite_ratio_is_exact():
    # the scan keeps [300, 200, 100, 5] and splits at the 100 -> 5 drop
    est = estimate_partition_finite(spec_of([300, 200, 100, 5, 4, 3, 2, 1]))
    np.testing.assert_allclose(est.weights, [0.5, 1 / 3, 1 / 6])
    assert est.mode == "finite" and est.k_hat == 3
    one = estimate_partition_finite(spec_of([300, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1]))
    assert one.k_hat == 1
    np.testing.assert_array_equal(one.weights, [1.0])


@st.composite
def hubs_over_dense(draw):
    """(degrees, hubs): k hub degrees above a dense part with more distinct
    degrees than hubs, so the median unique degree falls below the
    smallest hub, built so that the log-gap from the smallest hub down to
    the largest dense degree is larger than every other gap."""
    k = draw(st.integers(1, 8))
    dense = sorted(draw(st.sets(st.integers(1, 5000), min_size=k + 4, max_size=60)), reverse=True)
    # hub k over the top dense degree beats the widest dense ratio a / b:
    # hub * b > dense[0] * a, in integers
    a, b = max(zip(dense, dense[1:]), key=lambda pair: Fraction(*pair))
    hubs = [dense[0] * a // b + 1 + draw(st.integers(0, 3 * dense[0]))]
    # a step of at most hubs[-1] - dense[0] keeps each hub ratio below
    # hubs[-1] / dense[0]
    for _ in range(k - 1):
        hubs.insert(0, hubs[0] + draw(st.integers(1, hubs[-1] - dense[0])))
    degrees = hubs + [d for d in dense for _ in range(draw(st.integers(1, 3)))]
    return degrees + [0] * draw(st.integers(0, 5)), hubs


@given(hubs_over_dense())
def test_partition_finite_recovers_hubs_over_a_dense_part(case):
    degrees, hubs = case
    est = estimate_partition_finite(spec_of(np.array(degrees)))
    gaps = est.diagnostics
    assert np.count_nonzero(gaps == gaps.max()) == 1 and gaps.argmax() == len(hubs) - 1
    assert est.k_hat == len(hubs)
    np.testing.assert_array_equal(est.weights, np.array(hubs, dtype=np.float64) / sum(hubs))


def test_partition_finite_reports_gaps():
    est = estimate_partition_finite(spec_of([1000, 500, 10, 9, 8, 7]))
    assert est.k_hat == 2
    assert est.diagnostics is not None and est.diagnostics.size == 2


def test_partition_estimate_invariants():
    with pytest.raises(ValueError):
        PartitionEstimate("finite", np.array([0.3, 0.3]))  # sum != 1
    with pytest.raises(ValueError):
        PartitionEstimate("finite", np.array([0.4, 0.6]))  # increasing
    with pytest.raises(ValueError):
        PartitionEstimate("finite", np.array([1.2, -0.2]))  # nonpositive


def test_partition_estimates_compare_by_value():
    a, b = (estimate_partition_finite(spec_of([1000, 500, 10, 9, 8, 7])) for _ in range(2))
    assert a == b and not a != b
    assert a != estimate_partition_finite(spec_of([1000, 400, 10, 9, 8, 7]))
    # equal weights, different gap diagnostics
    assert a != PartitionEstimate("finite", a.weights, a.diagnostics[::-1])
    assert a != PartitionEstimate("infinite", a.weights, a.diagnostics)
    with pytest.raises(TypeError):
        hash(a)


def test_estimates_sum_to_one():
    rng = np.random.default_rng(5)
    u = parse_mass_partition("mass:[0.6666666666666666,0.3333333333333333]")
    for _ in range(20):
        mix = generate_mixture(u, W, 80, int(rng.integers(500, 5000)), rng=rng)
        est = estimate_partition_finite(degree_spectrum(mix.graph))
        assert abs(est.weights.sum() - 1.0) <= 1e-9
        assert np.all(np.diff(est.weights) <= 0)


def test_ols_exact_line():
    x = np.arange(6.0)
    s, i, l = ols_fit(x, 2.0 * x + 1.0)
    assert (s, i) == pytest.approx((2.0, 1.0))
    assert l == pytest.approx(0.0, abs=1e-12)
    s2, i2, l2 = ols_fit(np.array([0.0, 1.0]), np.array([4.0, 9.0]))
    assert (s2, i2, l2) == pytest.approx((5.0, 4.0, 0.0))


def test_ols_v_shape():
    s, i, l = ols_fit(np.array([1.0, 2.0, 3.0]), np.array([3.0, 1.0, 3.0]))
    assert s == pytest.approx(0.0)
    assert i == pytest.approx(7.0 / 3.0)
    assert l == pytest.approx(8.0 / 3.0)


def test_ols_validation():
    with pytest.raises(ValueError):
        ols_fit(np.array([1.0]), np.array([2.0]))
    with pytest.raises(ValueError):
        ols_fit(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]))


def test_two_segments_finds_clean_break():
    x = np.arange(10.0)
    y = np.where(x < 5, 10.0 - 2.0 * x, 3.0 - 0.1 * x)
    fit = fit_two_segments(x, y)
    assert fit.cutoff == 5
    assert fit.total_loss == pytest.approx(0.0, abs=1e-18)
    assert fit.slope1 == pytest.approx(-2.0)
    assert fit.slope2 == pytest.approx(-0.1)


def test_two_segments_tie_goes_to_smallest_cutoff():
    x = np.arange(12.0)
    fit = fit_two_segments(x, 3.0 * x - 1.0)
    assert fit.cutoff == 3  # every split is perfect; first one wins


def test_two_segments_validation():
    x = np.arange(5.0)
    with pytest.raises(ValueError):
        fit_two_segments(x, x)  # 5 < 2 * 3 points


def test_two_segments_never_worse_than_one_line():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(6, 40))
        x = np.sort(rng.random(n)) * 10.0
        y = rng.normal(size=n)
        fit = fit_two_segments(x, y)
        _, _, single = ols_fit(x, y)
        assert fit.total_loss <= single + 1e-12


def exhaustive_two_segments(x, y):
    """fit_two_segments before the prefix-sum scan, kept as the reference."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    best = None
    for r in range(3, x.size - 3 + 1):
        s1, i1, l1 = ols_fit(x[:r], y[:r])
        s2, i2, l2 = ols_fit(x[r:], y[r:])
        if best is None or l1 + l2 < best.total_loss:
            best = SegmentFit(r, s1, i1, l1, s2, i2, l2)
    return best


@st.composite
def segment_points(draw, non_finite=False):
    """x with ties (sorted or not) and y with exact ties and constant runs, at several scales.

    With non_finite, x or y sometimes holds NaN, +-inf or 1e308.
    """
    n = draw(st.integers(6, 40))
    x = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n))
    if draw(st.booleans()):
        x = sorted(x)
    x = np.array(x, dtype=np.float64) * draw(st.sampled_from([0.125, 1.0, 1000.0]))
    y = np.array(draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)), dtype=np.float64)
    y *= draw(st.sampled_from([1e-3, 0.1, 1.0, 1e3]))
    lo = draw(st.integers(0, n))
    y[lo : draw(st.integers(lo, n))] = y[lo - 1] if lo else 1.5  # a constant run
    if draw(st.booleans()):
        y += draw(st.sampled_from([0.1, 10.0, 1e4]))  # an offset far from zero
    if non_finite and draw(st.booleans()):
        v = x if draw(st.booleans()) else y
        v[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf, 1e308]))
    return x, y


def fit_outcome(fit, x, y):
    """repr of the fit (NaN fields compare equal), or of the error or warning."""
    try:
        return repr(fit(x, y))
    except (ValueError, RuntimeWarning) as exc:
        return repr(exc)


@given(segment_points(non_finite=True))
def test_two_segments_equal_the_exhaustive_scan(points):
    x, y = points
    assert fit_outcome(fit_two_segments, x, y) == fit_outcome(exhaustive_two_segments, x, y)


@given(segment_points())
def test_prefix_losses_match_ols_fit(points):
    # to 1e-9 of the segment's centred sum of squares (the loss of a flat
    # line), or within ols_fit's rounding of residuals of size eps * max|y|
    x, y = points
    eps = np.finfo(np.float64).eps
    for xs, ys in ((x, y), (x[::-1], y[::-1])):
        with np.errstate(all="ignore"):  # constant prefixes divide by zero
            losses, _ = estimators._prefix_fits(xs, ys)
        for r in range(2, xs.size + 1):
            if np.all(xs[:r] == xs[0]):
                assert np.isnan(losses[r - 1])
                continue
            _, _, loss = ols_fit(xs[:r], ys[:r])
            flat = float(((ys[:r] - ys[:r].mean()) ** 2).sum())
            noise = r * (4 * eps * np.abs(ys[:r]).max()) ** 2
            assert abs(losses[r - 1] - loss) <= 1e-9 * flat + noise


def test_two_segments_refit_only_near_the_smallest_loss():
    x = np.arange(40.0)
    y = np.where(x < 12, 30.0 - 2.0 * x, 6.5 - 0.1 * x) + np.sin(x) * 0.01
    with mock.patch.object(estimators, "ols_fit", wraps=ols_fit) as refit:
        fit = fit_two_segments(x, y)
    assert fit == exhaustive_two_segments(x, y) and fit.cutoff == 12
    assert refit.call_count == 2


def test_retained_log_points_hand_case():
    x, y = retained_log_points(spec_of([100, 100, 50, 7, 7, 7, 3, 2]), 50.0)
    # unique values [100, 50, 7, 3, 2]: percentile-50 cutoff is 7, kept
    # strictly above; ranks come from the full descending order
    np.testing.assert_array_equal(x, [1.0, 3.0])
    np.testing.assert_allclose(y, [np.log(100.0), np.log(50.0)])


def test_retained_log_points_rejects_no_positive():
    with pytest.raises(ValueError):
        retained_log_points(spec_of([0, 0]))


def test_k_infinite_needs_enough_points():
    with pytest.raises(ValueError):
        estimate_k_infinite(spec_of([9, 8, 7, 2, 2, 1]))


def test_k_infinite_slope_flat_on_dense_only():
    g = sample_w_random_graph(W, 2000, np.random.default_rng(7))
    spec = degree_spectrum(g)
    _, fit = estimate_k_infinite(spec)
    x, _ = retained_log_points(spec)
    ref_slope, _, _ = ols_fit(x, np.log(g.edge_count / x))
    # no sparse part: the head of the spectrum decays slower than the
    # star-forest reference curve log(m / rank)
    assert abs(fit.slope1) < abs(ref_slope)


def test_k_infinite_slope_steep_on_power_mixture():
    u = parse_mass_partition("power:1.2:2:50")
    mix = generate_mixture(u, W, 120, 20000, rng=np.random.default_rng(7))
    spec = degree_spectrum(mix.graph)
    k, fit = estimate_k_infinite(spec)
    x, _ = retained_log_points(spec)
    ref_slope, _, _ = ols_fit(x, np.log(mix.graph.edge_count / x))
    assert abs(fit.slope1) > abs(ref_slope)
    assert k >= 6  # hub run extends well past the minimum segment


def test_partition_infinite_weights():
    u = parse_mass_partition("power:1.2:2:50")
    mix = generate_mixture(u, W, 120, 20000, rng=np.random.default_rng(7))
    est = estimate_partition_infinite(degree_spectrum(mix.graph))
    assert est.mode == "infinite"
    assert est.k_hat == est.weights.size
    assert est.diagnostics.cutoff == est.k_hat


def test_auto_mode_dispatch(caplog):
    u = parse_mass_partition("mass:[0.5,0.3333333333333333,0.16666666666666666]")
    mix = generate_mixture(u, W, 500, 50000, rng=np.random.default_rng(1000))
    est = estimate_partition(degree_spectrum(mix.graph), mode="auto")
    assert est.mode == "finite" and est.k_hat == 3

    g = sample_w_random_graph(W, 2000, np.random.default_rng(7))
    with caplog.at_level("WARNING", logger="graphmix.estimators"):
        est_d = estimate_partition(degree_spectrum(g), mode="auto")
    assert est_d.mode == "infinite"
    assert any("no dominant degree gap" in r.message for r in caplog.records)

    with pytest.raises(ValueError):
        estimate_partition(degree_spectrum(g), mode="bogus")


def test_baseline_partition_values():
    star = spec_of([4, 1, 1, 1, 1])
    np.testing.assert_allclose(baseline_partition(star, 1), [0.5])
    k4 = spec_of([3, 3, 3, 3])
    np.testing.assert_allclose(baseline_partition(k4, 1), [0.25])
    with pytest.raises(ValueError):
        baseline_partition(star, 0)
    with pytest.raises(ValueError):
        baseline_partition(star, 6)
    with pytest.raises(ValueError):
        baseline_partition(spec_of([0, 0, 0]), 1)


def test_mape_values():
    assert mape(np.array([1.0, 2.0, 4.0]), np.array([1.0, 2.0, 4.0])) == 0.0
    assert mape(np.array([10.0]), np.array([11.0])) == pytest.approx(10.0)
    assert mape(np.array([100.0, 200.0]), np.array([110.0, 180.0])) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        mape(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        mape(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        mape(np.array([]), np.array([]))


def test_leading_weight_converges_with_sparse_size():
    # the hub-ratio estimate of the leading weight tightens as the star
    # forest grows; the dense part's contribution washes out as 1/m_s
    u = parse_mass_partition("mass:[0.6666666666666666,0.3333333333333333]")
    gaps = []
    for base, m_s in ((11000, 1000), (12000, 10000), (13000, 100000)):
        p1s = []
        for s in range(200):
            mix = generate_mixture(u, W, 100, m_s, rng=np.random.default_rng(base + s))
            est = estimate_partition_finite(degree_spectrum(mix.graph))
            p1s.append(est.weights[0])
        gaps.append(abs(float(np.mean(p1s)) - 2.0 / 3.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.005


MODES = ("auto", "finite", "infinite")


def estimate_outcome(g, mode):
    """Everything an estimate reports, or the error message."""
    try:
        est = estimate_partition(degree_spectrum(g), mode=mode)
    except ValueError as exc:
        return str(exc)
    diag = est.diagnostics
    diag = diag.tolist() if isinstance(diag, np.ndarray) else diag
    return est.mode, est.k_hat, est.weights.tolist(), diag


@st.composite
def star_mixtures(draw):
    """A G(n, p) dense part joined to a drawn star forest, with its seed."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_d = draw(st.integers(2, 40))
    upper = np.triu(rng.random((n_d, n_d)) < draw(st.sampled_from([0.1, 0.5])), 1)
    dense = Graph(n_d, np.argwhere(upper))
    sizes = draw(st.lists(st.integers(1, 300), min_size=1, max_size=6))
    sparse, _ = star_forest(sizes, draw(st.integers(0, 30)))
    assume(dense.edge_count <= n_d * sparse.node_count)  # room for the cross edges
    return join_graphs(dense, sparse, rng=rng).graph, rng


@given(star_mixtures(), st.integers(1, 20))
def test_estimates_ignore_node_labels_and_isolated_nodes(case, extra):
    g, rng = case
    relabeled = Graph(g.node_count, rng.permutation(g.node_count)[g.edges])
    padded = Graph(g.node_count + extra, g.edges)
    for mode in MODES:
        want = estimate_outcome(g, mode)
        assert estimate_outcome(relabeled, mode) == want
        assert estimate_outcome(padded, mode) == want


@given(st.lists(st.integers(0, 10**6), min_size=12, max_size=120), st.sampled_from(MODES))
def test_successful_estimates_are_partitions(degs, mode):
    try:
        est = estimate_partition(DegreeSpectrum(degs), mode=mode)
    except ValueError:
        return
    w = est.weights
    assert est.k_hat == w.size >= 1
    assert np.all(w > 0) and np.all(np.diff(w) <= 0)
    assert abs(w.sum() - 1.0) <= 1e-9


@given(st.data())
def test_forecast_with_unchanged_node_count_returns_train_top_k(data):
    n = data.draw(st.integers(1, 40))
    degrees = st.lists(st.integers(0, 10**6), min_size=n, max_size=n)
    train, test, k = data.draw(degrees), data.draw(degrees), data.draw(st.integers(1, n))
    actual, prop, base = forecast_top_k(DegreeSpectrum(train), DegreeSpectrum(test), k)
    want = sorted(train, reverse=True)[:k]
    assert prop.tolist() == want and base.tolist() == want
    assert actual.tolist() == sorted(test, reverse=True)[:k]

