"""Graphon kernels: the constructor check, pointwise and broadcast
evaluation, literal parsing, and W-random sampling."""

import math

import numpy as np
import pytest

from graphmix import (
    Graphon,
    edge_density,
    parse_graphon,
    sample_w_random_graph,
)


def test_parse_graphon_kinds():
    # each literal family maps to the right kernel values
    x = np.array([0.1, 0.5, 0.9])
    np.testing.assert_array_equal(parse_graphon("exp_sum")(x, x[::-1]), np.exp(-1.0))
    np.testing.assert_array_equal(parse_graphon("const:0.1")(x, 0.2), [0.1, 0.1, 0.1])
    np.testing.assert_array_equal(parse_graphon("mass:[0.5,0.3]")(x, [0.2, 0.6, 0.1]), [1, 1, 0])
    assert parse_graphon(" const:0.25 ").name == "const:0.25"
    for bad in ("const:1.5", "const:-0.1", "const:nan", "const:x", "wavelet", "power:1.2:0:5"):
        with pytest.raises(ValueError, match="graphon literal"):
            parse_graphon(bad)


def test_analytic_validation():
    # every kernel, built-in or not, passes the same constructor check
    with pytest.raises(ValueError, match="symmetric"):
        Graphon("asym", lambda x, y: np.asarray(x, dtype=np.float64) * 0 + np.asarray(y) * 0.5)
    with pytest.raises(ValueError, match="leaves"):
        Graphon("overflow", lambda x, y: np.asarray(x, dtype=np.float64) + y)
    with pytest.raises(ValueError, match="leaves"):
        Graphon("nan", lambda x, y: np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), np.nan))
    with pytest.raises(ValueError, match="broadcast"):
        Graphon("scalar", lambda x, y: 0.5)
    w = Graphon("product", lambda x, y: np.asarray(x, dtype=np.float64) * y)
    assert w(0.5, 0.5) == 0.25 and repr(w) == "Graphon(product)"


def test_exp_sum_symmetry():
    w = parse_graphon("exp_sum")
    rng = np.random.default_rng(30)
    x, y = rng.random(1000), rng.random(1000)
    assert np.max(np.abs(w(x, y) - w(y, x))) == 0.0


def test_constant_extremes():
    w0 = parse_graphon("const:0")
    for s in range(5):
        assert sample_w_random_graph(w0, 5, np.random.default_rng(s)).edge_count == 0
    w1 = parse_graphon("const:1")
    for s in range(5):
        g = sample_w_random_graph(w1, 4, np.random.default_rng(s))
        assert g.edge_count == 6


def test_constant_edge_count_binomial():
    # E = 0.1 * C(400,2) = 7980, single-draw sigma ~ 84.7
    w = parse_graphon("const:0.1")
    counts = [
        sample_w_random_graph(w, 400, np.random.default_rng(70000 + s)).edge_count
        for s in range(100)
    ]
    se = math.sqrt(79800 * 0.1 * 0.9) / 10.0
    assert abs(np.mean(counts) - 7980.0) < 3 * se


def test_empirical_density_tracks_constant():
    c = 0.3
    w = parse_graphon("const:0.3")
    sigma = 2.0 * math.sqrt(79800 * c * (1 - c)) / 400 ** 2
    for s in range(50):
        g = sample_w_random_graph(w, 400, np.random.default_rng(71000 + s))
        assert abs(edge_density(g) - c) <= 4 * sigma


def test_disjoint_clique_graphon_eval():
    w = parse_graphon("mass:[0.6666666666666666,0.3333333333333333]")
    assert w(0.5, 0.6) == 1.0
    assert w(0.5, 0.8) == 0.0
    assert w(1.0, 1.0) == 1.0  # boundary snaps into the last interval
    w8 = parse_graphon("mass:[0.8]")
    assert w8(0.9, 0.95) == 0.0  # leftover region
    w1 = parse_graphon("mass:[1.0]")
    assert w1(0.2, 0.9) == 1.0


def test_disjoint_clique_graphon_grid_symmetric_binary():
    w = parse_graphon("mass:[0.5,0.3]")
    xs = np.linspace(0.0, 1.0, 41)
    mat = w(xs[:, None], xs[None, :])
    assert np.array_equal(mat, mat.T)
    assert set(np.unique(mat)) <= {0.0, 1.0}


@pytest.mark.parametrize(
    "w",
    [
        pytest.param(parse_graphon("const:0.3"), id="constant"),
        pytest.param(parse_graphon("exp_sum"), id="analytic"),
        pytest.param(parse_graphon("mass:[0.5,0.3]"), id="disjoint_clique"),
    ],
)
def test_prob_matrix_matches_pointwise_evaluation(w):
    # the broadcast (x_i, y_j) matrix the sampler uses equals pointwise values
    xs = np.concatenate([[0.0, 1.0], np.random.default_rng(2).random(9)])
    ys = np.concatenate([[1.0, 0.5], np.random.default_rng(3).random(6)])
    mat = w(xs[:, None], ys[None, :])
    assert mat.shape == (xs.size, ys.size) and mat.dtype == np.float64
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert mat[i, j] == float(w(x, y))


def test_sample_with_partition_graphon_matches_direct_sampler():
    # W-random sampling from a disjoint-clique kernel yields disjoint cliques
    from graphmix import decompose_disjoint_cliques

    w = parse_graphon("mass:[0.6,0.4]")
    g = sample_w_random_graph(w, 60, np.random.default_rng(31))
    dec = decompose_disjoint_cliques(g)
    assert sum(dec.clique_sizes) + dec.isolated_count == 60
