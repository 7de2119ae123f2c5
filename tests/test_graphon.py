"""Graphon kernels: the constructor check, pointwise and broadcast
evaluation, literal parsing, and W-random sampling."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphmix import graphon
from graphmix import (
    Graphon,
    edge_density,
    make_mass_partition,
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
    with pytest.raises(ValueError, match="n must be >= 1"):
        sample_w_random_graph(w1, 0, np.random.default_rng(0))


def test_constant_edge_count_binomial():
    # E = 0.1 * C(400,2) = 7980, single-draw sigma ~ 84.7
    w = parse_graphon("const:0.1")
    counts = [
        sample_w_random_graph(w, 400, np.random.default_rng(70000 + s)).edge_count
        for s in range(100)
    ]
    se = math.sqrt(79800 * 0.1 * 0.9) / 10.0
    assert abs(np.mean(counts) - 7980.0) < 3 * se


@given(st.integers(2, 80), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_constant_kernel_edge_count_is_binomial(n, p, seed):
    # const:p joins each of the C(n, 2) pairs independently with probability p
    w = parse_graphon(f"const:{p!r}")
    m = sample_w_random_graph(w, n, np.random.default_rng(seed)).edge_count
    pairs = n * (n - 1) // 2
    # Bernstein's inequality: a binomial count leaves this band with probability below 1e-9
    k = math.log(2e9)
    assert abs(m - pairs * p) <= k / 3 + math.sqrt(k * k / 9 + 2 * k * pairs * p * (1 - p))


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


def full_matrix_sample(w, n, rng):
    """The W-random graph from one n x n draw: row i, column j > i decides pair (i, j)."""
    xs = rng.random(n)
    hit = rng.random((n, n)) < w(xs[:, None], xs[None, :])
    return np.argwhere(np.triu(hit, 1))


@pytest.mark.parametrize("block", [1, 7, 128, 512])
@pytest.mark.parametrize("literal", ["const:0.3", "exp_sum", "mass:[0.5,0.3]"])
@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 3 * 128 + 5])
def test_block_sampler_matches_full_matrix(monkeypatch, block, literal, n):
    # whole rows are drawn in order, so the edges and the stream left behind
    # do not depend on the block size
    monkeypatch.setattr(graphon, "_BLOCK", block)
    w = parse_graphon(literal)
    rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    g = sample_w_random_graph(w, n, rng)
    np.testing.assert_array_equal(g.edges, full_matrix_sample(w, n, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_exp_sum_sample_is_pinned():
    # a sample spanning many row blocks at the default block size
    g = sample_w_random_graph(parse_graphon("exp_sum"), 1500, np.random.default_rng(0))
    digest = hashlib.sha256(g.edges.tobytes()).hexdigest()
    assert digest == "a0b0d7bcfcd05e866210ee35445d13a3132db5e5e6b687fbfbddb5de4dd05df5"


def test_sample_with_partition_graphon_matches_direct_sampler():
    # W-random sampling from a disjoint-clique kernel yields disjoint cliques
    from graphmix import decompose_disjoint_cliques

    w = parse_graphon("mass:[0.6,0.4]")
    g = sample_w_random_graph(w, 60, np.random.default_rng(31))
    dec = decompose_disjoint_cliques(g)
    assert sum(dec.clique_sizes) + dec.isolated_count == 60


@given(
    st.integers(0, 2**32 - 1),
    st.tuples(st.integers(0, 16), st.integers(0, 16)),
    st.sampled_from([0.0, 1e-13, 1e-11, 0.5, 1.0]),
    st.sampled_from([-0.5, -1e-11, -1e-13, 1.0 + 1e-13, 1.0 + 1e-11, 1.5, None]),
    st.sampled_from([0.0, 1e-10, 1e-8, 0.25]),
)
def test_constructor_checks_range_then_symmetry_on_the_grid(seed, at, corner, out, skew):
    # a lookup table on the 17 x 17 grid, symmetric but for one skewed
    # entry, holding one value that may leave [0, 1]
    table = np.random.default_rng(seed).random((17, 17))
    table = (table + table.T) / 2
    table[0, 0], table[-1, -1] = corner, 1.0 - corner
    if out is not None:
        table[at[0], at[0]] = out
    table[at] = max(table[at] - skew, 0.0)

    def fn(x, y):
        return table[np.rint(x * 16).astype(int), np.rint(y * 16).astype(int)]

    if not np.all((table >= -1e-12) & (table <= 1 + 1e-12)):
        with pytest.raises(ValueError, match="leaves \\[0,1\\] on the test grid"):
            Graphon("table", fn)
    elif np.max(np.abs(table - table.T)) > 1e-9:
        with pytest.raises(ValueError, match="is not symmetric on the test grid"):
            Graphon("table", fn)
    else:
        grid = np.linspace(0.0, 1.0, 17)
        assert np.array_equal(Graphon("table", fn)(grid[:, None], grid[None, :]), table)


POINTS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))


@given(
    st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8),
    st.floats(0.05, 1.0),
    st.data(),
)
def test_disjoint_clique_kernel_is_same_interval_indicator(raw, mass, data):
    p = make_mass_partition(np.asarray(raw) / sum(raw) * mass)
    # interval ends are the points where off-by-one errors show
    point = st.one_of(POINTS, st.sampled_from(p.boundaries().tolist()))
    x = np.array(data.draw(st.lists(point, min_size=1, max_size=12)))
    y = np.array(data.draw(st.lists(point, min_size=x.size, max_size=x.size)))
    w = Graphon.disjoint_clique(p)
    got = w(x, y)
    ix, iy = p.locate(x), p.locate(y)
    assert np.array_equal(got, (ix == iy) & (ix < len(p)))
    assert np.array_equal(got, w(y, x))
    matrix = w(x[:, None], y[None, :])
    assert np.array_equal(matrix, (ix[:, None] == iy[None, :]) & (ix[:, None] < len(p)))
