"""Mass partitions, clique sampling, and hub-degree moment formulas."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphmix import (
    Graphon,
    MassPartition,
    clique_size_counts,
    decompose_disjoint_cliques,
    expected_hub_degree,
    make_mass_partition,
    parse_mass_partition,
    sample_clique_labels,
    sample_w_random_graph,
)
from graphmix.masspartition import _GUIDE_CELLS, _ONE_BELOW, _TOTAL_TOL


def test_make_mass_partition_basic():
    p = make_mass_partition([0.5, 1 / 3, 1 / 6])
    assert p.weights.tolist() == pytest.approx([0.5, 1 / 3, 1 / 6])
    assert p.total == pytest.approx(1.0)
    assert p.leftover == pytest.approx(0.0, abs=1e-12)
    assert len(p) == 3
    assert p[1] == pytest.approx(1 / 3)


def test_make_mass_partition_sorts_and_drops_zeros():
    p = make_mass_partition([0.1, 0.5, 0.0, 0.2])
    assert p.weights.tolist() == pytest.approx([0.5, 0.2, 0.1])
    assert p.leftover == pytest.approx(0.2)


def test_make_mass_partition_rescale():
    p = make_mass_partition([3.0, 2.0, 1.0], rescale=True)
    assert p.weights.tolist() == pytest.approx([0.5, 1 / 3, 1 / 6])
    assert p.total == pytest.approx(1.0)


def test_make_mass_partition_errors():
    with pytest.raises(ValueError):
        make_mass_partition([])
    with pytest.raises(ValueError):
        make_mass_partition([0.0, 0.0])
    with pytest.raises(ValueError, match="cannot rescale all-zero weights"):
        make_mass_partition([0, 0], rescale=True)
    with pytest.raises(ValueError):
        make_mass_partition([0.8, 0.3])
    with pytest.raises(ValueError):
        make_mass_partition([0.5, -0.1])
    with pytest.raises(ValueError):
        MassPartition(weights=np.array([0.2, 0.3]))
    for weights in ([np.nan, 0.2], [0.5, np.nan], [np.inf]):
        with pytest.raises(ValueError, match="finite"):
            MassPartition(weights=np.array(weights))


def test_parse_power_literal():
    p = parse_mass_partition("power:1.2:2:50")
    js = np.arange(2, 51, dtype=np.float64)
    raw = js ** -1.2
    assert len(p) == 49
    assert p.total == pytest.approx(1.0)
    assert p[0] == pytest.approx(raw[0] / raw.sum())


def test_parse_geom_literal():
    p = parse_mass_partition("geom:1.2:2:50")
    raw = 1.2 ** -np.arange(2, 51, dtype=np.float64)
    assert len(p) == 49
    assert p[0] == pytest.approx(raw[0] / raw.sum())


def test_parse_loglaw_literal():
    p = parse_mass_partition("loglaw:50")
    js = np.arange(2, 51, dtype=np.float64)
    raw = 1.0 / (js * np.log(js))
    assert len(p) == 49
    assert p[0] == pytest.approx(raw[0] / raw.sum())


def test_parse_factorial_literal():
    # 1/j! falls under the 1e-15 construction floor near j=19, so the
    # parsed partition is shorter than jmax-1 but still sums to 1
    p = parse_mass_partition("factorial:50")
    assert p.total == pytest.approx(1.0)
    assert len(p) < 49
    assert p[0] == pytest.approx(0.5 / (math.e - 2), rel=1e-9)


def test_parse_mass_literal_used_as_given():
    p = parse_mass_partition("mass:[0.5,0.3]")
    assert p.total == pytest.approx(0.8)
    assert p.leftover == pytest.approx(0.2)


def test_parse_bad_literals():
    # each bad literal raises one ValueError and no numpy RuntimeWarning
    degenerate = ("power:1.2:0:5", "geom:0:2:5", "geom:0.5:1:5000", "power:-500:1:1000",
                  "mass:[1e308,1e308]")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for text in ("power:1.2:2", "mass:{}", "mass:[2.0]", "nope:3", "", "geom:a:2:5") + degenerate:
            with pytest.raises(ValueError):
                parse_mass_partition(text)
    assert caught == []


@pytest.mark.parametrize(
    "text, reason",
    [
        ("power:1:2", "not enough values to unpack (expected 3, got 2)"),
        ("loglaw:", "invalid literal for int() with base 10: ''"),
        ("geom:x:2:5", "could not convert string to float: 'x'"),
        ("mass:[2.0]", "weights sum to 2.0, must be <= 1"),
    ],
)
def test_bad_literal_errors_name_the_literal(text, reason):
    with pytest.raises(ValueError) as info:
        parse_mass_partition(text)
    assert str(info.value) == f"bad partition literal {text!r}: {reason}"


def test_locate_intervals_and_boundary_snap():
    p = make_mass_partition([0.5, 0.25])
    x = np.array([0.0, 0.25, 0.5, 0.6, 0.75, 0.9, 1.0])
    assert p.locate(x).tolist() == [0, 0, 1, 1, 2, 2, 2]
    full = make_mass_partition([0.5, 0.5])
    assert full.locate(1.0) == 1  # x = 1.0 snaps into the last interval
    # uniforms are < 1, so the snap leaves sampled labels unchanged
    u = np.random.default_rng(5).random(1000)
    labels = sample_clique_labels(full, 1000, np.random.default_rng(5))
    np.testing.assert_array_equal(labels, np.searchsorted(full.boundaries(), u, side="right"))


@pytest.mark.parametrize(
    "text", ["power:1.2:2:50", "mass:[0.5,0.3333333333333333,0.16666666666666666]"]
)
def test_weights_summing_to_one_leave_no_leftover_at_one(text):
    # these cumulative sums end just below 1, where no leftover belongs
    p = parse_mass_partition(text)
    assert p.boundaries()[-1] < 1.0
    assert p.locate(np.array([1.0, p.boundaries()[-1]])).tolist() == [len(p) - 1] * 2
    assert Graphon.disjoint_clique(p)(1.0, 1.0) == 1.0
    # real leftover keeps x = 1.0
    assert parse_mass_partition("mass:[0.8]").locate(1.0) == 1


def locate_by_search(p, x):
    """One binary search per point: the labels locate's guide table must give."""
    ends = p.boundaries()
    if p.total >= 1.0 - _TOTAL_TOL:
        ends[-1] = 1.0
    return np.searchsorted(ends, np.minimum(x, _ONE_BELOW), side="right")


@st.composite
def partitions(draw):
    """Partitions summing to 1 or below, some with ends on guide-cell edges."""
    if draw(st.booleans()):  # multiples of 1/_GUIDE_CELLS: every end is a cell edge
        raw = draw(st.lists(st.integers(1, _GUIDE_CELLS // 4), min_size=1, max_size=4))
        return MassPartition(np.sort(raw)[::-1] / _GUIDE_CELLS)
    raw = draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=60))
    w = np.sort(raw)[::-1]
    return MassPartition(w / w.sum() * draw(st.sampled_from([1.0, 0.999, 0.5, 1e-3])))


SPECIAL_POINTS = [0.0, 1.0, _ONE_BELOW, -0.0, -1e-300, -0.5, -np.inf, 1.5, 1e308, np.inf, np.nan]
CELL_EDGES = np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS  # every coarser table's edges too


@given(
    partitions(),
    st.integers(0, 13),
    st.integers(-1, 1),
    st.sampled_from([(-1,), (-1, 1), (2, -1)]),
    st.integers(0, 2**32 - 1),
)
def test_locate_matches_binary_search(p, bits, off, shape, seed):
    # sizes on both sides of each table size; the points of interest come
    # first, so large inputs hold all of them and small ones the first few
    size = 2**bits + off
    if shape == (2, -1):
        size -= size % 2
    marks = np.concatenate([SPECIAL_POINTS, p.boundaries(), CELL_EDGES])
    marks = np.stack([marks, np.nextafter(marks, -np.inf), np.nextafter(marks, np.inf)], 1).ravel()
    rng = np.random.default_rng(seed)
    x = rng.permutation(np.concatenate([marks, rng.random(size)])[:size]).reshape(shape)
    got = p.locate(x)
    assert got.shape == x.shape and got.dtype == np.intp
    np.testing.assert_array_equal(got, locate_by_search(p, x))


@given(partitions())
def test_locate_of_a_scalar_is_the_binary_search_scalar(p):
    for x in [*SPECIAL_POINTS, *p.boundaries()[:4]]:
        got, want = p.locate(x), locate_by_search(p, x)
        assert type(got) is type(want) and got == want


def test_partitions_compare_by_value():
    assert parse_mass_partition("mass:[0.5,0.5]") == parse_mass_partition("mass:[0.5,0.5]")
    assert parse_mass_partition("mass:[0.5,0.5]") != parse_mass_partition("mass:[0.5,0.4]")
    assert parse_mass_partition("mass:[0.5]") != parse_mass_partition("mass:[0.5,0.5]")
    assert parse_mass_partition("mass:[0.5]") != [0.5]
    with pytest.raises(TypeError):
        hash(parse_mass_partition("mass:[0.5]"))


def test_boundaries_cumulative():
    p = make_mass_partition([0.5, 0.25])
    assert p.boundaries().tolist() == pytest.approx([0.5, 0.75])


def test_sample_clique_labels_binomial():
    # each clique size is Binomial(10000, 0.5); fixed seeds stay inside
    # 4.5 sigma = 225 of the mean
    p = make_mass_partition([0.5, 0.5])
    for s in range(100):
        labels = sample_clique_labels(p, 10000, np.random.default_rng(72000 + s))
        sizes, iso = clique_size_counts(p, labels)
        assert iso == 0
        assert abs(sizes[0] - 5000) < 225
        assert abs(sizes[1] - 5000) < 225


def test_sample_clique_labels_isolated_mass():
    # leftover mass 0.2 -> isolated count Binomial(1000, 0.2), sigma 12.65
    p = make_mass_partition([0.8])
    for s in range(100):
        labels = sample_clique_labels(p, 1000, np.random.default_rng(74000 + s))
        _, iso = clique_size_counts(p, labels)
        assert abs(iso - 200) < 4.5 * 12.65


def test_sample_clique_labels_errors():
    p = make_mass_partition([1.0])
    with pytest.raises(ValueError):
        sample_clique_labels(p, 0, np.random.default_rng(0))


def test_component_fractions_converge():
    p = make_mass_partition([2 / 3, 1 / 3])
    labels = sample_clique_labels(p, 50000, np.random.default_rng(73000))
    sizes, _ = clique_size_counts(p, labels)
    frac = np.sort(sizes / 50000.0)[::-1]
    assert np.max(np.abs(frac - p.weights)) < 0.02


def test_sample_disjoint_clique_graph_full_mass():
    w = Graphon.disjoint_clique(make_mass_partition([1.0]))
    g = sample_w_random_graph(w, 5, np.random.default_rng(0))
    assert g.edge_count == 10  # K5


def test_sample_then_decompose_never_errors():
    # the W-random graph of a disjoint-clique kernel is disjoint cliques
    rng = np.random.default_rng(21)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        w = np.sort(rng.random(k))[::-1]
        w = w / w.sum() * rng.uniform(0.5, 1.0)
        p = make_mass_partition(w)
        g = sample_w_random_graph(Graphon.disjoint_clique(p), int(rng.integers(1, 200)), rng)
        dec = decompose_disjoint_cliques(g)
        assert sum(dec.clique_sizes) + dec.isolated_count == g.node_count


def test_expected_hub_degree_formula():
    mean, var = expected_hub_degree(0.5, 1000, 0, 10)
    assert (mean, var) == (500.0, 250.0)
    mean, var = expected_hub_degree(1.0, 1000, 0, 10)
    assert var == 0.0
    mean, _ = expected_hub_degree(2 / 3, 3000, 300, 3000)
    assert mean == pytest.approx(2000.1)


def test_expected_hub_degree_errors():
    with pytest.raises(ValueError):
        expected_hub_degree(0.0, 100, 0, 10)
    with pytest.raises(ValueError):
        expected_hub_degree(0.5, 0, 0, 10)
    with pytest.raises(ValueError):
        expected_hub_degree(0.5, 100, -1, 10)


@given(
    st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8),
    st.floats(0.05, 1.0),
    st.integers(1, 5000),
    st.integers(0, 2**32 - 1),
)
def test_clique_counts_conserve_m(raw, mass, m, seed):
    w = np.sort(raw)[::-1]
    p = MassPartition(w / w.sum() * mass)
    sizes, isolated = clique_size_counts(p, sample_clique_labels(p, m, np.random.default_rng(seed)))
    assert sizes.shape == (len(p),) and sizes.min() >= 0 and isolated >= 0
    assert int(sizes.sum()) + isolated == m



J_MIN, J_MAX = st.integers(-2, 40), st.integers(-2, 120)
FAMILY_LITERALS = st.one_of(
    st.builds("power:{}:{}:{}".format, st.floats(-3.0, 6.0), J_MIN, J_MAX),
    st.builds("geom:{}:{}:{}".format, st.floats(-1.0, 4.0), J_MIN, J_MAX),
    st.builds("loglaw:{}".format, st.integers(-2, 400)),
    st.builds("factorial:{}".format, st.integers(-2, 400)),
)


@given(FAMILY_LITERALS)
def test_family_literals_give_normalized_weights_or_name_the_literal(text):
    try:
        p = parse_mass_partition(text)
    except ValueError as exc:
        assert str(exc).startswith(f"bad partition literal {text!r}: ")
        return
    w = p.weights
    assert w.size >= 1 and np.all(w > 0) and np.all(np.diff(w) <= 0)
    assert abs(w.sum() - 1.0) <= 1e-12


@given(st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=30))
def test_mass_literal_keeps_its_weights(raw):
    total = math.fsum(raw)
    weights = [x / total for x in raw] if total > 1 else raw
    p = parse_mass_partition("mass:" + json.dumps(weights))
    assert p.weights.tolist() == sorted(weights, reverse=True)
