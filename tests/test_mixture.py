"""Mixture generation, joining rules, coupled sequences, and schedules."""

import copy
import hashlib
import math
import pickle
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from graphmix import (
    CapacityError,
    Graph,
    JoinConfig,
    MixtureSequence,
    NodeOrigin,
    RatioSchedule,
    density_trajectory,
    edge_density,
    expected_hub_degree,
    generate_mixture,
    join_graphs,
    parse_graphon,
    parse_mass_partition,
    star_forest,
)
from graphmix import mixture
from graphmix.masspartition import clique_size_counts
from graphmix.mixture import _joined_edges, _sample_cross_pairs, _sparse_part_from_labels

U23 = parse_mass_partition("mass:[0.6666666666666666,0.3333333333333333]")
W = parse_graphon("exp_sum")


def fixed_dense(n=50, m=100, seed=0):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < m:
        a, b = rng.integers(0, n, 2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph(n, sorted(edges))


def test_join_config_validation():
    for c in (-0.1, math.inf, math.nan, True, False):
        with pytest.raises(ValueError, match="finite number >= 0"):
            JoinConfig(edge_multiplier_c=c)


def test_join_zero_c_is_disjoint_union():
    g_d = fixed_dense()
    g_s, _ = star_forest([4, 2])
    mix = join_graphs(g_d, g_s, JoinConfig(edge_multiplier_c=0.0))
    assert mix.m_new == 0
    assert mix.graph.edge_count == g_d.edge_count + g_s.edge_count
    assert mix.graph.node_count == g_d.node_count + g_s.node_count


def test_bare_join_tags_k11_star_as_isolated_edge():
    # a bare graph cannot tell K_{1,1} from an isolated edge; both derive as isolated
    g_s, _ = star_forest([1])
    mix = join_graphs(fixed_dense(), g_s, JoinConfig(edge_multiplier_c=0.0))
    assert mix.node_origin[mix.n_dense :].tolist() == [NodeOrigin.SPARSE_ISOLATED] * 2
    assert mix.hubs == {}


def test_bare_join_derives_hubs_by_size_then_smallest_node():
    forest, _ = star_forest([2, 4, 4], isolated_edges=1)  # hubs 0, 3, 8; edge 13-14
    n = forest.node_count
    path = [(n, n + 1), (n + 1, n + 2), (n + 2, n + 3)]  # hub tie: n+1 vs n+2
    g_s = Graph(n + 4, forest.edges.tolist() + path)
    mix = join_graphs(fixed_dense(), g_s, JoinConfig(edge_multiplier_c=0.0))
    sparse = mix.node_origin[mix.n_dense :]
    assert {j: v - mix.n_dense for j, v in mix.hubs.items()} == {0: 3, 1: 8, 2: n + 1, 3: 0}
    assert np.flatnonzero(sparse == NodeOrigin.SPARSE_ISOLATED).tolist() == [13, 14]
    assert np.flatnonzero(sparse == NodeOrigin.SPARSE_HUB).tolist() == [0, 3, 8, n + 1]


def test_join_adds_exact_cross_edges():
    g_d = fixed_dense(n=10, m=20, seed=1)
    g_s, _ = star_forest([99])  # 100 sparse nodes
    mix = join_graphs(g_d, g_s, JoinConfig(edge_multiplier_c=0.5), np.random.default_rng(2))
    assert mix.m_new == 10
    cross = [
        (u, v)
        for u, v in mix.graph.edges
        if (u < 10) != (v < 10)
    ]
    assert len(cross) == 10


def test_join_requires_rng_when_adding_edges():
    g_d = fixed_dense(n=10, m=20, seed=1)
    g_s, _ = star_forest([5])
    with pytest.raises(ValueError):
        join_graphs(g_d, g_s, JoinConfig(edge_multiplier_c=1.0))


def test_join_requires_nodes_in_both_parts():
    g_s, _ = star_forest([5])
    for g_d, g_s in ((Graph(0), g_s), (g_s, Graph(0))):
        with pytest.raises(ValueError, match="both parts need at least one node"):
            join_graphs(g_d, g_s, JoinConfig(edge_multiplier_c=0.0))


def test_join_capacity_error():
    g_d = Graph(2, [(0, 1)])
    g_s, _ = star_forest([1])
    with pytest.raises(CapacityError):
        join_graphs(g_d, g_s, JoinConfig(edge_multiplier_c=10.0), np.random.default_rng(0))


@pytest.mark.parametrize("c, fits", [(4.4, True), (4.5, False), (1e308, False)])
def test_join_capacity_follows_the_rounded_count(c, fits):
    # 2 x 2 pair grid: round(4.4) = 4 fits, round(4.5) = 5 does not, and
    # c * m_dense = inf is refused before rounding, without a draw
    g_d = Graph(2, [(0, 1)])
    g_s, _ = star_forest([1])
    rng = np.random.default_rng(0)
    if fits:
        assert join_graphs(g_d, g_s, JoinConfig(edge_multiplier_c=c), rng).m_new == 4
        return
    state = rng.bit_generator.state
    with pytest.raises(CapacityError, match="between 2 x 2 nodes"):
        join_graphs(g_d, g_s, JoinConfig(edge_multiplier_c=c), rng)
    assert rng.bit_generator.state == state


@st.composite
def grids_with_taken(draw):
    """(n_d, n_s, taken pairs, free pairs) for a partly filled pair grid."""
    n_d, n_s = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cells = st.tuples(st.integers(0, n_d - 1), st.integers(0, n_s - 1))
    pairs = draw(st.sets(cells, min_size=1))
    taken = np.asarray(draw(st.permutations(sorted(pairs))), dtype=np.int64).reshape(-1, 2)
    return n_d, n_s, taken, n_d * n_s - len(taken)


@given(grids_with_taken(), st.data())
def test_cross_pairs_avoid_taken(grid, data):
    n_d, n_s, taken, free = grid
    m_new = data.draw(st.integers(0, free))
    pairs = _sample_cross_pairs(n_d, n_s, m_new, np.random.default_rng(len(taken)), taken)
    assert pairs.shape == (m_new, 2)
    assert np.all((pairs >= 0) & (pairs < (n_d, n_s)))
    new = set(map(tuple, pairs.tolist()))
    assert len(new) == m_new
    assert not new & set(map(tuple, taken.tolist()))


def test_cross_pairs_find_the_last_free_pair():
    # the draw budget grows with the fill, so one free pair of 64 is always found
    taken = np.argwhere(np.ones((8, 8), dtype=bool))[:63]
    for seed in range(200):
        pairs = _sample_cross_pairs(8, 8, 1, np.random.default_rng(seed), taken)
        assert pairs.tolist() == [[7, 7]]


@given(grids_with_taken(), st.integers(1, 20))
def test_cross_pairs_beyond_free_capacity_raise_without_drawing(grid, excess):
    n_d, n_s, taken, free = grid
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(CapacityError, match=f"cannot place {free + excess} "):
        _sample_cross_pairs(n_d, n_s, free + excess, rng, taken)
    assert rng.bit_generator.state == state


class ZeroRng:
    """Draws 0 every time, so only the pair (0, 0) is ever placed."""

    def integers(self, low, high, size):
        return np.zeros(size, dtype=np.int64)


def test_cross_pairs_give_up_when_draws_keep_colliding():
    # budget 100 * m_new * grid / (free - m_new + 1) = 100 * 2 * 4 // 3
    msg = r"^cross-edge sampling exhausted 266 draws with 1/2 placed$"
    with pytest.raises(CapacityError, match=msg):
        _sample_cross_pairs(2, 2, 2, ZeroRng())


def concat_and_sort_cross_pairs(n_d, n_s, m_new, rng, taken):
    """The same draws, with every code re-sorted after each batch; None
    when the draw budget runs out."""
    taken = taken[:, 0] * n_s + taken[:, 1]
    budget = mixture.COLLISION_RETRIES * m_new * (n_d * n_s) // (n_d * n_s - taken.size - m_new + 1)
    goal, codes, attempts = taken.size + m_new, taken, 0
    while codes.size < goal:
        if attempts >= budget:
            return None
        batch = min(goal - codes.size, budget - attempts)
        d, s = rng.integers(0, n_d, batch), rng.integers(0, n_s, batch)
        attempts += batch
        codes = np.unique(np.concatenate([codes, d * n_s + s]))
    codes = np.setdiff1d(codes, taken)
    return np.column_stack([codes // n_s, codes % n_s])


@given(grids_with_taken(), st.booleans(), st.data())
def test_cross_pairs_match_concat_and_sort(grid, drop_taken, data):
    # grids of at most 12 x 12 filled close to the top force retries; taken is unsorted
    n_d, n_s, taken, free = grid
    if drop_taken:
        taken, free = taken[:0], n_d * n_s
    m_new = data.draw(st.integers(1, free)) if free else 0
    rng, ref_rng = (np.random.default_rng(n_d * n_s + m_new) for _ in range(2))
    want = concat_and_sort_cross_pairs(n_d, n_s, m_new, ref_rng, taken) if m_new else None
    if m_new and want is None:
        with pytest.raises(CapacityError, match="exhausted"):
            _sample_cross_pairs(n_d, n_s, m_new, rng, taken)
    else:
        pairs = _sample_cross_pairs(n_d, n_s, m_new, rng, taken)
        np.testing.assert_array_equal(pairs, np.empty((0, 2)) if want is None else want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@st.composite
def join_inputs(draw, fitting=True):
    """A dense graph, a star forest and a multiplier c; with fitting, one
    that leaves room for the cross edges."""
    n_d = draw(st.integers(1, 12))
    pairs = [(a, b) for a in range(n_d) for b in range(a + 1, n_d)]
    dense = Graph(n_d, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    sparse, _ = star_forest(draw(st.lists(st.integers(1, 6), max_size=4)), draw(st.integers(0, 3)))
    assume(sparse.node_count > 0)
    if not fitting:  # c = 50 overfills most pair grids
        return dense, sparse, draw(st.sampled_from([0.0, 1.0, 50.0]))
    c = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    assume(math.floor(c * dense.edge_count + 0.5) <= n_d * sparse.node_count)
    return dense, sparse, c


@given(join_inputs(), st.integers(0, 2**32 - 1))
def test_join_conserves_parts_and_adds_m_new_cross_edges(parts, seed):
    g_d, g_s, c = parts
    mix = join_graphs(g_d, g_s, JoinConfig(edge_multiplier_c=c), np.random.default_rng(seed))
    n_d = g_d.node_count
    assert mix.graph.node_count == n_d + g_s.node_count
    assert mix.graph.edge_count == g_d.edge_count + g_s.edge_count + mix.m_new
    assert mix.m_new == math.floor(c * g_d.edge_count + 0.5)
    e = mix.graph.edges  # canonical rows: lo < hi
    dense, sparse = e[e[:, 1] < n_d], e[e[:, 0] >= n_d]
    cross = e[(e[:, 0] < n_d) & (e[:, 1] >= n_d)]
    assert np.array_equal(dense, g_d.edges)
    assert np.array_equal(sparse - n_d, g_s.edges)
    assert cross.shape == (mix.m_new, 2)
    assert len({tuple(r) for r in cross.tolist()}) == mix.m_new


@given(join_inputs(), st.integers(0, 2**32 - 1))
def test_join_edges_match_concatenate_then_canonicalize(parts, seed):
    g_d, g_s, c = parts
    mix = join_graphs(g_d, g_s, JoinConfig(edge_multiplier_c=c), np.random.default_rng(seed))
    # the construction before the join merged sorted blocks, kept as the reference
    n_d, n_s = g_d.node_count, g_s.node_count
    cross = _sample_cross_pairs(n_d, n_s, mix.m_new, np.random.default_rng(seed))
    want = Graph(n_d + n_s, np.concatenate([g_d.edges, g_s.edges + n_d, cross + (0, n_d)]))
    assert np.array_equal(mix.graph.edges, want.edges)


@st.composite
def mixture_draws(draw):
    """(build, fits): build makes a mixture by generate_mixture, a bare
    join_graphs call or a MixtureSequence member.  fits says whether the
    bare join's cross edges fit its n_d x n_s pair grid, and is None for
    the other two, whose dense edge count comes from the draw.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["generate", "bare", "member"]))
    if kind == "bare":
        g_d, g_s, c = draw(join_inputs(fitting=False))
        fits = math.floor(c * g_d.edge_count + 0.5) <= g_d.node_count * g_s.node_count
        return (lambda: join_graphs(g_d, g_s, JoinConfig(c), np.random.default_rng(seed))), fits
    cfg = JoinConfig(draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])))
    if kind == "generate":
        n_d, m_s = draw(st.integers(1, 30)), draw(st.integers(1, 60))
        return (lambda: generate_mixture(U23, W, n_d, m_s, cfg, np.random.default_rng(seed))), None
    sizes = draw(growing_sizes())
    i = draw(st.integers(0, len(sizes) - 1))
    return (lambda: MixtureSequence(U23, W, sizes, cfg, seed).member(i)), None


@given(mixture_draws())
def test_mixture_blocks_agree_with_the_joined_graph(drawn):
    build, fits = drawn
    try:
        mix = build()
    except CapacityError:
        assert not fits  # raised by the join itself, never by reading .graph
        return
    assert fits is not False
    g = mix.graph
    assert mix.graph is g
    deg = g.degrees()
    assert not deg.flags.writeable
    # degrees summed from the blocks, against degrees counted from the rows
    assert np.array_equal(deg, np.bincount(g.edges.ravel(), minlength=g.node_count))
    assert g.node_count == mix.n_dense + mix.n_sparse == mix.node_origin.size
    assert g.edge_count == mix.m_dense + mix.m_sparse + mix.m_new
    assert (mix.n_dense, mix.m_dense) == (mix.dense.node_count, mix.dense.edge_count)
    assert (mix.n_sparse, mix.m_sparse) == (mix.sparse.node_count, mix.sparse.edge_count)
    assert int(deg.sum()) == 2 * g.edge_count


@given(mixture_draws())
def test_joined_degrees_build_no_edge_table(drawn):
    build, _ = drawn
    try:
        mix = build()
    except CapacityError:
        return
    # a bare join derives its tags from the sparse rows, so builds them itself
    sparse_built = mix.sparse._edges is not None
    deg = mix.graph.degrees()
    assert mix.graph._edges is None
    assert (mix.sparse._edges is not None) == sparse_built
    assert np.array_equal(deg, np.bincount(mix.graph.edges.ravel(), minlength=deg.size))


@pytest.mark.parametrize("degrees_first", [False, True])
def test_a_built_joined_graph_holds_no_block(degrees_first):
    # generate writes a graph after dropping its mixture: once the rows are
    # built, the blocks must go with the functions that read them
    mix = generate_mixture(U23, W, 20, 80, rng=np.random.default_rng(3))
    g, cross = mix.graph, weakref.ref(mix.cross)
    del mix
    if degrees_first:
        g.degrees()
    assert cross() is not None and callable(g._rows)
    g.edges
    assert g._rows is None
    assert isinstance(g._degrees, np.ndarray) if degrees_first else g._degrees is None
    assert cross() is None
    assert np.array_equal(g.degrees(), np.bincount(g.edges.ravel(), minlength=g.node_count))


def test_joined_graph_pickles_and_copies_before_and_after_its_rows():
    def draw():
        return generate_mixture(U23, W, 20, 80, rng=np.random.default_rng(3)).graph

    g, want = draw(), draw()
    copies = [pickle.loads(pickle.dumps(g)), copy.deepcopy(g)]
    assert g._edges is None and all(back._edges is None for back in copies)
    g.edges
    copies += [pickle.loads(pickle.dumps(g)), copy.deepcopy(g)]
    for back in copies:
        # degrees first, so an unbuilt copy sums them with its own function
        assert np.array_equal(back.degrees(), want.degrees())
        assert back == want


def test_cross_pair_codes_beyond_int64_raise_without_drawing():
    # codes d * n_s + s of a 2**32 x 2**33 grid would wrap around int64
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(CapacityError, match="^4294967296 x 8589934592 cross pairs do not fit"):
        _sample_cross_pairs(2**32, 2**33, 6, rng)
    assert rng.bit_generator.state == state


def test_join_beyond_int64_pair_codes_raises_before_tagging_nodes(monkeypatch):
    # tagging the 3 * 2**32 nodes would take gigabytes; the join must refuse first
    monkeypatch.setattr(mixture, "_derive_sparse_meta", lambda g_s: pytest.fail("nodes tagged"))
    with pytest.raises(CapacityError, match="cross pairs do not fit int64 pair codes$"):
        join_graphs(Graph(2**32, [(0, 1)]), Graph(2**33, [(0, 1)]), rng=np.random.default_rng(0))


def test_joined_edges_beyond_int64_pair_keys():
    # n * n overflows int64, and so would the key of the last dense edge; a
    # whole join this size would tag 3.1e9 nodes, so the edge merge is tested
    n_d = 3_100_000_000
    dense = Graph(n_d, [[5, 6], [3_099_999_998, 3_099_999_999]])
    sparse = star_forest([2])[0]
    cross = _sample_cross_pairs(n_d, 3, 2, np.random.default_rng(1))
    rows = _joined_edges(dense, sparse, cross)
    want = Graph(n_d + 3, np.concatenate([dense.edges, sparse.edges + n_d, cross + (0, n_d)]))
    assert Graph(n_d + 3, rows) == want


def sparse_star_sizes(mix):
    """Sparse-side degree of every hub, by partition index."""
    e = mix.graph.edges
    sparse_deg = np.bincount(e[e[:, 0] >= mix.n_dense].ravel(), minlength=mix.graph.node_count)
    return {j: int(sparse_deg[hub]) for j, hub in mix.hubs.items()}


@st.composite
def growing_sizes(draw):
    steps = draw(st.integers(2, 3))
    n_d = sorted(draw(st.lists(st.integers(1, 40), min_size=steps, max_size=steps)))
    # m_s >= n_d leaves room for c * m_dense <= n_d^2 / 2 cross edges
    m_s = sorted(draw(st.lists(st.integers(40, 150), min_size=steps, max_size=steps)))
    return list(zip(n_d, m_s))


@given(growing_sizes(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1.0]))
def test_sequence_members_nest_property(sizes, seed, c):
    seq = MixtureSequence(U23, W, sizes, cfg=JoinConfig(edge_multiplier_c=c), seed=seed)
    members = list(seq)
    for a, b in zip(members, members[1:]):
        n = a.n_dense
        ea, eb = a.graph.edges, b.graph.edges
        # dense edges: member a's are exactly member b's among a's dense nodes
        assert np.array_equal(ea[ea[:, 1] < n], eb[eb[:, 1] < n])
        # clique labels are a prefix: realized cliques and their sizes only grow
        size_a, size_b = sparse_star_sizes(a), sparse_star_sizes(b)
        assert set(size_a) <= set(size_b)
        assert all(size_a[j] <= size_b[j] for j in size_a)
        isolated = [np.sum(x.node_origin == NodeOrigin.SPARSE_ISOLATED) for x in (a, b)]
        assert isolated[0] <= isolated[1]


@given(
    st.lists(st.tuples(st.integers(1, 60), st.integers(1, 40)), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_members_cut_the_dense_sample_like_a_boolean_mask(sizes, seed):
    # any order of sizes: the largest member keeps every row, others drop some
    seq = MixtureSequence(U23, W, sizes, cfg=JoinConfig(0.0), seed=seed)
    full = seq._dense_full.edges
    for i, (n_d, _) in enumerate(sizes):
        dense = seq.member(i).dense
        assert dense == Graph(n_d, full[full[:, 1] < n_d])
        assert not dense.edges.flags.writeable


def test_mixture_graphs_compare_by_value():
    u, w = parse_mass_partition("mass:[0.5,0.5]"), parse_graphon("const:0.2")
    a, b, c = (
        generate_mixture(u, w, 20, 50, rng=np.random.default_rng(seed)) for seed in (1, 1, 2)
    )
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != a.graph
    with pytest.raises(TypeError):
        hash(a)


def test_suite_paths_leave_the_star_forest_unbuilt():
    mix = generate_mixture(U23, W, 60, 400, rng=np.random.default_rng(24))
    member = MixtureSequence(U23, W, [(30, 150), (60, 400)], seed=24).member(0)
    digests = {}
    for name, m in (("mixture", mix), ("member", member)):
        deg = m.graph.degrees()
        assert m.sparse._edges is None  # the sparse degrees came from the star sizes
        assert np.array_equal(deg, np.bincount(m.graph.edges.ravel(), minlength=deg.size))
        assert m.sparse._edges is not None
        digests[name] = hashlib.sha256(m.graph.edges.tobytes()).hexdigest()
    # taken before star forests deferred their rows
    assert digests == {
        "mixture": "ca78d819d7981c1f1e29d324d6a3802bd07890a20efaa0efaaf6da0459848582",
        "member": "252c877b69761c87d3bb5bb5a419b6b35e6bfbee9b74e3905b17db31b9ecd9ac",
    }


def test_mixture_with_a_deferred_sparse_part_pickles_and_copies():
    mix = generate_mixture(U23, W, 20, 80, rng=np.random.default_rng(3))
    # both copies are taken before a comparison builds mix's sparse table
    copies = [pickle.loads(pickle.dumps(mix)), copy.deepcopy(mix)]
    for back in copies:
        assert back.sparse._edges is None
        assert back == mix and back.graph == mix.graph
        assert np.array_equal(back.graph.degrees(), mix.graph.degrees())


def sparse_part_by_loops(u, labels):
    """The per-clique loop _sparse_part_from_labels replaced."""
    counts, isolated = clique_size_counts(u, labels)
    realized = np.flatnonzero(counts)
    g_s, hub_nodes = star_forest(counts[realized], isolated_edges=isolated)
    origin = np.full(g_s.node_count, NodeOrigin.SPARSE_LEAF, dtype=np.int8)
    hubs = {}
    for hub, j in zip(hub_nodes, realized):
        origin[hub] = NodeOrigin.SPARSE_HUB
        hubs[int(j)] = int(hub)
    tail = int(counts[realized].sum()) + realized.size
    origin[tail:] = NodeOrigin.SPARSE_ISOLATED
    return g_s, origin, hubs


U4 = parse_mass_partition("mass:[0.4,0.3,0.2,0.05]")


@given(st.lists(st.integers(0, len(U4)), min_size=1, max_size=60))
def test_sparse_part_matches_loop_construction(labels):
    labels = np.array(labels)
    g_s, origin, hubs = _sparse_part_from_labels(U4, labels)
    want_g, want_origin, want_hubs = sparse_part_by_loops(U4, labels)
    assert g_s == want_g
    assert origin.dtype == want_origin.dtype and np.array_equal(origin, want_origin)
    assert hubs == want_hubs and list(hubs) == list(want_hubs)
    assert all(type(k) is int and type(v) is int for k, v in hubs.items())


def test_join_increment_per_dense_node():
    # each of m_new=100 cross edges picks its dense endpoint uniformly
    # over 50 nodes, so the node-0 increment averages 2.0
    g_d = fixed_dense()
    g_s, _ = star_forest([200])
    incr = []
    for s in range(500):
        mix = join_graphs(g_d, g_s, JoinConfig(edge_multiplier_c=1.0), np.random.default_rng(81000 + s))
        incr.append(mix.graph.degrees()[0] - g_d.degrees()[0])
    incr = np.asarray(incr, dtype=np.float64)
    se = incr.std(ddof=1) / np.sqrt(incr.size)
    assert abs(incr.mean() - 2.0) < 3 * se


def test_generate_mixture_trivial_case():
    u = parse_mass_partition("mass:[1.0]")
    mix = generate_mixture(u, parse_graphon("const:0"), 1, 5,
                           JoinConfig(edge_multiplier_c=0.0), np.random.default_rng(0))
    assert mix.graph.node_count == 7
    assert mix.graph.edge_count == 5
    spec = np.sort(mix.graph.degrees())[::-1]
    assert spec.tolist() == [5, 1, 1, 1, 1, 1, 0]
    assert mix.hubs == {0: 1}
    assert mix.node_origin[0] == NodeOrigin.DENSE
    assert mix.node_origin[1] == NodeOrigin.SPARSE_HUB


def test_generate_mixture_validation():
    with pytest.raises(ValueError):
        generate_mixture(U23, W, 0, 5)
    with pytest.raises(ValueError):
        generate_mixture(U23, W, 5, 0)


def test_mixture_conservation_laws():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n_d = int(rng.integers(1, 60))
        m_s = int(rng.integers(1, 400))
        c = float(rng.choice([0.0, 0.5, 1.0]))
        mix = generate_mixture(U23, W, n_d, m_s, JoinConfig(edge_multiplier_c=c), rng)
        assert mix.graph.node_count == mix.n_dense + mix.n_sparse
        assert mix.graph.edge_count == mix.m_dense + mix.m_sparse + mix.m_new
        assert mix.m_sparse == m_s
        assert mix.n_dense == n_d
        # one hub tag per realized clique
        hub_nodes = np.flatnonzero(mix.node_origin == NodeOrigin.SPARSE_HUB)
        assert sorted(hub_nodes.tolist()) == sorted(mix.hubs.values())


def test_hub_degree_moments():
    # (n_d, m_s, c, replicates, first seed); with c = 3 the joins add
    # ~54 edges to each hub, so counting c twice would miss by ~36
    cases = ((100, 5000, 1.0, 300, 60000), (300, 3000, 3.0, 200, 70000))
    for n_d, m_s, c, reps, seed0 in cases:
        q = {0: [], 1: []}
        exp_mean = {0: [], 1: []}
        exp_var = {0: [], 1: []}
        for s in range(reps):
            mix = generate_mixture(
                U23, W, n_d, m_s, JoinConfig(edge_multiplier_c=c),
                np.random.default_rng(seed0 + s),
            )
            deg = mix.graph.degrees()
            for j in (0, 1):
                q[j].append(deg[mix.hubs[j]])
                m, v = expected_hub_degree(U23[j], mix.m_sparse, mix.m_new, mix.n_sparse)
                exp_mean[j].append(m)
                exp_var[j].append(v)
        for j in (0, 1):
            arr = np.asarray(q[j], dtype=np.float64)
            se = arr.std(ddof=1) / np.sqrt(arr.size)
            assert abs(arr.mean() - np.mean(exp_mean[j])) < 4 * se
            sv = arr.var(ddof=1)
            se_var = sv * np.sqrt(2.0 / (arr.size - 1))
            assert abs(sv - np.mean(exp_var[j])) < 4 * se_var


def test_sequence_members_nest():
    seq = MixtureSequence(U23, W, [(30, 100), (60, 300)], seed=7)
    a, b = seq.member(0), seq.member(1)
    # shared latents: member 1's dense part restricted to the first 30
    # nodes is exactly member 0's dense part.  Sparse nodes start at n_d
    # in each member, so "both endpoints < 30" selects dense edges only.
    ea = {tuple(e) for e in a.graph.edges if e[0] < 30 and e[1] < 30}
    eb = {tuple(e) for e in b.graph.edges if e[0] < 30 and e[1] < 30}
    assert ea == eb
    assert a.m_sparse == 100 and b.m_sparse == 300


def test_sequence_deterministic():
    s1 = MixtureSequence(U23, W, [(20, 50), (40, 120)], seed=9)
    s2 = MixtureSequence(U23, W, [(20, 50), (40, 120)], seed=9)
    for i in range(2):
        assert s1.member(i).graph == s2.member(i).graph
    s3 = MixtureSequence(U23, W, [(20, 50), (40, 120)], seed=10)
    assert s3.member(0).graph != s1.member(0).graph


def test_sequence_validation():
    with pytest.raises(ValueError):
        MixtureSequence(U23, W, [])
    with pytest.raises(ValueError):
        MixtureSequence(U23, W, [(0, 5)])


@pytest.mark.parametrize("sizes", [[(20, 50), (10, 60)], [(20, 50), (20, 40)]])
def test_sequence_events_reject_decreasing_sizes(sizes):
    with pytest.raises(ValueError, match="^event sizes must be non-decreasing$"):
        MixtureSequence(U23, W, sizes, seed=0).events()


def test_ratio_schedule_values():
    s = RatioSchedule("constant", a=2.0, base_n_d=10)
    assert s.ratio(1) == 2.0 and s.ratio(9) == 2.0
    assert RatioSchedule("sqrt_growth", a=2.0).ratio(4) == pytest.approx(4.0)
    assert RatioSchedule("linear", a=1.5).ratio(4) == pytest.approx(6.0)
    assert RatioSchedule("quadratic", a=1.0).ratio(3) == pytest.approx(9.0)
    assert RatioSchedule("inverse_sqrt", a=2.0).ratio(4) == pytest.approx(1.0)
    assert s.n_dense(3) == 30
    assert RatioSchedule() == RatioSchedule("constant", a=1.0, base_n_d=100)
    assert RatioSchedule(base_n_d=np.int64(20)).n_dense(2) == 40
    bad = ({"kind": "cubic"}, {"kind": ["linear"]}, {"a": 0.0}, {"a": math.inf}, {"a": math.nan},
           {"base_n_d": 20.7}, {"base_n_d": 20.0}, {"base_n_d": 0}, {"a": True},
           {"base_n_d": True})
    for kwargs in bad:
        with pytest.raises(ValueError):
            RatioSchedule(**kwargs)
    with pytest.raises(ValueError):
        s.ratio(0)


def test_sizes_for_hits_target_ratio():
    sched = RatioSchedule("constant", a=3.0, base_n_d=50)
    sizes = sched.sizes_for(U23, 4)
    assert [a for a, _ in sizes] == [50, 100, 150, 200]
    mix = generate_mixture(U23, W, *sizes[-1], rng=np.random.default_rng(11))
    target = 3.0 * 200
    assert abs(mix.n_sparse - target) / target < 0.05


@pytest.mark.parametrize("a, step", [(1e308, 1), (1e306, 3)])
def test_sizes_for_names_the_step_whose_target_overflows(a, step):
    # ratio(i) * n_dense(i) is a finite float at every step before this one
    sched = RatioSchedule("quadratic", a=a, base_n_d=10)
    message = f"sparse node target inf is not finite (schedule a={a!r}, step {step})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sched.sizes_for(parse_mass_partition("mass:[0.5]"), 3)


def test_sizes_for_names_the_step_whose_base_n_d_does_not_fit_a_float():
    # a 401-digit base_n_d is a valid count, but ratio(i) * n_dense(i) overflows
    sched = RatioSchedule(base_n_d=10**400)
    message = "sparse node target inf is not finite (schedule base_n_d too large, step 1)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sched.sizes_for(parse_mass_partition("mass:[0.5]"), 3)


def test_density_trajectory_rows():
    sched = RatioSchedule("constant", a=1.0, base_n_d=20)
    rows = density_trajectory(U23, W, sched, 3, seed=0)
    assert [r[0] for r in rows] == [1, 2, 3]
    assert all(0.0 < r[2] < 1.0 for r in rows)
    seq = MixtureSequence(U23, W, sched.sizes_for(U23, 3), seed=0)
    assert [r[1:] for r in rows] == [(m.graph.node_count, edge_density(m.graph)) for m in seq]
    with pytest.raises(ValueError):
        density_trajectory(U23, W, RatioSchedule("constant"), 1, seed=0)
