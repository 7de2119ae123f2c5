"""Line graph, inverse on disjoint cliques, and sparsity evidence."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphmix import (
    Graph,
    StructureError,
    classify_sequence,
    component_labels,
    decompose_disjoint_cliques,
    inverse_line_graph_disjoint,
    line_graph,
    parse_graphon,
    sample_w_random_graph,
    star_forest,
)


def complete_graph(n, offset=0, total=None):
    edges = [(offset + i, offset + j) for i in range(n) for j in range(i + 1, n)]
    return Graph(total if total is not None else offset + n, edges)


def union_find_roots(g):
    """Component root of every node: a plain list union-find, the reference."""
    parent = list(range(g.node_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges.tolist():
        parent[find(u)] = find(v)
    return [find(x) for x in range(g.node_count)]


def component_edge_counts(g):
    """Sorted per-component edge counts, the isomorphism signature used here."""
    roots = union_find_roots(g)
    counts = {}
    for u in g.edges[:, 0].tolist():
        counts[roots[u]] = counts.get(roots[u], 0) + 1
    return sorted(counts.values())


def reference_line_graph(g):
    """L(G) built per vertex with triu_indices, the reference."""
    incident = [[] for _ in range(g.node_count)]
    for eid, (u, v) in enumerate(g.edges.tolist()):
        incident[u].append(eid)
        incident[v].append(eid)
    pairs = []
    for ids in incident:
        a, b = np.triu_indices(len(ids), k=1)
        pairs += [(ids[i], ids[j]) for i, j in zip(a.tolist(), b.tolist())]
    return Graph(g.edge_count, pairs)


@st.composite
def graphs(draw, max_nodes=40):
    n = draw(st.integers(0, max_nodes))
    if n < 2:
        return Graph(n)
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    return Graph(n, sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]}))


def relabelled(sizes, perm):
    """Disjoint cliques of the given sizes, node i renamed to perm[i]."""
    edges, start = [], 0
    for c in sizes:
        edges += [(perm[start + i], perm[start + j]) for i in range(c) for j in range(i + 1, c)]
        start += c
    return Graph(len(perm), edges)


@st.composite
def relabelled_cliques(draw):
    """(graph, clique sizes, node permutation) for a shuffled union of cliques."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=8))
    perm = draw(st.permutations(range(sum(sizes))))
    return relabelled(sizes, perm), sizes, perm


@given(graphs())
def test_component_labels_match_union_find(g):
    labels = component_labels(g)
    roots = union_find_roots(g)
    smallest = {}
    for x, r in enumerate(roots):
        smallest.setdefault(r, x)
    assert labels.tolist() == [smallest[r] for r in roots]
    assert np.array_equal(labels[labels], labels)


def path_graph(order):
    """The path visiting the nodes in the given order."""
    return Graph(len(order), list(zip(order, order[1:])))


# round 1 hooks only the hi end of each row, so these shapes pin the
# rounds after it: the 5-node path needs three hooking rounds, the
# 10-node one four
@pytest.mark.parametrize(
    "g",
    [
        Graph(0),
        Graph(6),
        Graph(2, [(0, 1)]),
        Graph(7, [(3, 6)]),
        Graph(6, [(leaf, 5) for leaf in range(5)]),
        path_graph([1, 3, 2, 4, 0]),
        path_graph([0, 6, 4, 7, 2, 9, 8, 3, 5, 1]),
        relabelled([3, 1, 4, 2, 1], [9, 4, 0, 7, 2, 10, 5, 1, 8, 6, 3]),
    ],
    ids=["empty", "edgeless", "one-edge", "one-edge-isolates", "star-on-largest",
         "path-3-rounds", "path-4-rounds", "relabelled-cliques"],
)
def test_component_labels_on_fixed_shapes(g):
    roots = union_find_roots(g)
    smallest = {}
    for x, r in enumerate(roots):
        smallest.setdefault(r, x)
    assert component_labels(g).tolist() == [smallest[r] for r in roots]


@given(graphs())
def test_line_graph_matches_reference(g):
    if g.edge_count == 0:
        return
    lg = line_graph(g)
    assert lg == reference_line_graph(g)
    deg = g.degrees()
    assert lg.edge_count == int((deg * (deg - 1) // 2).sum())


@given(relabelled_cliques(), st.data())
def test_decompose_relabelled_cliques(case, data):
    h, sizes, perm = case
    dec = decompose_disjoint_cliques(h)
    assert dec.clique_sizes == tuple(sorted((c for c in sizes if c >= 2), reverse=True))
    assert dec.isolated_count == sizes.count(1)
    big = [i for i, c in enumerate(sizes) if c >= 3]
    if not big:
        return
    i = data.draw(st.sampled_from(big))
    start = sum(sizes[:i])
    members = perm[start : start + sizes[i]]
    a, b = data.draw(st.sampled_from([(a, b) for a in members for b in members if a < b]))
    broken = Graph(h.node_count, [e for e in h.edges.tolist() if e != [a, b]])
    with pytest.raises(StructureError, match=f"containing node {min(members)} "):
        decompose_disjoint_cliques(broken)


def test_line_graph_path():
    lg = line_graph(Graph(3, [(0, 1), (1, 2)]))
    assert lg == Graph(2, [(0, 1)])


def test_line_graph_star_is_triangle():
    lg = line_graph(Graph(4, [(0, 1), (0, 2), (0, 3)]))
    assert lg == Graph(3, [(0, 1), (0, 2), (1, 2)])


def test_line_graph_cycle():
    # C4 edges in canonical order: (0,1),(0,3),(1,2),(2,3)
    lg = line_graph(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert lg == Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_line_graph_edgeless_errors():
    with pytest.raises(ValueError):
        line_graph(Graph(3))


def test_line_graph_edge_count_formula():
    rng = np.random.default_rng(40)
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        take = int(rng.integers(1, len(pairs) + 1))
        idx = rng.choice(len(pairs), size=take, replace=False)
        g = Graph(n, [pairs[i] for i in idx])
        deg = g.degrees()
        expected = int((deg * (deg - 1) // 2).sum())
        assert line_graph(g).edge_count == expected


def test_decompose_mixed_components():
    edges = [(0, 1), (0, 2), (1, 2), (3, 4)]
    dec = decompose_disjoint_cliques(Graph(6, edges))
    assert dec.clique_sizes == (3, 2)
    assert dec.isolated_count == 1


def test_decompose_rejects_path():
    with pytest.raises(StructureError, match="not a clique"):
        decompose_disjoint_cliques(Graph(3, [(0, 1), (1, 2)]))


def test_decompose_empty():
    dec = decompose_disjoint_cliques(Graph(4))
    assert dec.clique_sizes == ()
    assert dec.isolated_count == 4


def test_decompose_accepts_exactly_cliques():
    # removing one edge from any clique of size >= 3 must break acceptance
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    decompose_disjoint_cliques(g)
    broken = Graph(5, [(0, 1), (0, 2), (3, 4)])
    with pytest.raises(StructureError):
        decompose_disjoint_cliques(broken)


def test_star_forest_layout():
    g, hubs = star_forest([3, 1], isolated_edges=2)
    assert hubs.tolist() == [0, 4]
    assert g.node_count == 4 + 2 + 4
    assert g.edge_count == 3 + 1 + 2
    deg = g.degrees()
    assert deg[0] == 3 and deg[4] == 1
    with pytest.raises(ValueError):
        star_forest([0])
    with pytest.raises(ValueError):
        star_forest([2], isolated_edges=-1)


def test_star_sizes_must_be_flat():
    for sizes in ([[3], [2]], [[3], [2, 1]], 3, np.ones((2, 2), dtype=np.int64)):
        with pytest.raises(ValueError, match="star sizes"):
            star_forest(sizes)


def star_forest_by_loops(star_sizes, isolated_edges):
    """Star forest built one star and one isolated edge at a time, the reference."""
    hubs, edges, node = [], [], 0
    for c in star_sizes:
        hubs.append(node)
        edges += [(node, node + 1 + j) for j in range(c)]
        node += c + 1
    for _ in range(isolated_edges):
        edges.append((node, node + 1))
        node += 2
    return Graph(node, edges), np.asarray(hubs, dtype=np.int64)


@given(st.lists(st.integers(1, 9), max_size=12), st.integers(0, 6))
def test_star_forest_matches_loop_construction(sizes, iso):
    g, hubs = star_forest(sizes, isolated_edges=iso)
    want_g, want_hubs = star_forest_by_loops(sizes, iso)
    assert g == want_g
    assert hubs.dtype == want_hubs.dtype and np.array_equal(hubs, want_hubs)
    # the numpy count array generate_mixture passes builds the same forest
    assert star_forest(np.asarray(sizes, dtype=np.int64), isolated_edges=np.int64(iso))[0] == g


def test_star_forest_totals_beyond_int64_fail_before_building():
    for sizes, iso in (
        ([2**62, 2**62], 0),  # the leaf count wraps in int64
        (np.asarray([2**63], dtype=np.uint64), 0),
        ([2**63 - 1], 0),  # leaves fit, leaves plus the hub do not
        ([1], 2**62),
    ):
        with pytest.raises(ValueError, match=r"^star forest of \d+ nodes exceeds 2\*\*63-1$"):
            star_forest(sizes, isolated_edges=iso)


def assert_frozen_int64(a):
    assert a.dtype == np.int64 and not a.flags.writeable


@given(
    st.lists(st.integers(1, 9), max_size=12),
    st.integers(0, 6),
    st.booleans(),
)
def test_deferred_star_forest_matches_eager_rows(sizes, iso, degrees_first):
    g, _ = star_forest(sizes, isolated_edges=iso)
    assert g._edges is None  # counts and degrees come from the sizes alone
    eager = Graph(g.node_count, g._rows())
    assert (g.node_count, g.edge_count, repr(g)) == (
        eager.node_count,
        eager.edge_count,
        repr(eager),
    )
    if degrees_first:
        before = g.degrees()
        assert_frozen_int64(before)
        assert np.array_equal(before, eager.degrees())
        assert g._edges is None
    assert_frozen_int64(g.edges)
    assert np.array_equal(g.edges, eager.edges) and g == eager and eager == g
    assert g._rows is None
    assert_frozen_int64(g.degrees())
    assert np.array_equal(g.degrees(), eager.degrees())
    if g.edge_count:
        assert line_graph(star_forest(sizes, isolated_edges=iso)[0]) == line_graph(eager)


def test_deferred_graph_pickles_and_copies():
    for read_edges in (False, True):
        g, _ = star_forest([3, 1, 2], isolated_edges=2)
        if read_edges:
            g.edges
        for back in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert (back._edges is None) == (not read_edges)
            assert back == g and repr(back) == repr(g)
            assert_frozen_int64(back.degrees())
            assert np.array_equal(back.degrees(), g.degrees())
            assert_frozen_int64(back.edges)
            with pytest.raises(AttributeError, match="immutable"):
                back.edge_count = 0


def test_inverse_of_single_clique():
    g = inverse_line_graph_disjoint(complete_graph(5))
    assert g.node_count == 6 and g.edge_count == 5
    assert sorted(g.degrees().tolist()) == [1, 1, 1, 1, 1, 5]


def test_inverse_triangle_resolves_to_star():
    g = inverse_line_graph_disjoint(complete_graph(3))
    assert sorted(g.degrees().tolist()) == [1, 1, 1, 3]


def test_inverse_mixed():
    h = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4)])
    g = inverse_line_graph_disjoint(h)
    # K_{1,3} + K_{1,2} + one isolated edge
    assert g.node_count == 4 + 3 + 2
    assert g.edge_count == h.node_count
    back = line_graph(g)
    dec_h, dec_b = decompose_disjoint_cliques(h), decompose_disjoint_cliques(back)
    assert dec_h.clique_sizes == dec_b.clique_sizes
    assert dec_h.isolated_count == dec_b.isolated_count


def test_round_trip_random_star_forests():
    rng = np.random.default_rng(41)
    for _ in range(300):
        k = int(rng.integers(1, 51))
        sizes = rng.integers(1, 101, size=k).tolist()
        iso = int(rng.integers(0, 5))
        s, _ = star_forest(sizes, isolated_edges=iso)
        s2 = inverse_line_graph_disjoint(line_graph(s))
        assert s2.node_count == s.node_count
        assert s2.edge_count == s.edge_count
        assert component_edge_counts(s2) == component_edge_counts(s)


def test_classify_growing_stars_saturates():
    # K_{1,i}: m=i, d_max=i, sum d^2 = i^2 + i
    ev = classify_sequence(star_forest([i])[0] for i in range(2, 51))
    assert ev.square_degree_evidence == 1.0
    assert ev.max_degree_evidence == 1.0


def test_classify_dense_sequence_vanishes():
    w = parse_graphon("const:0.5")
    graphs = [sample_w_random_graph(w, n, np.random.default_rng(n)) for n in range(20, 201, 20)]
    ev = classify_sequence(graphs)
    assert ev.square_degree_evidence < 0.1
    assert ev.max_degree_evidence < 0.1


def test_classify_paths_scale_like_4_over_n():
    ev = classify_sequence(
        Graph(n, [(i, i + 1) for i in range(n - 1)]) for n in range(10, 101, 10)
    )
    assert ev.square_degree_evidence == pytest.approx(4.0 / 100.0, rel=0.2)


def test_classify_needs_rows():
    with pytest.raises(ValueError):
        classify_sequence([])
    with pytest.raises(ValueError):
        classify_sequence([Graph(3)])


def classify_rows_reference(rows):
    """The row formula over (n, m, max_degree, sum_degree_squares) that
    classify_sequence replaced."""
    tail = rows[len(rows) - (len(rows) + 1) // 2 :]
    sq = mx = 1.0
    for n, m, d_max, sum_sq in tail:
        sq = min(sq, min(1.0, float(sum_sq) / float(m) ** 2))
        mx = min(mx, float(d_max) / float(m))
    return sq, mx


SEQUENCE_GRAPHS = st.one_of(
    graphs().filter(lambda g: g.edge_count > 0),
    st.lists(st.integers(1, 30), min_size=1, max_size=4).map(lambda s: star_forest(s)[0]),
)


@given(st.lists(SEQUENCE_GRAPHS, min_size=1, max_size=6))
def test_classify_matches_the_row_formula(seq):
    rows = [
        (g.node_count, g.edge_count, int(g.degrees().max()), int((g.degrees() ** 2).sum()))
        for g in seq
    ]
    ev = classify_sequence(seq)
    assert (ev.square_degree_evidence, ev.max_degree_evidence) == classify_rows_reference(rows)
