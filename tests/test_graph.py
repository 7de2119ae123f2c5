"""Graph container, degree statistics, and edge-list serialization."""

import io
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphmix import (
    DegreeSpectrum,
    Graph,
    GraphFormatError,
    degree_spectrum,
    edge_density,
    read_edge_list,
    star_forest,
    top_k_degrees,
    write_edge_list,
)
from graphmix import graph as graph_module
from graphmix.graph import _KEY_NODE_LIMIT, _Fresh


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_graph(rng, n_max=12):
    n = int(rng.integers(2, n_max + 1))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    take = int(rng.integers(1, len(pairs) + 1))
    idx = rng.choice(len(pairs), size=take, replace=False)
    return Graph(n, [pairs[i] for i in idx])


def test_graph_canonicalizes_edges():
    g = Graph(4, [(2, 1), (3, 0), (1, 0)])
    assert g.edges.tolist() == [[0, 1], [0, 3], [1, 2]]
    assert g.edge_count == 3


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(-1, 2)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match=r"\(u, v\) pairs"):
        Graph(3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_graph_rejects_non_integer_endpoints():
    with pytest.raises(ValueError, match="integer"):
        Graph(3, [(0.5, 1.7)])
    with pytest.raises(ValueError, match="integer"):
        Graph(3, np.array([[0.0, np.nan]]))
    # integer-valued floats and every integer dtype name the same edges
    want = Graph(3, [(0, 1), (1, 2)])
    assert Graph(3, [(0.0, 1.0), (2.0, 1.0)]) == want
    for dtype in (np.int8, np.int32, np.uint16, np.int64):
        assert Graph(3, np.array([[0, 1], [2, 1]], dtype=dtype)) == want


def test_graph_endpoints_beyond_int64_are_out_of_range():
    # a Python list mixing such ints with small ones arrives as float64
    for big in (2**63, 2**64 - 1, 2**64):
        with pytest.raises(ValueError, match="out of range 0..node_count-1"):
            Graph(5, [(0, 1), (1, big)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(5, np.array([[0, 1], [1, 2**63]], dtype=np.uint64))
    with pytest.raises(ValueError, match="out of range"):
        Graph(5, [(0.0, 1.0), (1.0, 1e30)])
    with pytest.raises(ValueError, match="integer"):
        Graph(5, [(0.0, 1.0), (1.0, math.inf)])


# node counts on both sides of the largest one whose pair keys fit int64
NODE_COUNTS = st.one_of(
    st.integers(2, 40),
    st.integers(_KEY_NODE_LIMIT - 2, _KEY_NODE_LIMIT + 2),
    st.integers(_KEY_NODE_LIMIT + 3, 2**63 - 1),
)


@st.composite
def distinct_edge_sets(draw, min_size=0):
    """(n, sorted distinct (lo, hi) pairs, the same pairs shuffled and partly flipped)."""
    n = draw(NODE_COUNTS)
    ends = st.integers(0, n - 1) if n <= 40 else st.sampled_from([0, 1, 2, n // 2, n - 2, n - 1])
    pairs = draw(
        st.sets(
            st.tuples(ends, ends).filter(lambda p: p[0] != p[1]).map(lambda p: (min(p), max(p))),
            min_size=min_size,
            max_size=40,
        )
    )
    rows = [p[::-1] if draw(st.booleans()) else p for p in draw(st.permutations(sorted(pairs)))]
    return n, sorted(pairs), rows


@given(distinct_edge_sets())
def test_graph_edges_are_the_sorted_pair_set(case):
    n, want, rows = case
    g = Graph(n, rows)
    assert g.edges.dtype == np.int64 and g.edges.shape == (len(want), 2)
    assert [tuple(r) for r in g.edges.tolist()] == want


@given(distinct_edge_sets(min_size=1), st.data())
def test_graph_names_the_smallest_duplicate(case, data):
    n, pairs, rows = case
    again = data.draw(st.lists(st.sampled_from(pairs), min_size=1))
    rows = data.draw(st.permutations(rows + [p[::-1] if data.draw(st.booleans()) else p for p in again]))
    u, v = min(again)
    with pytest.raises(ValueError, match=re.escape(f"duplicate edge ({u}, {v})")):
        Graph(n, rows)


def test_graph_beyond_int64_pair_keys():
    n = 4_000_000_000  # n * n overflows int64, so the rows are sorted as pairs
    g = Graph(n, [(3_999_999_999, 0), (1, 2)])
    assert g.edges.tolist() == [[0, 3_999_999_999], [1, 2]]
    with pytest.raises(ValueError, match=re.escape("duplicate edge (1, 3999999999)")):
        Graph(n, [(3_999_999_999, 1), (0, 5), (1, 3_999_999_999)])


def reference_canonical_edges(node_count, edges):
    """Graph's canonicalization before canonical rows skipped the sort, kept as the reference."""
    raw = np.asarray(edges)
    if raw.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    arr = graph_module._endpoint_array(raw)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be an iterable of (u, v) pairs")
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    if lo.min() < 0 or hi.max() >= node_count:
        raise ValueError("edge endpoint out of range 0..node_count-1")
    if np.any(lo == hi):
        raise ValueError("self loops are not allowed")
    if node_count <= _KEY_NODE_LIMIT:
        key = np.sort(lo * node_count + hi)
        lo, hi = np.divmod(key, node_count)
    else:
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
    dup = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    if dup.any():
        i = int(dup.argmax()) + 1
        raise ValueError(f"duplicate edge ({lo[i]}, {hi[i]})")
    return np.column_stack([lo, hi])


def canonical_outcome(build, n, rows):
    """build(n, rows) as a list of rows, or the type and message of its error."""
    try:
        return build(n, rows).tolist()
    except ValueError as exc:
        return type(exc), str(exc)


@given(distinct_edge_sets())
def test_canonical_rows_give_the_graph_of_any_row_order(case):
    n, want, rows = case
    g = Graph(n, np.array(want, dtype=np.int64).reshape(-1, 2))
    assert g == Graph(n, rows)
    assert g.edges.dtype == np.int64 and g.edges.flags.c_contiguous


@given(distinct_edge_sets(min_size=1), st.data())
def test_canonical_looking_bad_rows_fail_as_before(case, data):
    n, want, _ = case
    rows = [list(p) for p in want]
    i = data.draw(st.sampled_from([0, len(rows) - 1, data.draw(st.integers(0, len(rows) - 1))]))
    fault = data.draw(st.sampled_from(["low", "high", "far", "duplicate"]))
    if fault == "low":  # still u < v on every row
        rows[i][0] = -1
    elif fault == "high":
        rows[i][1] = n
    elif fault == "far":
        rows[i][1] = min(n + data.draw(st.integers(1, 2**62)), 2**63 - 1)
    else:
        rows.insert(i + 1, list(rows[i]))
    arr = np.array(rows, dtype=np.int64)
    got = canonical_outcome(lambda n, rows: Graph(n, rows).edges, n, arr)
    assert isinstance(got, tuple)
    assert got == canonical_outcome(reference_canonical_edges, n, arr)


def test_canonical_rows_are_copied():
    for n, rows in ((5, [(0, 1), (1, 4), (2, 3)]), (_KEY_NODE_LIMIT + 1, [(0, 7), (3, 4)])):
        a = np.array(rows)
        g = Graph(n, a)
        assert a.flags.writeable and not np.shares_memory(a, g.edges)
        a[0, 1] = 2
        assert g.edges.tolist() == [list(r) for r in rows]
    strided = np.array([[0, 1], [9, 9], [1, 2]])[::2]
    g = Graph(3, strided)
    assert g.edges.flags.c_contiguous and not np.shares_memory(strided, g.edges)


def test_fresh_rows_are_frozen_in_place_and_a_callers_rows_copied():
    rows = [(0, 1), (1, 4), (2, 3)]
    fresh, callers = np.array(rows), np.array(rows)
    g = Graph(5, _Fresh(fresh))
    assert g.edges is fresh and not fresh.flags.writeable
    h = Graph(5, callers)
    assert callers.flags.writeable and not np.shares_memory(callers, h.edges)
    assert g == h
    strided = np.array([[0, 1], [9, 9], [1, 2]])[::2]
    assert Graph(3, _Fresh(strided)).edges.flags.c_contiguous


@given(distinct_edge_sets(), st.data())
def test_fresh_rows_fail_and_pass_as_a_callers_rows(case, data):
    n, want, rows = case
    rows = [list(p) for p in data.draw(st.sampled_from([want, rows]))]
    if rows and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(rows) - 1))
        fault = data.draw(st.sampled_from(["low", "high", "loop", "duplicate"]))
        if fault == "low":
            rows[i][0] = -1
        elif fault == "high":
            rows[i][1] = n
        elif fault == "loop":
            rows[i][1] = rows[i][0]
        else:
            rows.insert(i + 1, rows[i][::-1])
    arr = np.array(rows, dtype=np.int64).reshape(-1, 2)
    got = canonical_outcome(lambda n, r: Graph(n, _Fresh(r)).edges, n, arr.copy())
    assert got == canonical_outcome(lambda n, r: Graph(n, r).edges, n, arr)


def test_graph_is_immutable():
    g = Graph(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.node_count = 5
    with pytest.raises(ValueError):
        g.edges[0, 0] = 9


def test_degree_spectrum_k4():
    spec = degree_spectrum(complete_graph(4))
    assert spec.sorted_degrees.tolist() == [3, 3, 3, 3]
    assert spec.unique_degrees.tolist() == [3]


def test_degree_spectrum_star():
    spec = degree_spectrum(star(3))
    assert spec.sorted_degrees.tolist() == [3, 1, 1, 1]
    assert spec.unique_degrees.tolist() == [3, 1]


def test_degree_spectrum_empty():
    spec = degree_spectrum(Graph(5))
    assert spec.sorted_degrees.tolist() == [0, 0, 0, 0, 0]
    assert spec.node_count == 5


def test_degree_spectrum_validation():
    spec = DegreeSpectrum([1, 3, 0, 3, 20])  # any order
    assert spec.sorted_degrees.tolist() == [20, 3, 3, 1, 0]
    assert spec.unique_degrees.tolist() == [20, 3, 1, 0]
    assert spec.node_count == 5
    for bad in ([2.7, 1.0], [3, -1], [[2, 1]], ["2", "1"]):
        with pytest.raises(ValueError):
            DegreeSpectrum(bad)
    with pytest.raises(AttributeError):
        spec.sorted_degrees = np.array([1])
    with pytest.raises(ValueError):
        spec.sorted_degrees[0] = 0


DEGREE_LISTS = st.lists(st.integers(0, 60), max_size=30)


@given(DEGREE_LISTS, st.data())
def test_degree_spectrum_ignores_order_and_zeros(degs, data):
    spec = DegreeSpectrum(np.array(degs, dtype=np.int64))
    assert spec.sorted_degrees.tolist() == sorted(degs, reverse=True)
    assert spec.unique_degrees.tolist() == sorted(set(degs), reverse=True)
    shuffled = DegreeSpectrum(data.draw(st.permutations(degs)))
    assert np.array_equal(shuffled.sorted_degrees, spec.sorted_degrees)
    assert np.array_equal(shuffled.unique_degrees, spec.unique_degrees)
    zeros = data.draw(st.integers(1, 5))
    padded = DegreeSpectrum(degs + [0] * zeros)
    assert padded.sorted_degrees.tolist() == spec.sorted_degrees.tolist() + [0] * zeros
    positive = padded.unique_degrees[padded.unique_degrees > 0]
    assert np.array_equal(positive, spec.unique_degrees[spec.unique_degrees > 0])


@given(st.integers(0, 2**32 - 1))
def test_degree_spectrum_of_a_graph_is_its_degrees(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng)
    spec, want = DegreeSpectrum(rng.permutation(g.degrees())), degree_spectrum(g)
    assert np.array_equal(spec.sorted_degrees, want.sorted_degrees)
    assert np.array_equal(spec.unique_degrees, want.unique_degrees)


def test_size_arguments_must_be_integers():
    for build in (
        lambda: Graph(2.9, [(0, 1)]),
        lambda: Graph("3", [(0, 1)]),
        lambda: star_forest([2.5]),
        lambda: star_forest([2], isolated_edges=1.5),
    ):
        with pytest.raises(ValueError, match="integer"):
            build()
    assert Graph(np.int64(2), [(0, 1)]) == Graph(2, [(0, 1)])
    assert star_forest(np.array([2]), np.int64(1))[0] == star_forest([2], 1)[0]


def test_bool_sizes_are_not_integers():
    # bool subclasses int, so it would otherwise pass as 1 or 0
    for build in (
        lambda: Graph(True),
        lambda: Graph(np.True_),
        lambda: star_forest([3, 2], isolated_edges=True),
    ):
        with pytest.raises(ValueError, match="integer"):
            build()


def test_edge_density_values():
    assert edge_density(complete_graph(4)) == 0.75
    assert edge_density(Graph(7)) == 0.0
    assert edge_density(star(9)) == pytest.approx(0.18)
    with pytest.raises(ValueError):
        edge_density(Graph(0))


def test_top_k_degrees():
    spec = DegreeSpectrum([5, 300, 100, 5, 200])
    assert top_k_degrees(spec, 3).tolist() == [300, 200, 100]
    assert top_k_degrees(spec, 5).tolist() == [300, 200, 100, 5, 5]
    assert top_k_degrees(degree_spectrum(complete_graph(4)), 1).tolist() == [3]
    with pytest.raises(ValueError):
        top_k_degrees(spec, 6)
    with pytest.raises(ValueError):
        top_k_degrees(spec, 0)


def test_degree_sum_and_ratio_inequality():
    # the sharp relation is (d_max/m)^2 <= 4 * sum(d^2)/(sum d)^2 since
    # sum d = 2m; the unscaled form fails already on K2
    rng = np.random.default_rng(10)
    for _ in range(200):
        g = random_graph(rng)
        deg = g.degrees().astype(np.float64)
        assert deg.sum() == 2 * g.edge_count
        lhs = (deg.max() / g.edge_count) ** 2
        assert lhs <= 4.0 * (deg**2).sum() / deg.sum() ** 2 + 1e-12


def test_degree_spectrum_is_pure():
    rng = np.random.default_rng(11)
    g = random_graph(rng)
    a, b = degree_spectrum(g), degree_spectrum(g)
    assert np.array_equal(a.sorted_degrees, b.sorted_degrees)
    assert np.array_equal(a.unique_degrees, b.unique_degrees)
    assert a.sorted_degrees.sum() % 2 == 0
    assert np.array_equal(np.unique(a.sorted_degrees)[::-1], a.unique_degrees)


def test_edge_list_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(25):
        g = random_graph(rng)
        buf = io.StringIO()
        write_edge_list(g, buf)
        buf.seek(0)
        back = read_edge_list(buf)
        assert back == g


def test_edge_list_header():
    buf = io.StringIO()
    write_edge_list(Graph(3, [(0, 2)]), buf)
    assert buf.getvalue().splitlines()[0] == "n 3"


def test_read_edge_list_errors():
    with pytest.raises(GraphFormatError):
        read_edge_list(io.StringIO(""))
    with pytest.raises(GraphFormatError):
        read_edge_list(io.StringIO("nodes 4"))
    with pytest.raises(GraphFormatError):
        read_edge_list(io.StringIO("n x"))
    with pytest.raises(GraphFormatError):
        read_edge_list(io.StringIO("n 3\n0 1 2"))
    with pytest.raises(GraphFormatError):
        read_edge_list(io.StringIO("n 3\n0 a"))
    with pytest.raises(GraphFormatError):
        read_edge_list(io.StringIO("n 2\n0 5"))


def test_read_edge_list_error_names_line_after_leading_blanks():
    # the body is numbered from the header's own line, not from line 2
    with pytest.raises(GraphFormatError, match=r"^line 4: expected 'u v'$"):
        read_edge_list(io.StringIO("\n\nn 3\n0 1 2"))


def test_read_edge_list_rejects_integers_beyond_int64():
    big = "99999999999999999999"
    for text in (f"n 3\n0 {big}", f"n {big}\n0 1"):
        with pytest.raises(GraphFormatError, match="out of range"):
            read_edge_list(io.StringIO(text))


@pytest.mark.parametrize("bulk", [True, False], ids=["bulk-first", "line-scan"])
def test_read_edge_list_integers_too_long_for_int_are_out_of_range(bulk):
    # int() refuses more than sys.get_int_max_str_digits() digits; such a
    # literal is out of range as a 30-digit one is, not a non-integer
    messages = set()
    with mock.patch.object(graph_module, "_bulk_edges", graph_module._bulk_edges if bulk else
                           lambda body: None):
        for big in ("9" * 30, "9" * 5000, "-" + "9" * 5000):
            for text in (f"n 3\n0 1\n1 {big}\n", f"n {big}\n0 1\n"):
                with pytest.raises(GraphFormatError, match="out of range") as info:
                    read_edge_list(io.StringIO(text))
                messages.add(str(info.value))
        with pytest.raises(GraphFormatError, match="^line 2: non-integer endpoint$"):
            read_edge_list(io.StringIO(f"n 3\n0 {'9' * 5000}x\n"))
    assert messages == {
        "edge endpoint out of range 0..node_count-1", "node_count out of range 0..2**63-1",
    }


def test_read_edge_list_skips_blank_lines():
    g = read_edge_list(io.StringIO("\nn 3\n\n0 1\n  \n1 2"))
    assert g == Graph(3, [(0, 1), (1, 2)])


LONG_IDS = [
    str(10**17), str(10**18 - 1), "0" * 17 + "1", "0" * 18 + "1", str(10**18),
    str(2**63 - 1), str(2**63), str(10**19), str(2**64), "1" + "0" * 19,
]
ENDPOINT_TEXT = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["+3", "07", "1_0", "1.0", "2e0", "a", "#", "0x1", "\u0663", "\uff11"]),
    st.sampled_from(LONG_IDS),
)
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\r", "\xa0", "\u2003", "\x1c"])
PADS = st.sampled_from(["", " ", "\t", "\r", " \r", "\xa0"])


@st.composite
def edge_list_texts(draw):
    """Edge-list text: "u v" rows, some out of range or repeated, plus odd rows anywhere."""
    n = draw(st.sampled_from([0, 1, 2, 3, 9, 10**18, 2**63 - 1]))
    ends = st.one_of(st.integers(0, min(n, 9)), st.integers(0, n))
    zeros = st.sampled_from(["", "", "0", "0" * 17])
    row = st.tuples(zeros, ends, SEPARATORS, zeros, ends).filter(lambda r: r[1] != r[4])
    odd = st.one_of(
        st.tuples(ENDPOINT_TEXT, SEPARATORS, ENDPOINT_TEXT).map("".join),
        st.lists(ENDPOINT_TEXT, min_size=1, max_size=4).map(" ".join),
        st.sampled_from(["", "   ", "\t", "\r", "#", "# 0 1", "0 1 #", "1 1", "1", "0 1 2"]),
    )
    rows = draw(st.lists(row, max_size=12))
    if rows:  # repeat a few rows, flipped
        rows += [r[::-1] for r in draw(st.lists(st.sampled_from(rows), max_size=2))]
    body = [f"{a}{u}{sep}{b}{v}" for a, u, sep, b, v in rows]
    for line in draw(st.lists(odd, max_size=3)):
        body.insert(draw(st.integers(0, len(body))), line)
    lines = [f"{line}{draw(PADS)}" for line in [f"n {n}"] + body]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


def read_outcome(text):
    try:
        return read_edge_list(io.StringIO(text))
    except GraphFormatError as exc:
        return type(exc), str(exc)


@given(edge_list_texts(), st.integers(1, 40))
def test_bulk_read_matches_line_scan(text, block_chars):
    with mock.patch.object(graph_module, "_bulk_edges", lambda body: None):
        want = read_outcome(text)
    with mock.patch.object(graph_module, "_READ_CHARS", block_chars):
        assert read_outcome(text) == want


def test_bulk_read_takes_whole_files():
    g = random_graph(np.random.default_rng(13))
    buf = io.StringIO()
    write_edge_list(g, buf)
    body = buf.getvalue().split("\n", 1)[1]
    for text in (body, body + "\n", body.replace("\n", " \t\r\n\n")):
        rows = graph_module._bulk_edges(text)
        assert rows is not None and np.array_equal(rows, g.edges)
    assert graph_module._bulk_edges("0 1 2\n") is None
    assert graph_module._bulk_edges("0 1\n2\n") is None
    assert graph_module._bulk_edges(f"0 {'1' * 19}\n") is None


POWER_OF_TEN_COUNTS = [1, 2, 9, 10, 11, 99, 100, 101, 10**18 - 1, 10**18, 10**18 + 1, 2**63 - 1]


@st.composite
def graphs_near_powers_of_ten(draw):
    """Graphs whose node count and labels sit at and around powers of ten."""
    n = draw(st.sampled_from(POWER_OF_TEN_COUNTS))
    near = sorted({x for p in range(19) for x in (10**p - 1, 10**p) if x < n} | {n - 1})
    label = st.one_of(st.sampled_from(near), st.integers(0, n - 1))
    pairs = draw(st.lists(st.tuples(label, label).filter(lambda p: p[0] != p[1]), max_size=10))
    return Graph(n, sorted({(min(p), max(p)) for p in pairs}))


def reference_edge_text(g):
    """The "%d %d" formatting write_edge_list must reproduce byte for byte."""
    return f"n {g.node_count}\n" + "".join("%d %d\n" % (u, v) for u, v in g.edges.tolist())


@given(graphs_near_powers_of_ten(), st.integers(1, 4))
def test_write_matches_percent_d_formatting(g, block_rows):
    buf = io.StringIO()
    with mock.patch.object(graph_module, "_WRITE_ROWS", block_rows):
        write_edge_list(g, buf)
    assert buf.getvalue() == reference_edge_text(g)
    buf.seek(0)
    assert read_edge_list(buf) == g
