"""Temporal edge-list parsing, snapshots, and forecast evaluation."""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphmix import (
    TemporalFormatError,
    degree_spectrum,
    evaluation_run,
    forecast_top_k,
    parse_edge_events,
    serialize_edge_events,
    snapshot_at,
)

GOOD_LINES = ["1 2 5", "2 3 6"]

# a hub "h" gaining spokes over three steps, plus side edges
STAR_LINES = [
    "h a1 1",
    "h a2 1",
    "h a3 2",
    "a1 a2 2",
    "h a4 3",
    "b1 b2 3",
]


def test_parse_basics():
    tel = parse_edge_events(GOOD_LINES)
    assert len(tel.events) == 2
    assert tel.node_ids == ("1", "2", "3")
    assert tel.t_min == 5 and tel.t_max == 6
    assert tel.rejects == ()
    np.testing.assert_array_equal(tel.edge_u, [0, 1])
    np.testing.assert_array_equal(tel.edge_v, [1, 2])


def test_parse_dedup_keeps_earliest():
    tel = parse_edge_events(["1 2 9", "2 1 3", "1 2 7"])
    assert tel.events == (("2", "1", 3),)
    assert tel.node_ids == ("2", "1")


def test_parse_rejects_self_loops_under_cap():
    lines = [f"a{i} b{i} {i}" for i in range(1, 11)] + ["z z 4"]
    tel = parse_edge_events(lines)
    assert len(tel.events) == 10
    assert len(tel.rejects) == 1
    assert "self loop" in tel.rejects[0][1]


def test_parse_rejects_bad_timestamp_under_cap():
    for stamp, reason in (
        ("soon", "non-integer timestamp"),
        ("99999999999999999999", "outside int64"),
        ("-9223372036854775809", "outside int64"),
    ):
        lines = [f"a{i} b{i} {i}" for i in range(1, 11)] + [f"p q {stamp}"]
        tel = parse_edge_events(lines)
        assert len(tel.rejects) == 1
        assert reason in tel.rejects[0][1]


def test_parse_rejects_in_line_order():
    lines = [f"a{i} b{i} {i}" for i in range(1, 21)]
    lines[2] = "z z 3"
    lines[14] = "p q"
    tel = parse_edge_events(lines)
    assert [ln for ln, _ in tel.rejects] == [3, 15]
    assert "self loop" in tel.rejects[0][1]
    assert "three columns" in tel.rejects[1][1]


def test_parse_too_many_rejects():
    with pytest.raises(TemporalFormatError):
        parse_edge_events(["1 2 3", "4 4 5", "6 7"])


def test_parse_empty_input():
    with pytest.raises(ValueError):
        parse_edge_events([])
    with pytest.raises(ValueError):
        parse_edge_events(["", "   "])
    with pytest.raises(ValueError):
        parse_edge_events(["1 1 4"])  # nothing usable survives


def test_parse_csv_format():
    tel = parse_edge_events(["u,v,t", "1,2,5", "2,3,6"], fmt="csv3col")
    assert len(tel.events) == 2
    assert tel.t_min == 5
    with pytest.raises(TemporalFormatError):
        parse_edge_events(["src,dst,when", "1,2,5"], fmt="csv3col")
    with pytest.raises(ValueError):
        parse_edge_events(GOOD_LINES, fmt="tsv")


def test_snapshot_cumulative():
    tel = parse_edge_events(STAR_LINES)
    g1 = snapshot_at(tel, 1)
    assert g1.node_count == 3 and g1.edge_count == 2
    g2 = snapshot_at(tel, 2)
    assert g2.node_count == 4 and g2.edge_count == 4
    g3 = snapshot_at(tel, 3)
    assert g3.node_count == 7 and g3.edge_count == 6
    assert int(g3.degrees().max()) == 4  # the hub


def test_snapshot_before_first_event(caplog):
    tel = parse_edge_events(STAR_LINES)
    with caplog.at_level("WARNING", logger="graphmix.temporal"):
        g = snapshot_at(tel, 0)
    assert g.node_count == 0 and g.edge_count == 0
    assert any("predates" in r.message for r in caplog.records)


def test_snapshots_nest():
    rng = np.random.default_rng(14)
    lines = []
    for _ in range(120):
        u, v = rng.integers(0, 20, 2)
        if u == v:
            continue
        lines.append(f"n{u} n{v} {rng.integers(1, 30)}")
    tel = parse_edge_events(lines)
    prev_edges: set = set()
    prev_nodes = 0
    for t in range(tel.t_min, tel.t_max + 1):
        g = snapshot_at(tel, t)
        edges = {tuple(e) for e in g.edges}
        assert prev_edges <= edges
        assert g.node_count >= prev_nodes
        prev_edges, prev_nodes = edges, g.node_count


def test_serialize_round_trip():
    tel = parse_edge_events(STAR_LINES)
    buf = io.StringIO()
    serialize_edge_events(tel, buf)
    again = parse_edge_events(buf.getvalue().splitlines())
    assert again.events == tel.events
    assert again.node_ids == tel.node_ids


def test_evaluation_horizon_zero_is_exact():
    tel = parse_edge_events(STAR_LINES)
    summary, detail = evaluation_run(tel, [1, 2], [0, 1], k=1)
    assert len(summary) == 4
    for row in summary:
        if row["horizon"] == 0:
            assert row["mape_proposed"] == 0.0
            assert row["mape_baseline"] == 0.0
    assert len(detail) == 4
    assert {r["rank"] for r in detail} == {1}


def test_evaluation_skips_out_of_range(caplog):
    tel = parse_edge_events(STAR_LINES)
    with caplog.at_level("WARNING", logger="graphmix.temporal"):
        summary, detail = evaluation_run(tel, [0, 9], [0, 5], k=1)
    assert summary == [] and detail == []
    assert sum("outside data range" in r.message for r in caplog.records) == 4


def test_evaluation_skips_oversized_k(caplog):
    tel = parse_edge_events(STAR_LINES)
    with caplog.at_level("WARNING", logger="graphmix.temporal"):
        summary, _ = evaluation_run(tel, [1], [2], k=10)
    assert summary == []
    assert any("fewer than k" in r.message for r in caplog.records)


def test_evaluation_rejects_bad_k():
    tel = parse_edge_events(STAR_LINES)
    with pytest.raises(ValueError):
        evaluation_run(tel, [1], [0], k=0)


def test_evaluation_rejects_negative_horizon():
    tel = parse_edge_events(STAR_LINES)
    with pytest.raises(ValueError, match="horizons must be >= 0"):
        evaluation_run(tel, [2], [1, -1], k=1)


# ---------------------------------------------------------------------------
# properties against a row-by-row reference of the parse_edge_events rules

FORMATS = ["whitespace3col", "csv3col"]
IDS = ["a", "b", "c", "d", "10", "2"]
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def reference_parse(lines, fmt):
    """(events, node_ids, node_first_t, rejects) by the documented rules."""
    start = 1
    if fmt == "csv3col":
        lines, start = lines[1:], 2  # after the u,v,t header
    rejects, usable = [], []
    for lineno, line in enumerate(lines, start):
        cells = [c.strip() for c in line.split(",")] if fmt == "csv3col" else line.split()
        if not any(cells):
            continue
        if len(cells) != 3:
            rejects.append((lineno, "expected three columns"))
            continue
        u, v, t = cells
        try:
            t_int = int(t)
        except ValueError:
            rejects.append((lineno, f"non-integer timestamp {t!r}"))
            continue
        if not INT64_MIN <= t_int <= INT64_MAX:
            rejects.append((lineno, f"timestamp {t!r} outside int64"))
            continue
        if u == v:
            rejects.append((lineno, f"self loop at node {u!r}"))
            continue
        usable.append((t_int, lineno, u, v))
    events, pairs = [], set()
    for t, _, u, v in sorted(usable):  # by time, then line
        if frozenset((u, v)) not in pairs:
            pairs.add(frozenset((u, v)))
            events.append((u, v, t))
    first_t = {}
    for u, v, t in events:
        first_t.setdefault(u, t)
        first_t.setdefault(v, t)
    return events, list(first_t), list(first_t.values()), rejects


@st.composite
def event_lines(draw, fmt):
    """Rows over a small id alphabet, rejects kept under the 10% cap."""
    node = st.sampled_from(IDS)
    stamp = st.one_of(st.integers(-3, 8), st.sampled_from([INT64_MIN, INT64_MAX]))
    good = draw(
        st.lists(
            st.tuples(node, node, stamp.map(str)).filter(lambda r: r[0] != r[1]),
            min_size=9,  # room for at least one reject
            max_size=40,
        )
    )
    bad_stamp = st.sampled_from(["soon", "1.5", str(INT64_MAX + 1), str(INT64_MIN - 1)])
    bad = st.one_of(
        node.map(lambda u: (u, u, "1")),
        st.lists(node, min_size=1, max_size=2).map(tuple),
        st.lists(node, min_size=4, max_size=4).map(tuple),
        st.tuples(node, node, bad_stamp),
    )
    rows = good + draw(st.lists(bad, max_size=len(good) // 9))
    rows += [()] * draw(st.integers(0, 3))  # blank rows
    rows = draw(st.permutations(rows))
    if fmt == "csv3col":
        return ["u,v,t"] + [",".join(r) for r in rows]
    sep = draw(st.sampled_from([" ", "\t", "   "]))
    return [sep.join(r) + draw(st.sampled_from(["", "\n", "  "])) for r in rows]


@pytest.mark.parametrize("fmt", FORMATS)
@given(data=st.data())
def test_parse_matches_reference(fmt, data):
    lines = data.draw(event_lines(fmt))
    tel = parse_edge_events(lines, fmt=fmt)
    events, node_ids, first_t, rejects = reference_parse(lines, fmt)
    assert tel.events == tuple(events)
    assert tel.node_ids == tuple(node_ids)
    assert tel.rejects == tuple(rejects)
    index = {x: i for i, x in enumerate(node_ids)}
    assert tel.edge_u.tolist() == [index[u] for u, _, _ in events]
    assert tel.edge_v.tolist() == [index[v] for _, v, _ in events]
    assert tel.edge_t.tolist() == [t for _, _, t in events]
    assert tel.node_first_t.tolist() == first_t


@pytest.mark.parametrize("fmt", FORMATS)
@given(data=st.data())
def test_serialize_round_trips_and_snapshots_nest(fmt, data):
    tel = parse_edge_events(data.draw(event_lines(fmt)), fmt=fmt)
    buf = io.StringIO()
    serialize_edge_events(tel, buf)
    again = parse_edge_events(buf.getvalue().splitlines())
    assert again.rejects == ()
    assert again.events == tel.events and again.node_ids == tel.node_ids
    for name in ("edge_u", "edge_v", "edge_t", "node_first_t"):
        assert np.array_equal(getattr(again, name), getattr(tel, name))

    prev_edges, prev_nodes = set(), 0
    for t in [tel.t_min - 1] + sorted(set(tel.edge_t.tolist())):
        g = snapshot_at(tel, t)
        edges = set(map(tuple, g.edges.tolist()))
        seen = [e for e in tel.events if e[2] <= t]
        assert len(edges) == len(seen)
        assert g.node_count == len({x for u, v, _ in seen for x in (u, v)})
        assert prev_edges <= edges and prev_nodes <= g.node_count
        prev_edges, prev_nodes = edges, g.node_count
    assert prev_nodes == len(tel.node_ids)


@given(data=st.data())
def test_evaluation_forecasts_from_snapshot_spectra(data):
    tel = parse_edge_events(data.draw(event_lines("whitespace3col")))
    times = sorted(set(tel.edge_t.tolist()))
    tt = data.draw(st.sampled_from(times))
    te = data.draw(st.sampled_from([t for t in times if t >= tt]))
    k = data.draw(st.integers(1, 4))
    summary, detail = evaluation_run(tel, [tt], [te - tt], k)
    g_train, g_test = snapshot_at(tel, tt), snapshot_at(tel, te)
    if k > g_train.node_count:
        assert summary == [] and detail == []
        return
    actual, prop, base = forecast_top_k(degree_spectrum(g_train), degree_spectrum(g_test), k)
    assert (summary[0]["n_train"], summary[0]["n_test"]) == (g_train.node_count, g_test.node_count)
    assert [r["actual"] for r in detail] == actual.tolist()
    assert [r["predicted_proposed"] for r in detail] == prop.tolist()
    assert [r["predicted_baseline"] for r in detail] == base.tolist()
