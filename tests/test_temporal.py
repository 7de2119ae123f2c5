"""Temporal edge-list parsing, snapshots, and forecast evaluation."""

import csv
import dataclasses
import hashlib
import io
import os
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphmix import temporal
from graphmix import (
    TemporalFormatError,
    degree_spectrum,
    evaluation_run,
    forecast_top_k,
    parse_edge_events,
    serialize_edge_events,
    snapshot_at,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "synthetic_growth.events")
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


def test_edge_lists_compare_by_value():
    with open(FIXTURE) as f:
        rows = f.readlines()[:200]
    a, b = parse_edge_events(rows), parse_edge_events(rows)
    assert a == b and not a != b
    assert a != parse_edge_events(rows[:199])
    assert a != parse_edge_events(rows[:199] + ["x y 1"])
    with pytest.raises(TypeError):
        hash(a)


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


def test_parse_logs_one_warning_for_all_rejects(caplog):
    lines = [f"a{i} b{i} {i}" for i in range(1, 31)]
    lines[4], lines[9], lines[20] = "z z 5", "p q", "p q soon"
    with caplog.at_level("WARNING", logger="graphmix.temporal"):
        tel = parse_edge_events(lines)
    assert [ln for ln, _ in tel.rejects] == [5, 10, 21]
    (record,) = caplog.records
    assert record.getMessage() == "rejected 3 of 30 rows; first: line 5: self loop at node 'z'"


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
    tel = parse_edge_events(["u,v,t", "1,2,5", "2,3,6"])
    assert len(tel.events) == 2
    assert tel.t_min == 5
    # without the header the rows are whitespace data, one token each
    with pytest.raises(ValueError, match="no usable edge events"):
        parse_edge_events(["src,dst,when", "1,2,5"])
    tel = parse_edge_events(["1,2,5"] + GOOD_LINES * 5)
    assert tel.rejects == ((1, "expected three columns"),)
    # a CSV cell, unlike a whitespace token, can be empty
    tel = parse_edge_events(["u,v,t", ",b,1", "a,,2", '"",b,3', " ,b,4"] + ["1,2,5"] * 40)
    assert tel.rejects == tuple((line, "empty node id") for line in (2, 3, 4, 5))
    assert tel.node_ids == ("1", "2")


@pytest.mark.parametrize(
    "header", ["u,v,t\n", '"u","v","t"\r\n', " u , v , t ", "U,V,T", '"U" ,v,\tt']
)
def test_csv_header_is_read_from_the_first_row(header):
    tel = parse_edge_events([header, "a, b,2\n", "b,c ,1\n"])
    assert tel.events == (("b", "c", 1), ("a", "b", 2))
    assert tel.rejects == ()


def test_a_byte_order_mark_starting_the_first_row_is_dropped():
    # a file read without utf-8-sig keeps the mark on its first row
    for lines in (["a b 1", "b a 2", "a c 3"], ["u,v,t", "a,b,1"]):
        assert parse_edge_events(["\ufeff" + lines[0], *lines[1:]]) == parse_edge_events(lines)
    # only one mark, and only there: any other U+FEFF is part of its id
    tel = parse_edge_events(["\ufeff\ufeffa b 1", "\ufeffc d 2"])
    assert tel.node_ids == ("\ufeffa", "b", "\ufeffc", "d")


@pytest.mark.parametrize(
    "lines, events, rejects",
    [
        # a blank first row: whitespace data, and the u,v,t row a reject
        (["", "u,v,t"] + GOOD_LINES * 5, (("1", "2", 5), ("2", "3", 6)),
         ((2, "expected three columns"),)),
        # bytes rows are never a header
        ([b"u,v,t"] + [b"a b 1"] * 10, ((b"a", b"b", 1),), ((1, "expected three columns"),)),
        # a row csv cannot read (a bare \r inside) is no header, but a whitespace row
        (["a\rb 1", "b c 2"], (("a", "b", 1), ("b", "c", 2)), ()),
        # a quoted newline does not carry a header onto the next line
        (['"u\n', '",v,t\n'] + GOOD_LINES * 10, (("1", "2", 5), ("2", "3", 6)),
         ((1, "expected three columns"), (2, "expected three columns"))),
        # under a header, a whitespace row is a one-cell CSV record
        (["u,v,t", "a b 1", "a,b,2", "b,c,3"] + ["c,d,4"] * 8,
         (("a", "b", 2), ("b", "c", 3), ("c", "d", 4)), ((2, "expected three columns"),)),
        # the first row is taken from the iterator, not read twice
        (iter(["u,v,t", "a,b,1", "b,c,2"]), (("a", "b", 1), ("b", "c", 2)), ()),
    ],
    ids=["blank-first-row", "bytes", "csv-unreadable", "quoted-newline", "header", "iterator"],
)
def test_first_row_alone_decides_the_format(lines, events, rejects):
    tel = parse_edge_events(lines)
    assert tel.events == events
    assert tel.rejects == rejects


def test_csv_rejects_name_the_line_a_record_starts_on():
    # lines 2-3 hold one record (a quoted id with a newline), line 16 a self loop
    lines = ["u,v,t\n", '"a\n', 'b",c,1\n'] + [f"x{i},y{i},2\n" for i in range(12)]
    lines += ["p,p,3\n", '"q\n', "\n", 'r",q,4\n', "s,s,5\n"]
    lines += [f"z{i},w{i},6\n" for i in range(10)]
    tel = parse_edge_events(lines)
    assert tel.node_ids[0] == "a\nb"
    assert tel.rejects == ((16, "self loop at node 'p'"), (20, "self loop at node 's'"))


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


def written(tel):
    buf = io.StringIO()
    serialize_edge_events(tel, buf)
    return buf.getvalue()


def oracle_text(tel):
    return "".join(f"{u} {v} {t}\n" for u, v, t in tel.events)


@pytest.mark.parametrize(
    "lines",
    [
        ["é 日本語 1", "日本語 ñandú 2", "é ñandú 3", "\udcff x 4"],
        # ids of 1, 8, 9 and 200 bytes, spanning one to 25 words
        ["a abcdefgh 1", "abcdefghi " + "z" * 200 + " 2", "a " + "z" * 200 + " 3"],
        [b"a b 2", b"b c 1"],
        [f"a b {-(2**63)}", f"b c {2**63 - 1}", "c a 0"],
    ],
    ids=["non-ascii", "id-lengths", "bytes-rows", "int64-ends"],
)
def test_serialize_writes_exactly_the_events(lines):
    tel = parse_edge_events(lines)
    assert written(tel) == oracle_text(tel)


def test_serialize_joins_strings_for_a_block_with_a_nul_id():
    # the NUL id comes from a row-loop block; the word rows would lose its
    # NUL, so a block that holds it is joined from strings
    lines = ["a b 1", "b c 2", "nul\0id a 3", "c d 4", "d e 5", "e a 6"]
    tel = parse_edge_events(lines)
    assert "nul\0id" in tel.node_ids
    for block_rows in (2, temporal._BLOCK_ROWS):
        with mock.patch.object(temporal, "_BLOCK_ROWS", block_rows):
            assert written(tel) == oracle_text(tel)


@pytest.mark.parametrize("n", [500, 50], ids=["table", "block"])
def test_serialize_joins_strings_for_one_long_id(n):
    # with 506 ids, a word table as wide as a 10,000-byte id would take
    # ~5 MB; with 92 the table takes 0.9 MB, but the block's word matrix
    # would take ~40 MB; the writer joins strings instead
    rows = [f"a{i % n} b{i // n} {i}" for i in range(2000)]
    rows.insert(1000, f"{'x' * 10_000} y 5")
    tel = parse_edge_events(rows)
    tracemalloc.start()
    try:
        text = written(tel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert text == oracle_text(tel)


def test_fixture_parse_and_serialize_are_pinned():
    # digests taken before parsing and writing worked in blocks of rows;
    # they pin the byte identity of both
    with open(FIXTURE) as f:
        tel = parse_edge_events(f)
    buf = io.StringIO()
    serialize_edge_events(tel, buf)
    digests = {
        "text": buf.getvalue().encode(),
        "node_ids": "\n".join(tel.node_ids).encode(),
        "edge_t": tel.edge_t.astype("<i8").tobytes(),
        "node_first_t": tel.node_first_t.astype("<i8").tobytes(),
    }
    assert {k: hashlib.sha256(v).hexdigest() for k, v in digests.items()} == {
        "text": "9370897db2edb045786ff7ccd10cf36e5082e5ecbde5cd6c1925368424206dfe",
        "node_ids": "3d66561e6400e06b215d1fbeff563fec5eb14b9213bc646a0f9369308138eff1",
        "edge_t": "736c5233a36be43bff4223f5b644ac09491ae682a1c932acd7bbf1d0166ea040",
        "node_first_t": "549366b767cc4d71e733a3cc28f04d0173859ed949e6677cb38e860b94e943ab",
    }
    with open(FIXTURE) as f:
        assert parse_edge_events(f.read().splitlines()).events == tel.events


def test_parsed_arrays_are_contiguous():
    for tel in (
        parse_edge_events(STAR_LINES),
        parse_edge_events(["u,v,t", "a,b,2", "b,c,1"]),
    ):
        for name in ("edge_u", "edge_v", "edge_t", "node_first_t"):
            assert getattr(tel, name).flags.c_contiguous, name
            with pytest.raises(ValueError, match="read-only"):
                getattr(tel, name)[:] = 0
            # a writable copy still goes through replace()
            moved = getattr(tel, name) + 1
            assert getattr(dataclasses.replace(tel, **{name: moved}), name) is moved


def test_parse_rows_that_are_not_str():
    # bytes rows cannot be joined into one text; the row loop splits them
    tel = parse_edge_events([b"a b 2", b"b c 1"])
    assert tel.events == ((b"b", b"c", 1), (b"a", b"b", 2))


def test_long_ids_parse_in_bulk():
    # ids of any length are split and classed with numpy, not the row loop
    long_ids = ["h" * 200, "h" * 199 + "i", "0123456789abcdef" * 2 + "01234567"]
    lines = [f"{u} {v} {t}" for t, (u, v) in enumerate([long_ids[:2], long_ids[1:], long_ids[::2]])]
    with mock.patch.object(temporal, "_scan_rows", side_effect=AssertionError("row loop")):
        tel = parse_edge_events(lines)
    assert tel.node_ids == tuple(long_ids)
    assert tel.edge_u.tolist() == [0, 1, 0] and tel.edge_v.tolist() == [1, 2, 2]


@pytest.mark.parametrize("fmt", ["whitespace3col", "csv3col"])
def test_one_long_id_keeps_the_parse_small(fmt):
    # a table as wide as the longest id for every id would take ~40 MB here;
    # the block goes to the row loop instead, with the same result
    rows = [f"a{i % 500} b{i % 700} {i}" for i in range(2000)]
    rows.insert(1000, f"{'x' * 10_000} y 5")
    if fmt == "csv3col":
        rows = ["u,v,t"] + [r.replace(" ", ",") for r in rows]
    tracemalloc.start()
    try:
        tel = parse_edge_events(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    with mock.patch.object(temporal, "_bulk_rows", return_value=None):
        slow = parse_edge_events(rows)
    for field in dataclasses.fields(tel):
        assert np.array_equal(getattr(tel, field.name), getattr(slow, field.name))
    assert "x" * 10_000 in tel.node_ids


@pytest.mark.parametrize("n", [1, 10])
def test_a_csv_cell_beyond_the_csv_field_limit_fails_whatever_its_neighbours(n):
    # csv refuses a cell longer than csv.field_size_limit(), and so does the
    # parse, with or without the short rows that make its id table too wide
    rows = ["u,v,t", "x" * 200_000 + ",y,1"] + [f"a{i},b{i},2" for i in range(n)]
    with pytest.raises(csv.Error, match="field larger than field limit"):
        reference_parse(rows, "csv3col")
    with pytest.raises(TemporalFormatError, match="^line 2: field larger than field limit"):
        parse_edge_events(rows)
    limit = csv.field_size_limit(300_000)
    try:
        assert matches_reference(parse_edge_events(rows), rows, "csv3col")
    finally:
        csv.field_size_limit(limit)
    # whitespace rows have no cell limit
    spaced = [r.replace(",", " ") for r in rows[1:]]
    assert matches_reference(parse_edge_events(spaced), spaced, "whitespace3col")


def test_quote_free_csv_parses_in_bulk():
    # rows like the bench stream's, with blank rows, blanks at cell edges and
    # rejects, are split with numpy: the row loop never runs
    rng = np.random.default_rng(0)
    u, v = rng.integers(0, 60, 300), rng.integers(60, 120, 300)
    rows = [f"n{a},n{b},{t}\n" for a, b, t in zip(u, v, np.sort(rng.integers(1, 99, 300)))]
    rows[10], rows[20], rows[30] = "n3,n3,5\n", "n4,n5\n", "n6,n7,8,9\n"
    rows[40], rows[50], rows[60] = " n8 ,\tn9 , 17 \n", ",,\n", "n1,n2,soon\n"
    rows[70] = "  \n"
    lines = ["u,v,t\n"] + rows
    with mock.patch.object(temporal, "_scan_rows", side_effect=AssertionError("row loop")):
        for block_rows in (7, temporal._BLOCK_ROWS):
            with mock.patch.object(temporal, "_BLOCK_ROWS", block_rows):
                tel = parse_edge_events(lines)
            events, node_ids, first_t, rejects = reference_parse(lines, "csv3col")
            assert tel.events == tuple(events) and tel.node_ids == tuple(node_ids)
            assert tel.node_first_t.tolist() == first_t
            assert tel.rejects == tuple(rejects)
            assert [line for line, _ in rejects] == [12, 22, 32, 62]
    # the same events as whitespace rows, one line earlier
    spaced = parse_edge_events([r.replace(",", " ") for r in rows])
    assert spaced.events == tel.events and spaced.node_ids == tel.node_ids
    assert spaced.rejects == tuple((line - 1, why) for line, why in tel.rejects)


def test_quoted_field_in_a_later_block_is_read_by_csv():
    # blocks of 4 rows in slices of 2: lines 2-9 are split with numpy; the
    # quote on line 11 hands the rest to csv, whose record at lines 11-12
    # spans two slices and whose record at lines 13-15 spans two blocks
    lines = ["u,v,t\n"] + [f"x{i},y{i},2\n" for i in range(8)]
    lines += ["p,p,3\n", '"a\n', 'b",c,1\n', '"d\n', "\n", 'e",c,5\n', "q,q,4\n"]
    lines += [f"z{i},w{i},6\n" for i in range(10)]
    scan = mock.patch.object(temporal, "_scan_rows", wraps=temporal._scan_rows)
    with mock.patch.object(temporal, "_BLOCK_ROWS", 4), \
            mock.patch.object(temporal, "_BLOCK_CHARS", 30), scan as scanned:
        tel = parse_edge_events(lines)
    assert scanned.call_count == 1
    events, node_ids, _, rejects = reference_parse(lines, "csv3col")
    assert tel.events == tuple(events) and tel.node_ids == tuple(node_ids)
    assert ("a\nb", "c", 1) in tel.events and ("d\n\ne", "c", 5) in tel.events
    assert tel.rejects == tuple(rejects)
    assert tel.rejects == ((10, "self loop at node 'p'"), (16, "self loop at node 'q'"))


@pytest.mark.parametrize(
    "lines, line",
    [
        (["u,v,t", "a,b,1", "c\rd,e,2"], 3),
        (["u,v,t", "a,b,1", "c\r,e,2"], 3),
        (["u,v,t"] + [f"a{i},b{i},1" for i in range(9)] + ["c\n,e,2"], 11),
    ],
    ids=["carriage-return", "carriage-return-at-a-cell-end", "newline-in-a-later-block"],
)
def test_unreadable_csv_record_is_a_format_error(lines, line):
    with mock.patch.object(temporal, "_BLOCK_ROWS", 4):
        with pytest.raises(TemporalFormatError, match=f"^line {line}: new-line character seen"):
            parse_edge_events(lines)


def test_id_hash_collisions_are_told_apart():
    # with the multiplier at 0 every id hashes to 0, so these ids collide;
    # checking each id against its class's row splits them
    ids = ["aaaaaaaa1", "bbbbbbbb1", "cccccccc1"]
    lines = [f"{ids[0]} {ids[1]} 1", f"{ids[1]} {ids[2]} 2", f"{ids[0]} {ids[1]} 3"]
    with mock.patch.object(temporal, "_MIX", np.uint64(0)):
        tel = parse_edge_events(lines)
    assert tel.node_ids == tuple(ids)
    assert tel.events == ((ids[0], ids[1], 1), (ids[1], ids[2], 2))
    assert tel.rejects == ()


def matches_reference(tel, lines, fmt):
    events, node_ids, first_t, rejects = reference_parse(lines, fmt)
    index = {x: i for i, x in enumerate(node_ids)}
    return (
        tel.events == tuple(events)
        and tel.node_ids == tuple(node_ids)
        and tel.rejects == tuple(rejects)
        and tel.edge_u.tolist() == [index[u] for u, _, _ in events]
        and tel.edge_v.tolist() == [index[v] for _, v, _ in events]
        and tel.node_first_t.tolist() == first_t
    )


@pytest.mark.parametrize("row", ["c\u3000d 3", "nul\0id d 3"], ids=["wide-space", "nul-id"])
def test_ids_shared_across_a_row_loop_block(row):
    # in blocks of 2 rows, the middle block takes the row loop and shares
    # ids with the numpy blocks on both sides; every id keeps one index
    lines = ["a b 1", "b c 2", row, "d a 4", "a e 5", "e c 6", "d f 7", "b d 8"]
    for block_rows, loops in ((2, 1), (temporal._BLOCK_ROWS, 1)):
        scan = mock.patch.object(temporal, "_scan_rows", wraps=temporal._scan_rows)
        with mock.patch.object(temporal, "_BLOCK_ROWS", block_rows), scan as scanned:
            tel = parse_edge_events(lines)
        assert scanned.call_count == loops
        assert matches_reference(tel, lines, "whitespace3col")


def test_ids_are_decoded_once_per_parse():
    # numpy blocks of 3 rows over 12 ids: each id is decoded once per
    # parse, not once per block, and the row loop never runs
    rng = np.random.default_rng(0)
    pairs = rng.choice(12, (60, 2), replace=True)
    lines = [f"id{a}x{'y' * (a % 11)} id{b}x{'y' * (b % 11)} {t}" for t, (a, b) in enumerate(pairs)]
    decoded, names = [], temporal._names

    def decode(words):
        out = names(words)
        decoded.extend(out)
        return out

    with mock.patch.object(temporal, "_BLOCK_ROWS", 3), \
            mock.patch.object(temporal, "_names", side_effect=decode), \
            mock.patch.object(temporal, "_scan_rows", side_effect=AssertionError("row loop")):
        tel = parse_edge_events(lines)
    assert sorted(decoded) == sorted(tel.node_ids)
    assert matches_reference(tel, lines, "whitespace3col")


def test_ids_only_in_rejected_rows_get_no_index():
    # "x" occurs only in a self loop and "y" only in a row with a bad stamp;
    # each numpy block classes every id of its rows, rejected ones included,
    # and only the ids of kept events get an index
    lines = [f"a{i} b{i} {i}" for i in range(1, 31)]
    lines[4], lines[11], lines[20] = "x x 5", "y a3 soon", "a2 y 99999999999999999999"
    for block_rows in (3, temporal._BLOCK_ROWS):
        with mock.patch.object(temporal, "_BLOCK_ROWS", block_rows), \
                mock.patch.object(temporal, "_scan_rows", side_effect=AssertionError("row loop")):
            tel = parse_edge_events(lines)
        assert "x" not in tel.node_ids and "y" not in tel.node_ids
        assert len(tel.node_ids) == 2 * 27 and len(tel.rejects) == 3
        assert matches_reference(tel, lines, "whitespace3col")


def test_id_hash_collisions_across_blocks_are_told_apart():
    # with the multiplier at 0 every id hashes to 0; in blocks of one row,
    # an id's hash matches entries of other ids from earlier blocks
    ids = ["aaaaaaaa1", "bbbbbbbb1", "cccccccc1", "dddddddd1"]
    lines = [f"{ids[0]} {ids[1]} 1", f"{ids[2]} {ids[1]} 2", f"{ids[3]} {ids[0]} 3"]
    lines += [f"{ids[2]} {ids[0]} 4", f"{ids[1]} {ids[3]} 5", f"{ids[1]} {ids[0]} 6"]
    with mock.patch.object(temporal, "_MIX", np.uint64(0)), \
            mock.patch.object(temporal, "_BLOCK_ROWS", 1):
        tel = parse_edge_events(lines)
    assert tel.node_ids == (ids[0], ids[1], ids[2], ids[3])
    assert matches_reference(tel, lines, "whitespace3col")


def test_long_ids_across_blocks_keep_the_parse_small():
    # ids are tabled at their own width: a table as wide as the 20,000-byte
    # ids for every id would take ~160 MB here
    rows = [f"a{i % 500} b{i % 700} {i}" for i in range(4000)]
    rows.insert(1000, f"{'x' * 20_000} y 5")
    rows.insert(3000, f"{'z' * 20_000} {'x' * 20_000} 6")
    with mock.patch.object(temporal, "_BLOCK_ROWS", 2):
        tracemalloc.start()
        try:
            tel = parse_edge_events(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4 * 2**20
    assert matches_reference(tel, rows, "whitespace3col")


def _unique_calls():
    return mock.patch.object(temporal.np, "unique", wraps=np.unique)


def test_ids_whose_hashes_agree_get_distinct_classes():
    # a two-word id a + b hashes as finish(mix(a) ^ b), mix(w) = (w ^ w >> 29)
    # * _MIX; b2 = mix(a1) ^ b1 ^ mix(a2) gives a second id with the same
    # hash, all 64 bits; a2 is the first of 50,000 printable draws whose b2
    # is printable too
    def mix(w):
        return (w ^ (w >> np.uint64(29))) * temporal._MIX

    def word(text):
        return np.frombuffer(text.encode(), dtype=np.uint64)

    a1, b1 = "abcdefgh", "ijklmnop"
    rng = np.random.default_rng(0)
    a2 = rng.integers(0x21, 0x7F, (50_000, 8), dtype=np.uint8).view(np.uint64).ravel()
    b2 = (mix(word(a1)) ^ word(b1) ^ mix(a2)).view(np.uint8).reshape(-1, 8)
    hit = np.flatnonzero(((b2 >= 0x21) & (b2 < 0x7F)).all(axis=1))[0]
    ids = [a1 + b1, (a2[hit:hit + 1].tobytes() + b2[hit].tobytes()).decode()]
    lines = [f"{ids[0]} {ids[1]} 1", f"{ids[1]} x 2", f"x {ids[0]} 3", f"{ids[1]} {ids[0]} 4"]
    with _unique_calls() as unique:
        tel = parse_edge_events(lines)
    assert any(call.kwargs.get("axis") == 0 for call in unique.call_args_list)
    assert tel.node_ids == (ids[0], ids[1], "x")
    assert tel.events == ((ids[0], ids[1], 1), (ids[1], "x", 2), ("x", ids[0], 3))
    assert tel.rejects == ()


def test_ids_of_two_words_class_without_the_row_fallback():
    # ids that differ only in their second word's first bytes must spread
    # over the hash's kept high bits, or every block would tie
    rows = [f"user_{i:06d} user_{(i * 7919 + 1) % 40_000:06d} {i}" for i in range(40_000)]
    with _unique_calls() as unique:
        tel = parse_edge_events(rows)
    assert not [call for call in unique.call_args_list if call.kwargs.get("axis") == 0]
    assert len(tel.node_ids) == 40_000 and len(tel.events) == 40_000


def test_bulk_tokenizer_splits_like_str_split():
    # the byte classes the bulk parse splits at, and the characters that
    # send a block to the row loop, are exactly str.split's whitespace
    seps = np.flatnonzero(temporal._SEPARATOR).tolist()
    assert seps == [0] + [c for c in range(128) if chr(c).isspace()]
    wide = map(chr, range(128, sys.maxunicode + 1))
    assert temporal._WIDE_SPACE == "".join(filter(str.isspace, wide))


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


def test_evaluation_builds_each_train_spectrum_once():
    # the README's predict example: 2 train times, 2 horizons each
    rng = np.random.default_rng(0)
    lines = [f"n{rng.integers(t + 5)} n{t + 5} {t}" for t in range(1, 101) for _ in range(3)]
    tel = parse_edge_events(lines)
    train_times, horizons = [80, 85], [6, 8]
    degrees = mock.patch.object(temporal, "_degrees_at", wraps=temporal._degrees_at)
    with degrees as counted:
        summary, detail = evaluation_run(tel, train_times, horizons, k=10)
    assert counted.call_count == len(train_times) * (1 + len(horizons))
    # the same rows as one run per (train time, horizon) pair
    runs = [evaluation_run(tel, [tt], [h], k=10) for tt in train_times for h in horizons]
    assert len(summary) == 4
    assert summary == [row for rows, _ in runs for row in rows]
    assert detail == [row for _, rows in runs for row in rows]


def test_evaluation_rejects_negative_horizon():
    tel = parse_edge_events(STAR_LINES)
    with pytest.raises(ValueError, match="horizons must be >= 0"):
        evaluation_run(tel, [2], [1, -1], k=1)


# ---------------------------------------------------------------------------
# properties against a row-by-row reference of the parse_edge_events rules

FORMATS = ["whitespace3col", "csv3col"]
IDS = ["a", "b", "c", "d", "10", "2"]
# ids of 8 to 41 bytes sharing their first 8, so they span up to six 8-byte
# words, hex hashes differing only in their last byte, and non-ASCII ids
HASH = "0123456789abcdef0123456789abcdef0123456"
WIDE_IDS = [
    "abcdefgh", "abcdefgh1", "abcdefgh2", "abcdefghijklmnopqrst", "abcdefgh" * 5 + "i",
    HASH + "7", HASH + "8", "é", "日本語",
]
# an id the bulk parse leaves to the row loop, because it holds a NUL
ROW_LOOP_ID = "nul\0id"
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# integer timestamps int() accepts in other spellings; the 19-digit ones
# and the non-ASCII digit take the int() path of the bulk parse
STAMP_TEXTS = [
    "+4", "007", "1_0", "-0", "٣", "999999999999999999", "1000000000000000000",
    str(INT64_MIN), str(INT64_MAX), "00009223372036854775807",
]
# one separator per example: the ASCII ones, an embedded newline, and
# non-ASCII spaces that send the block to the row loop
SEPARATORS = [" ", "\t", "   ", "\x1c", "\n", "\xa0", "\u3000"]


def reference_parse(lines, fmt):
    """(events, node_ids, node_first_t, rejects) by the documented rules."""
    if fmt == "csv3col":  # records after the u,v,t header, by the line they start on
        reader, records, start = csv.reader(lines[1:]), [], 2
        for row in reader:
            records.append((start, [c.strip() for c in row]))
            start = reader.line_num + 2
    else:
        records = [(lineno, line.split()) for lineno, line in enumerate(lines, 1)]
    rejects, usable = [], []
    for lineno, cells in records:
        if not any(cells):
            continue
        if len(cells) != 3:
            rejects.append((lineno, "expected three columns"))
            continue
        u, v, t = cells
        if not (u and v):
            rejects.append((lineno, "empty node id"))
            continue
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
    node = st.sampled_from(IDS + draw(st.sampled_from([[], WIDE_IDS])))
    stamp = st.one_of(st.integers(-3, 8).map(str), st.sampled_from(STAMP_TEXTS))
    good = draw(
        st.lists(
            st.tuples(node, node, stamp).filter(lambda r: r[0] != r[1]),
            min_size=9,  # room for at least one reject
            max_size=40,
        )
    )
    if fmt == "whitespace3col" and draw(st.booleans()):
        at = draw(st.integers(0, len(good) - 1))
        good[at] = (ROW_LOOP_ID, *good[at][1:])
    bad_stamp = st.sampled_from(
        ["soon", "1.5", "+", "1__0", str(INT64_MAX + 1), str(INT64_MIN - 1)]
    )
    bad = st.one_of(
        node.map(lambda u: (u, u, "1")),
        st.lists(node, min_size=1, max_size=2).map(tuple),
        st.lists(node, min_size=4, max_size=4).map(tuple),
        st.tuples(node, node, bad_stamp),
    )
    if fmt == "csv3col":  # only a CSV cell can be empty
        bad |= node.map(lambda u: ("", u, "2"))
    rows = good + draw(st.lists(bad, max_size=len(good) // 9))
    rows += [()] * draw(st.integers(0, 3))  # blank rows
    rows = draw(st.permutations(rows))
    if fmt == "csv3col":
        if rows and rows[-1] and draw(st.booleans()):  # a quoted cell sends the rest to csv
            rows[-1] = (f'"{rows[-1][0]}"', *rows[-1][1:])
        sep = draw(st.sampled_from([",", " ,", ",\t"]))  # blanks at cell edges are stripped
        return ["u,v,t"] + [sep.join(r) for r in rows]
    sep = draw(st.sampled_from(SEPARATORS))
    return [sep.join(r) + draw(st.sampled_from(["", "\n", "  "])) for r in rows]


@pytest.mark.parametrize("fmt", FORMATS)
@given(data=st.data())
def test_parse_matches_reference(fmt, data):
    lines = data.draw(event_lines(fmt))
    # small blocks put block boundaries, and ids seen in earlier blocks, in
    # reach; a small character cap splits blocks into row slices; a zero
    # packing limit takes the deduplication that packs no positions; a zero
    # multiplier hashes every id to 0, so ids of one block and of different
    # blocks collide
    block_rows = data.draw(st.sampled_from([3, 16, temporal._BLOCK_ROWS]))
    block_chars = data.draw(st.sampled_from([24, 200, temporal._BLOCK_CHARS]))
    packed_limit = data.draw(st.sampled_from([0, temporal._PACKED_LIMIT]))
    mix = data.draw(st.sampled_from([np.uint64(0), temporal._MIX]))
    with mock.patch.object(temporal, "_BLOCK_ROWS", block_rows), \
            mock.patch.object(temporal, "_BLOCK_CHARS", block_chars), \
            mock.patch.object(temporal, "_PACKED_LIMIT", packed_limit), \
            mock.patch.object(temporal, "_MIX", mix):
        tel = parse_edge_events(lines)
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
    tel = parse_edge_events(data.draw(event_lines(fmt)))
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


@pytest.mark.parametrize("fmt", FORMATS)
@given(data=st.data())
def test_serialize_writes_the_events_as_rows(fmt, data):
    tel = parse_edge_events(data.draw(event_lines(fmt)))
    block_rows = data.draw(st.sampled_from([3, temporal._BLOCK_ROWS]))
    with mock.patch.object(temporal, "_BLOCK_ROWS", block_rows):
        assert written(tel) == oracle_text(tel)


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
