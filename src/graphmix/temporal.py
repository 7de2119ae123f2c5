"""Timestamped edge lists and cumulative-snapshot evaluation.

Real networks arrive as (u, v, t) events: whitespace rows, or CSV under
a 'u,v,t' header, told apart by the first row.  Parsing relabels node
ids to dense integers in order of first appearance, drops self loops
and malformed rows (keeping a reject log in line order), and keeps the
earliest timestamp per undirected pair.  Timestamps are integers that
fit int64.  A TemporalEdgeList holds the node ids plus read-only index
arrays; its events are derived from them.  _index_events builds every
TemporalEdgeList, parsed or generated.  Snapshots are cumulative:
snapshot_at(t) contains every node and edge seen up to and including t,
so earlier snapshots are induced prefixes of later ones.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, NamedTuple, TextIO

import numpy as np

from .graph import DegreeSpectrum, Graph, _count, _fields_equal, _int
from .estimators import forecast_top_k, mape

__all__ = [
    "TemporalFormatError",
    "TemporalEdgeList",
    "parse_edge_events",
    "serialize_edge_events",
    "snapshot_at",
    "evaluation_run",
]

log = logging.getLogger(__name__)

_BLOCK_ROWS = 65_536  # rows parsed or written per bulk block
_BLOCK_CHARS = 2_500_000  # a block with more characters is parsed in equal row slices
_FAST_DIGITS = 18  # longer timestamps go through int(); 10**18 fits int64
_PACKED_LIMIT = 2**63  # value << bits | position packs into int64 below this
# a block whose id-word table would take more bytes than this many per byte
# of its text, plus the slack, takes the row loop
_KEY_BYTES_PER_BYTE = 4
_KEY_BYTES_SLACK = 2**20
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier of the id-word hash
# _HEAD_BYTES[k] keeps the first k bytes of an 8-byte word, in memory order
_HEAD_BYTES = (np.tri(9, 8, -1, dtype=np.uint8) * 255).view(np.uint64).ravel()
# _SEPARATOR[c] for bytes c up to space: does c end a token?  NUL ends a
# row of a block; \t..\r and \x1c..space are what str.split treats as
# whitespace in ASCII
_SEPARATOR = np.isin(np.arange(33), [0, *range(9, 14), *range(28, 33)])
# the same for bytes up to the comma, which also ends a token of a CSV block
_CELL_SEPARATOR = np.concatenate([_SEPARATOR, np.arange(33, 45) == ord(",")])
# the non-ASCII characters str.split treats as whitespace
_WIDE_SPACE = (
    "\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000"
)


class TemporalFormatError(ValueError):
    """Input stream is not a usable temporal edge list."""


@dataclass(frozen=True, eq=False)
class TemporalEdgeList:
    """Cleaned events sorted by time, deduplicated to earliest-seen pairs."""

    node_ids: tuple  # dense index -> original id, in first-appearance order
    rejects: tuple  # (line_number, reason), in line order
    edge_u: np.ndarray = field(repr=False)  # dense endpoint indexes
    edge_v: np.ndarray = field(repr=False)
    edge_t: np.ndarray = field(repr=False)
    node_first_t: np.ndarray = field(repr=False)

    __eq__ = _fields_equal
    __hash__ = None

    @property
    def events(self) -> tuple:
        """(u_id, v_id, t) per kept event, with the original id strings."""
        ids = np.asarray(self.node_ids, dtype=object)
        u, v = ids[self.edge_u].tolist(), ids[self.edge_v].tolist()
        return tuple(zip(u, v, self.edge_t.tolist()))

    @property
    def t_min(self) -> int:
        return int(self.edge_t[0])

    @property
    def t_max(self) -> int:
        return int(self.edge_t[-1])


def parse_edge_events(lines: Iterable[str]) -> TemporalEdgeList:
    """Parse, clean and index a stream of "u v t" events.

    lines is any iterable of str rows, an open text file included; it is
    read a block of rows at a time, never held whole.  A U+FEFF (byte
    order mark) that starts the first row is dropped.  That row alone
    decides the format: if csv reads it as the cells u, v, t (stripped,
    any case), it is a header and the rest is CSV; otherwise every row,
    the first included, is whitespace-split.  Blank rows are skipped; a
    row is rejected when it has other than three columns, a timestamp
    that is not an integer inside int64, or u == v.
    Among the rest, sorted stably by time, the first row of each
    unordered pair is kept.  A reject names the line its row starts on;
    a CSV record with a quoted newline spans several lines.

    Rows are split with numpy in blocks of _BLOCK_ROWS rows, a block of
    more than _BLOCK_CHARS characters in equal row slices; the result
    does not depend on the block size.  A CSV block is split this way,
    with commas as spaces, when its rows hold no quote, no carriage
    return and no newline but at their end, no cell of more bytes than
    csv.field_size_limit(), and every non-blank row has one token per
    cell; csv reads the block otherwise, and from the first block with
    a quote or such a line break csv reads the rest of the input.  Each
    block codes its own ids; at the end of the parse, _interned classes
    the ids of all blocks in one step, so each distinct id gets one
    index and is decoded once.

    Raises TemporalFormatError when a row is not a str (naming its
    line), when more than 10% of data rows are unusable or a CSV record
    cannot be read, and ValueError when nothing usable remains at all.
    """
    rows = iter(lines)
    head = list(islice(rows, 1))
    _joined(head, 1)  # a first row that is not a str raises here
    head = [r.removeprefix("\ufeff") for r in head]
    try:  # text csv cannot read is no header
        header = [c.strip().lower() for c in next(csv.reader(head), [])]
    except csv.Error:
        header = None
    if header == ["u", "v", "t"]:
        blocks = list(_csv_blocks(rows))
    else:
        blocks = [
            _bulk_rows(data, len(block), first_line)
            or _scan_rows(enumerate((raw.split() for raw in block), first_line))
            for first_line, block, data in _row_blocks(chain(head, rows), 1)
        ]
    rows = _interned(blocks)
    del blocks
    return _index_events(rows)


class _Rows(NamedTuple):
    """Usable events of consecutive rows, whose endpoint codes index ids."""

    eu: np.ndarray
    ev: np.ndarray
    et: np.ndarray
    rejects: list  # (line_number, reason), in line order
    seen: int  # rows that are not blank
    # the distinct ids, one per code: a numpy block's as rows of NUL-padded
    # 8-byte words (_word_rows), names otherwise
    ids: np.ndarray | list


def _check_stamp(t_text: str) -> int | str:
    """The timestamp's value, or the reason its row is rejected."""
    try:
        t = _int(t_text)
    except ValueError:
        return f"non-integer timestamp {t_text!r}"
    if not -(2**63) <= t < 2**63:
        return f"timestamp {t_text!r} outside int64"
    return t


def _row_blocks(rows: Iterable[str], first_line: int) -> Iterable[tuple[int, list, bytes]]:
    """(line of its first row, rows, data) per block of at most _BLOCK_ROWS
    rows, data being _joined(rows) encoded as UTF-8; a block whose text
    has more than _BLOCK_CHARS characters comes in equal row slices."""
    while block := list(islice(rows, _BLOCK_ROWS)):
        text = _joined(block, first_line)
        if len(text) <= _BLOCK_CHARS:
            data, text = text.encode("utf-8", "surrogatepass"), None  # no text kept while parsing
            yield first_line, block, data
        else:
            slices = -(-len(text) // _BLOCK_CHARS)
            del text
            step = -(-len(block) // slices)
            for at in range(0, len(block), step):
                line, part = first_line + at, block[at : at + step]
                yield line, part, _joined(part, line).encode("utf-8", "surrogatepass")
        first_line += len(block)


def _joined(block: list, first_line: int) -> str:
    """The rows of block, which starts at line first_line, joined with
    NUL, with one NUL before the first row and _FAST_DIGITS after the
    last, so that digit and 8-byte word reads starting inside the text
    end past it.  The first row that is not a str raises
    TemporalFormatError naming its line."""
    try:
        return "\0".join(["", *block, "\0" * (_FAST_DIGITS - 1)])
    except TypeError:
        at, row = next((at, r) for at, r in enumerate(block) if not isinstance(r, str))
        raise TemporalFormatError(
            f"line {first_line + at}: expected a str row, got {type(row).__name__}"
        ) from None


def _csv_blocks(rows: Iterable[str]) -> Iterable[_Rows]:
    """_Rows per block of the CSV records after the one-line header.

    Without a quote, or a line break other than a row's last character,
    a block holds one record per row and goes to _bulk_rows with commas
    as spaces, or to csv if that would not read it as csv does.  From
    the first block with a quote or such a line break, csv reads the
    rest of the input: a quoted field may span rows and blocks.
    """
    blocks = _row_blocks(rows, 2)
    for first_line, block, data in blocks:
        if b'"' in data or b"\r" in data or (
            data.count(b"\n") != data.count(b"\n\0")  # the NULs end rows
        ):
            rest = chain(block, chain.from_iterable(blk for _, blk, _ in blocks))
            yield _scan_rows(_csv_records(csv.reader(rest), first_line))
            return
        yield _bulk_rows(data, len(block), first_line, commas=True) or _scan_rows(
            _csv_records(csv.reader(block), first_line)
        )


def _csv_records(reader, first_line: int) -> Iterable[tuple[int, list]]:
    """(line the record starts on, stripped cells) per CSV record of
    lines that start at first_line.

    A quoted field may hold newlines, so a record can span lines;
    reader.line_num counts the lines read so far.  A record csv cannot
    read raises TemporalFormatError naming the line it starts on.
    """
    start = first_line
    while True:
        try:
            row = next(reader, None)
        except csv.Error as exc:
            raise TemporalFormatError(f"line {start}: {exc}") from None
        if row is None:
            return
        yield start, [c.strip() for c in row]
        start = first_line + reader.line_num


def _scan_rows(rows: Iterable[tuple[int, list]]) -> _Rows:
    """Split rows, each with its line number, checked one at a time."""
    eu, ev, et, rejects = [], [], [], []
    index = {}  # id -> code
    seen = 0
    for lineno, row in rows:
        if not any(row):
            continue
        seen += 1
        if len(row) != 3:
            rejects.append((lineno, "expected three columns"))
            continue
        u, v, t_text = row
        if not (u and v):  # only a CSV cell can be empty
            rejects.append((lineno, "empty node id"))
            continue
        t = _check_stamp(t_text)
        if isinstance(t, str):
            rejects.append((lineno, t))
            continue
        if u == v:
            rejects.append((lineno, f"self loop at node {u!r}"))
            continue
        eu.append(index.setdefault(u, len(index)))
        ev.append(index.setdefault(v, len(index)))
        et.append(t)
    eu, ev, et = (np.array(c, dtype=np.int64) for c in (eu, ev, et))
    return _Rows(eu, ev, et, rejects, seen, list(index))


def _bulk_rows(data: bytes, n_rows: int, first_line: int, commas: bool = False) -> _Rows | None:
    """_scan_rows over raw.split() of each of the n_rows rows whose
    _joined text data encodes as UTF-8, with numpy over the bytes.

    The bytes are split at those str.split treats as whitespace, and
    with commas also at every comma, which reads a CSV row exactly when
    each of its cells is one token.  The block's ids are classed among
    themselves (_row_classes), which finds its self loops; its _Rows.ids
    are the word rows of every distinct id of its three-token rows.  Returns
    None when that would not split the rows as str.split or csv does:
    a NUL or a non-ASCII space in the text, or with commas a non-blank
    row whose token count is not its comma count plus one (an empty
    cell, or a blank inside one) or a cell, comma to comma, of more
    bytes than csv.field_size_limit().
    It also returns None when the id-word table, one row per id as wide
    as the longest id, would outgrow _KEY_BYTES_PER_BYTE bytes per byte
    of the block plus _KEY_BYTES_SLACK (one long id among many short
    ones), so memory stays bounded; ids of one length never do.
    """
    if not data.isascii() and any(c.encode() in data for c in _WIDE_SPACE):
        return None
    b = np.frombuffer(data, dtype=np.uint8)

    # separators are bytes up to space (or comma), so only those are looked
    # up; tokens are the runs of other bytes between two separators
    low = np.flatnonzero((b <= 32) | (b == ord(",")) if commas else b <= 32)
    sep = low[(_CELL_SEPARATOR if commas else _SEPARATOR)[b[low]]]
    del low
    row_ends = sep[b[sep] == 0]
    if row_ends.size != n_rows + _FAST_DIGITS:  # a NUL inside a row
        return None
    row_ends = row_ends[: n_rows + 1]
    if commas:
        cut = sep[(b[sep] == 0) | (b[sep] == ord(","))]  # the NULs and commas around cells
        if np.diff(cut).max() > csv.field_size_limit() + 1:  # a cell longer than csv reads
            return None
        cells = np.diff(np.searchsorted(cut[b[cut] == ord(",")], row_ends)) + 1
    gap = np.flatnonzero(np.diff(sep) > 1)
    starts, ends = sep[gap] + 1, sep[gap + 1]
    del sep, gap
    first_tok = np.searchsorted(starts, row_ends)
    ntok = np.diff(first_tok)
    if commas and ((ntok != cells) & (ntok != 0)).any():
        return None
    rows3 = np.flatnonzero(ntok == 3)
    first_tok = first_tok[rows3]
    us, vs, ts = (starts[first_tok + j] for j in range(3))
    ue, ve, te = (ends[first_tok + j] for j in range(3))
    del starts, ends, first_tok
    # ids as NUL-padded 8-byte words (no id holds a NUL): equal ids, equal words
    key = _word_rows(data, np.concatenate([us, vs]), np.concatenate([ue - us, ve - vs]))
    if key is None:
        return None

    # timestamps of [+-]digit{1.._FAST_DIGITS}, one digit column at a time; others go to int()
    sign = b[ts]
    digits_at = ts + ((sign == ord("-")) | (sign == ord("+")))
    n_digits = te - digits_at
    fast = (n_digits >= 1) & (n_digits <= _FAST_DIGITS)
    t = np.zeros(rows3.size, dtype=np.int64)
    for k in range(int(n_digits[fast].max(initial=0))):
        live = n_digits > k
        digit = b[digits_at + k] - np.uint8(ord("0"))
        fast &= ~live | (digit < 10)
        t = np.where(live, t * 10 + digit, t)
    np.negative(t, out=t, where=sign == ord("-"))
    bad = {}  # index into rows3 -> reason
    for i, lo, hi in zip(*(a[~fast].tolist() for a in (np.arange(rows3.size), ts, te))):
        value = _check_stamp(data[lo:hi].decode("utf-8", "surrogatepass"))
        if isinstance(value, str):
            bad[i] = value
        else:
            t[i] = value
    ok = np.ones(rows3.size, dtype=bool)
    ok[list(bad)] = False

    cls, rep = _row_classes(key)
    u_cls, v_cls = cls[: rows3.size], cls[rows3.size :]
    loops = np.flatnonzero(ok & (u_cls == v_cls))
    ok[loops] = False
    bad.update(
        (i, f"self loop at node {data[lo:hi].decode('utf-8', 'surrogatepass')!r}")
        for i, lo, hi in zip(loops.tolist(), us[loops].tolist(), ue[loops].tolist())
    )

    short_or_long = np.flatnonzero((ntok != 0) & (ntok != 3)) + first_line
    rejects = [(line, "expected three columns") for line in short_or_long.tolist()]
    rejects += [(int(rows3[i]) + first_line, reason) for i, reason in bad.items()]
    rejects.sort()  # one reject per line
    return _Rows(u_cls[ok], v_cls[ok], t[ok], rejects, int(np.count_nonzero(ntok)), key[rep])


def _word_rows(data: bytes, start: np.ndarray, length: np.ndarray) -> np.ndarray | None:
    """The byte spans data[start:start + length] as rows of NUL-padded
    8-byte words, as many per row as the longest span needs (at least
    one); None when that table would take more than _KEY_BYTES_PER_BYTE
    bytes per byte of data plus _KEY_BYTES_SLACK (one long span among
    many short ones), so memory stays bounded.  Every span is non-empty
    and ends at least 7 bytes before the end of data."""
    n_words = max(1, -(-int(length.max(initial=0)) // 8))
    if start.size * n_words * 8 > _KEY_BYTES_PER_BYTE * len(data) + _KEY_BYTES_SLACK:
        return None
    # a word past the end of a span is read anywhere in range and masked
    word_at = np.ndarray((len(data) - 7,), dtype=np.uint64, buffer=data, strides=(1,))
    words = np.empty((start.size, n_words), dtype=np.uint64)
    np.bitwise_and(word_at[start], _HEAD_BYTES[np.minimum(length, 8)], out=words[:, 0])
    for j in range(1, n_words):
        at = np.minimum(start + 8 * j, word_at.size - 1)
        np.bitwise_and(word_at[at], _HEAD_BYTES[np.clip(length - 8 * j, 0, 8)], out=words[:, j])
    return words


def _row_classes(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cls, rep): class labels of the rows of words, equal for equal rows,
    and rep[c], the first row of class c.

    Each row gets a 64-bit hash of its words whose low bits, as many as a
    row position needs, are replaced by that position; one sort of these
    keys puts equal hashes in runs, each ordered by position, so a class
    is a run and its first row the run's first position.  Every row is
    checked against the row before it in its run; if two distinct rows
    share the hash's kept high bits, np.unique classes the whole rows
    instead."""
    n = words.shape[0]
    hashed = words[:, 0]
    for j in range(1, words.shape[1]):
        hashed = (hashed ^ (hashed >> np.uint64(29))) * _MIX ^ words[:, j]
    # the last mix carries every byte, low ones included, into the high bits
    hashed = (hashed ^ (hashed >> np.uint64(29))) * _MIX
    bits = np.uint64(max(n - 1, 0).bit_length())
    low = (np.uint64(1) << bits) - np.uint64(1)
    keys = np.sort(hashed & ~low | np.arange(n, dtype=np.uint64))
    pos = (keys & low).astype(np.int64)
    starts, run = _runs(keys >> bits)
    del keys
    rep = pos[starts]
    cls = np.empty(n, dtype=np.int64)
    cls[pos] = run
    # rows in key order: inside a run, each must equal the one before it
    ordered = np.take(words, pos, axis=0)
    differ = np.zeros(max(n - 1, 0), dtype=bool)
    for j in range(words.shape[1]):
        differ |= ordered[1:, j] != ordered[:-1, j]
    del ordered
    if (differ & (run[1:] == run[:-1])).any():
        _, rep, cls = np.unique(words, axis=0, return_index=True, return_inverse=True)
    return cls, rep


def _names(words: np.ndarray) -> list[str]:
    """The ids held as rows of NUL-padded 8-byte words: each row's bytes
    and a newline (no id holds one), NULs deleted, decoded and split."""
    text = np.empty((words.shape[0], 8 * words.shape[1] + 1), dtype=np.uint8)
    text[:, :-1] = words.view(np.uint8)
    text[:, -1] = ord("\n")
    return text.tobytes().translate(None, b"\0").decode("utf-8", "surrogatepass").split("\n")[:-1]


def _interned(blocks: list[_Rows]) -> _Rows:
    """The blocks as one _Rows whose ids hold each distinct id of the
    parse once, and whose codes index them.

    The numpy blocks' ids are classed together, one _row_classes per word
    count: equal ids are of equal length, so each id keeps its own width,
    not its block's widest.  Only each class's first row is decoded.  If
    a row-loop or csv block exists, its names and the classes' names then
    go through one dict."""
    tables = [blk.ids for blk in blocks if isinstance(blk.ids, np.ndarray)]
    none = np.empty(0, dtype=np.int64)
    # no id holds a NUL, so every word of an id is nonzero and its padding zero
    width = np.concatenate([none, *(np.count_nonzero(t, axis=1) for t in tables)])
    stops = np.cumsum([0, *map(len, tables)]).tolist()
    code = np.empty(width.size, dtype=np.int64)
    names = []
    for w in np.flatnonzero(np.bincount(width)).tolist():
        own = width == w
        rows = [t[own[a:b], :w] for t, a, b in zip(tables, stops, stops[1:]) if t.shape[1] >= w]
        rows = np.concatenate(rows)
        cls, rep = _row_classes(rows)
        code[own] = cls + len(names)
        names += _names(rows[rep])
    index = None if len(tables) == len(blocks) else dict(zip(names, range(len(names))))
    # filled block by block: a list of mapped blocks would hold two more arrays per block
    eu, ev = (np.empty(sum(blk.et.size for blk in blocks), dtype=np.int64) for _ in range(2))
    spans = zip(stops, stops[1:])  # each numpy block's codes, in block order
    end = 0
    for blk in blocks:
        if isinstance(blk.ids, list):
            to = np.array([index.setdefault(x, len(index)) for x in blk.ids], dtype=np.int64)
        else:
            to = code[slice(*next(spans))]
        n = blk.et.size
        eu[end : end + n], ev[end : end + n] = to[blk.eu], to[blk.ev]
        end += n
    et = np.concatenate([none, *(blk.et for blk in blocks)])
    rejects = [r for blk in blocks for r in blk.rejects]
    seen = sum(blk.seen for blk in blocks)
    return _Rows(eu, ev, et, rejects, seen, names if index is None else list(index))


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """Ascending positions of the first occurrence of each value in values,
    which are non-negative and small enough to index an array."""
    first = np.full(values.max() + 1, values.size)
    np.minimum.at(first, values, np.arange(values.size))
    return np.sort(first[first < values.size])


def _first_positions(values: np.ndarray) -> np.ndarray:
    """_first_occurrences of non-negative int64 values of any size."""
    m = values.size
    bits = max(m - 1, 0).bit_length()
    if (int(values.max(initial=0)) + 1) << bits > _PACKED_LIMIT:
        _, values = np.unique(values, return_inverse=True)
        return _first_occurrences(values)
    # one sort of value << bits | position starts each value's run at its first position
    keys = np.sort(values << bits | np.arange(m))
    pos = keys & ((1 << bits) - 1)
    return np.sort(pos[np.flatnonzero(np.diff(keys >> bits, prepend=-1))])


def _index_events(rows: _Rows) -> TemporalEdgeList:
    """Check the reject share, then sort, deduplicate and relabel the
    events, whose codes index rows.ids; an id no kept event uses gets none."""
    eu, ev, et, rejects, seen, ids = rows
    if seen == 0 or not et.size:
        raise ValueError("no usable edge events in input")
    if len(rejects) > 0.10 * seen:
        raise TemporalFormatError(
            f"{len(rejects)} of {seen} rows rejected, above the 10% limit"
        )
    if rejects:
        lineno, reason = rejects[0]
        log.warning(
            "rejected %d of %d rows; first: line %d: %s", len(rejects), seen, lineno, reason
        )

    order = np.argsort(et, kind="stable")  # input order preserved within t
    # the first event of each unordered pair, in that order
    pair = (np.minimum(eu, ev) * len(ids) + np.maximum(eu, ev))[order]
    keep = order[_first_positions(pair)]
    del order, pair
    eu, ev, et = eu[keep], ev[keep], et[keep]
    ends = np.column_stack([eu, ev]).ravel()
    first_end = _first_occurrences(ends)
    appearance = ends[first_end]
    relabel = np.empty(len(ids), dtype=np.int64)
    relabel[appearance] = np.arange(appearance.size)
    arrays = relabel[eu], relabel[ev], et, et[first_end // 2]
    for a in arrays:
        a.setflags(write=False)
    node_ids = np.fromiter(ids, dtype=object, count=len(ids))[appearance]
    return TemporalEdgeList(tuple(node_ids.tolist()), tuple(rejects), *arrays)


def serialize_edge_events(tel: TemporalEdgeList, fobj: TextIO) -> None:
    """Whitespace "u v t" rows of the cleaned events.

    parse_edge_events reads them back as the same events when no node id
    holds whitespace; only CSV input can give such an id ('"a b",c,1'
    would come back as the four-column row "a b c 1", a reject).  Each
    id and each distinct timestamp is formatted once, as a row of
    NUL-padded 8-byte words (the id with its space, the stamp with its
    newline); a block of rows is then three row gathers into one word
    matrix whose bytes, NULs deleted, are the block's text.  A block
    that matrix cannot render exactly or compactly (an id holding a NUL,
    or padding above _KEY_BYTES_PER_BYTE bytes per byte of the block's
    text plus _KEY_BYTES_SLACK) is written as one join of the strings."""
    ids = tel.node_ids
    stamp_starts, stamp_at = _runs(tel.edge_t)
    stamps = list(map(format, tel.edge_t[stamp_starts].tolist()))
    id_words, id_size = _text_rows(ids, " ")
    t_words, t_size = _text_rows(stamps, "\n")
    for start in range(0, stamp_at.size, _BLOCK_ROWS):
        at = slice(start, start + _BLOCK_ROWS)
        u, v, s = tel.edge_u[at], tel.edge_v[at], stamp_at[at]
        if id_words is not None and t_words is not None:
            size = int(id_size[u].sum() + id_size[v].sum() + t_size[s].sum())
            width = 2 * id_words.shape[1] + t_words.shape[1]
            if s.size * width * 8 - size <= _KEY_BYTES_PER_BYTE * size + _KEY_BYTES_SLACK:
                rows = [np.take(id_words, u, axis=0), np.take(id_words, v, axis=0)]
                rows = np.concatenate([*rows, np.take(t_words, s, axis=0)], axis=1)
                text = rows.tobytes().translate(None, b"\0")
                del rows
                if len(text) == size:  # no id held a NUL
                    fobj.write(text.decode("utf-8", "surrogatepass"))
                    continue
        rows = zip(u.tolist(), v.tolist(), s.tolist())
        fobj.write("".join([f"{ids[a]} {ids[b]} {stamps[c]}\n" for a, b, c in rows]))


def _runs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, run): the first position of each run of equal values in x,
    and the number of the run each position is in."""
    new = np.empty(x.size, dtype=bool)
    new[:1] = True
    np.not_equal(x[1:], x[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    return starts, np.repeat(np.arange(starts.size), np.diff(starts, append=x.size))


def _text_rows(texts: list[str], end: str) -> tuple[np.ndarray | None, np.ndarray]:
    """(words, size): the UTF-8 bytes of each text followed by the ASCII
    character end, as _word_rows (None when _word_rows gives None), and
    their sizes in bytes."""
    data = (end.join(texts) + end).encode("utf-8", "surrogatepass")
    stop = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord(end)) + 1
    if stop.size != len(texts):  # some text holds end
        sizes = [len(f"{x}{end}".encode("utf-8", "surrogatepass")) for x in texts]
        stop = np.cumsum(sizes, dtype=np.int64)
    size = np.diff(stop, prepend=0)
    return _word_rows(data + bytes(7), stop - size, size), size


def _prefix_at(tel: TemporalEdgeList, t: int) -> tuple[int, int]:
    """(edges, nodes) seen up to and including time t."""
    pos = int(np.searchsorted(tel.edge_t, t, side="right"))
    return pos, int(np.searchsorted(tel.node_first_t, t, side="right"))


def snapshot_at(tel: TemporalEdgeList, t: int) -> Graph:
    """Cumulative graph of everything seen up to and including time t."""
    pos, n = _prefix_at(tel, t)
    if pos == 0:
        log.warning("snapshot at t=%s predates the first event", t)
    return Graph(n, np.column_stack([tel.edge_u[:pos], tel.edge_v[:pos]]))


def _degrees_at(tel: TemporalEdgeList, t: int) -> np.ndarray:
    """snapshot_at(tel, t).degrees(), without building the graph."""
    pos, n = _prefix_at(tel, t)
    return np.bincount(np.concatenate([tel.edge_u[:pos], tel.edge_v[:pos]]), minlength=n)


def evaluation_run(
    tel: TemporalEdgeList,
    train_times,
    horizons,
    k: int,
) -> tuple[list[dict], list[dict]]:
    """Forecast top-k degrees from each train snapshot ahead by each horizon.

    Returns (summary, detail) row dicts.  Summary rows carry MAPEs of the
    linear-ratio forecast and the sqrt baseline; detail rows list actual
    and predicted degrees by rank.  Pairs reaching outside the observed
    time range are skipped with a warning.
    """
    k = _count(k, "k", 1)
    if min(horizons, default=0) < 0:
        raise ValueError("horizons must be >= 0")
    summary, detail = [], []
    for tt in train_times:
        spec_train = None  # built once per train time, when a horizon first needs it
        for h in horizons:
            te = tt + h
            if tt < tel.t_min or te > tel.t_max:
                log.warning(
                    "skipping train_t=%s horizon=%s: outside data range %s..%s",
                    tt, h, tel.t_min, tel.t_max,
                )
                continue
            if spec_train is None:
                spec_train = DegreeSpectrum(_degrees_at(tel, tt))
            spec_test = DegreeSpectrum(_degrees_at(tel, te))
            if k > spec_train.node_count or k > spec_test.node_count:
                log.warning(
                    "skipping train_t=%s horizon=%s: fewer than k=%d nodes", tt, h, k
                )
                continue
            actual, prop, base = forecast_top_k(spec_train, spec_test, k)
            summary.append(
                {
                    "train_t": tt,
                    "horizon": h,
                    "n_train": spec_train.node_count,
                    "n_test": spec_test.node_count,
                    "mape_proposed": mape(actual, prop),
                    "mape_baseline": mape(actual, base),
                }
            )
            for rank in range(k):
                detail.append(
                    {
                        "train_t": tt,
                        "horizon": h,
                        "rank": rank + 1,
                        "actual": float(actual[rank]),
                        "predicted_proposed": float(prop[rank]),
                        "predicted_baseline": float(base[rank]),
                    }
                )
    return summary, detail
