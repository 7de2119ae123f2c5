"""Timestamped edge lists and cumulative-snapshot evaluation.

Real networks arrive as (u, v, t) events: whitespace rows, or CSV under
a 'u,v,t' header, told apart by the first row.  Parsing relabels node
ids to dense integers in order of first appearance, drops self loops
and malformed rows (keeping a reject log in line order), and keeps the
earliest timestamp per undirected pair.  Timestamps are integers that
fit int64.  A TemporalEdgeList holds the node ids plus read-only index
arrays; its events are derived from them.  Snapshots are cumulative:
snapshot_at(t) contains every node and edge seen up to and including t,
so earlier snapshots are induced prefixes of later ones.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from itertools import chain, count, filterfalse, islice
from typing import Iterable, NamedTuple, TextIO

import numpy as np

from .graph import DegreeSpectrum, Graph
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
_FAST_DIGITS = 18  # longer timestamps go through int(); 10**18 fits int64
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier of the id-word hash
# _HEAD_BYTES[k] keeps the first k bytes of an 8-byte word, in memory order
_HEAD_BYTES = (np.tri(9, 8, -1, dtype=np.uint8) * 255).view(np.uint64).ravel()
# _SEPARATOR[c] for bytes c up to space: does c end a token?  NUL ends a
# row of a block; \t..\r and \x1c..space are what str.split treats as
# whitespace in ASCII
_SEPARATOR = np.isin(np.arange(33), [0, *range(9, 14), *range(28, 33)])
# the non-ASCII characters str.split treats as whitespace
_WIDE_SPACE = (
    "\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000"
)


class TemporalFormatError(ValueError):
    """Input stream is not a usable temporal edge list."""


@dataclass(frozen=True)
class TemporalEdgeList:
    """Cleaned events sorted by time, deduplicated to earliest-seen pairs."""

    node_ids: tuple  # dense index -> original id, in first-appearance order
    rejects: tuple  # (line_number, reason), in line order
    edge_u: np.ndarray = field(repr=False)  # dense endpoint indexes
    edge_v: np.ndarray = field(repr=False)
    edge_t: np.ndarray = field(repr=False)
    node_first_t: np.ndarray = field(repr=False)

    @property
    def events(self) -> tuple:
        """(u_id, v_id, t) per kept event, with the original id strings."""
        return tuple(self._id_rows())

    def _id_rows(self):
        ids = np.asarray(self.node_ids, dtype=object)
        return zip(ids[self.edge_u].tolist(), ids[self.edge_v].tolist(), self.edge_t.tolist())

    @property
    def t_min(self) -> int:
        return int(self.edge_t[0])

    @property
    def t_max(self) -> int:
        return int(self.edge_t[-1])


def parse_edge_events(lines: Iterable[str]) -> TemporalEdgeList:
    """Parse, clean and index a stream of "u v t" events.

    The first row alone decides the format: if csv reads it as the cells
    u, v, t (stripped, any case), it is a header and the rest is CSV;
    otherwise every row, the first included, is whitespace-split.  Blank
    rows are skipped; a row is rejected when it has other than three
    columns, a timestamp that is not an integer inside int64, or u == v.
    Among the rest, sorted stably by time, the first row of each
    unordered pair is kept.  Whitespace rows are split in blocks of
    _BLOCK_ROWS rows with numpy; the result does not depend on the block
    size.  A reject names the line its row starts on; a CSV record with
    a quoted newline spans several lines.

    Raises TemporalFormatError when more than 10% of data rows are
    unusable, and ValueError when nothing usable remains at all.
    """
    index: dict[str, int] = {}  # id -> provisional index
    rows = iter(lines)
    head = list(islice(rows, 1))
    try:  # bytes rows, and text csv cannot read, are no header
        header = [c.strip().lower() for c in next(csv.reader(head), [])]
    except csv.Error:
        header = None
    if header == ["u", "v", "t"]:
        blocks = [_scan_rows(_csv_records(csv.reader(rows)), index)]
    else:
        blocks, rows, first_line = [], chain(head, rows), 1
        while block := list(islice(rows, _BLOCK_ROWS)):
            blocks.append(
                _bulk_rows(block, first_line, index)
                or _scan_rows(enumerate((raw.split() for raw in block), first_line), index)
            )
            first_line += len(block)
    rows = _Rows.concat(blocks)
    del blocks
    return _index_events(rows, list(index))


class _Rows(NamedTuple):
    """Usable events of consecutive rows, with provisional node indexes."""

    eu: np.ndarray
    ev: np.ndarray
    et: np.ndarray
    rejects: list  # (line_number, reason), in line order
    seen: int  # rows that are not blank

    @classmethod
    def concat(cls, blocks: list[_Rows]) -> _Rows:
        none = np.empty(0, dtype=np.int64)
        eu, ev, et = (np.concatenate([none, *(blk[c] for blk in blocks)]) for c in range(3))
        rejects = [r for blk in blocks for r in blk.rejects]
        return cls(eu, ev, et, rejects, sum(blk.seen for blk in blocks))


def _check_stamp(t_text: str) -> int | str:
    """The timestamp's value, or the reason its row is rejected."""
    try:
        t = int(t_text)
    except ValueError:
        return f"non-integer timestamp {t_text!r}"
    if not -(2**63) <= t < 2**63:
        return f"timestamp {t_text!r} outside int64"
    return t


def _csv_records(reader) -> Iterable[tuple[int, list]]:
    """(line the record starts on, stripped cells) per CSV record of the
    lines after the one-line header.

    A quoted field may hold newlines, so a record can span lines;
    reader.line_num counts the lines read so far.
    """
    start = 2
    for row in reader:
        yield start, [c.strip() for c in row]
        start = reader.line_num + 2


def _scan_rows(rows: Iterable[tuple[int, list]], index: dict) -> _Rows:
    """Split rows, each with its line number, checked one at a time."""
    eu, ev, et, rejects = [], [], [], []
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
    return _Rows(eu, ev, et, rejects, seen)


def _bulk_rows(block: list, first_line: int, index: dict) -> _Rows | None:
    """_scan_rows over raw.split() of each row of block, with numpy over the bytes.

    The rows are joined with NUL, encoded as UTF-8 and split at the bytes
    str.split treats as whitespace.  Returns None, before touching index,
    when that would not split the block as str.split does: a NUL or a
    non-ASCII space in the text, or rows that are not str.
    """
    try:
        text = "\0".join(block)
    except TypeError:
        return None
    if not text.isascii() and any(c in text for c in _WIDE_SPACE):
        return None
    # a NUL before every row and after the last, then room for the digit
    # and 8-byte word reads that start inside the text to end past it
    data = ("\0" + text + "\0" * _FAST_DIGITS).encode("utf-8", "surrogatepass")
    del text
    b = np.frombuffer(data, dtype=np.uint8)

    # separators are bytes up to space, so only those are looked up;
    # tokens are the runs of other bytes between two separators
    low = np.flatnonzero(b <= 32)
    sep = low[_SEPARATOR[b[low]]]
    del low
    row_ends = sep[b[sep] == 0]
    if row_ends.size != len(block) + _FAST_DIGITS:  # a NUL inside a row
        return None
    gap = np.flatnonzero(np.diff(sep) > 1)
    starts, ends = sep[gap] + 1, sep[gap + 1]
    del sep, gap
    first_tok = np.searchsorted(starts, row_ends[: len(block) + 1])
    ntok = np.diff(first_tok)
    rows3 = np.flatnonzero(ntok == 3)
    first_tok = first_tok[rows3]
    us, vs, ts = (starts[first_tok + j] for j in range(3))
    ue, ve, te = (ends[first_tok + j] for j in range(3))
    del starts, ends, first_tok
    id_start = np.concatenate([us, vs])
    id_len = np.concatenate([ue - us, ve - vs])

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

    # ids as zero-padded 8-byte words (no id holds a NUL): equal ids, equal
    # words; a word past the end of an id is read anywhere in range and masked
    word_at = np.ndarray((b.size - 7,), dtype=np.uint64, buffer=data, strides=(1,))
    n_words = max(1, -(-int(id_len.max(initial=0)) // 8))
    key = np.empty((id_start.size, n_words), dtype=np.uint64)
    for j in range(key.shape[1]):
        at = np.minimum(id_start + 8 * j, word_at.size - 1)
        key[:, j] = word_at[at] & _HEAD_BYTES[np.clip(id_len - 8 * j, 0, 8)]
    del word_at, id_start, id_len
    cls, rep = _row_classes(key)
    u_cls, v_cls = cls[: rows3.size], cls[rows3.size :]
    loops = np.flatnonzero(ok & (u_cls == v_cls))
    ok[loops] = False
    bad.update(
        (i, f"self loop at node {data[lo:hi].decode('utf-8', 'surrogatepass')!r}")
        for i, lo, hi in zip(loops.tolist(), us[loops].tolist(), ue[loops].tolist())
    )

    # provisional indexes: dict lookups per distinct id of the block, not per row
    u_cls, v_cls = u_cls[ok], v_cls[ok]
    used = np.zeros(rep.size, dtype=bool)
    used[u_cls] = used[v_cls] = True
    used = np.flatnonzero(used)
    keys = key[rep[used]].view(f"S{8 * key.shape[1]}").ravel().tolist()  # NULs dropped
    names = b"\0".join(keys).decode("utf-8", "surrogatepass").split("\0") if keys else []
    index.update(zip(filterfalse(index.__contains__, names), count(len(index))))
    code = np.zeros(rep.size, dtype=np.int64)
    code[used] = np.fromiter(map(index.__getitem__, names), np.int64, used.size)

    short_or_long = np.flatnonzero((ntok != 0) & (ntok != 3)) + first_line
    rejects = [(line, "expected three columns") for line in short_or_long.tolist()]
    rejects += [(int(rows3[i]) + first_line, reason) for i, reason in bad.items()]
    rejects.sort()  # one reject per line
    return _Rows(code[u_cls], code[v_cls], t[ok], rejects, int(np.count_nonzero(ntok)))


def _row_classes(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cls, rep): class labels of the rows of words, equal for equal rows,
    and one row of each class.

    Rows are classed by one sort of a 64-bit hash of their words, checked
    against the row kept for their class; if two distinct rows share a
    hash, np.unique classes the whole rows instead."""
    hashed = words[:, 0]
    for j in range(1, words.shape[1]):
        hashed = (hashed ^ (hashed >> np.uint64(29))) * _MIX ^ words[:, j]
    _, cls = np.unique(hashed, return_inverse=True)
    rep = _class_rows(cls)
    if (words != words[rep[cls]]).any():
        _, cls = np.unique(words, axis=0, return_inverse=True)
        rep = _class_rows(cls)
    return cls, rep


def _class_rows(cls: np.ndarray) -> np.ndarray:
    """rep[c] is a position of label c in cls, for labels 0..cls.max()."""
    rep = np.empty(cls.max(initial=-1) + 1, dtype=np.int64)
    rep[cls] = np.arange(cls.size)
    return rep


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """Ascending positions of the first occurrence of each value in values,
    which are non-negative and small enough to index an array."""
    first = np.full(values.max() + 1, values.size)
    np.minimum.at(first, values, np.arange(values.size))
    return np.sort(first[first < values.size])


def _index_events(rows: _Rows, ids: list) -> TemporalEdgeList:
    """Check the reject share, then sort, deduplicate and relabel the events."""
    eu, ev, et, rejects, seen = rows
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
    _, pair = np.unique(pair, return_inverse=True)
    keep = order[_first_occurrences(pair)]
    del order, pair
    eu, ev, et = eu[keep], ev[keep], et[keep]
    # every provisional index occurs in a kept event, so this ranks them all
    ends = np.column_stack([eu, ev]).ravel()
    first_end = _first_occurrences(ends)
    appearance = ends[first_end]
    relabel = np.argsort(appearance)
    arrays = relabel[eu], relabel[ev], et, et[first_end // 2]
    for a in arrays:
        a.setflags(write=False)
    return TemporalEdgeList(tuple(ids[i] for i in appearance.tolist()), tuple(rejects), *arrays)


def serialize_edge_events(tel: TemporalEdgeList, fobj: TextIO) -> None:
    """Whitespace "u v t" rows of the cleaned events.

    parse_edge_events reads them back as the same events when no node id
    holds whitespace; only CSV input can give such an id ('"a b",c,1'
    would come back as the four-column row "a b c 1", a reject).  Each
    id and each distinct timestamp is formatted once; a block of rows is
    then one join of those strings."""
    ids = np.fromiter(map("{} ".format, tel.node_ids), dtype=object, count=len(tel.node_ids))
    stamps, stamp_at = np.unique(tel.edge_t, return_inverse=True)
    stamps = np.array([f"{t}\n" for t in stamps.tolist()], dtype=object)
    for start in range(0, stamp_at.size, _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        rows = np.empty((stamp_at[start:stop].size, 3), dtype=object)
        rows[:, 0] = ids[tel.edge_u[start:stop]]
        rows[:, 1] = ids[tel.edge_v[start:stop]]
        rows[:, 2] = stamps[stamp_at[start:stop]]
        fobj.write("".join(rows.ravel().tolist()))


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
    if k < 1:
        raise ValueError("k must be >= 1")
    if min(horizons, default=0) < 0:
        raise ValueError("horizons must be >= 0")
    summary, detail = [], []
    for tt in train_times:
        for h in horizons:
            te = tt + h
            if tt < tel.t_min or te > tel.t_max:
                log.warning(
                    "skipping train_t=%s horizon=%s: outside data range %s..%s",
                    tt, h, tel.t_min, tel.t_max,
                )
                continue
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
