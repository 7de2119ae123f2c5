"""Timestamped edge lists and cumulative-snapshot evaluation.

Real networks arrive as (u, v, t) events.  Parsing relabels node ids to
dense integers in order of first appearance, drops self loops and
malformed rows (keeping a reject log in line order), and keeps the
earliest timestamp per undirected pair.  Timestamps are integers that
fit int64.  A TemporalEdgeList holds the node ids plus index arrays;
its events are derived from them.  Snapshots are cumulative:
snapshot_at(t) contains every node and edge seen up to and including t,
so earlier snapshots are induced prefixes of later ones.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from typing import Iterable, TextIO

import numpy as np

from .graph import Graph, _spectrum_from_degrees
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


def parse_edge_events(lines: Iterable[str], fmt: str = "whitespace3col") -> TemporalEdgeList:
    """Parse, clean and index a stream of "u v t" events.

    Rows are whitespace-split, or for csv3col read as CSV after a
    'u,v,t' header.  Blank rows are skipped; a row is rejected when it
    has other than three columns, a timestamp that is not an integer
    inside int64, or u == v.  Among the rest, sorted stably by time, the
    first row of each unordered pair is kept.

    Raises TemporalFormatError when more than 10% of data rows are
    unusable, and ValueError when nothing usable remains at all.
    """
    if fmt == "csv3col":
        reader = csv.reader(lines)
        header = next(reader, None)
        if header is not None and [h.strip().lower() for h in header] != ["u", "v", "t"]:
            raise TemporalFormatError("csv3col needs a 'u,v,t' header")
        rows, first_line = ([c.strip() for c in row] for row in reader), 2
    elif fmt == "whitespace3col":
        rows, first_line = (raw.split() for raw in lines), 1
    else:
        raise ValueError(f"unknown temporal format {fmt!r}")

    index: dict[str, int] = {}  # id -> provisional index, in line order
    eu, ev, et, rejects = [], [], [], []
    seen = 0
    for lineno, row in enumerate(rows, start=first_line):
        if not any(row):
            continue
        seen += 1
        if len(row) != 3:
            rejects.append((lineno, "expected three columns"))
            continue
        u, v, t_text = row
        try:
            t = int(t_text)
        except ValueError:
            rejects.append((lineno, f"non-integer timestamp {t_text!r}"))
            continue
        if not -(2**63) <= t < 2**63:
            rejects.append((lineno, f"timestamp {t_text!r} outside int64"))
            continue
        if u == v:
            rejects.append((lineno, f"self loop at node {u!r}"))
            continue
        eu.append(index.setdefault(u, len(index)))
        ev.append(index.setdefault(v, len(index)))
        et.append(t)
    if seen == 0 or not et:
        raise ValueError("no usable edge events in input")
    if len(rejects) > 0.10 * seen:
        raise TemporalFormatError(
            f"{len(rejects)} of {seen} rows rejected, above the 10% limit"
        )
    for lineno, reason in rejects:
        log.warning("rejected line %d: %s", lineno, reason)

    eu, ev, et = (np.asarray(c, dtype=np.int64) for c in (eu, ev, et))
    order = np.argsort(et, kind="stable")  # input order preserved within t
    pair = np.minimum(eu, ev) * len(index) + np.maximum(eu, ev)
    _, first = np.unique(pair[order], return_index=True)
    keep = order[np.sort(first)]
    eu, ev, et = eu[keep], ev[keep], et[keep]
    # every provisional index occurs in a kept event, so this ranks them all
    _, first_end = np.unique(np.column_stack([eu, ev]).ravel(), return_index=True)
    appearance = np.argsort(first_end)
    relabel = np.argsort(appearance)
    ids = list(index)
    return TemporalEdgeList(
        node_ids=tuple(ids[i] for i in appearance.tolist()),
        rejects=tuple(rejects),
        edge_u=relabel[eu],
        edge_v=relabel[ev],
        edge_t=et,
        node_first_t=et[first_end[appearance] // 2],
    )


def serialize_edge_events(tel: TemporalEdgeList, fobj: TextIO) -> None:
    """Whitespace "u v t" rows of the cleaned events (round-trips)."""
    fobj.writelines(f"{u} {v} {t}\n" for u, v, t in tel._id_rows())


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
            spec_train = _spectrum_from_degrees(_degrees_at(tel, tt))
            spec_test = _spectrum_from_degrees(_degrees_at(tel, te))
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
