"""Timestamped edge lists and cumulative-snapshot evaluation.

Real networks arrive as (u, v, t) events.  Parsing relabels node ids to
dense integers in order of first appearance, drops self loops and
malformed rows (keeping a reject log), and keeps the earliest timestamp
per undirected pair.  Snapshots are cumulative: snapshot_at(t) contains
every node and edge seen up to and including t, so earlier snapshots
are induced prefixes of later ones.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, TextIO

import numpy as np

from .graph import Graph, degree_spectrum
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

    events: tuple  # (u_id, v_id, t) with original id strings
    node_ids: tuple  # dense index -> original id, in first-appearance order
    rejects: tuple  # (line_number, reason)
    edge_u: np.ndarray = field(repr=False)  # dense endpoint indexes
    edge_v: np.ndarray = field(repr=False)
    edge_t: np.ndarray = field(repr=False)
    node_first_t: np.ndarray = field(repr=False)

    @property
    def t_min(self) -> int:
        return int(self.edge_t[0])

    @property
    def t_max(self) -> int:
        return int(self.edge_t[-1])


def _parse_rows(lines: Iterable[str], fmt: str):
    rows, rejects = [], []
    if fmt == "csv3col":
        import csv

        reader = csv.reader(lines)
        header = next(reader, None)
        if header is None:
            return rows, rejects, 0
        if [h.strip().lower() for h in header] != ["u", "v", "t"]:
            raise TemporalFormatError("csv3col needs a 'u,v,t' header")
        seen = 0
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            seen += 1
            if len(row) != 3:
                rejects.append((lineno, "expected three columns"))
                continue
            rows.append((lineno, row[0].strip(), row[1].strip(), row[2].strip()))
        return rows, rejects, seen
    if fmt != "whitespace3col":
        raise ValueError(f"unknown temporal format {fmt!r}")
    seen = 0
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        seen += 1
        if len(parts) != 3:
            rejects.append((lineno, "expected three columns"))
            continue
        rows.append((lineno, parts[0], parts[1], parts[2]))
    return rows, rejects, seen


def parse_edge_events(lines: Iterable[str], fmt: str = "whitespace3col") -> TemporalEdgeList:
    """Parse, clean and index a stream of "u v t" events.

    Raises TemporalFormatError when more than 10% of data rows are
    unusable, and ValueError when nothing usable remains at all.
    """
    rows, rejects, seen = _parse_rows(lines, fmt)
    parsed = []
    for lineno, u, v, t in rows:
        try:
            t_int = int(t)
        except ValueError:
            rejects.append((lineno, f"non-integer timestamp {t!r}"))
            continue
        if u == v:
            rejects.append((lineno, f"self loop at node {u!r}"))
            continue
        parsed.append((u, v, t_int))
    if seen == 0 or not parsed:
        raise ValueError("no usable edge events in input")
    if len(rejects) > 0.10 * seen:
        raise TemporalFormatError(
            f"{len(rejects)} of {seen} rows rejected, above the 10% limit"
        )
    for lineno, reason in rejects:
        log.warning("rejected line %d: %s", lineno, reason)
    parsed.sort(key=lambda e: e[2])  # stable: input order preserved within t
    index: dict[str, int] = {}
    node_ids: list[str] = []
    node_first_t: list[int] = []
    events = []
    pair_seen = set()
    eu, ev, et = [], [], []
    for u, v, t in parsed:
        key = (u, v) if u <= v else (v, u)
        if key in pair_seen:
            continue
        pair_seen.add(key)
        for ident in (u, v):
            if ident not in index:
                index[ident] = len(node_ids)
                node_ids.append(ident)
                node_first_t.append(t)
        events.append((u, v, t))
        eu.append(index[u])
        ev.append(index[v])
        et.append(t)
    return TemporalEdgeList(
        events=tuple(events),
        node_ids=tuple(node_ids),
        rejects=tuple(rejects),
        edge_u=np.asarray(eu, dtype=np.int64),
        edge_v=np.asarray(ev, dtype=np.int64),
        edge_t=np.asarray(et, dtype=np.int64),
        node_first_t=np.asarray(node_first_t, dtype=np.int64),
    )


def serialize_edge_events(tel: TemporalEdgeList, fobj: TextIO) -> None:
    """Whitespace "u v t" rows of the cleaned events (round-trips)."""
    for u, v, t in tel.events:
        fobj.write(f"{u} {v} {t}\n")


def snapshot_at(tel: TemporalEdgeList, t: int) -> Graph:
    """Cumulative graph of everything seen up to and including time t."""
    pos = int(np.searchsorted(tel.edge_t, t, side="right"))
    n = int(np.searchsorted(tel.node_first_t, t, side="right"))
    if pos == 0:
        log.warning("snapshot at t=%s predates the first event", t)
    return Graph(n, np.column_stack([tel.edge_u[:pos], tel.edge_v[:pos]]))


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
            g_train = snapshot_at(tel, tt)
            g_test = snapshot_at(tel, te)
            spec_train = degree_spectrum(g_train)
            spec_test = degree_spectrum(g_test)
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
                    "n_train": g_train.node_count,
                    "n_test": g_test.node_count,
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
