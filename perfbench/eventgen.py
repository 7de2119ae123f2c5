"""Seeded "u v t" event stream for the temporal_forecast workload.

The stream is drawn with numpy alone and does not call graphmix, so a
change to the package's own fixture builder cannot move the benchmark's
inputs.  Besides the lines it returns the ground truth the parser must
reproduce: which rows survive deduplication, in which order nodes are
first seen, and how many rows of each kind must be rejected.

Shape of the stream: node i arrives at time 1 + floor(T_MAX * sqrt(i / n)),
so the node count grows like t^2; event times follow the same law.  Each
event joins a uniform present node to either a hub (one of the first
``n_hubs`` nodes, chosen with weights 1/j; a ``HUB_SHARE`` of events)
or another uniform present node.  Repeated pairs occur naturally; on top of that the generator
injects known numbers of repeated pairs, self loops, rows with the wrong
column count and rows with a non-integer time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

VALID, SELF_LOOP, SHORT, LONG, BAD_TIME = range(5)
T_MAX = 100  # event times are 1..T_MAX
HUB_SHARE = 0.3


@dataclass(frozen=True)
class EventStream:
    lines: list  # one "u v t" string per row, no trailing newline
    rejects: dict  # parser reject reason prefix -> expected count
    kept_sha256: str  # SHA-256 of the cleaned events as serialize writes them
    node_ids: tuple  # string ids in first-appearance order
    kept_u: np.ndarray  # endpoints (integer ids) of the kept events, time order
    kept_v: np.ndarray
    kept_t: np.ndarray
    node_first_t: np.ndarray  # first time of each node, in node_ids order
    n_ids: int  # size of the integer id space

    def nodes_at(self, t: int) -> int:
        return int(np.searchsorted(self.node_first_t, t, side="right"))

    def edges_at(self, t: int) -> int:
        return int(np.searchsorted(self.kept_t, t, side="right"))

    def top_degrees(self, t: int, k: int) -> np.ndarray:
        """The k largest degrees of the cumulative graph at time t."""
        pos = self.edges_at(t)
        deg = np.bincount(
            np.concatenate([self.kept_u[:pos], self.kept_v[:pos]]), minlength=self.n_ids
        )
        return np.sort(deg)[::-1][:k].astype(np.float64)


def make_stream(seed: int, n_events: int = 200_000, n_nodes: int = 35_000, n_hubs: int = 50) -> EventStream:
    rng = np.random.default_rng([seed, 0x7E4])
    arrival = 1 + np.floor(T_MAX * np.sqrt(np.arange(n_nodes) / n_nodes)).astype(np.int64)
    arrival[:n_hubs] = 1  # hubs, and at least two nodes, exist from the first step
    t = np.sort(1 + np.floor(T_MAX * np.sqrt(rng.random(n_events))).astype(np.int64))
    present = np.searchsorted(arrival, t, side="right")
    u = (rng.random(n_events) * present).astype(np.int64)
    hub_p = 1.0 / np.arange(1, n_hubs + 1)
    hub_p /= hub_p.sum()
    v = np.where(
        rng.random(n_events) < HUB_SHARE,
        rng.choice(n_hubs, n_events, p=hub_p),
        (rng.random(n_events) * present).astype(np.int64),
    )
    v = np.where(u == v, (v + 1) % present, v)

    # injected rows: 1% repeats of earlier pairs (some reversed, some later),
    # and 1% rejects in total, well under the parser's 10% limit
    n_rep = n_events // 100
    rep = rng.choice(n_events, n_rep, replace=False)
    flip = rng.random(n_rep) < 0.5
    kind = [np.full(n_events, VALID), np.full(n_rep, VALID)]
    cols_u = [u, np.where(flip, v[rep], u[rep])]
    cols_v = [v, np.where(flip, u[rep], v[rep])]
    cols_t = [t, np.minimum(T_MAX, t[rep] + rng.integers(0, 6, n_rep))]
    for k, share in ((SELF_LOOP, 400), (SHORT, 1000), (LONG, 2000), (BAD_TIME, 1000)):
        n_bad = n_events // share
        at = rng.choice(n_events, n_bad, replace=False)
        kind.append(np.full(n_bad, k))
        cols_u.append(u[at])
        cols_v.append(u[at] if k == SELF_LOOP else v[at])
        cols_t.append(t[at])
    kind, u, v, t = (np.concatenate(c) for c in (kind, cols_u, cols_v, cols_t))
    order = np.argsort(t, kind="stable")
    kind, u, v, t = kind[order], u[order], v[order], t[order]

    fmt = {
        VALID: "n{} n{} {}",
        SELF_LOOP: "n{} n{} {}",
        SHORT: "n{} n{}",
        LONG: "n{} n{} {} x",
        BAD_TIME: "n{} n{} t{}",
    }
    lines = [fmt[k].format(a, b, c) for k, a, b, c in zip(kind.tolist(), u.tolist(), v.tolist(), t.tolist())]

    # ground truth: the earliest row of each unordered pair survives, ties
    # broken by row order; rows are already time-sorted, so row order is it
    rows = np.flatnonzero(kind == VALID)
    lo, hi = np.minimum(u[rows], v[rows]), np.maximum(u[rows], v[rows])
    _, first = np.unique(lo * n_nodes + hi, return_index=True)
    kept = rows[np.sort(first)]
    ends = np.column_stack([u[kept], v[kept]]).ravel()
    _, seen = np.unique(ends, return_index=True)
    seen = np.sort(seen)
    kept_text = "".join(lines[i] + "\n" for i in kept.tolist())
    counts = np.bincount(kind, minlength=5)
    return EventStream(
        lines=lines,
        rejects={
            "self loop": int(counts[SELF_LOOP]),
            "expected three columns": int(counts[SHORT] + counts[LONG]),
            "non-integer timestamp": int(counts[BAD_TIME]),
        },
        kept_sha256=hashlib.sha256(kept_text.encode()).hexdigest(),
        node_ids=tuple(f"n{x}" for x in ends[seen].tolist()),
        kept_u=u[kept],
        kept_v=v[kept],
        kept_t=t[kept],
        node_first_t=t[kept][seen // 2],
        n_ids=n_nodes,
    )
