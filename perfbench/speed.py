"""Host-speed probe, and the item timer that runs it around every item.

The shared 2-core machines this benchmark was tuned on change speed by
up to 1.5x, and a slow period can outlast a whole run, so no statistic
of one run's raw times is steady from run to run.  A fixed probe (an
interpreter loop, numpy-scalar pointer chasing, string splitting and
dict inserts, numpy sort and unique: the kinds of work graphmix does,
but no graphmix code) runs just before and just after every timed item.
The item's time is scaled by ``PROBE_REF_S / mean of the two probes``:
it reads as it would on a host where the probe takes ``PROBE_REF_S``.
A change to graphmix moves the item times and not the probe, so it
moves the scaled times by the same ratio.  On the tuning host raw
whole-run times spread by up to 0.47 (quartile distance over median,
five seeds); the scaled ones by 0.02 to 0.12 (ten seeds).
"""

from __future__ import annotations

import time

import numpy as np

PROBE_REF_S = 0.006  # about the probe's fastest time on the 2-core tuning host

_FLOATS = np.random.default_rng(20250519).random(40_000)
_LINES = [f"n{i} n{(i * 7919) % 1000} {i % 50}" for i in range(3_000)]
_PARENT = np.arange(2_000, dtype=np.int64) // 2


def probe() -> float:
    """Seconds for one pass of the fixed probe work (about 6 ms)."""
    start = time.perf_counter()
    acc = 0
    for i in range(15_000):
        acc += i * i
    parent = _PARENT.copy()  # numpy-scalar pointer chasing, as in a union-find
    for i in range(1, 2_000):
        x = i
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
    ids: dict[str, int] = {}
    for line in _LINES:
        u, v, t = line.split()
        ids.setdefault(u, len(ids))
        ids.setdefault(v, len(ids))
        acc += int(t)
    np.sort(_FLOATS)
    np.unique((_FLOATS * 1000).astype(np.int64))
    return time.perf_counter() - start


class ItemTimer:
    """Times items one at a time, each between two probes of the host."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._before = 0.0
        self._start = 0.0

    def start(self) -> None:
        self._before = probe()
        self._start = time.perf_counter()

    def stop(self) -> None:
        elapsed = time.perf_counter() - self._start
        local = (self._before + probe()) / 2
        self.raw.append(elapsed)
        self.scaled.append(elapsed * PROBE_REF_S / local)

    def take(self) -> tuple[list[float], list[float]]:
        """(raw, scaled) seconds of the items timed since the last take."""
        out = (self.raw, self.scaled)
        self.raw, self.scaled = [], []
        return out
