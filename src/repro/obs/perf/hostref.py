"""A fixed reference loop: a yardstick for host speed in the ledger.

Every ``repro bench`` record carries ``host_ref_s``, the time this loop
took on the host just before the bench's timed repeats.  The loop never
touches the code under test and mixes the same two kinds of work the
benches do, interpreted Python (a heap of small event objects, dict
counters, JSON encoding, as in the flow simulator's loop) and numpy
array work, so a slower host slows the loop and the benches alike.
``repro bench compare`` divides each wall time by its record's
``host_ref_s`` before comparing (see :mod:`repro.obs.perf.regression`),
so a record taken on a busy host is not read as a regression.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(order=True)
class _Event:
    time: int
    seq: int
    port: int


def reference_loop() -> int:
    """Event-heap churn plus integer array work, ~40 ms on one core.
    Returns a checksum so no step can be optimised away."""
    heap: list[_Event] = []
    totals: dict[int, int] = {}
    encoded = 0
    for i in range(8_000):
        heapq.heappush(heap, _Event((i * 7919) % 1000, i, i % 64))
        if len(heap) > 64:
            event = heapq.heappop(heap)
            totals[event.port] = totals.get(event.port, 0) + event.time
            if i % 50 == 0:
                encoded += len(json.dumps({"t": event.time, "port": event.port}))
    values = np.arange(50_000, dtype=np.int64)
    for _ in range(4):
        values = (values * 1103515245 + 12345) % 2147483648
        values.sort()
    return encoded + sum(totals.values()) + int(values[-1])


def host_ref_seconds(repeats: int = 3) -> float:
    """The fastest of ``repeats`` timed runs of :func:`reference_loop`
    (the minimum is the run least disturbed by other load)."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - start)
    return best
