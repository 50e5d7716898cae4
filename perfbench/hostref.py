"""A fixed stdlib + numpy reference program: a yardstick for host speed.

    python3 perfbench/hostref.py

The benchmark runs this as a child process between every two commands it
times, so each command is bracketed by a reference run taken just before
and just after it.  Like the commands, the reference starts an
interpreter, imports numpy and mixes interpreted Python (a heap of small
event objects, dict counters, JSON encoding, as in the flow simulator's
loop) with numpy array work, so a host that gets slower slows both
alike.  The program never touches the code under test: when a command's
time moves together with the reference's, the host changed, not the
code.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass

import numpy as np


@dataclass(order=True)
class Event:
    time: int
    seq: int
    port: int


def reference_loop() -> int:
    """Event-heap churn plus integer array work, roughly 0.15 s on one core."""
    heap: list[Event] = []
    totals: dict[int, int] = {}
    records = []
    for i in range(30_000):
        heapq.heappush(heap, Event((i * 7919) % 1000, i, i % 64))
        if len(heap) > 64:
            event = heapq.heappop(heap)
            totals[event.port] = totals.get(event.port, 0) + event.time
            if i % 100 == 0:
                records.append(json.dumps({"t": event.time, "port": event.port}))
    values = np.arange(100_000, dtype=np.int64)
    for _ in range(10):
        values = (values * 1103515245 + 12345) % 2147483648
        values.sort()
    return len(records) + sum(totals.values()) + int(values[-1])


if __name__ == "__main__":
    reference_loop()
