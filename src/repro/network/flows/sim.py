"""The event-driven flow simulator.

:class:`FlowSim` ties the pieces together: flows (from
:mod:`repro.network.flows.workload`) arrive at ToR-like ingress ports,
each port offers at most one cell per fabric cycle, and a
:class:`~repro.network.flows.fabric.FabricStage` decides each cell's
fate.  Time is event-driven — the heap-based
:class:`~repro.network.flows.events.EventQueue` holds flow arrivals at
their (real-valued) arrival times and fabric cycles at integer times,
and cycles are only scheduled while there is work: an idle fabric
consumes no events, so a sparse workload is cheap to simulate however
long its horizon.

Congestion control is TCP-ish per flow:

* each flow keeps an additive-increase/multiplicative-decrease
  congestion window ``cwnd`` (starts at 1, +1 per delivered cell,
  halved on loss, clamped to [1, 64]);
* with **backpressure** on (the default), a rejected cell is *not*
  lost: the flow keeps it for retransmission but backs off —
  suspended for ``max(1, round(4 / cwnd))`` cycles, so repeat losers
  pace down to one attempt per 4 cycles while healthy flows retry
  immediately;
* with backpressure off, a rejected cell is dropped permanently and
  the flow moves on — the open-loop mode the differential tests use,
  where the event-driven model must reduce exactly to the
  round-synchronous :class:`~repro.network.simulate.SwitchSimulation`;
* a **blocked** cell (rotor slot wait) is always retried next cycle
  with no penalty: nothing was dropped.

Ports schedule their flows round-robin: after a flow gets the port for
a cycle, it rotates to the back of the port's queue, so elephants
cannot starve mice sharing an ingress.

A flow completes when every cell is resolved (delivered or dropped,
including cells that surfaced later from an in-fabric FIFO); its
flow-completion time is ``resolution_cycle − arrival + 1`` — a
one-cell flow arriving at 0 and delivered in cycle 0 has FCT 1.

Per-flow state is flat: one list per field, indexed by flow id, so
the per-cycle loop touches list slots rather than objects, and the
fabric sees each cycle as two per-port arrays (flow id and
destination) and answers with an ``int8`` fate per port.

Everything here is a pure function of (flows, stage): the simulator
itself draws no randomness, which is what makes same-seed runs
byte-identical regardless of how the study layer shards fabrics over
workers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import ceil, isnan
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.network.flows.events import EventQueue, SimClock
from repro.network.flows.fabric import (
    ABSORBED,
    BLOCKED,
    DELIVERED,
    FAULTED,
    REJECTED,
    FabricStage,
)
from repro.network.flows.workload import FlowSpec

#: AIMD clamp for the per-flow congestion window.
CWND_MAX = 64.0
#: Base backoff numerator: a cwnd-1 flow waits this many cycles.
BACKOFF_BASE = 4.0


class FlowStatus(NamedTuple):
    """One flow's bookkeeping, read back from the flat per-flow state."""

    spec: FlowSpec
    next_index: int      # next cell of the flow to emit
    delivered: int
    dropped: int
    cwnd: float
    next_ok: float       # earliest cycle the flow may transmit
    finish: float        # FCT, NaN until every cell resolves


@dataclass
class FlowSimResult:
    """Outcome of one simulation run.

    ``fct[i]`` is flow i's completion time in cycles (NaN if the run
    hit ``max_cycles`` before the flow resolved).  ``offered_cells``
    counts transmission *attempts*, so with backpressure on it exceeds
    ``delivered_cells + dropped_cells`` by the retransmissions; with
    backpressure off the three balance exactly once the run drains.
    ``events`` counts queue events plus per-cell outcomes — the unit
    the CLI and CI budgets are expressed in.
    """

    fabric: str
    flows: int
    completed: int
    offered_cells: int
    delivered_cells: int
    dropped_cells: int
    faulted_cells: int
    blocked_cells: int
    cycles: int
    events: int
    fct: np.ndarray

    @property
    def loss_rate(self) -> float:
        return (
            self.dropped_cells / self.offered_cells if self.offered_cells else 0.0
        )

    def fct_percentiles(
        self, qs: Sequence[float] = (50.0, 90.0, 99.0, 99.9)
    ) -> dict[str, float]:
        """FCT percentiles over completed flows (NaN-safe)."""
        finished = self.fct[~np.isnan(self.fct)]
        if not finished.size:
            return {f"p{q:g}": float("nan") for q in qs}
        return {
            f"p{q:g}": float(np.percentile(finished, q)) for q in qs
        }

    def as_dict(self) -> dict:
        out = {
            "fabric": self.fabric,
            "flows": self.flows,
            "completed": self.completed,
            "offered_cells": self.offered_cells,
            "delivered_cells": self.delivered_cells,
            "dropped_cells": self.dropped_cells,
            "faulted_cells": self.faulted_cells,
            "blocked_cells": self.blocked_cells,
            "loss_rate": self.loss_rate,
            "cycles": self.cycles,
            "events": self.events,
        }
        out.update(self.fct_percentiles())
        return out


class _LazyCounter:
    """A counter created on its first non-zero increment."""

    __slots__ = ("_make", "_counter")

    def __init__(self, make: Callable[[], object]):
        self._make = make
        self._counter = None

    def inc(self, amount: int) -> None:
        if amount:
            if self._counter is None:
                self._counter = self._make()
            self._counter.inc(amount)


class _CycleMetrics:
    """The per-cycle ``flows.*`` metric handles of one run, resolved
    once per run rather than by key on every cycle.

    The offered/delivered counters and the series exist from the first
    cycle on; the dropped/blocked/faulted counters are created on
    their first non-zero increment, so a run's snapshot holds exactly
    the keys that per-cycle lookups would have created.
    """

    def __init__(self, reg, fabric: str):
        self.offered = reg.counter("flows.cells_offered", fabric=fabric)
        self.delivered = reg.counter("flows.cells_delivered", fabric=fabric)
        self.dropped = _LazyCounter(
            lambda: reg.counter("flows.cells_dropped", fabric=fabric)
        )
        self.blocked = _LazyCounter(
            lambda: reg.counter("flows.cells_blocked", fabric=fabric)
        )
        self.faulted = _LazyCounter(
            lambda: reg.counter("flows.cells_faulted", fabric=fabric)
        )
        self.queue_depth = reg.series("flows.queue_depth", fabric=fabric)
        self.inflight = reg.series("flows.inflight_cells", fabric=fabric)
        self.cwnd_mean = reg.series("flows.cwnd_mean", fabric=fabric)
        self.delivery = reg.series("flows.delivery_rate", fabric=fabric)
        self.drops = reg.series("flows.drop_rate", fabric=fabric)


@dataclass
class FlowSim:
    """Drive ``flows`` through ``stage`` to completion.

    ``checkpoint`` (if given) is called as ``checkpoint(sim, cycle)``
    after every fabric cycle — the conservation property suite hooks in
    here via :meth:`accounting`.  ``max_cycles`` caps the number of
    fabric cycles (unresolved flows keep NaN FCTs); the default runs
    until the backlog drains.
    """

    stage: FabricStage
    flows: Sequence[FlowSpec]
    backpressure: bool = True
    clock: SimClock | None = None
    max_cycles: int | None = None
    checkpoint: Callable[["FlowSim", int], None] | None = None

    _queue: EventQueue = field(init=False, repr=False)
    _ports: list[deque[int]] = field(init=False, repr=False)
    _in_fabric: int = field(init=False, default=0)
    _arrived_cells: int = field(init=False, default=0)
    _cycle_scheduled: bool = field(init=False, default=False)
    _metrics: _CycleMetrics | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        self._queue = EventQueue(clock=self.clock or SimClock())
        for i, spec in enumerate(self.flows):
            if spec.flow_id != i:
                raise ConfigurationError(
                    f"flow ids must be dense and ordered; slot {i} holds "
                    f"flow {spec.flow_id}"
                )
            if not 0 <= spec.src < self.stage.n:
                raise ConfigurationError(
                    f"flow {i}: src {spec.src} outside fabric of width "
                    f"{self.stage.n}"
                )
        count = len(self.flows)
        self._dst = [spec.dst for spec in self.flows]
        self._size = [spec.size_cells for spec in self.flows]
        self._next_index = [0] * count
        self._delivered = [0] * count
        self._dropped = [0] * count
        self._cwnd = [1.0] * count
        self._next_ok = [0.0] * count
        self._finish = [float("nan")] * count
        self._ports = [deque() for _ in range(self.stage.n)]

    @property
    def _states(self) -> list[FlowStatus]:
        """Every flow's bookkeeping as records, built on demand for
        checkpoint hooks; the cycle loop never builds them."""
        return [
            FlowStatus(*fields)
            for fields in zip(
                self.flows, self._next_index, self._delivered, self._dropped,
                self._cwnd, self._next_ok, self._finish,
            )
        ]

    # -- conservation ---------------------------------------------------

    def accounting(self) -> dict[str, int]:
        """Cell conservation snapshot: at every instant,
        ``arrived == delivered + dropped + in_fabric + at_source``."""
        at_source = sum(
            self._size[fid] - self._next_index[fid]
            for port in self._ports
            for fid in port
        )
        return {
            "arrived": self._arrived_cells,
            "delivered": sum(self._delivered),
            "dropped": sum(self._dropped),
            "in_fabric": self._in_fabric,
            "at_source": at_source,
        }

    # -- event loop -----------------------------------------------------

    def _schedule_cycle(self) -> None:
        if not self._cycle_scheduled:
            when = ceil(self._queue.clock.now)
            self._queue.push(float(when), "cycle")
            self._cycle_scheduled = True

    def _work_pending(self) -> bool:
        return self._in_fabric > 0 or any(self._ports)

    def run(self) -> FlowSimResult:
        reg = obs.get_registry()
        counts = {
            "delivered": 0, "dropped": 0, "blocked": 0, "faulted": 0,
            "offered": 0,
        }
        cycles = 0
        self._metrics = None  # resolved by the first collected cycle
        with reg.span(
            "flows.run", fabric=self.stage.name, flows=len(self.flows)
        ):
            for spec in self.flows:
                self._queue.push(spec.arrival, "arrival", spec.flow_id)
            while self._queue:
                event = self._queue.pop()
                if event.kind == "arrival":
                    spec = self.flows[event.payload]
                    self._ports[spec.src].append(spec.flow_id)
                    self._arrived_cells += spec.size_cells
                    self._schedule_cycle()
                elif event.kind == "cycle":
                    self._cycle_scheduled = False
                    self._run_cycle(event.time, counts, reg)
                    cycles += 1
                    if self.checkpoint is not None:
                        self.checkpoint(self, cycles - 1)
                    if self.max_cycles is not None and cycles >= self.max_cycles:
                        break
                    if self._work_pending():
                        self._queue.push(event.time + 1.0, "cycle")
                        self._cycle_scheduled = True
            if reg.enabled:
                reg.counter("flows.cycles", fabric=self.stage.name).inc(cycles)
                reg.counter("flows.events", fabric=self.stage.name).inc(
                    self._queue.popped
                )

        fct = np.array(self._finish, dtype=np.float64)
        completed = int(np.count_nonzero(~np.isnan(fct)))
        events = (
            self._queue.popped
            + counts["delivered"] + counts["dropped"] + counts["blocked"]
        )
        return FlowSimResult(
            fabric=self.stage.name,
            flows=len(self.flows),
            completed=completed,
            offered_cells=counts["offered"],
            delivered_cells=counts["delivered"],
            dropped_cells=counts["dropped"],
            faulted_cells=counts["faulted"],
            blocked_cells=counts["blocked"],
            cycles=cycles,
            events=events,
            fct=fct,
        )

    def _pick(self, now: float) -> tuple[list[int], list[int], list[int]]:
        """Each port's cell for this cycle: the first eligible flow in
        round-robin order, which then rotates to the back of the port
        (a port with no eligible flow is left as it was).  Returns the
        picking ports and the per-port flow-id and destination rows
        (−1 where a port sends nothing)."""
        n = self.stage.n
        wired = self.stage.wiring()
        next_ok, next_index, size = self._next_ok, self._next_index, self._size
        dsts = self._dst
        picked: list[int] = []
        flow_row = [-1] * n
        dst_row = [-1] * n
        for i, port in enumerate(self._ports):
            for k, fid in enumerate(port):
                if next_ok[fid] <= now and next_index[fid] < size[fid] and (
                    wired is None or dsts[fid] == i or dsts[fid] == wired[i]
                ):
                    break
            else:
                continue
            port.rotate(-1 - k)
            picked.append(i)
            flow_row[i] = fid
            dst_row[i] = dsts[fid]
        return picked, flow_row, dst_row

    def _resolve(self, fid: int, now: float) -> None:
        if (
            self._delivered[fid] + self._dropped[fid] >= self._size[fid]
            and isnan(self._finish[fid])
        ):
            spec = self.flows[fid]
            self._finish[fid] = now - spec.arrival + 1.0
            try:
                self._ports[spec.src].remove(fid)
            except ValueError:
                pass  # already retired

    def _deliver(self, fid: int, now: float) -> None:
        self._delivered[fid] += 1
        self._cwnd[fid] = min(CWND_MAX, self._cwnd[fid] + 1.0)
        self._resolve(fid, now)

    def _run_cycle(self, now: float, counts: dict[str, int], reg) -> None:
        picked, flow_row, dst_row = self._pick(now)
        counts["offered"] += len(picked)
        fate, surfaced = self.stage.step(np.array(flow_row), np.array(dst_row))
        fates = fate.tolist()

        # Cells the stage buffered in earlier cycles are credited first:
        # a flow's surfaced cell grows its window before the same
        # cycle's loss halves it.
        for fid in surfaced:
            self._in_fabric -= 1
            self._deliver(fid, now)
        delivered, lost, faulted, blocked = len(surfaced), 0, 0, 0
        for port in picked:
            fid = flow_row[port]
            outcome = fates[port]
            if outcome == DELIVERED:
                self._next_index[fid] += 1
                self._deliver(fid, now)
                delivered += 1
            elif outcome == REJECTED or outcome == FAULTED:
                lost += 1
                if outcome == FAULTED:
                    faulted += 1
                if self.backpressure:
                    # Keep the cell; back off harder the smaller the window.
                    cwnd = max(1.0, self._cwnd[fid] / 2.0)
                    self._cwnd[fid] = cwnd
                    self._next_ok[fid] = now + max(1.0, round(BACKOFF_BASE / cwnd))
                else:
                    self._next_index[fid] += 1
                    self._dropped[fid] += 1
                    self._resolve(fid, now)
            elif outcome == BLOCKED:
                blocked += 1
            elif outcome == ABSORBED:
                # The fabric owns the cell now; it surfaces later.
                self._next_index[fid] += 1
                self._in_fabric += 1
        counts["delivered"] += delivered
        counts["faulted"] += faulted
        counts["blocked"] += blocked
        if not self.backpressure:
            counts["dropped"] += lost

        if reg.enabled:
            metrics = self._metrics
            if metrics is None:
                metrics = self._metrics = _CycleMetrics(reg, self.stage.name)
            metrics.offered.inc(len(picked))
            metrics.delivered.inc(delivered)
            if not self.backpressure:
                metrics.dropped.inc(lost)
            metrics.blocked.inc(blocked)
            metrics.faulted.inc(faulted)
            # Per-cycle timeseries: the shape of congestion over the
            # run, not just its end-of-run totals.  The fabric cycle
            # index is the time axis (deterministic; see
            # repro.obs.timeseries for the decimation contract).
            metrics.queue_depth.append(self.stage.in_flight(), t=now)
            metrics.inflight.append(self._in_fabric, t=now)
            metrics.cwnd_mean.append(
                sum(self._cwnd) / len(self._cwnd) if self._cwnd else 0.0,
                t=now,
            )
            metrics.delivery.append(delivered, t=now)
            metrics.drops.append(
                lost if not self.backpressure else 0, t=now
            )
