"""The event-driven flow simulator.

:class:`FlowSim` ties the pieces together: flows (from
:mod:`repro.network.flows.workload`) arrive at ToR-like ingress ports,
each port offers at most one cell per fabric cycle, and a
:class:`~repro.network.flows.fabric.FabricStage` decides each cell's
fate.  Time is event-driven: flow arrivals happen at their
(real-valued) arrival times and fabric cycles at integer times, and
cycles are only scheduled while there is work: an idle fabric consumes
no events, so a sparse workload is cheap to simulate however long its
horizon.  The events pop in the order a
:class:`~repro.network.flows.events.EventQueue` would pop them — time
order, arrivals before a cycle at the same time, arrivals in flow-id
order among themselves — but the loop merges the flow list, sorted
once by arrival, with the one pending cycle instead of pushing every
arrival onto a heap.

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
destination) and answers with an ``int8`` fate per port.  Each port
also counts its flows by destination, so under a wired fabric (a
rotor) a port with no flow for its wired destination or itself is
skipped without scanning its queue.

Everything here is a pure function of (flows, stage): the simulator
itself draws no randomness, which is what makes same-seed runs
byte-identical regardless of how the study layer shards fabrics over
workers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import ceil, floor, isfinite
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.network.flows.events import SimClock
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
        """FCT percentiles over completed flows (NaN-safe), equal bit
        for bit to ``np.percentile`` (see :func:`percentile_sorted`)."""
        finished = sorted(x for x in self.fct.tolist() if x == x)
        if not finished:
            return {f"p{q:g}": float("nan") for q in qs}
        return {f"p{q:g}": percentile_sorted(finished, q) for q in qs}

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


def percentile_sorted(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of the ascending ``values``, computed as
    ``np.percentile(values, q)`` computes it with its default
    ``linear`` method: virtual index ``(len − 1) · (q / 100)``, its
    floor and the next index (the last value at or past the end), and
    numpy's two-sided lerp, which counts back from the upper value
    when the weight is at least one half.  Same float operations, same
    order, hence the same bits — without the ``numpy.ma`` import that
    ``np.percentile`` pays on its first call."""
    if not 0.0 <= q <= 100.0:
        raise ValueError("Percentiles must be in the range [0, 100]")
    last = len(values) - 1
    virtual = last * (q / 100)
    if virtual >= last:
        return float(values[last])
    below = floor(virtual)
    weight = virtual - below
    low, high = values[below], values[below + 1]
    diff = high - low
    if weight >= 0.5:
        return float(high - diff * (1 - weight))
    return float(low + diff * weight)


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
    until the backlog drains.  ``clock`` advances to each event's time
    as it is handled; no event may lie behind its starting time.

    Every flow must be able to finish: construction rejects a flow
    with fewer than one cell, a destination outside the fabric or an
    arrival that is negative or not finite.
    """

    stage: FabricStage
    flows: Sequence[FlowSpec]
    backpressure: bool = True
    clock: SimClock | None = None
    max_cycles: int | None = None
    checkpoint: Callable[["FlowSim", int], None] | None = None

    _clock: SimClock = field(init=False, repr=False)
    _ports: list[deque[int]] = field(init=False, repr=False)
    _in_fabric: int = field(init=False, default=0)
    _arrived_cells: int = field(init=False, default=0)
    _metrics: _CycleMetrics | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        self._clock = self.clock or SimClock()
        n = self.stage.n
        for i, spec in enumerate(self.flows):
            if spec.flow_id != i:
                raise ConfigurationError(
                    f"flow ids must be dense and ordered; slot {i} holds "
                    f"flow {spec.flow_id}"
                )
            if not 0 <= spec.src < n:
                raise ConfigurationError(
                    f"flow {i}: src {spec.src} outside fabric of width {n}"
                )
            if not 0 <= spec.dst < n:
                raise ConfigurationError(
                    f"flow {i}: dst {spec.dst} outside fabric of width {n}"
                )
            if spec.size_cells < 1:
                raise ConfigurationError(
                    f"flow {i}: size_cells {spec.size_cells} < 1; a flow "
                    f"needs at least one cell to finish"
                )
            if not (isfinite(spec.arrival) and spec.arrival >= 0):
                raise ConfigurationError(
                    f"flow {i}: arrival {spec.arrival} must be finite and >= 0"
                )
        count = len(self.flows)
        self._src = [spec.src for spec in self.flows]
        self._dst = [spec.dst for spec in self.flows]
        self._size = [spec.size_cells for spec in self.flows]
        self._arrival = [spec.arrival for spec in self.flows]
        # Arrival order: by time, ties in flow-id order (a stable sort).
        self._order = sorted(range(count), key=self._arrival.__getitem__)
        # Destination lookup for a per-port flow-id row (−1 → −1).
        self._dst_table = np.array(self._dst + [-1], dtype=np.int64)
        self._next_index = [0] * count
        self._delivered = [0] * count
        self._dropped = [0] * count
        self._cwnd = [1.0] * count
        self._next_ok = [0.0] * count
        self._finish = [float("nan")] * count
        self._ports = [deque() for _ in range(n)]
        # Per port: destination -> how many of its queued flows go there.
        self._port_dsts: list[dict[int, int]] = [{} for _ in range(n)]
        self._queued = 0  # flows in all port queues
        self._seen = 0  # 1 + the largest flow id that has arrived

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

    def run(self) -> FlowSimResult:
        """Handle the events in time order until no work is left (or
        ``max_cycles`` cycles ran): each arrival queues its flow at its
        ingress port and, when no cycle is pending, schedules one at
        the next integer time; each cycle schedules the next while
        cells wait at a port or inside the fabric.  Arrivals at or
        before a pending cycle's time are handled before it."""
        reg = obs.get_registry()
        stage = self.stage
        clock = self._clock
        order, arrival = self._order, self._arrival
        total = len(order)
        if total and arrival[order[0]] < clock.now:
            raise ConfigurationError(
                f"cannot schedule 'arrival' at {arrival[order[0]]} behind "
                f"the clock ({clock.now})"
            )
        ports, port_dsts = self._ports, self._port_dsts
        srcs, dsts, size = self._src, self._dst, self._size
        offered = delivered = dropped = blocked = faulted = 0
        popped = cycles = 0
        due = 0  # index into ``order`` of the next arrival
        cycle_at: float | None = None  # time of the pending cycle
        self._metrics = None  # resolved by the first collected cycle
        with reg.span("flows.run", fabric=stage.name, flows=len(self.flows)):
            while True:
                while due < total:
                    fid = order[due]
                    when = arrival[fid]
                    if cycle_at is not None and when > cycle_at:
                        break
                    due += 1
                    clock.advance_to(when)
                    popped += 1
                    src, dst = srcs[fid], dsts[fid]
                    ports[src].append(fid)
                    here = port_dsts[src]
                    here[dst] = here.get(dst, 0) + 1
                    self._queued += 1
                    self._arrived_cells += size[fid]
                    if fid >= self._seen:
                        self._seen = fid + 1
                    if cycle_at is None:
                        cycle_at = float(ceil(clock.now))
                if cycle_at is None:
                    break
                clock.advance_to(cycle_at)
                popped += 1
                cells = self._run_cycle(cycle_at, reg)
                offered += cells[0]
                delivered += cells[1]
                dropped += cells[2]
                blocked += cells[3]
                faulted += cells[4]
                cycles += 1
                if self.checkpoint is not None:
                    self.checkpoint(self, cycles - 1)
                if self.max_cycles is not None and cycles >= self.max_cycles:
                    break
                if self._in_fabric > 0 or self._queued:
                    cycle_at += 1.0
                else:
                    cycle_at = None
            if reg.enabled:
                reg.counter("flows.cycles", fabric=stage.name).inc(cycles)
                reg.counter("flows.events", fabric=stage.name).inc(popped)

        fct = np.array(self._finish, dtype=np.float64)
        completed = int(np.count_nonzero(~np.isnan(fct)))
        return FlowSimResult(
            fabric=stage.name,
            flows=len(self.flows),
            completed=completed,
            offered_cells=offered,
            delivered_cells=delivered,
            dropped_cells=dropped,
            faulted_cells=faulted,
            blocked_cells=blocked,
            cycles=cycles,
            events=popped + delivered + dropped + blocked,
            fct=fct,
        )

    def _retire(self, fid: int, now: float) -> None:
        """Flow ``fid``'s last cell resolved at ``now``: record its FCT
        and take it off its port."""
        self._finish[fid] = now - self._arrival[fid] + 1.0
        src = self._src[fid]
        try:
            self._ports[src].remove(fid)
        except ValueError:
            return  # already retired
        self._queued -= 1
        here, dst = self._port_dsts[src], self._dst[fid]
        if here[dst] == 1:
            del here[dst]
        else:
            here[dst] -= 1

    def _run_cycle(self, now: float, reg) -> tuple[int, int, int, int, int]:
        """One fabric cycle: pick each port's cell, step the stage and
        credit every outcome.  Returns the cycle's (offered, delivered,
        dropped, blocked, faulted) cell counts; ``dropped`` counts only
        cells lost for good (backpressure off)."""
        stage = self.stage
        next_ok, next_index, size = self._next_ok, self._next_index, self._size
        dsts = self._dst

        # Pick: each port's first eligible flow in round-robin order,
        # which then rotates to the back of the port (a port with no
        # eligible flow is left as it was).
        wired = stage.wiring()
        picked: list[int] = []
        flow_row = [-1] * stage.n
        for i, port in enumerate(self._ports):
            if not port:
                continue
            if wired is None:
                fid = port[0]
                if next_ok[fid] <= now and next_index[fid] < size[fid]:
                    port.rotate(-1)
                    picked.append(i)
                    flow_row[i] = fid
                    continue
                for k, fid in enumerate(port):
                    if next_ok[fid] <= now and next_index[fid] < size[fid]:
                        break
                else:
                    continue
            else:
                # Only flows bound for the wired destination or the
                # port itself are eligible; skip a port that has none.
                w, here = wired[i], self._port_dsts[i]
                if w not in here and i not in here:
                    continue
                for k, fid in enumerate(port):
                    if (
                        next_ok[fid] <= now and next_index[fid] < size[fid]
                        and (dsts[fid] == i or dsts[fid] == w)
                    ):
                        break
                else:
                    continue
            port.rotate(-1 - k)
            picked.append(i)
            flow_row[i] = fid

        flow = np.array(flow_row, dtype=np.int64)
        fate, surfaced = stage.step(flow, self._dst_table[flow])
        fates = fate.tolist()

        delivered_, dropped_, cwnd = self._delivered, self._dropped, self._cwnd
        finish = self._finish
        # Cells the stage buffered in earlier cycles are credited first:
        # a flow's surfaced cell grows its window before the same
        # cycle's loss halves it.  (``x != x`` is isnan: the flow has
        # no FCT yet.)
        for fid in surfaced:
            got = delivered_[fid] = delivered_[fid] + 1
            window = cwnd[fid] + 1.0
            cwnd[fid] = window if window < CWND_MAX else CWND_MAX
            if got + dropped_[fid] >= size[fid] and finish[fid] != finish[fid]:
                self._retire(fid, now)
        in_fabric = self._in_fabric - len(surfaced)
        delivered, lost, faulted, blocked = len(surfaced), 0, 0, 0
        backpressure = self.backpressure
        for port in picked:
            fid = flow_row[port]
            outcome = fates[port]
            if outcome == DELIVERED:
                next_index[fid] += 1
                got = delivered_[fid] = delivered_[fid] + 1
                window = cwnd[fid] + 1.0
                cwnd[fid] = window if window < CWND_MAX else CWND_MAX
                if got + dropped_[fid] >= size[fid] and finish[fid] != finish[fid]:
                    self._retire(fid, now)
                delivered += 1
            elif outcome == REJECTED or outcome == FAULTED:
                lost += 1
                if outcome == FAULTED:
                    faulted += 1
                if backpressure:
                    # Keep the cell; back off harder the smaller the window.
                    window = max(1.0, cwnd[fid] / 2.0)
                    cwnd[fid] = window
                    next_ok[fid] = now + max(1.0, round(BACKOFF_BASE / window))
                else:
                    next_index[fid] += 1
                    gone = dropped_[fid] = dropped_[fid] + 1
                    if (
                        delivered_[fid] + gone >= size[fid]
                        and finish[fid] != finish[fid]
                    ):
                        self._retire(fid, now)
            elif outcome == BLOCKED:
                blocked += 1
            elif outcome == ABSORBED:
                # The fabric owns the cell now; it surfaces later.
                next_index[fid] += 1
                in_fabric += 1
        self._in_fabric = in_fabric
        dropped = 0 if backpressure else lost

        if reg.enabled:
            metrics = self._metrics
            if metrics is None:
                metrics = self._metrics = _CycleMetrics(reg, stage.name)
            metrics.offered.inc(len(picked))
            metrics.delivered.inc(delivered)
            metrics.dropped.inc(dropped)
            metrics.blocked.inc(blocked)
            metrics.faulted.inc(faulted)
            # Per-cycle timeseries: the shape of congestion over the
            # run, not just its end-of-run totals.  The fabric cycle
            # index is the time axis (deterministic; see
            # repro.obs.timeseries for the decimation contract).
            metrics.queue_depth.append(stage.in_flight(), t=now)
            metrics.inflight.append(in_fabric, t=now)
            # The mean is only worth computing for a sample the series
            # keeps; a decimated one is counted and discarded.
            series = metrics.cwnd_mean
            series.append(self._cwnd_mean() if series.due() else 0.0, t=now)
            metrics.delivery.append(delivered, t=now)
            metrics.drops.append(dropped, t=now)
        return len(picked), delivered, dropped, blocked, faulted

    def _cwnd_mean(self) -> float:
        """The mean congestion window over every flow, equal bit for
        bit to ``sum(cwnd) / len(cwnd)`` on Python ≤ 3.11 (a
        left-to-right float sum).  Flows at or past ``_seen`` have not
        arrived, so their windows are all still 1.0: the sum folds
        them in as one integer when that addition is exact (the 2Sum
        error term is zero), which makes every step of the one-by-one
        fold exact too, and falls back to the full sum when not."""
        cwnd = self._cwnd
        if not cwnd:
            return 0.0
        seen = self._seen
        ones = len(cwnd) - seen
        if not ones:
            return sum(cwnd) / len(cwnd)
        head = sum(cwnd[:seen]) if seen else 0.0
        total = head + ones
        back = total - head
        if (head - (total - back)) + (ones - back):
            total = sum(cwnd)
        return total / len(cwnd)
