"""The flow simulator's cycle loop against the loop it replaced.

:class:`ReferenceFlowSim` keeps the earlier event loop verbatim: every
arrival pushed onto the heap-based :class:`EventQueue`, ``_pick``
scanning every port and building two per-port lists, and the credit
loop going through ``_deliver`` and ``_resolve``.  :class:`FlowSim`
merges the sorted flow list with the pending cycle, skips idle ports,
counts each port's flows by destination and credits inline; it must
agree with the reference on every FCT, every result count, ``events``,
every collected metric and ``accounting()`` at every checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from math import ceil, isnan

import numpy as np
import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.faults.scenario import DeadOutputFault, FaultScenario, FlakyPinFault
from repro.network.flows import (
    ConcentratorFabric,
    FlowSim,
    FlowSimResult,
    FlowSpec,
    WorkloadSpec,
    build_fabric,
    fabric_names,
    generate_flows,
    one_shot_flows,
)
from repro.network.flows.events import EventQueue, SimClock
from repro.network.flows.fabric import (
    ABSORBED,
    BLOCKED,
    DELIVERED,
    FAULTED,
    REJECTED,
)
from repro.network.flows.sim import (
    BACKOFF_BASE,
    CWND_MAX,
    _CycleMetrics,
    percentile_sorted,
)
from repro.switches.registry import build_switch


@dataclass
class ReferenceFlowSim(FlowSim):
    """:class:`FlowSim` state with the earlier event, pick and credit
    loop (``run`` to ``_run_cycle``, unchanged)."""

    _queue: EventQueue = field(init=False, repr=False)
    _cycle_scheduled: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        self._queue = EventQueue(clock=self.clock or SimClock())

    # -- verbatim from here on --------------------------------------------

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


FLAKY = FaultScenario(
    name="flaky",
    faults=(FlakyPinFault(3, 0.3), DeadOutputFault(1), FlakyPinFault(12, 0.5)),
    seed=11,
)


def _stage(name: str, n: int, scenario=None):
    if scenario is not None:
        return ConcentratorFabric(
            build_switch("revsort", n=n, m=(3 * n) // 4), scenario=scenario
        )
    return build_fabric(name, n)


def _traced(cls, stage, flows, **kwargs):
    """Run one simulator under a collecting registry; return the
    result, the accounting at every checkpoint and the snapshot's
    ``flows.*`` metrics."""
    seen = []
    registry = obs.Registry()
    with obs.using(registry):
        result = cls(
            stage, flows, checkpoint=lambda sim, cycle: seen.append(
                (cycle, sim.accounting(), sim.stage.in_flight())
            ), **kwargs,
        ).run()
    snapshot = registry.snapshot()
    metrics = {
        kind: {k: v for k, v in snapshot[kind].items() if k.startswith("flows.")}
        for kind in ("counters", "series")
    }
    return result, seen, metrics


def _assert_same(flows, make_stage, **kwargs):
    new, new_seen, new_metrics = _traced(FlowSim, make_stage(), flows, **kwargs)
    ref, ref_seen, ref_metrics = _traced(
        ReferenceFlowSim, make_stage(), flows, **kwargs
    )
    np.testing.assert_array_equal(new.fct, ref.fct)
    assert new.fct.tobytes() == ref.fct.tobytes()
    assert replace(new, fct=None) == replace(ref, fct=None)
    assert new_seen == ref_seen
    assert new_metrics == ref_metrics
    assert new.as_dict() == ref.as_dict()
    return new


@pytest.mark.parametrize("backpressure", [True, False], ids=["bp", "open"])
@pytest.mark.parametrize("fabric", fabric_names())
@pytest.mark.parametrize(
    "n,load,sizes,seed",
    [
        (16, 0.7, "websearch", 3),
        (16, 1.1, "uniform", 8),
        (16, 0.4, "datamining", 21),
        (64, 0.9, "fixed", 5),
    ],
)
def test_matches_the_reference_loop(fabric, backpressure, n, load, sizes, seed):
    spec = WorkloadSpec(n=n, load=load, duration=60.0, sizes=sizes, seed=seed)
    flows = generate_flows(spec)
    result = _assert_same(
        flows, lambda: _stage(fabric, n), backpressure=backpressure,
        max_cycles=400,
    )
    assert result.offered_cells


@pytest.mark.parametrize("backpressure", [True, False], ids=["bp", "open"])
def test_matches_the_reference_under_flaky_pins(backpressure):
    spec = WorkloadSpec(n=16, load=0.9, duration=80.0, sizes="uniform", seed=4)
    result = _assert_same(
        generate_flows(spec), lambda: _stage("concentrator", 16, FLAKY),
        backpressure=backpressure, max_cycles=500,
    )
    assert result.faulted_cells


@pytest.mark.parametrize("fabric", ["concentrator", "knockout"])
def test_matches_the_reference_past_the_series_budget(fabric):
    """Long enough that every series decimates (stride > 1), so the
    cwnd mean is computed only for the samples kept."""
    spec = WorkloadSpec(n=16, load=0.9, duration=700.0, sizes="uniform", seed=2)
    result = _assert_same(
        generate_flows(spec), lambda: _stage(fabric, 16), max_cycles=900,
    )
    assert result.cycles > 2 * 256
    registry = obs.Registry()
    with obs.using(registry):
        FlowSim(_stage(fabric, 16), generate_flows(spec), max_cycles=900).run()
    series = registry.snapshot()["series"][f"flows.cwnd_mean{{fabric={fabric}}}"]
    assert series["stride"] > 1


@pytest.mark.parametrize("fabric", fabric_names())
def test_matches_the_reference_on_unsorted_and_tied_arrivals(fabric):
    """Flow ids need not follow arrival order; equal arrivals keep
    flow-id order, and an arrival on a cycle's time comes first."""
    rng = np.random.default_rng(17)
    flows = [
        FlowSpec(
            flow_id=i, src=int(rng.integers(16)), dst=int(rng.integers(16)),
            size_cells=int(rng.integers(1, 12)),
            arrival=float(rng.choice([0.0, 2.0, 2.5, 7.0, 7.25, 30.0])),
        )
        for i in range(60)
    ]
    _assert_same(flows, lambda: _stage(fabric, 16), max_cycles=300)


def test_matches_the_reference_with_an_injected_clock():
    flows = [replace(f, arrival=f.arrival + 5.0) for f in one_shot_flows([3, 1, 2, 4])]
    clocks = SimClock(now=5.0), SimClock(now=5.0)
    new = FlowSim(_stage("knockout", 4), flows, clock=clocks[0]).run()
    ref = ReferenceFlowSim(_stage("knockout", 4), flows, clock=clocks[1]).run()
    assert new.fct.tobytes() == ref.fct.tobytes()
    assert new.events == ref.events
    assert clocks[0].now == clocks[1].now > 5.0


def test_arrival_behind_an_injected_clock_raises():
    with pytest.raises(ConfigurationError, match="behind the clock"):
        FlowSim(
            _stage("rotor", 4), one_shot_flows([1, 1]), clock=SimClock(now=3.0)
        ).run()


class TestFlowValidation:
    """A flow that could never finish is refused before the first
    cycle, not discovered as a run that spins to its cycle cap."""

    @pytest.mark.parametrize(
        "bad",
        [
            {"size_cells": 0},
            {"size_cells": -2},
            {"dst": 9},
            {"dst": -1},
            {"arrival": -0.5},
            {"arrival": math.nan},
            {"arrival": math.inf},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_unfinishable_flows_are_configuration_errors(self, bad):
        flows = [FlowSpec(0, 0, 1, 2, 0.0), replace(FlowSpec(1, 1, 2, 3, 0.0), **bad)]
        with pytest.raises(ConfigurationError, match="flow 1"):
            FlowSim(build_fabric("rotor", 4), flows)

    def test_zero_cell_flow_is_refused_even_under_a_cycle_cap(self):
        flows = [FlowSpec(0, 0, 1, 0, 0.0), FlowSpec(1, 1, 2, 3, 0.0)]
        with pytest.raises(ConfigurationError, match="size_cells 0"):
            FlowSim(build_fabric("rotor", 4), flows, max_cycles=10000)


class TestPercentiles:
    QS = (50.0, 90.0, 99.0, 99.9)

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 10, 99, 100, 101, 999, 1000, 2000])
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    def test_bit_equal_to_numpy(self, size, ties):
        rng = np.random.default_rng(size * 2 + ties)
        if ties:
            values = rng.integers(1, 6, size).astype(np.float64) * 0.75
        else:
            values = np.round(rng.exponential(40.0, size) + 1.0, 6)
        ordered = sorted(values.tolist())
        for q in self.QS:
            got = percentile_sorted(ordered, q)
            want = float(np.percentile(values, q))
            assert got.hex() == want.hex(), (size, q)

    def test_every_size_up_to_two_thousand(self):
        rng = np.random.default_rng(0)
        values = rng.exponential(25.0, 2000) + 1.0
        values[::7] = values[3]  # ties throughout
        for size in range(1, 2001):
            sample = values[:size]
            ordered = sorted(sample.tolist())
            for q in self.QS:
                assert percentile_sorted(ordered, q) == float(
                    np.percentile(sample, q)
                )

    def test_result_percentiles_skip_nan(self):
        fct = np.array([np.nan, 4.0, 1.0, np.nan, 2.5])
        result = FlowSimResult("x", 5, 3, 0, 0, 0, 0, 0, 0, 0, fct)
        finished = fct[~np.isnan(fct)]
        assert result.fct_percentiles() == {
            f"p{q:g}": float(np.percentile(finished, q)) for q in self.QS
        }

    def test_out_of_range_percentile_raises(self):
        with pytest.raises(ValueError):
            percentile_sorted([1.0, 2.0], 100.5)

    def test_does_not_import_numpy_ma(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        # (numpy 1.x imports numpy.ma with numpy itself; then the
        # check has nothing to see.)
        code = (
            "import sys, numpy as np\n"
            "from repro.network.flows.sim import FlowSimResult\n"
            "before = 'numpy.ma' in sys.modules\n"
            "r = FlowSimResult('x', 3, 3, 0, 0, 0, 0, 0, 0, 0,"
            " np.array([3.0, 1.0, 2.0]))\n"
            "r.fct_percentiles()\n"
            "print(before or 'numpy.ma' not in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "True"


class TestCwndMean:
    """The journal's ``flows.cwnd_mean`` is a left-to-right float sum
    over every flow's window; the shortcut over not-yet-arrived flows
    must give the same bits, including when that sum rounds."""

    def _sim(self, windows, seen):
        flows = [FlowSpec(i, 0, 0, 1, 0.0) for i in range(len(windows))]
        sim = FlowSim(build_fabric("rotor", 4), flows)
        sim._cwnd[:] = windows
        sim._seen = seen
        return sim

    @pytest.mark.parametrize("seen", [0, 1, 5, 40, 100])
    def test_equals_the_sequential_sum(self, seen):
        rng = np.random.default_rng(seen)
        windows = [1.0] * 100
        for i in range(seen):
            windows[i] = float(rng.integers(1, 64)) + float(rng.integers(0, 8)) / 8
        sim = self._sim(windows, seen)
        want = 0.0
        for w in windows:
            want += w
        assert sim._cwnd_mean().hex() == (want / len(windows)).hex()

    def test_inexact_tail_falls_back_to_the_full_fold(self):
        # Adding the nine 1.0s one by one rounds to 10.0; adding 9 at
        # once rounds to 10 + 2**-49.  The shortcut must see the
        # rounding and take the one-by-one fold.
        windows = [1.0 + 5 * 2.0**-52] + [1.0] * 9
        assert windows[0] + 9 != 10.0
        sim = self._sim(windows, 1)
        want = 0.0
        for w in windows:
            want += w
        assert want == 10.0
        assert sim._cwnd_mean().hex() == (want / len(windows)).hex()
