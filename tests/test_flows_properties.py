"""Property suites for the event-driven flow simulator.

Three invariant families:

* **flow conservation** — at every fabric cycle of every run,
  ``arrived == delivered + dropped + in_fabric + at_source`` and the
  simulator's in-fabric count matches the stage's own buffers;
* **event-time monotonicity** — the queue pops in non-decreasing time
  with stable FIFO tie-breaking, for any push schedule;
* **seed determinism** — a workload is a pure function of its spec and
  the FCT arrays are byte-identical across repeat runs.

The strategies (`workload_specs`, `fabric_topologies`) live in
:mod:`repro.verify.strategies` so downstream fabric authors inherit
the same coverage.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.flows import (
    EventQueue,
    FlowSim,
    WorkloadSpec,
    generate_flows,
    head_to_head,
)
from repro.verify import strategies as vst

#: Cap per-example simulation length: conservation holds at every
#: checkpoint whether or not the run drains, so truncation loses
#: nothing and keeps heavy-tailed examples fast.
MAX_CYCLES = 300


class TestFlowConservation:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_cells_are_conserved_every_cycle(self, data):
        spec = data.draw(vst.workload_specs(ports=(4, 16)))
        stage = data.draw(vst.fabric_topologies(n=spec.n))
        backpressure = data.draw(st.booleans())
        flows = generate_flows(spec)
        checked = 0

        def checkpoint(sim, cycle):
            nonlocal checked
            acct = sim.accounting()
            assert acct["arrived"] == (
                acct["delivered"] + acct["dropped"]
                + acct["in_fabric"] + acct["at_source"]
            ), f"cycle {cycle}: {acct}"
            assert acct["in_fabric"] == sim.stage.in_flight()
            checked += 1

        result = FlowSim(
            stage,
            flows,
            backpressure=backpressure,
            max_cycles=MAX_CYCLES,
            checkpoint=checkpoint,
        ).run()
        assert checked == result.cycles

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_resolved_flows_account_for_all_their_cells(self, data):
        spec = data.draw(vst.workload_specs(ports=(4, 16)))
        stage = data.draw(vst.fabric_topologies(n=spec.n))
        flows = generate_flows(spec)
        result = FlowSim(
            stage, flows, backpressure=False, max_cycles=MAX_CYCLES
        ).run()
        # Open loop: every offered cell resolves the cycle it is
        # offered unless the stage absorbed it.
        assert result.completed <= result.flows
        assert (
            result.delivered_cells + result.dropped_cells
            <= result.offered_cells
        )
        finished = result.fct[~np.isnan(result.fct)]
        assert (finished >= 1.0).all()


class TestEventTimeMonotonicity:
    @settings(max_examples=100)
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    def test_pops_sorted_with_fifo_ties(self, times):
        q = EventQueue()
        for payload, t in enumerate(times):
            q.push(t, "evt", payload)
        popped = [q.pop() for _ in range(len(times))]
        assert all(a.time <= b.time for a, b in zip(popped, popped[1:]))
        for a, b in zip(popped, popped[1:]):
            if a.time == b.time:
                assert a.seq < b.seq  # push order == pop order on ties
        assert q.clock.now == max(times)

    @settings(max_examples=50)
    @given(
        batches=st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_interleaved_push_pop_stays_monotone(self, batches):
        q = EventQueue()
        last = -1.0
        for batch in batches:
            for offset in batch:
                q.push(q.clock.now + offset, "evt")
            event = q.pop()
            assert event.time >= last
            last = event.time


class TestSeedDeterminism:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_workload_is_a_pure_function_of_its_spec(self, seed):
        spec = WorkloadSpec(n=8, load=0.6, duration=15.0, seed=seed)
        assert generate_flows(spec) == generate_flows(spec)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_repeat_runs_are_byte_identical(self, seed):
        spec = WorkloadSpec(n=16, load=0.5, duration=12.0, seed=seed)
        first = head_to_head(spec, max_cycles=MAX_CYCLES)
        second = head_to_head(spec, max_cycles=MAX_CYCLES)
        for name in first.fabrics:
            assert (
                first.results[name].fct.tobytes()
                == second.results[name].fct.tobytes()
            )
            assert first.results[name].events == second.results[name].events
