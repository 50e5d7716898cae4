"""Unit tests for the event-driven flow simulator: the event plumbing,
the workload generators, the four fabric stages, and FlowSim itself.

The cross-model guarantees live elsewhere: parity with the
round-synchronous simulator in ``test_flows_differential.py``,
randomized invariants in ``test_flows_properties.py``, and CLI
snapshots in ``test_flows_golden.py``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.network.flows import (
    ConcentratorFabric,
    EventQueue,
    FatTreeFabric,
    FlowSim,
    KnockoutFabric,
    RotorFabric,
    SimClock,
    WorkloadSpec,
    build_fabric,
    fabric_names,
    generate_flows,
    head_to_head,
    one_shot_flows,
    run_fabric,
    size_distribution,
    size_distribution_names,
)
from repro.network.flows.fabric import (
    ABSORBED,
    BLOCKED,
    DELIVERED,
    FAULTED,
    IDLE,
    REJECTED,
)
from repro.switches.perfect import PerfectConcentrator


class TestSimClock:
    def test_advances_forward(self):
        clock = SimClock()
        clock.advance_to(2.5)
        clock.advance_to(2.5)
        assert clock.now == 2.5

    def test_backwards_raises(self):
        clock = SimClock(now=3.0)
        with pytest.raises(ConfigurationError):
            clock.advance_to(2.0)


class TestEventQueue:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push(3.0, "c")
        q.push(1.0, "a")
        q.push(2.0, "b")
        assert [q.pop().kind for _ in range(3)] == ["a", "b", "c"]
        assert q.clock.now == 3.0

    def test_same_time_events_pop_in_push_order(self):
        q = EventQueue()
        for payload in range(10):
            q.push(1.0, "tie", payload)
        assert [q.pop().payload for _ in range(10)] == list(range(10))

    def test_uncomparable_payloads_never_break_ties(self):
        # heapq only ever compares the (time, seq) prefix.
        q = EventQueue()
        q.push(1.0, "x", {"a": 1})
        q.push(1.0, "x", {"b": 2})
        assert q.pop().payload == {"a": 1}

    def test_push_behind_clock_raises(self):
        q = EventQueue()
        q.push(5.0, "later")
        q.pop()
        with pytest.raises(ConfigurationError):
            q.push(4.0, "past")

    def test_peek_len_and_popped(self):
        q = EventQueue()
        assert q.peek_time() is None and not q
        q.push(1.5, "e")
        assert q.peek_time() == 1.5 and len(q) == 1 and bool(q)
        q.pop()
        assert q.popped == 1 and not q


class TestSizeDistributions:
    def test_names_include_fixed(self):
        names = size_distribution_names()
        assert "fixed" in names and "websearch" in names and "datamining" in names

    def test_fixed_is_a_point_mass(self):
        dist = size_distribution("fixed", fixed_size=7)
        assert dist.mean_cells == 7.0
        rng = np.random.default_rng(0)
        assert set(dist.sample(rng, 50)) == {7}

    def test_samples_stay_in_support(self):
        dist = size_distribution("websearch")
        rng = np.random.default_rng(1)
        assert set(dist.sample(rng, 500)) <= set(dist.sizes)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            size_distribution("nope")

    def test_bad_fixed_size_raises(self):
        with pytest.raises(ConfigurationError):
            size_distribution("fixed", fixed_size=0)


class TestWorkload:
    def test_spec_validation(self):
        for kwargs in ({"n": 0}, {"n": 4, "load": 0.0}, {"n": 4, "duration": 0.0}):
            with pytest.raises(ConfigurationError):
                WorkloadSpec(**kwargs)

    def test_generate_is_deterministic(self):
        spec = WorkloadSpec(n=8, load=0.5, duration=20.0, seed=3)
        assert generate_flows(spec) == generate_flows(spec)

    def test_flow_ids_dense_and_sorted_by_arrival(self):
        flows = generate_flows(WorkloadSpec(n=8, load=0.8, duration=30.0, seed=1))
        assert [f.flow_id for f in flows] == list(range(len(flows)))
        arrivals = [f.arrival for f in flows]
        assert arrivals == sorted(arrivals)
        assert all(0.0 <= f.arrival < 30.0 for f in flows)
        assert all(0 <= f.dst < 8 and f.size_cells >= 1 for f in flows)

    def test_one_shot_defaults_dst_to_src(self):
        flows = one_shot_flows([2, 3, 1])
        assert [(f.src, f.dst, f.size_cells, f.arrival) for f in flows] == [
            (0, 0, 2, 0.0), (1, 1, 3, 0.0), (2, 2, 1, 0.0),
        ]

    def test_one_shot_validation(self):
        with pytest.raises(ConfigurationError):
            one_shot_flows([0])
        with pytest.raises(ConfigurationError):
            one_shot_flows([1, 1], dsts=[0])


def _slots(present: dict[int, tuple[int, int]], n: int):
    """Per-port flow-id and destination arrays from {src: (flow_id, dst)}."""
    flow = np.full(n, -1, dtype=np.int64)
    dst = np.full(n, -1, dtype=np.int64)
    for src, (fid, d) in present.items():
        flow[src], dst[src] = fid, d
    return flow, dst


def _count(fate: np.ndarray, which: int) -> int:
    return int(np.count_nonzero(fate == which))


class TestConcentratorFabric:
    def test_under_capacity_all_delivered(self):
        stage = ConcentratorFabric(PerfectConcentrator(8, 4))
        fate, surfaced = stage.step(*_slots({0: (0, 0), 3: (1, 3), 7: (2, 7)}, 8))
        assert fate.dtype == np.int8 and not surfaced
        assert fate.tolist() == [
            DELIVERED, IDLE, IDLE, DELIVERED, IDLE, IDLE, IDLE, DELIVERED
        ]

    def test_over_capacity_rejects_the_excess(self):
        stage = ConcentratorFabric(PerfectConcentrator(8, 4))
        fate, _ = stage.step(*_slots({i: (i, i) for i in range(8)}, 8))
        assert _count(fate, DELIVERED) == 4
        assert _count(fate, REJECTED) == 4
        assert _count(fate, FAULTED) == 0

    def test_wrong_slot_count_raises(self):
        stage = ConcentratorFabric(PerfectConcentrator(4, 2))
        flow, dst = _slots({1: (0, 1)}, 4)
        with pytest.raises(ConfigurationError):
            stage.step(flow[:3], dst[:3])

    def test_bad_destination_raises(self):
        stage = ConcentratorFabric(PerfectConcentrator(4, 2))
        for present in ({1: (0, 4)}, {1: (0, -1)}):
            with pytest.raises(ConfigurationError):
                stage.step(*_slots(present, 4))

    def test_describe_names_the_switch(self):
        stage = ConcentratorFabric(PerfectConcentrator(4, 2))
        doc = stage.describe()
        assert doc["m"] == 2 and doc["switch"] == "PerfectConcentrator"


class TestKnockoutFabric:
    def test_accepted_cells_queue_then_drain(self):
        stage = KnockoutFabric(4, lanes=2, fifo_depth=4)
        fate, surfaced = stage.step(*_slots({0: (0, 2), 1: (1, 2)}, 4))
        # Both contenders fit the two lanes; the FIFO transmits one.
        assert fate.tolist()[:2] == [DELIVERED, ABSORBED] and not surfaced
        assert stage.in_flight() == 1
        fate, surfaced = stage.step(*_slots({}, 4))
        assert surfaced == [1] and stage.in_flight() == 0
        assert fate.tolist() == [IDLE] * 4

    def test_contention_beyond_lanes_knocks_out(self):
        stage = KnockoutFabric(4, lanes=1, fifo_depth=8)
        fate, _ = stage.step(*_slots({0: (0, 3), 1: (1, 3), 2: (2, 3)}, 4))
        assert _count(fate, REJECTED) == 2
        assert _count(fate, DELIVERED) + stage.in_flight() == 1

    def test_full_fifo_overflows(self):
        stage = KnockoutFabric(4, lanes=2, fifo_depth=2)
        stage.step(*_slots({0: (0, 2), 1: (1, 2)}, 4))
        assert stage.in_flight() == 1
        fate, surfaced = stage.step(*_slots({0: (5, 2), 1: (6, 2)}, 4))
        # The drain frees a slot only after admission, so the second
        # arrival bounces off the then-full FIFO.
        assert fate.tolist()[:2] == [ABSORBED, REJECTED]
        assert surfaced == [1] and stage.in_flight() == 1

    def test_bad_params_raise(self):
        for kwargs in ({"lanes": 0}, {"fifo_depth": 0}):
            with pytest.raises(ConfigurationError):
                KnockoutFabric(4, **kwargs)


class TestRotorFabric:
    def test_only_the_wired_destination_delivers(self):
        stage = RotorFabric(4)
        # Cycle 0 wires i -> i+1.
        fate, _ = stage.step(*_slots({0: (0, 1), 1: (1, 3)}, 4))
        assert fate.tolist() == [DELIVERED, BLOCKED, IDLE, IDLE]

    def test_wiring_tracks_the_rotation(self):
        stage = RotorFabric(4)
        assert stage.wiring() == [1, 2, 3, 0]
        stage.step(*_slots({}, 4))
        assert stage.wiring() == [2, 3, 0, 1]

    def test_self_destination_always_admitted(self):
        stage = RotorFabric(4)
        fate, _ = stage.step(*_slots({2: (0, 2)}, 4))
        assert fate[2] == DELIVERED

    def test_slot_cycles_holds_the_matching(self):
        stage = RotorFabric(4, slot_cycles=2)
        stage.step(*_slots({}, 4))
        assert stage.wiring()[0] == 1  # still slot 0 after one cycle
        stage.step(*_slots({}, 4))
        assert stage.wiring()[0] == 2

    def test_tiny_n_raises(self):
        with pytest.raises(ConfigurationError):
            RotorFabric(1)


class TestFatTreeFabric:
    def test_requires_power_of_two(self):
        with pytest.raises(ConfigurationError):
            FatTreeFabric(12)

    def test_single_cell_survives(self):
        stage = FatTreeFabric(8)
        fate, _ = stage.step(*_slots({2: (0, 5)}, 8))
        assert fate[2] == DELIVERED and _count(fate, IDLE) == 7


class TestBuildFabric:
    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            build_fabric("warp", 16)

    def test_concentrator_m_defaults_to_three_quarters(self):
        stage = build_fabric("concentrator", 16)
        assert stage.describe()["m"] == 12

    def test_all_names_buildable_at_n16(self):
        for name in fabric_names():
            assert build_fabric(name, 16).n == 16


class TestFlowSim:
    def test_uncontended_flow_fct_equals_its_size(self):
        stage = ConcentratorFabric(PerfectConcentrator(4, 2))
        result = FlowSim(stage, one_shot_flows([3])).run()
        assert result.completed == 1
        assert result.fct[0] == 3.0
        assert result.delivered_cells == 3 and result.dropped_cells == 0
        assert result.cycles == 3

    def test_flow_ids_must_be_dense(self):
        stage = RotorFabric(4)
        flows = one_shot_flows([1, 1])
        with pytest.raises(ConfigurationError):
            FlowSim(stage, [flows[1]])

    def test_src_must_fit_the_fabric(self):
        with pytest.raises(ConfigurationError):
            FlowSim(RotorFabric(2), one_shot_flows([1, 1, 1]))

    def test_no_backpressure_drops_and_still_completes(self):
        stage = ConcentratorFabric(PerfectConcentrator(4, 1))
        result = FlowSim(
            stage, one_shot_flows([2, 2]), backpressure=False
        ).run()
        # Two contenders per cycle, one uplink: one delivers, one drops.
        assert result.delivered_cells == 2 and result.dropped_cells == 2
        assert result.completed == 2 and result.cycles == 2
        assert result.loss_rate == pytest.approx(0.5)

    def test_backpressure_retransmits_to_zero_loss(self):
        stage = ConcentratorFabric(PerfectConcentrator(4, 1))
        result = FlowSim(stage, one_shot_flows([2, 2]), max_cycles=200).run()
        assert result.dropped_cells == 0
        assert result.delivered_cells == 4
        assert result.completed == 2
        # Retransmissions make offered exceed the unique cell count.
        assert result.offered_cells >= 4

    def test_max_cycles_leaves_unresolved_flows_nan(self):
        stage = ConcentratorFabric(PerfectConcentrator(4, 1))
        result = FlowSim(stage, one_shot_flows([50, 50]), max_cycles=3).run()
        assert result.cycles == 3
        assert result.completed == 0
        assert np.isnan(result.fct).all()
        assert np.isnan(result.fct_percentiles()["p50"])

    def test_accounting_balances_mid_run(self):
        stage = KnockoutFabric(4, lanes=1, fifo_depth=2)
        seen = []

        def check(sim, cycle):
            acct = sim.accounting()
            seen.append(acct)
            assert acct["arrived"] == (
                acct["delivered"] + acct["dropped"]
                + acct["in_fabric"] + acct["at_source"]
            )
            assert acct["in_fabric"] == sim.stage.in_flight()

        FlowSim(
            stage,
            one_shot_flows([3, 3, 2], dsts=[1, 1, 1]),
            checkpoint=check,
            max_cycles=100,
        ).run()
        assert seen, "checkpoint never ran"

    def test_fractional_arrivals_round_up_to_the_next_cycle(self):
        stage = ConcentratorFabric(PerfectConcentrator(4, 2))
        flows = [replace(f, arrival=1.25) for f in one_shot_flows([1])]
        result = FlowSim(stage, flows).run()
        # Delivered in cycle 2: FCT = 2 - 1.25 + 1.
        assert result.fct[0] == pytest.approx(1.75)

    def test_emits_cataloged_metrics(self):
        registry = obs.Registry()
        stage = ConcentratorFabric(PerfectConcentrator(4, 2))
        with obs.using(registry):
            FlowSim(stage, one_shot_flows([2, 1])).run()
        counters = registry.snapshot()["counters"]
        assert counters["flows.cells_delivered{fabric=concentrator}"] == 3
        assert counters["flows.cycles{fabric=concentrator}"] == 2
        assert "flows.events{fabric=concentrator}" in counters


class TestStudy:
    def test_run_fabric_completes_a_small_workload(self):
        spec = WorkloadSpec(n=16, load=0.4, duration=10.0, seed=2)
        result = run_fabric("concentrator", spec)
        assert result.fabric == "concentrator"
        assert result.flows == len(generate_flows(spec))
        assert result.completed == result.flows

    def test_head_to_head_shares_one_workload(self):
        spec = WorkloadSpec(n=16, load=0.4, duration=10.0, seed=2)
        report = head_to_head(spec, ["concentrator", "rotor"])
        assert report.fabrics == ["concentrator", "rotor"]
        assert {r.flows for r in report.results.values()} == {
            len(generate_flows(spec))
        }
        assert report.total_events == sum(
            r.events for r in report.results.values()
        )

    def test_unknown_fabric_raises(self):
        spec = WorkloadSpec(n=16, load=0.4, duration=5.0)
        with pytest.raises(ConfigurationError):
            head_to_head(spec, ["concentrator", "warp"])

    def test_as_dict_carries_percentiles(self):
        spec = WorkloadSpec(n=16, load=0.4, duration=10.0, seed=2)
        doc = head_to_head(spec, ["rotor"]).as_dict()
        assert doc["workload"]["n"] == 16
        assert "p99" in doc["fabrics"]["rotor"]
