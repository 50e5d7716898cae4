"""Differential harness: the event-driven flow simulator against the
round-synchronous :class:`repro.network.simulate.SwitchSimulation`.

Under the degenerate workload — one fixed-front flow per ingress, all
arriving at t=0, no backpressure — the two models are the same process
stated two ways: at integer cycle/round t, input i is occupied iff
``t < sizes[i]``, every occupied input either delivers or drops, and
the front shrinks by one regardless.  The event-driven side routes via
``setup_batch`` and the round side via ``setup``, so agreement here
also re-checks the batch/scalar engine contract from a new direction.

Any bookkeeping bug in either simulator (double-count, off-by-one
front, phantom retransmission) breaks the equality.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._util.rng import default_rng
from repro.faults.scenario import (
    DeadOutputFault,
    FaultScenario,
    FlakyPinFault,
    StuckAtFault,
)
from repro.messages.congestion import DropPolicy
from repro.network.flows import ConcentratorFabric, FlowSim, one_shot_flows
from repro.network.simulate import SwitchSimulation
from repro.network.traffic import TrafficGenerator
from repro.switches.registry import build_switch

#: Registry designs under differential test — the certified shapes of
#: three distinct architectures (three-stage revsort, two-stage
#: columnsort, and the perfect concentrator reference).
DESIGNS = [
    ("revsort", {"n": 16, "m": 12}),
    ("columnsort", {"r": 8, "s": 2, "m": 12}),
    ("perfect", {"n": 16, "m": 8}),
]


class _FlowFrontTraffic(TrafficGenerator):
    """Presents the one-shot flow fronts round-synchronously: input i
    carries a message at round r iff ``r < sizes[i]``."""

    def __init__(self, sizes):
        super().__init__(len(sizes), payload_bits=0)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self._round = 0

    def active_inputs(self) -> np.ndarray:
        active = np.flatnonzero(self.sizes > self._round)
        self._round += 1
        return active


#: Structural faults every design can hold (no interior kills, which
#: need a stage plan) plus flaky pins listed out of pin order.
MIXED = FaultScenario(
    name="mixed",
    faults=(
        FlakyPinFault(9, 0.4),
        DeadOutputFault(2),
        StuckAtFault(14, 1),
        FlakyPinFault(1, 0.3),
        StuckAtFault(6, 0),
    ),
    seed=4,
)


def _both_models(design: str, params: dict, sizes) -> tuple:
    """Run both simulators over the same flow fronts; independent
    switch instances so no state can leak between the models."""
    round_sim = SwitchSimulation(
        build_switch(design, **params),
        _FlowFrontTraffic(sizes),
        policy=DropPolicy(),
    )
    summary = round_sim.run(rounds=int(max(sizes)))

    stage = ConcentratorFabric(build_switch(design, **params))
    result = FlowSim(
        stage, one_shot_flows(sizes), backpressure=False
    ).run()
    return summary, result


@pytest.mark.parametrize("design,params", DESIGNS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_delivered_and_lost_match(design, params, seed):
    n = 16
    rng = default_rng(seed)
    sizes = rng.integers(1, 9, size=n)
    summary, result = _both_models(design, params, sizes)

    assert summary.offered == result.offered_cells == int(sizes.sum())
    assert summary.delivered == result.delivered_cells
    assert summary.lost == result.dropped_cells
    assert summary.rounds == result.cycles == int(sizes.max())


@pytest.mark.parametrize("design,params", DESIGNS)
def test_saturated_front_matches(design, params):
    # Every input busy for 4 cycles: the switch saturates at m per
    # cycle and both models must agree on exactly which excess is lost.
    sizes = [4] * 16
    summary, result = _both_models(design, params, sizes)
    assert summary.delivered == result.delivered_cells
    assert summary.lost == result.dropped_cells


def _per_cycle_delivered(design, params, sizes, scenario=None):
    """Each cycle's delivered count from both simulators, the fault
    scenario (if any) applied to both."""
    round_sim = SwitchSimulation(
        build_switch(design, **params),
        _FlowFrontTraffic(sizes),
        policy=DropPolicy(),
        scenario=scenario,
    )
    summary = round_sim.run(rounds=int(max(sizes)))
    round_per_cycle = [r.delivered for r in summary.per_round]

    stage = ConcentratorFabric(build_switch(design, **params), scenario=scenario)
    flow_per_cycle = []

    def checkpoint(sim, cycle):
        delivered = sum(s.delivered for s in sim._states)
        flow_per_cycle.append(delivered - sum(flow_per_cycle))

    FlowSim(
        stage,
        one_shot_flows(sizes),
        backpressure=False,
        checkpoint=checkpoint,
    ).run()
    return round_per_cycle, flow_per_cycle


@pytest.mark.parametrize("design,params", DESIGNS)
def test_per_cycle_front_is_identical(design, params):
    """Stronger than totals: record each cycle's delivered count on
    both sides and compare the full sequences."""
    sizes = default_rng(7).integers(1, 7, size=16)
    round_per_cycle, flow_per_cycle = _per_cycle_delivered(design, params, sizes)
    assert flow_per_cycle == round_per_cycle


@pytest.mark.parametrize("design,params", DESIGNS)
def test_per_cycle_front_is_identical_under_faults(design, params):
    """The same structural + flaky scenario on both sides: the shared
    scenario hook gives both the same flip history, while routing
    (scalar ``setup`` against ``setup_batch`` through the
    ``FaultySwitch``) and delivery bookkeeping stay independent."""
    sizes = default_rng(8).integers(2, 9, size=16)
    round_per_cycle, flow_per_cycle = _per_cycle_delivered(
        design, params, sizes, scenario=MIXED
    )
    assert flow_per_cycle == round_per_cycle
