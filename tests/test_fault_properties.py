"""Property-based robustness guarantees (Hypothesis).

Three families of properties:

* a single stuck-at-0 input pin can only *remove* one message, so the
  measured nearsortedness of the degraded occupancy stays within the
  switch's theorem bound;
* killing one message at the final stage boundary (a boundary-class
  fault) shifts at most the survivors behind it down one slot, giving
  the closed-form bound ``ε' ≤ max(ε_healthy + 1, k − 1 − p)``;
* fault-injected executions keep exact batch/scalar (and, at netlist
  sizes, gate) parity for every sampled scenario — the cross-path
  guarantee the degradation certificates rely on.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nearsort import nearsortedness
from repro.engine.batch import nearsortedness_batch
from repro.faults import (
    FaultScenario,
    FaultySwitch,
    SeveredWireFault,
    StuckAtFault,
    gate_occupancy,
)
from repro.faults.scenario import chip_layers, plan_of
from repro.switches.columnsort_switch import ColumnsortSwitch
from repro.switches.iterated_columnsort import IteratedColumnsortSwitch
from repro.switches.multichip_hyper import FullRevsortHyperconcentrator
from repro.switches.revsort_switch import RevsortSwitch
from repro.verify import strategies as vst

SMALL = RevsortSwitch(16, 12)
MEDIUM = RevsortSwitch(64, 48)
COLUMN = ColumnsortSwitch(16, 4, 48)


def _occupancy(switch, fsw: FaultySwitch, valid: np.ndarray) -> np.ndarray:
    return fsw.occupancy_batch(valid[None, :])[0]


class TestStuckAtEpsilon:
    @settings(max_examples=30)
    @given(
        pin=st.integers(min_value=0, max_value=63),
        kv=vst.valid_bits_with_k(64),
    )
    def test_single_stuck_at_zero_within_theorem_bound(self, pin, kv):
        # Removing one message cannot push the nearsorted occupancy
        # past the healthy theorem bound: the surviving messages are a
        # subset the switch nearsorts on its own terms.
        k, valid = kv
        fsw = FaultySwitch(
            MEDIUM,
            FaultScenario(name="s0", faults=(StuckAtFault(pin, 0),)),
        )
        eps = int(nearsortedness(_occupancy(MEDIUM, fsw, valid)))
        assert eps <= MEDIUM.epsilon_bound

    @settings(max_examples=30)
    @given(
        pin=st.integers(min_value=0, max_value=63),
        kv=vst.valid_bits_with_k(64),
    )
    def test_single_stuck_at_zero_routes_at_most_one_less(self, pin, kv):
        k, valid = kv
        fsw = FaultySwitch(
            MEDIUM,
            FaultScenario(name="s0", faults=(StuckAtFault(pin, 0),)),
        )
        healthy = MEDIUM.setup(valid).routed_count
        degraded = fsw.setup(valid).routed_count
        assert healthy - 1 <= degraded <= healthy


class TestBoundaryKillEpsilon:
    @settings(max_examples=30)
    @given(
        position=st.integers(min_value=0, max_value=63),
        kv=vst.valid_bits_with_k(64),
    )
    def test_final_boundary_kill_bounded_epsilon(self, position, kv):
        # Severing one wire at the last stage boundary removes one
        # already-ranked message: survivors above it keep their rank,
        # survivors behind shift down one.  The occupancy therefore
        # gains at most one extra inversion below position p, and the
        # hole at p itself is covered by k-1-p when p sits early.
        k, valid = kv
        last = len(chip_layers(plan_of(MEDIUM))) - 1
        fsw = FaultySwitch(
            MEDIUM,
            FaultScenario(
                name="cut", faults=(SeveredWireFault(last, position),)
            ),
        )
        eps_healthy = int(
            nearsortedness_batch(_healthy_occupancy(MEDIUM, valid)[None, :])[0]
        )
        eps_faulty = int(nearsortedness(_occupancy(MEDIUM, fsw, valid)))
        bound = max(eps_healthy + 1, k - 1 - position)
        assert eps_faulty <= max(bound, 0)


def _healthy_occupancy(switch, valid: np.ndarray) -> np.ndarray:
    pos = switch.final_positions_batch(valid[None, :])[0]
    occ = np.zeros(switch.n, dtype=bool)
    occ[pos[valid]] = True
    return occ


def _assert_batch_scalar_parity(data, designs) -> None:
    switch = data.draw(st.sampled_from(designs))
    scenario = data.draw(vst.fault_scenarios(switch, max_faults=3))
    fsw = FaultySwitch(switch, scenario)
    batch = data.draw(vst.bit_batches(switch.n, min_batch=1, max_batch=4))
    routed = fsw.setup_batch(batch).input_to_output
    for row in range(batch.shape[0]):
        scalar = fsw.setup(batch[row])
        assert np.array_equal(scalar.input_to_output, routed[row])


# Every StagePlan family, drawn as an extra input of the parity tests
# (25 examples per design): full-revsort has 12 chip layers, chip width
# 24 takes the walker's non-power-of-two rank branch.
REVSORT_FAMILY = (MEDIUM, FullRevsortHyperconcentrator(64))
COLUMNSORT_FAMILY = (
    COLUMN,
    ColumnsortSwitch(24, 3, 54),
    IteratedColumnsortSwitch(16, 4, 36, passes=2),
)


class TestSampledScenarioParity:
    @settings(max_examples=25 * len(REVSORT_FAMILY))
    @given(data=st.data())
    def test_batch_scalar_parity_revsort(self, data):
        _assert_batch_scalar_parity(data, REVSORT_FAMILY)

    @settings(max_examples=25 * len(COLUMNSORT_FAMILY))
    @given(data=st.data())
    def test_batch_scalar_parity_columnsort(self, data):
        _assert_batch_scalar_parity(data, COLUMNSORT_FAMILY)

    @settings(max_examples=20)
    @given(data=st.data())
    def test_gate_parity_small_revsort(self, data):
        scenario = data.draw(vst.fault_scenarios(SMALL, max_faults=2))
        fsw = FaultySwitch(SMALL, scenario)
        batch = data.draw(vst.bit_batches(16, min_batch=1, max_batch=4))
        gates = gate_occupancy(fsw, batch)
        assert gates is not None
        assert np.array_equal(gates, fsw.occupancy_batch(batch))

    @settings(max_examples=20)
    @given(data=st.data())
    def test_all_classes_parity_includes_stuck_pins(self, data):
        scenario = data.draw(
            vst.fault_scenarios(SMALL, max_faults=3, classes="all")
        )
        fsw = FaultySwitch(SMALL, scenario)
        batch = data.draw(vst.bit_batches(16, min_batch=1, max_batch=3))
        routed = fsw.setup_batch(batch).input_to_output
        for row in range(batch.shape[0]):
            assert np.array_equal(
                fsw.setup(batch[row]).input_to_output, routed[row]
            )
