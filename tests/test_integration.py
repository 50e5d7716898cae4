"""End-to-end integration tests spanning multiple subsystems."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.concentration import validate_partial_concentration
from repro.core.nearsort import nearsortedness
from repro.gates.hyperconc_gates import GateHyperconcentrator
from repro.hardware.costs import table1
from repro.messages.message import Message
from repro.messages.serial_sim import BitSerialSimulator
from repro.network.funnel import FunnelNetwork
from repro.switches.columnsort_switch import ColumnsortSwitch
from repro.switches.revsort_switch import RevsortSwitch
from tests.conftest import random_bits


class TestLemma2EndToEnd:
    """The whole Section 3 argument, measured on the real switches: an
    ε-nearsorting construction restricted to its first m outputs meets
    the (n, m, 1 − ε/m) contract, with measured ε ≤ the theorem bound."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: RevsortSwitch(256, 192),
            lambda: ColumnsortSwitch(64, 4, 192),
            lambda: ColumnsortSwitch(32, 8, 192),
        ],
    )
    def test_theorem_pipeline(self, rng, factory):
        switch = factory()
        n = switch.n
        worst_eps = 0
        for _ in range(40):
            valid = random_bits(rng, n)
            final = switch.final_positions(valid)
            out = np.zeros(n, dtype=np.int8)
            out[final] = valid.astype(np.int8)
            worst_eps = max(worst_eps, nearsortedness(out))
            routing = switch.setup(valid)
            validate_partial_concentration(
                switch.spec, valid, routing.input_to_output
            )
        assert worst_eps <= switch.epsilon_bound


class TestGateModelInsideMultichipStory:
    """The functional chip model used by the multichip switches and
    the gate-level netlist agree — so the multichip results transfer
    to the gate level."""

    def test_substitute_gate_chip_for_column_sorts(self, rng):
        r, s = 8, 2
        n = r * s
        switch = ColumnsortSwitch(r, s, n)
        gate_chip = GateHyperconcentrator(r)
        for _ in range(20):
            valid = random_bits(rng, n)
            # Stage 1 on gate chips.
            mat = valid.reshape(r, s)
            cols = []
            for j in range(s):
                routing = gate_chip.setup(mat[:, j])
                out = np.zeros(r, dtype=bool)
                targets = routing.input_to_output[mat[:, j]]
                out[targets] = True
                cols.append(out)
            gate_stage1 = np.stack(cols, axis=1)

            final = switch.stage_permutations(valid)[0]
            model_stage1 = np.zeros(n, dtype=bool)
            model_stage1[final] = valid
            assert np.array_equal(gate_stage1.reshape(-1), model_stage1)


class TestMessagesThroughTree:
    def test_bit_serial_through_two_levels(self, rng):
        """Full story: bit-serial messages → leaf switches → root."""
        leaves = [ColumnsortSwitch(8, 2, 8) for _ in range(2)]
        from repro.switches.perfect import PerfectConcentrator

        root = PerfectConcentrator(16, 8)
        tree = FunnelNetwork([leaves, [root]])
        messages: list[Message | None] = [None] * 32
        for i in range(0, 32, 8):
            messages[i] = Message.from_int(i, 6)
        outputs, levels = tree.route(messages)
        assert sum(level.lost for level in levels) == 0
        values = sorted(m.to_int() for m in outputs if m is not None)
        assert values == [0, 8, 16, 24]

    def test_serial_sim_matches_route(self, rng):
        switch = RevsortSwitch(64, 48)
        sim = BitSerialSimulator(switch)
        messages: list[Message | None] = [None] * 64
        for i in rng.choice(64, size=25, replace=False):
            messages[int(i)] = Message.from_int(int(i), 6)
        record = sim.transit(messages)
        outputs = switch.route(messages)
        for wire, msg in record.delivered.items():
            assert outputs[wire] is msg


class TestTable1Consistency:
    def test_measures_match_switch_objects(self):
        n, m = 1 << 10, 3 << 8
        rows = table1(n, m)
        rev = rows[0]
        switch = RevsortSwitch(n, m)
        assert rev.chip_count == switch.chip_count
        assert rev.gate_delays == switch.gate_delays
        assert rev.load_ratio == switch.spec.alpha
