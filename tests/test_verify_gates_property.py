"""Property: the packed evaluator is bit-exact with a per-gate fold.

``gates.evaluate`` levelizes a circuit and packs trials into uint64
lanes; these tests drive it with *randomly generated* netlists (random
gate types, fan-in, wiring depth and input placement from
:func:`repro.verify.strategies.circuits`), not just the circuits the
switch builders happen to produce, and compare every wire with
``gate_fold``, which walks ``circuit.gates`` one row and one gate at a
time through the timing simulator's scalar gate rule.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.gates.evaluate import evaluate
from repro.gates.netlist import Circuit, Op
from repro.verify import strategies as vst
from tests.conftest import gate_fold


class TestPackedEvaluatorParity:
    @given(circuit=vst.circuits(), data=st.data())
    def test_packed_matches_scalar_on_random_netlists(self, circuit, data):
        n = len(circuit.input_wires())
        batch = data.draw(vst.bit_batches(n))
        packed = evaluate(circuit, batch)
        reference = gate_fold(circuit, batch)
        assert packed.shape == reference.shape
        assert np.array_equal(packed, reference)

    @given(
        circuit=vst.circuits(max_gates=20),
        rows=st.sampled_from((63, 64, 65, 130)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_multi_word_batches(self, circuit, rows, seed):
        """Batches ending just before, on and after a word boundary."""
        n = len(circuit.input_wires())
        batch = np.random.default_rng(seed).random((rows, n)) < 0.5
        assert np.array_equal(evaluate(circuit, batch), gate_fold(circuit, batch))

    @given(circuit=vst.circuits(max_gates=15), data=st.data())
    def test_single_pattern_squeeze(self, circuit, data):
        n = len(circuit.input_wires())
        row = data.draw(vst.valid_bits(n))
        got = evaluate(circuit, row)
        assert got.shape == (circuit.n_wires,)
        assert np.array_equal(got, gate_fold(circuit, row))

    @given(circuit=vst.circuits(max_inputs=4, max_gates=25))
    def test_exhaustive_inputs_on_random_netlists(self, circuit):
        """Every input combination at once, compared wire-for-wire."""
        n = len(circuit.input_wires())
        shifts = np.arange(n, dtype=np.uint32)
        idx = np.arange(1 << n, dtype=np.uint32)
        batch = ((idx[:, None] >> shifts) & 1).astype(bool)
        assert np.array_equal(evaluate(circuit, batch), gate_fold(circuit, batch))


class TestForces:
    @given(circuit=vst.circuits(max_gates=25), data=st.data())
    def test_random_force_maps_match_fold(self, circuit, data):
        """Stuck-at-0 and stuck-at-1 on any wire: inputs, constants and
        logic gates, read by later levels or not."""
        forces = data.draw(
            st.dictionaries(
                st.integers(min_value=0, max_value=circuit.n_wires - 1),
                st.booleans(),
                max_size=6,
            )
        )
        rows = data.draw(st.integers(min_value=1, max_value=70))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        batch = np.random.default_rng(seed).random((rows, len(circuit.input_wires()))) < 0.5
        got = evaluate(circuit, batch, forces=forces)
        assert np.array_equal(got, gate_fold(circuit, batch, forces))

    def test_each_wire_kind_forced(self):
        c = Circuit()
        a = c.input()
        one = c.const(True)
        b = c.input()
        zero = c.const(False)
        x = c.add_gate(Op.AND, a, b)
        y = c.add_gate(Op.OR, x, zero)
        z = c.add_gate(Op.XOR, y, one, b)
        batch = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=bool)
        for forces in (
            {a: True, b: False},
            {one: False, zero: True},
            {x: True},
            {x: False, y: True, z: False},
        ):
            got = evaluate(c, batch, forces=forces)
            assert np.array_equal(got, gate_fold(c, batch, forces)), forces
            for wire, value in forces.items():
                assert (got[:, wire] == value).all()
        # A forced input still consumes its column: b reads column 1.
        got = evaluate(c, batch, forces={a: False})
        assert list(got[:, b]) == [False, True, False, True]
        # A forced logic wire is what its readers see.
        got = evaluate(c, batch, forces={x: True})
        assert got[:, y].all()


class TestCircuitStrategy:
    @given(circuit=vst.circuits())
    def test_generated_netlists_are_well_formed(self, circuit):
        assert len(circuit.input_wires()) >= 1
        assert circuit.n_wires == len(circuit.gates)
        for gate in circuit.gates:
            assert all(0 <= src < gate.output for src in gate.inputs)
            if gate.op in (Op.BUF, Op.NOT):
                assert len(gate.inputs) == 1
            elif gate.op not in (Op.INPUT, Op.CONST0, Op.CONST1):
                assert len(gate.inputs) >= 2
