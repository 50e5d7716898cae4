"""Tests for the gate-level substrate: netlist, evaluator, depth
analysis, and combinational builders."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CircuitError
from repro.gates.builders import (
    and_tree,
    equals_const,
    full_adder,
    half_adder,
    or_tree,
    popcount,
    prefix_popcounts,
    ripple_add,
)
from repro.gates.depth import critical_path_length, wire_depths
from repro.gates.evaluate import evaluate
from repro.gates.netlist import Circuit, Op


class TestNetlist:
    def test_topological_enforcement(self):
        c = Circuit()
        with pytest.raises(CircuitError):
            c.add_gate(Op.NOT, 0)  # wire 0 not driven yet

    def test_arity_checks(self):
        c = Circuit()
        a = c.input()
        with pytest.raises(CircuitError):
            c.add_gate(Op.NOT, a, a)
        with pytest.raises(CircuitError):
            c.add_gate(Op.AND, a)

    def test_duplicate_names(self):
        c = Circuit()
        c.input(name="x")
        with pytest.raises(CircuitError):
            c.input(name="x")

    def test_unknown_name(self):
        with pytest.raises(CircuitError):
            Circuit().wire("nope")

    def test_logic_gate_count_excludes_inputs(self):
        c = Circuit()
        a, b = c.input(), c.input()
        c.add_gate(Op.AND, a, b)
        c.const(True)
        assert c.n_logic_gates == 1


class TestEvaluate:
    def test_basic_ops(self):
        c = Circuit()
        a, b = c.input(), c.input()
        gates = {
            "and": c.add_gate(Op.AND, a, b),
            "or": c.add_gate(Op.OR, a, b),
            "xor": c.add_gate(Op.XOR, a, b),
            "nand": c.add_gate(Op.NAND, a, b),
            "nor": c.add_gate(Op.NOR, a, b),
            "not": c.add_gate(Op.NOT, a),
            "buf": c.add_gate(Op.BUF, a),
        }
        for va, vb in itertools.product([False, True], repeat=2):
            vals = evaluate(c, np.array([va, vb]))
            assert vals[gates["and"]] == (va and vb)
            assert vals[gates["or"]] == (va or vb)
            assert vals[gates["xor"]] == (va != vb)
            assert vals[gates["nand"]] == (not (va and vb))
            assert vals[gates["nor"]] == (not (va or vb))
            assert vals[gates["not"]] == (not va)
            assert vals[gates["buf"]] == va

    def test_constants(self):
        c = Circuit()
        one = c.const(True)
        zero = c.const(False)
        c.input()
        vals = evaluate(c, np.array([False]))
        assert vals[one] and not vals[zero]

    def test_batch_evaluation(self):
        c = Circuit()
        a, b = c.input(), c.input()
        g = c.add_gate(Op.AND, a, b)
        batch = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=bool)
        vals = evaluate(c, batch)
        assert list(vals[:, g]) == [False, False, False, True]

    def test_wrong_input_count(self):
        c = Circuit()
        c.input()
        with pytest.raises(CircuitError):
            evaluate(c, np.array([True, False]))

    def test_out_of_range_forced_wire(self):
        c = Circuit()
        a = c.input()
        c.add_gate(Op.NOT, a)
        for wire in (c.n_wires, -1):
            with pytest.raises(CircuitError, match="not in the circuit"):
                evaluate(c, np.array([True]), forces={wire: True})

    def test_buffer_chain_levels(self):
        """BUF has zero gate delay but still reads its source: levels
        are unit-weighted, so BUF(BUF(NOT a)) is evaluated after NOT."""
        c = Circuit()
        a = c.input()
        n = c.add_gate(Op.NOT, a)
        b1 = c.add_gate(Op.BUF, n)
        b2 = c.add_gate(Op.BUF, b1)
        out = c.add_gate(Op.AND, b2, a)
        vals = evaluate(c, np.array([[False], [True]]))
        assert vals[:, b2].tolist() == [True, False]
        assert vals[:, out].tolist() == [False, False]

    def test_gate_appended_after_evaluate(self):
        c = Circuit()
        a = c.input()
        b = c.input()
        x = c.add_gate(Op.AND, a, b)
        assert not evaluate(c, np.array([True, False]))[x]
        y = c.add_gate(Op.NOR, x, b)
        vals = evaluate(c, np.array([True, False]))
        assert vals.shape == (4,)
        assert bool(vals[y]) is True


class TestDepth:
    def test_simple_chain(self):
        c = Circuit()
        a = c.input()
        x = c.add_gate(Op.NOT, a)
        y = c.add_gate(Op.NOT, x)
        depths = wire_depths(c)
        assert depths[a] == 0 and depths[x] == 1 and depths[y] == 2

    def test_buf_free(self):
        c = Circuit()
        a = c.input()
        b = c.add_gate(Op.BUF, a)
        g = c.add_gate(Op.NOT, b)
        assert wire_depths(c)[g] == 1

    def test_restricted_sources(self):
        c = Circuit()
        a, b = c.input(), c.input()
        g = c.add_gate(Op.AND, a, b)
        h = c.add_gate(Op.NOT, g)
        # Paths from b only.
        assert critical_path_length(c, sources=[b], sinks=[h]) == 2
        # No path from an unrelated wire.
        unrelated = c.input()
        assert critical_path_length(c, sources=[unrelated], sinks=[h]) == 0

    def test_or_tree_depth_logarithmic(self):
        c = Circuit()
        leaves = [c.input() for _ in range(16)]
        root = or_tree(c, leaves)
        assert critical_path_length(c, sinks=[root]) == 4


class TestTrees:
    @given(st.lists(st.booleans(), min_size=1, max_size=24))
    def test_or_tree_semantics(self, bits):
        c = Circuit()
        leaves = [c.input() for _ in bits]
        root = or_tree(c, leaves)
        vals = evaluate(c, np.array(bits, dtype=bool))
        assert vals[root] == any(bits)

    @given(st.lists(st.booleans(), min_size=1, max_size=24))
    def test_and_tree_semantics(self, bits):
        c = Circuit()
        leaves = [c.input() for _ in bits]
        root = and_tree(c, leaves)
        vals = evaluate(c, np.array(bits, dtype=bool))
        assert vals[root] == all(bits)

    def test_empty_rejected(self):
        with pytest.raises(CircuitError):
            or_tree(Circuit(), [])


def _read_number(vals, bits) -> int:
    return sum(int(vals[w]) << i for i, w in enumerate(bits))


class TestAdders:
    def test_half_adder_truth_table(self):
        for a, b in itertools.product([False, True], repeat=2):
            c = Circuit()
            wa, wb = c.input(), c.input()
            s, carry = half_adder(c, wa, wb)
            vals = evaluate(c, np.array([a, b]))
            assert int(vals[s]) + 2 * int(vals[carry]) == int(a) + int(b)

    def test_full_adder_truth_table(self):
        for a, b, cin in itertools.product([False, True], repeat=3):
            c = Circuit()
            wires = [c.input() for _ in range(3)]
            s, carry = full_adder(c, *wires)
            vals = evaluate(c, np.array([a, b, cin]))
            assert int(vals[s]) + 2 * int(vals[carry]) == int(a) + int(b) + int(cin)

    @given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=63))
    def test_ripple_add(self, x, y):
        c = Circuit()
        xa = [c.input() for _ in range(6)]
        ya = [c.input() for _ in range(6)]
        out = ripple_add(c, xa, ya)
        bits = [(x >> i) & 1 for i in range(6)] + [(y >> i) & 1 for i in range(6)]
        vals = evaluate(c, np.array(bits, dtype=bool))
        assert _read_number(vals, out) == x + y


class TestPopcount:
    @given(st.lists(st.booleans(), min_size=0, max_size=20))
    def test_counts(self, bits):
        c = Circuit()
        wires = [c.input() for _ in bits]
        out = popcount(c, wires)
        vals = evaluate(c, np.array(bits, dtype=bool))
        assert _read_number(vals, out) == sum(bits)

    @given(st.lists(st.booleans(), min_size=1, max_size=16))
    def test_prefix_counts(self, bits):
        c = Circuit()
        wires = [c.input() for _ in bits]
        prefixes = prefix_popcounts(c, wires)
        vals = evaluate(c, np.array(bits, dtype=bool))
        running = 0
        for i, bit in enumerate(bits):
            running += int(bit)
            assert _read_number(vals, prefixes[i]) == running

    def test_prefix_empty(self):
        assert prefix_popcounts(Circuit(), []) == []


class TestEqualsConst:
    @given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
    def test_decode(self, stored, probe):
        c = Circuit()
        bits = [c.input() for _ in range(4)]
        eq = equals_const(c, bits, probe)
        vals = evaluate(c, np.array([(stored >> i) & 1 for i in range(4)], dtype=bool))
        assert bool(vals[eq]) == (stored == probe)

    def test_rejects_oversized_constant(self):
        c = Circuit()
        bits = [c.input() for _ in range(2)]
        with pytest.raises(CircuitError):
            equals_const(c, bits, 4)
