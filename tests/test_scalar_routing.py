"""The row-capable scalar oracle: ``scalar_routing`` and the wiring
helpers it runs on, and the certifier's use of it."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.engine import BatchRouting
from repro.engine.plan import chip_layer
from repro.faults.injector import FaultySwitch
from repro.faults.scenario import FaultScenario, SeveredWireFault, StuckAtFault
from repro.switches.iterated_columnsort import IteratedColumnsortSwitch
from repro.switches.multichip_hyper import FullColumnsortHyperconcentrator
from repro.switches.registry import build_switch, certify_configs
from repro.switches.revsort_switch import RevsortSwitch
from repro.switches.wiring import (
    apply_chip_layer,
    column_groups,
    compose,
    permute_bits,
    row_groups,
)
from repro.verify import certify_switch, quick_options
from tests.test_fault_injection import DroppingChipSwitch


def _switches():
    cases = [
        (f"{name}-{'-'.join(f'{k}{v}' for k, v in params.items())}",
         lambda name=name, params=params: build_switch(name, **params))
        for name, params in certify_configs()
    ]
    cases += [
        ("iterated-16x4-p2", lambda: IteratedColumnsortSwitch(16, 4, 48, passes=2)),
        ("iterated-16x4-p3", lambda: IteratedColumnsortSwitch(16, 4, 40, passes=3)),
        ("fullcolumnsort-8x2", lambda: FullColumnsortHyperconcentrator(8, 2)),
        ("faulty-revsort-16", lambda: FaultySwitch(
            RevsortSwitch(16, 12),
            FaultScenario(
                name="mixed",
                faults=(StuckAtFault(3, 1), SeveredWireFault(1, 5)),
            ),
        )),
    ]
    return [pytest.param(build, id=name) for name, build in cases]


class TestScalarRouting:
    @pytest.mark.parametrize("build", _switches())
    @pytest.mark.parametrize("rows", [0, 1, 257])
    def test_rows_equal_setup_and_setup_batch(self, rng, build, rows):
        switch = build()
        valid = rng.random((rows, switch.n)) < rng.random((rows, 1))
        valid.flags.writeable = False
        got = switch.scalar_routing(valid)
        assert got.shape == (rows, switch.n)
        expected = np.array(
            [switch.setup(row).input_to_output for row in valid], dtype=np.int64
        ).reshape(rows, switch.n)
        assert np.array_equal(got, expected)
        assert np.array_equal(got, switch.setup_batch(valid).input_to_output)

    def test_setup_override_stays_the_oracle(self, rng):
        """A chip-layer design whose subclass overrides ``setup`` alone
        is checked against that override, not its base's positions."""
        switch = DroppingChipSwitch(64, 48)
        valid = rng.random((20, 64)) < 0.5
        expected = np.stack([switch.setup(row).input_to_output for row in valid])
        assert np.array_equal(switch.scalar_routing(valid), expected)


def _layers():
    return [
        pytest.param(column_groups(8, 8), 64, id="columns-list"),
        pytest.param(chip_layer(row_groups(6, 9, reverse_odd=True)), 54, id="snake-rows"),
        pytest.param(chip_layer(column_groups(9, 6, reverse_odd=True)), 54, id="snake-cols"),
        pytest.param([np.array([0, 3, 5]), np.array([1, 2])], 7, id="irregular"),
    ]


class TestRowWiring:
    """Row i of a 2-D call equals the 1-D call on row i."""

    @pytest.mark.parametrize("layer, n", _layers())
    def test_apply_chip_layer(self, rng, layer, n):
        valid = rng.random((33, n)) < rng.random((33, 1))
        perms = apply_chip_layer(valid, layer)
        assert perms.shape == valid.shape
        for row, perm in zip(valid, perms):
            assert np.array_equal(perm, apply_chip_layer(row, layer))
        assert apply_chip_layer(valid[:0], layer).shape == (0, n)

    def test_permute_bits(self, rng):
        bits = rng.random((20, 16)) < 0.5
        perms = np.argsort(rng.random((20, 16)), axis=1)
        fixed = rng.permutation(16)
        rows_by_rows = permute_bits(bits, perms)
        rows_by_fixed = permute_bits(bits, fixed)
        one_by_rows = permute_bits(bits[0], perms)
        for i in range(20):
            assert np.array_equal(rows_by_rows[i], permute_bits(bits[i], perms[i]))
            assert np.array_equal(rows_by_fixed[i], permute_bits(bits[i], fixed))
            assert np.array_equal(one_by_rows[i], permute_bits(bits[0], perms[i]))

    def test_compose_mixes_fixed_and_row_permutations(self, rng):
        n, rows = 16, 12
        layer_a = np.argsort(rng.random((rows, n)), axis=1)
        layer_b = np.argsort(rng.random((rows, n)), axis=1)
        fixed = rng.permutation(n)
        for perms in (
            [layer_a, fixed, layer_b],
            [fixed, layer_a, layer_b],
            [layer_a, layer_b, fixed],
            [fixed, layer_a, fixed],
        ):
            got = compose(perms)
            assert got.shape == (rows, n)
            for i in range(rows):
                row_perms = [p if p.ndim == 1 else p[i] for p in perms]
                assert np.array_equal(got[i], compose(row_perms))

    def test_compose_into_a_larger_space(self):
        """A position map into an extended space (full Columnsort's
        sentinel matrix) composes with row permutations of that space."""
        pos = np.array([[0, 2], [1, 3]])
        ext = np.array([[3, 2, 1, 0], [0, 1, 2, 3]])
        assert np.array_equal(compose([pos, ext]), [[3, 1], [1, 3]])


class _CorruptWalker(RevsortSwitch):
    """The plan walker misroutes one trial row of every batch: its first
    two routed messages swap outputs."""

    def _setup_batch(self, valid: np.ndarray) -> BatchRouting:
        batch = super()._setup_batch(valid)
        routing = batch.input_to_output.copy()
        for row in range(routing.shape[0]):
            routed = np.flatnonzero(routing[row] >= 0)
            if routed.size >= 2:
                a, b = routed[:2]
                routing[row, [a, b]] = routing[row, [b, a]]
                break
        return BatchRouting(self.n, self.m, batch.valid, routing)


class _MixedRowsOracle(RevsortSwitch):
    """The row-form oracle reads each trial's positions from the next
    row; the one-row path stays honest."""

    def final_positions(self, valid: np.ndarray) -> np.ndarray:
        final = super().final_positions(valid)
        return np.roll(final, 1, axis=0) if final.ndim == 2 else final


class TestCertifierCatchesOracleMutants:
    OPTIONS = replace(quick_options(), scalar_rows=1 << 12, metamorphic_rows=0)

    @pytest.mark.parametrize("mutant", [_CorruptWalker, _MixedRowsOracle])
    def test_scalar_parity_violation(self, mutant):
        cert = certify_switch(mutant(16, 12), design="mutant", options=self.OPTIONS)
        assert not cert.ok
        assert "scalar-parity" in {v.check for v in cert.violations}
        honest = certify_switch(RevsortSwitch(16, 12), design="revsort",
                                options=self.OPTIONS)
        assert honest.ok
        assert cert.checks["scalar_parity"] == honest.checks["scalar_parity"]
