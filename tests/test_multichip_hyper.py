"""Tests for the Section 6 full multichip hyperconcentrators."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.concentration import validate_hyperconcentration
from repro.errors import ConfigurationError
from repro.switches.multichip_hyper import (
    FullColumnsortHyperconcentrator,
    FullRevsortHyperconcentrator,
)
from tests.conftest import random_bits


class TestFullRevsort:
    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_hyperconcentration_random(self, rng, n):
        switch = FullRevsortHyperconcentrator(n)
        for _ in range(30):
            valid = random_bits(rng, n)
            routing = switch.setup(valid)
            validate_hyperconcentration(n, valid, routing.input_to_output)

    def test_hyperconcentration_exhaustive_4(self):
        switch = FullRevsortHyperconcentrator(4)
        for bits in itertools.product([False, True], repeat=4):
            valid = np.array(bits, dtype=bool)
            routing = switch.setup(valid)
            validate_hyperconcentration(4, valid, routing.input_to_output)

    @pytest.mark.parametrize("n", [16, 64])
    def test_all_k_values(self, rng, n):
        switch = FullRevsortHyperconcentrator(n)
        for k in range(n + 1):
            valid = random_bits(rng, n, k)
            routing = switch.setup(valid)
            validate_hyperconcentration(n, valid, routing.input_to_output)

    def test_order_preserving(self, rng):
        """The t-th valid input lands on output t (each chip is
        order-preserving and so is their composition on sorted data)."""
        n = 64
        switch = FullRevsortHyperconcentrator(n)
        valid = random_bits(rng, n, 20)
        routing = switch.setup(valid)
        positions = np.flatnonzero(valid)
        # Outputs 0..19 in *some* order; hyperconcentration only fixes
        # the set. Check the set exactly.
        assert set(routing.input_to_output[positions]) == set(range(20))

    def test_resources(self):
        switch = FullRevsortHyperconcentrator(256)
        # reps=2 at side=16: 2·2 + 1 + 6 + 1 = 12 chip layers.
        assert switch.repetitions == 2
        assert switch.chips_on_signal_path == 12
        assert switch.chip_count == 12 * 16
        assert switch.gate_delays == 12 * (2 * 4 + 2)
        assert switch.volume == switch.chip_count * 256

    def test_rejects_bad_n(self):
        with pytest.raises(ConfigurationError):
            FullRevsortHyperconcentrator(10)


class TestFullColumnsort:
    @pytest.mark.parametrize("r,s", [(2, 1), (8, 2), (18, 3), (32, 4)])
    def test_hyperconcentration_random(self, rng, r, s):
        switch = FullColumnsortHyperconcentrator(r, s)
        n = r * s
        for _ in range(30):
            valid = random_bits(rng, n)
            routing = switch.setup(valid)
            validate_hyperconcentration(n, valid, routing.input_to_output)

    def test_hyperconcentration_exhaustive_8x2(self):
        """Every one of the 2^16 patterns, in one scalar-oracle call:
        each valid input is routed, no invalid one is, and the routed
        outputs of each row are exactly 0..k−1 (so paths are disjoint)."""
        switch = FullColumnsortHyperconcentrator(8, 2)
        n = switch.n
        valid = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1
        routing = switch.scalar_routing(valid)
        assert np.array_equal(routing >= 0, valid)
        k = valid.sum(axis=1, keepdims=True)
        slots = np.arange(n)
        targets = np.sort(np.where(valid, routing, n), axis=1)
        assert np.array_equal(targets, np.where(slots < k, slots, n))

    @pytest.mark.parametrize("r,s", [(18, 3), (32, 4)])
    def test_all_k_values(self, rng, r, s):
        n = r * s
        switch = FullColumnsortHyperconcentrator(r, s)
        for k in range(0, n + 1, max(1, n // 16)):
            valid = random_bits(rng, n, k)
            routing = switch.setup(valid)
            validate_hyperconcentration(n, valid, routing.input_to_output)

    def test_rejects_shape_violating_full_condition(self):
        with pytest.raises(ConfigurationError):
            FullColumnsortHyperconcentrator(8, 4)  # 8 < 2(4−1)²

    def test_resources(self):
        switch = FullColumnsortHyperconcentrator(32, 4)
        assert switch.chips_on_signal_path == 4
        assert switch.chip_count == 3 * 4 + 5
        # 4 chips × (2⌈lg 32⌉ + pads)
        assert switch.gate_delays == 4 * (2 * 5 + 2)

    def test_matches_mesh_columnsort_full(self, rng):
        """The chip-level simulation and the matrix-level algorithm
        agree on where every valid bit lands."""
        from repro.mesh.columnsort import columnsort_full_flat

        r, s = 18, 3
        n = r * s
        switch = FullColumnsortHyperconcentrator(r, s)
        for _ in range(20):
            valid = random_bits(rng, n)
            final = switch.final_positions(valid)
            out = np.zeros(n, dtype=np.int8)
            out[final] = valid.astype(np.int8)
            expect = columnsort_full_flat(valid.astype(np.int8).reshape(r, s))
            assert np.array_equal(out, expect)
