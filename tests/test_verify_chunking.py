"""Certify chunks fill across load levels, and the metamorphic relations
run as batch rows: neither may change what a certificate says."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro._util.rng import default_rng
from repro.engine import BatchRouting
from repro.errors import ConfigurationError, RoutingError
from repro.switches.columnsort_switch import ColumnsortSwitch
from repro.switches.registry import build_switch
from repro.verify import CertifyOptions, certify_design, certify_registry, certify_switch
from repro.verify.metamorphic import metamorphic_failures
from repro.verify.patterns import pattern_from_hex

#: Stratified at both sizes (2^16 > max_total), a few thousand patterns.
SMALL = CertifyOptions(
    max_total=1 << 10, max_per_k=48, scalar_rows=16, metamorphic_rows=8
)


class _NonMonotone(ColumnsortSwitch):
    """Keeps the (n, m, α) contract but breaks monotone growth: a row
    with two or more inputs over capacity routes exactly capacity, so
    growing a fully routed row past capacity loses messages."""

    def _setup_batch(self, valid: np.ndarray) -> BatchRouting:
        batch = super()._setup_batch(valid)
        routing = batch.input_to_output.copy()
        cap = self.spec.guaranteed_capacity
        for row in np.flatnonzero(valid.sum(axis=1) >= cap + 2):
            routing[row, np.flatnonzero(routing[row] >= 0)[cap:]] = -1
        return BatchRouting(
            n_inputs=self.n, n_outputs=self.m, valid=batch.valid,
            input_to_output=routing, carried=batch.carried,
        )


class TestChunkInvariance:
    @pytest.mark.parametrize(
        "design, params",
        [("revsort", {"n": 16, "m": 12}), ("columnsort", {"r": 16, "s": 4, "m": 48})],
    )
    def test_certificate_json_chunk_and_worker_invariant(self, design, params):
        docs = {
            (chunk, workers): certify_design(
                design, dict(params), options=replace(SMALL, chunk=chunk),
                workers=workers,
            ).to_json()
            for chunk in (64, 1000, 4096)
            for workers in (1, 2)
        }
        first = docs[(64, 1)]
        assert '"tier": "stratified"' in first
        assert all(doc == first for doc in docs.values())

    def test_at_most_two_batch_setups_per_chunk(self):
        """The main batch plus one metamorphic batch per chunk: cutting
        a chunk at every k would multiply the setups again."""
        options = CertifyOptions(max_total=4096, max_per_k=128)
        with obs.collecting() as reg:
            certs = certify_registry(options=options)
        setups = sum(
            value for key, value in reg.snapshot()["counters"].items()
            if key.startswith("engine.batch_setups")
        )
        chunks = sum(
            math.ceil(cert.total_patterns / options.chunk) for cert in certs
        )
        assert sum(cert.total_patterns for cert in certs) == 35_588
        assert chunks == 13
        assert setups <= 2 * chunks

    def test_chunk_below_one_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="chunk"):
            certify_design("hyper", {"n": 8}, options=replace(SMALL, chunk=0))


class TestBatchedMetamorphic:
    def test_mutant_breaking_monotone_growth_is_caught(self):
        mutant = _NonMonotone(8, 2, 12)
        options = replace(SMALL, scalar_rows=0, metamorphic_rows=1 << 12)
        cert = certify_switch(mutant, design="non-monotone", options=options)
        assert cert.checks["contract"] == cert.total_patterns
        assert not any(v.check == "contract" for v in cert.violations)
        meta = [v for v in cert.violations if v.check == "metamorphic"]
        assert meta
        for violation in meta:
            assert "decreased" in violation.message
            replay = pattern_from_hex(violation.pattern, mutant.n)
            assert int(replay.sum()) == violation.k
            assert metamorphic_failures(mutant, replay, default_rng(0))

    @pytest.mark.parametrize("mutant", [False, True])
    def test_one_row_equals_its_batched_row(self, mutant):
        switch = (
            _NonMonotone(8, 2, 12) if mutant
            else build_switch("columnsort", r=8, s=2, m=12)
        )
        rng = default_rng(5)
        rows = rng.random((40, switch.n)) < rng.random((40, 1))
        batched = metamorphic_failures(switch, rows, default_rng(9))
        one_by_one = default_rng(9)  # draws the same permutations in order
        assert batched == [
            metamorphic_failures(switch, row, one_by_one) for row in rows
        ]
        assert any(batched) == mutant


class _RaisesAtFive(ColumnsortSwitch):
    """Rejects any batch holding a pattern with exactly five valid bits."""

    def _setup_batch(self, valid: np.ndarray) -> BatchRouting:
        if (valid.sum(axis=1) == 5).any():
            raise RoutingError("five valid bits")
        return super()._setup_batch(valid)


def test_setup_batch_failure_names_a_pattern_that_raises():
    """A chunk spans many loads: the record must name a pattern that
    raises on its own, not the chunk's first row."""
    switch = _RaisesAtFive(8, 2, 12)
    cert = certify_switch(switch, design="raises", options=SMALL)
    (violation,) = cert.violations
    assert violation.check == "contract" and violation.k == 5
    with pytest.raises(RoutingError):
        switch.setup_batch(pattern_from_hex(violation.pattern, switch.n))
