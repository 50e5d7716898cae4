"""Tests for the batched execution engine (repro.engine).

The load-bearing property: for EVERY switch design in the registry,
``setup_batch(V)[i]`` equals ``setup(V[i])`` — the scalar path stays
the correctness oracle and the vectorized path must be bit-identical.
Also covers the plan cache (sharing without state leaks, hit/miss
counters, clear()), the BatchRouting container, bit-parallel gate
evaluation, and the worker-count determinism contracts of
``analysis.sweep`` and ``network.simulate.compare_partial_vs_perfect``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.analysis.sweep import sweep
from repro.engine import (
    BatchRouting,
    StagePlan,
    chip_layer,
    plan_cache,
    run_plan,
    run_plan_sparse,
    run_plan_with_faults,
)
from repro.errors import ConfigurationError
from repro.faults import DeadChipFault, FaultScenario, FaultySwitch
from repro.faults.scenario import chip_layers
from repro.gates.evaluate import evaluate, pack_bits, unpack_bits
from repro.gates.hyperconc_gates import build_hyperconcentrator
from repro.network.simulate import compare_partial_vs_perfect
from repro.switches.base import ConcentratorSwitch
from repro.switches.bitonic import TruncatedBitonicSwitch
from repro.switches.cascade import CascadeSwitch
from repro.switches.columnsort_switch import ColumnsortSwitch
from repro.switches.hyperconcentrator import Hyperconcentrator
from repro.switches.iterated_columnsort import IteratedColumnsortSwitch
from repro.switches.perfect import PerfectConcentrator
from repro.switches.registry import REGISTRY, build_switch
from repro.switches.revsort_switch import RevsortSwitch
from tests.conftest import gate_fold


def _registry_instances() -> list[tuple[str, ConcentratorSwitch]]:
    """One modest instance of every registered design, plus designs
    that only exist outside the registry (iterated, cascade)."""
    out = [
        (name, build_switch(name, n=64, m=48, r=16, s=4, beta=0.75))
        for name in sorted(REGISTRY)
    ]
    out.append(("iterated-k3", IteratedColumnsortSwitch(16, 4, 48, passes=3)))
    out.append(
        (
            "cascade",
            CascadeSwitch(ColumnsortSwitch(16, 4, 48), PerfectConcentrator(48, 32)),
        )
    )
    return out


def _trial_batch(rng, n, batch=13):
    """Mixed-density random trials including the all-empty and all-full
    edge rows."""
    valid = rng.random((batch, n)) < rng.random((batch, 1))
    valid[0] = False
    if batch > 1:
        valid[1] = True
    return valid


class TestBatchScalarParity:
    @pytest.mark.parametrize(
        "name,switch", _registry_instances(), ids=lambda v: v if isinstance(v, str) else ""
    )
    def test_setup_batch_matches_setup(self, name, switch, rng):
        valid = _trial_batch(rng, switch.n)
        batch = switch.setup_batch(valid)
        assert len(batch) == valid.shape[0]
        for i in range(valid.shape[0]):
            scalar = switch.setup(valid[i])
            routing = batch[i]
            assert np.array_equal(routing.input_to_output, scalar.input_to_output)
            assert np.array_equal(routing.valid, scalar.valid)

    def test_batch_counts_match_scalar(self, rng):
        switch = RevsortSwitch(64, 48)
        valid = _trial_batch(rng, switch.n)
        batch = switch.setup_batch(valid)
        for i in range(valid.shape[0]):
            scalar = switch.setup(valid[i])
            assert batch.routed_counts[i] == scalar.routed_count
            assert batch.dropped_counts[i] == scalar.dropped_inputs.size
            assert np.array_equal(
                batch.output_valid_bits()[i], scalar.output_valid_bits()
            )

    def test_single_row_batch(self, rng):
        switch = ColumnsortSwitch(16, 4, 48)
        valid = _trial_batch(rng, switch.n, batch=1)
        batch = switch.setup_batch(valid)
        assert np.array_equal(
            batch[0].input_to_output, switch.setup(valid[0]).input_to_output
        )

    def test_empty_batch(self):
        switch = ColumnsortSwitch(16, 4, 48)
        batch = switch.setup_batch(np.zeros((0, switch.n), dtype=bool))
        assert len(batch) == 0
        assert batch.input_to_output.shape == (0, switch.n)


class TestValidBitChecking:
    def test_setup_batch_keeps_bool_bits_uncopied(self, rng):
        switch = RevsortSwitch(64, 48)
        valid = _trial_batch(rng, switch.n)
        assert np.shares_memory(switch.setup_batch(valid).valid, valid)
        # The scalar oracle keeps its own copy.
        assert not np.shares_memory(switch.setup(valid[2]).valid, valid)
        bad = valid.astype(np.int64)
        bad[2, 5] = 3
        with pytest.raises(ConfigurationError):
            switch.setup_batch(bad)

    @pytest.mark.parametrize(
        "name,switch",
        _registry_instances()
        + [
            ("hyperconcentrator", Hyperconcentrator(64)),
            ("truncated-bitonic", TruncatedBitonicSwitch(64, 48, stages=12, epsilon=16)),
            (
                "faulty",
                FaultySwitch(
                    RevsortSwitch(64, 48),
                    FaultScenario(name="dead-chip", faults=(DeadChipFault(0, 1),)),
                ),
            ),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_setup_batch_never_writes_its_valid_bits(self, name, switch, rng):
        """setup_batch hands the caller's bool array on uncopied, so no
        _setup_batch may write to it: a read-only batch must route."""
        valid = _trial_batch(rng, switch.n)
        expected = switch.setup_batch(valid.copy()).input_to_output
        valid.flags.writeable = False
        assert np.array_equal(switch.setup_batch(valid).input_to_output, expected)

    def test_setup_rejects_non_binary_values(self):
        switch = PerfectConcentrator(8, 6)
        with pytest.raises(ConfigurationError):
            switch.setup(np.array([0, 1, 2, 0, 1, 0, 1, 0]))

    def test_setup_batch_rejects_non_binary_values(self):
        switch = PerfectConcentrator(8, 6)
        bad = np.zeros((3, 8), dtype=np.int64)
        bad[1, 4] = 7
        with pytest.raises(ConfigurationError):
            switch.setup_batch(bad)

    def test_setup_accepts_int_01(self):
        switch = PerfectConcentrator(8, 6)
        routing = switch.setup(np.array([0, 1, 1, 0, 1, 0, 0, 1]))
        assert routing.routed_count == 4

    def test_setup_batch_rejects_wrong_width(self):
        switch = PerfectConcentrator(8, 6)
        with pytest.raises(ConfigurationError):
            switch.setup_batch(np.zeros((3, 9), dtype=bool))


class TestPlanCache:
    def test_instances_share_one_plan(self):
        plan_cache().clear()
        a = RevsortSwitch(256, 192)
        b = RevsortSwitch(256, 128)
        assert a._plan is b._plan
        stats = plan_cache().stats()
        assert stats["entries"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] >= 1

    def test_no_state_leaks_between_sharers(self, rng):
        """Routing one instance must not perturb another instance that
        shares the same compiled plan."""
        plan_cache().clear()
        a = ColumnsortSwitch(16, 4, 48)
        b = ColumnsortSwitch(16, 4, 32)  # same plan key (r, s), different m
        valid = _trial_batch(rng, a.n)
        before = a.setup_batch(valid).input_to_output.copy()
        b.setup_batch(~valid)  # interleave foreign traffic
        b.setup(~valid[2])
        after = a.setup_batch(valid).input_to_output
        assert np.array_equal(before, after)

    def test_clear_resets_and_rebuilds(self, rng):
        switch = RevsortSwitch(64, 48)
        valid = _trial_batch(rng, switch.n)
        first = switch.setup_batch(valid).input_to_output.copy()
        plan_cache().clear()
        assert plan_cache().stats()["entries"] == 0
        again = switch.setup_batch(valid).input_to_output
        assert np.array_equal(first, again)

    def test_hit_miss_counters_on_obs(self):
        plan_cache().clear()
        obs.install(obs.Registry())
        try:
            RevsortSwitch(64, 48)._plan
            RevsortSwitch(64, 32)._plan
            snap = obs.get_registry().snapshot()["counters"]
            assert snap["engine.plan_cache.miss{kind=revsort}"] == 1
            assert snap["engine.plan_cache.hit{kind=revsort}"] == 1
        finally:
            obs.uninstall()

    def test_batch_setup_counters_on_obs(self, rng):
        obs.install(obs.Registry())
        try:
            switch = PerfectConcentrator(16, 12)
            switch.setup_batch(_trial_batch(rng, 16, batch=5))
            snap = obs.get_registry().snapshot()["counters"]
            assert snap["engine.batch_setups{switch=PerfectConcentrator}"] == 1
            assert snap["engine.batch_trials{switch=PerfectConcentrator}"] == 5
        finally:
            obs.uninstall()


class TestPlanExecutor:
    def test_run_plan_matches_compose_for_valid_inputs(self, rng):
        switch = ColumnsortSwitch(16, 4, 48)
        valid = _trial_batch(rng, switch.n)
        final = run_plan(switch._plan, valid)
        for i in range(valid.shape[0]):
            expected = switch.final_positions(valid[i])
            assert np.array_equal(final[i][valid[i]], expected[valid[i]])

    def test_run_plan_sparse_tracks_every_valid_bit(self, rng):
        switch = RevsortSwitch(64, 48)
        valid = _trial_batch(rng, switch.n)
        rows, cols, pos = run_plan_sparse(switch._plan, valid)
        assert rows.shape == cols.shape == pos.shape
        assert valid[rows, cols].all()
        assert rows.size == int(valid.sum())
        # Final positions of one trial's valid inputs are all distinct.
        sel = rows == 2
        assert np.unique(pos[sel]).size == int(sel.sum())

    def test_partial_chip_layer_is_rejected(self):
        # Chips cover positions 0..3 of 8: the walker has no pass-through.
        partial = StagePlan(
            key=("partial-layer-test", 8), n=8,
            ops=(chip_layer([np.arange(4)]),),
        )
        with pytest.raises(ConfigurationError, match="every chip layer"):
            run_plan(partial, np.ones((2, 8), dtype=bool))

    def test_overlapping_chip_layer_is_rejected(self):
        # Wire 1 feeds both chips; compiling used to succeed with
        # total_upto=3 and the walker routed an all-valid row anyway.
        with pytest.raises(ConfigurationError, match="chip groups overlap"):
            chip_layer([np.array([0, 1]), np.array([1, 2])])

    @pytest.mark.parametrize(
        "bad_mask",
        [
            # 0/1 ints marking positions 5 and 9: as fancy indices they
            # would kill positions 0 and 1 instead.
            np.isin(np.arange(16), [5, 9]).astype(np.int64),
            np.zeros(15, dtype=bool),
        ],
        ids=["int64-mask", "wrong-length"],
    )
    def test_fault_walker_rejects_malformed_kill_masks(self, bad_mask):
        switch = RevsortSwitch(16, 12)
        kills = [None] * len(chip_layers(switch._plan))
        kills[0] = bad_mask
        with pytest.raises(ConfigurationError, match="kill mask"):
            run_plan_with_faults(
                switch._plan, np.ones((1, 16), dtype=bool), kills
            )


class TestBatchRouting:
    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            BatchRouting(
                n_inputs=4,
                n_outputs=4,
                valid=np.zeros((2, 5), dtype=bool),
                input_to_output=np.zeros((2, 5), dtype=np.int64),
            )
        with pytest.raises(ConfigurationError):
            BatchRouting(
                n_inputs=4,
                n_outputs=4,
                valid=np.zeros((2, 4), dtype=bool),
                input_to_output=np.zeros((3, 4), dtype=np.int64),
            )

    def test_getitem_returns_validated_routing(self, rng):
        switch = Hyperconcentrator(16)
        valid = _trial_batch(rng, 16, batch=4)
        batch = switch.setup_batch(valid)
        routing = batch[3]
        assert routing.n_inputs == 16
        assert routing.routed_count == int(valid[3].sum())


class TestBitParallelGates:
    def test_pack_unpack_roundtrip(self, rng):
        for batch in (1, 63, 64, 65, 130):
            bits = rng.random((batch, 9)) < 0.5
            assert np.array_equal(unpack_bits(pack_bits(bits), batch), bits)

    def test_evaluate_matches_gate_fold(self, rng):
        circuit = build_hyperconcentrator(16, with_datapath=False)
        n_in = len(circuit.input_wires())
        inputs = rng.random((65, n_in)) < 0.5
        assert np.array_equal(evaluate(circuit, inputs), gate_fold(circuit, inputs))

    def test_evaluate_single_vector(self, rng):
        circuit = build_hyperconcentrator(8, with_datapath=False)
        vec = rng.random(len(circuit.input_wires())) < 0.5
        assert np.array_equal(evaluate(circuit, vec), gate_fold(circuit, vec))


def _seeded_measure(value, rng):
    # Module level: with workers > 1 the sweep pickles it to the pool.
    return {"draw": float(rng.random()), "sq": value * value}


class TestDeterministicParallelism:
    """Serial and supervised-pool runs give identical results; the
    in-thread and telemetry-on cases are in test_executor_parity."""

    def test_sweep_workers_do_not_change_results(self):
        params = [1, 2, 3, 4, 5, 6]
        serial = sweep(params, _seeded_measure, seed=11)
        pooled = sweep(params, _seeded_measure, seed=11, workers=4)
        assert serial == pooled
        assert [row["param"] for row in pooled] == params

    def test_compare_partial_vs_perfect_workers_deterministic(self):
        perfect = PerfectConcentrator(48, 36)
        partial = ColumnsortSwitch(16, 4, 36)
        one = compare_partial_vs_perfect(
            perfect, partial, k_values=[12, 36], trials=8, seed=3, workers=1
        )
        four = compare_partial_vs_perfect(
            perfect, partial, k_values=[12, 36], trials=8, seed=3, workers=4
        )
        assert one == four
