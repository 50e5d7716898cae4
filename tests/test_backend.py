"""The sharded engine backend: its factory, routing parity with the
scalar and batch paths, plan-cache warm start, the worker-count
determinism guarantees of its stream fold, and the row blocks a stream
shard is drawn, routed and checked in."""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.engine import (
    StreamSpec,
    StreamSummary,
    get_backend,
    plan_cache,
    plan_key,
    resolve_workers,
)
from repro.engine.backends import BLOCK_CELLS, shard_blocks, summarize_batch
from repro.engine.backends.sharded import ShardedBackend, _stream_shard_job
from repro.engine.batch import BatchRouting
from repro.errors import ConfigurationError
from repro.gates.evaluate import evaluate
from repro.switches.columnsort_switch import ColumnsortSwitch
from repro.switches.hyperconcentrator import Hyperconcentrator
from repro.switches.revsort_switch import RevsortSwitch
from repro.verify import CertifyOptions, certify_design
from repro.verify.differential import netlist_for, output_occupancy
from tests.conftest import oneshot_valid, serial_stream

#: Small budgets so certify-based tests run in seconds.
QUICK = CertifyOptions(
    max_total=1 << 10, max_per_k=32, chunk=64, scalar_rows=16,
    metamorphic_rows=8,
)


def _mixed_valid(rng, trials: int, n: int) -> np.ndarray:
    return rng.random((trials, n)) < rng.random((trials, 1))


class TestRegistry:
    def test_all_execution_paths_registered(self):
        """Every execution path is reachable: the scalar and batch paths
        on the switch itself, the sharded one through the factory."""
        assert ShardedBackend.name == "process"
        assert isinstance(get_backend("process"), ShardedBackend)
        sw = ColumnsortSwitch(8, 2, 12)
        assert callable(sw.setup) and callable(sw.setup_batch)

    def test_unknown_backend_is_config_error(self):
        for name in ("gpu", "scalar", "batch", "packed"):
            with pytest.raises(ConfigurationError):
                get_backend(name)

    def test_misspelled_option_is_rejected(self):
        with pytest.raises(TypeError):
            get_backend("process", shard_trial=8)

    def test_plan_key_matches_compiled_plan(self):
        sw = ColumnsortSwitch(8, 2, 12)
        key = plan_key(sw)
        assert key is not None
        assert key == sw._plan.key
        assert plan_key(object()) is None


class TestParity:
    def test_routing_parity_scalar_batch_process(self, rng):
        sw = ColumnsortSwitch(8, 2, 12)
        valid = _mixed_valid(rng, 40, sw.n)
        ref = np.stack([sw.setup(row).input_to_output for row in valid])
        batch = sw.setup_batch(valid).input_to_output
        proc = (
            get_backend("process", workers=2, shard_trials=8)
            .run_trials(sw, valid)
            .input_to_output
        )
        assert np.array_equal(ref, batch)
        assert np.array_equal(ref, proc)

    def test_occupancy_parity_gate_backends(self, rng):
        sw = Hyperconcentrator(8)
        valid = _mixed_valid(rng, 24, sw.n)
        ref = output_occupancy(sw, sw.setup_batch(valid))
        assert ref is not None
        circuit, out_wires = netlist_for(sw)
        assert np.array_equal(ref, evaluate(circuit, valid)[:, out_wires])


class TestStreamDeterminism:
    def test_summary_invariant_across_worker_counts(self):
        sw = RevsortSwitch(16, 12)
        spec = StreamSpec(trials=64, seed=9, shard_trials=16)
        ref = serial_stream(sw, spec)
        assert ref.trials == 64 and ref.shards == 4
        for workers in (1, 2, 4):
            got = get_backend("process", workers=workers).run_stream(sw, spec)
            assert got == ref, f"workers={workers}"

    @settings(max_examples=20, deadline=None)
    @given(
        trials=st.integers(min_value=0, max_value=48),
        shard_trials=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_shard_boundaries_partition_and_fold(self, trials, shard_trials, seed):
        """Any shard grid partitions [0, trials) exactly, and folding
        the per-shard summaries in any bracketing equals the backend's
        own stream result — the property that makes the ε/α results
        independent of how shards land on workers."""
        sw = Hyperconcentrator(8)
        spec = StreamSpec(trials=trials, seed=seed, shard_trials=shard_trials)
        shards = spec.shards()
        assert [s for s, _ in shards] == list(range(0, trials, shard_trials))
        assert sum(stop - start for start, stop in shards) == trials
        children = np.random.SeedSequence(seed).spawn(max(1, len(shards)))
        pieces = []
        for index, (start, stop) in enumerate(shards):
            valid = oneshot_valid(sw.n, stop - start, children[index], spec.load)
            pieces.append(summarize_batch(sw, sw.setup_batch(valid), start=start))
        left = StreamSummary()
        for piece in pieces:
            left = left.fold(piece)
        right = StreamSummary()
        for piece in reversed(pieces):
            right = piece.fold(right)
        assert left == right  # fold order cannot matter
        assert left == get_backend("process", workers=1).run_stream(sw, spec)


class RareDropRevsortSwitch(RevsortSwitch):
    """Drops every message of the trials whose first 64 inputs are all
    valid (about one mixed-load trial in 65), so the contract breaks in
    a few rows of each block."""

    def _setup_batch(self, valid: np.ndarray) -> BatchRouting:
        routing = super()._setup_batch(valid).input_to_output.copy()
        routing[valid[:, :64].all(axis=1)] = -1
        return BatchRouting(self.n, self.m, valid, routing)


class TestBlockedShards:
    """A stream shard is drawn, routed and checked in row blocks of
    about ``BLOCK_CELLS`` cells; the results must equal the one-shot
    shard's bit for bit."""

    @pytest.mark.parametrize("load", ["half", "mixed"])
    @pytest.mark.parametrize(
        "n, count",
        [
            (1024, 1),
            (1024, 4095),
            (1024, 3 * (BLOCK_CELLS // 1024) + 7),
            (BLOCK_CELLS + 1, 3),  # a block is a single row
        ],
    )
    def test_blocks_equal_the_oneshot_draw(self, load, n, count):
        entropy = np.random.SeedSequence(11).spawn(3)[2]
        rows = max(1, BLOCK_CELLS // n)
        offsets, blocks = zip(*shard_blocks(n, count, entropy, load))
        assert list(offsets) == list(range(0, count, rows))
        assert all(block.shape == (min(rows, count - offset), n)
                   for offset, block in zip(offsets, blocks))
        expected = oneshot_valid(n, count, entropy, load)
        assert np.array_equal(np.concatenate(blocks), expected)

    def test_unknown_load_is_config_error(self):
        with pytest.raises(ConfigurationError):
            next(shard_blocks(8, 4, np.random.SeedSequence(0), "full"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_violations_in_two_blocks_match_the_oneshot_fold(self, workers):
        switch = RareDropRevsortSwitch(1024, 768)
        spec = StreamSpec(trials=512, seed=5, shard_trials=512)
        rows = BLOCK_CELLS // switch.n
        entropy = np.random.SeedSequence(spec.seed).spawn(1)[0]
        bad = np.flatnonzero(
            oneshot_valid(switch.n, 512, entropy, spec.load)[:, :64].all(axis=1)
        )
        # The premise: both blocks of the shard hold violations, and
        # the first holds fewer than the message cap.
        assert 0 < (bad < rows).sum() < StreamSummary.MAX_MESSAGES
        assert (bad >= rows).any()
        expected = serial_stream(switch, spec)
        got = get_backend("process", workers=workers).run_stream(switch, spec)
        assert got.violations == expected.violations == bad.size
        assert got.messages == expected.messages
        assert [int(msg.split()[1]) for msg in got.messages] == list(
            bad[: StreamSummary.MAX_MESSAGES]
        )
        assert got == expected

    def test_shard_job_memory_is_bounded(self):
        """One 4,096-trial revsort n=1024 shard never holds a (4096, n)
        array: its tracemalloc peak stays far below the 32 MB of one
        float64 draw of the whole shard."""
        switch = RevsortSwitch(1024, 768)
        switch.setup_batch(np.ones((1, switch.n), dtype=bool))  # compile
        job = {
            "switch": switch, "start": 0, "count": 4096,
            "entropy": np.random.SeedSequence(1).spawn(1)[0],
            "load": "mixed", "check_contract": True, "measure_epsilon": True,
        }
        tracemalloc.start()
        try:
            result = _stream_shard_job(job)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result["trials"] == 4096 and result["shards"] == 1
        assert peak < 16 * 2**20, f"shard peak {peak / 2**20:.1f} MB"

    def test_run_trials_routing_is_the_same_inline_and_pooled(self, rng):
        switch = RevsortSwitch(64, 48)
        valid = _mixed_valid(rng, 64, switch.n)
        inline = get_backend("process", workers=1, shard_trials=16)
        pooled = get_backend("process", workers=2, shard_trials=16)
        a = inline.run_trials(switch, valid).input_to_output
        b = pooled.run_trials(switch, valid).input_to_output
        assert a.dtype == b.dtype == np.int32
        assert a.tobytes() == b.tobytes()


class TestPlanCacheSnapshot:
    def test_snapshot_restore_roundtrip(self):
        cache = plan_cache()
        cache.clear()
        sw = ColumnsortSwitch(8, 2, 12)
        warm = np.zeros((2, sw.n), dtype=bool)
        warm[:, 0] = True
        sw.setup_batch(warm)
        assert cache.stats()["misses"] >= 1
        snap = cache.snapshot()
        assert set(snap) == cache.keys()
        # The payload is pure data: it must survive the pickle boundary
        # the worker protocol ships it over.
        snap = pickle.loads(pickle.dumps(snap))

        cache.clear()
        assert cache.stats()["restored"] == 0
        assert cache.restore(snap) == len(snap)
        assert cache.stats()["restored"] == len(snap)
        # Warm start: a fresh switch finds every plan — hits, no misses.
        before = cache.stats()
        ColumnsortSwitch(8, 2, 12).setup_batch(warm)
        after = cache.stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] > before["hits"]
        # Restoring the same payload again installs nothing.
        assert cache.restore(snap) == 0

    def test_restored_plans_are_frozen(self):
        cache = plan_cache()
        cache.clear()
        sw = ColumnsortSwitch(8, 2, 12)
        warm = np.zeros((2, sw.n), dtype=bool)
        warm[:, 0] = True
        sw.setup_batch(warm)
        snap = pickle.loads(pickle.dumps(cache.snapshot()))
        cache.clear()
        cache.restore(snap)
        routed = ColumnsortSwitch(8, 2, 12).setup_batch(warm)
        assert routed.input_to_output.shape == (2, sw.n)


class TestWorkersOption:
    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        assert resolve_workers(None) >= 1
        with pytest.raises(ConfigurationError):
            resolve_workers(-1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "hyper", "--n", "8", "--workers", "-1"],
            ["verify", "hyper", "--n", "8", "--backend", "process",
             "--workers", "-1"],
            ["compare", "--switch", "revsort", "--n", "16", "--m", "12",
             "--workers", "-1"],
            ["bench", "run", "--suite", "smoke", "--workers", "-1"],
        ],
    )
    def test_negative_workers_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert "workers" in capsys.readouterr().err


class TestCrossProcessCertify:
    @pytest.mark.parametrize(
        "design,params",
        [
            ("hyper", {"n": 8}),
            ("revsort", {"n": 16, "m": 12}),
            ("columnsort", {"r": 8, "s": 2, "m": 12}),
        ],
    )
    def test_certificate_json_worker_invariant(self, design, params):
        docs = []
        for workers in (0, 1, 2, 4):
            cert = certify_design(
                design, dict(params), options=QUICK, workers=workers
            )
            assert cert.ok
            docs.append(cert.to_json())
        assert all(doc == docs[0] for doc in docs[1:]), design


class TestSlowShardGate:
    def _spec(self, delay_s: float):
        from repro.obs.perf.suite import BenchSpec, Workload

        def make():
            sw = ColumnsortSwitch.from_beta(256, 0.75, 192)
            backend = ShardedBackend(
                workers=1, shard_trials=256, _test_shard_delay_s=delay_s
            )
            stream = StreamSpec(
                trials=1024, shard_trials=256, load="half",
                check_contract=False, measure_epsilon=False,
            )

            def run(rng):
                return backend.run_stream(sw, stream).trials

            return Workload(run=run, meta={})

        return BenchSpec("test.slow-shard", ("test",), "trials", make)

    def test_injected_slow_shard_trips_the_gate(self):
        from repro.obs.perf.regression import compare_records, has_regressions
        from repro.obs.perf.suite import run_bench

        history = [
            run_bench(self._spec(0.0), suite="test", repeats=3, alloc=False)
        ]
        slow = run_bench(self._spec(0.5), suite="test", repeats=3, alloc=False)
        verdicts = compare_records({"test.slow-shard": slow}, history)
        assert has_regressions(verdicts)
        # A clean re-run stays inside the (generous) noise band.
        clean = run_bench(self._spec(0.0), suite="test", repeats=3, alloc=False)
        verdicts = compare_records(
            {"test.slow-shard": clean}, history, tolerance=2.0
        )
        assert not has_regressions(verdicts)
