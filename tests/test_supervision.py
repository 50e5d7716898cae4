"""Self-healing sharded execution: the shard supervisor's retry /
respawn / deadline / degradation loop, the pool's respawn and plan
shipping, certify checkpoint/resume, and the supervision
observability surface (journal frames, SLO defaults, flight-recorder
fallback, analyze section).

The load-bearing property everywhere: a worker death, deadline expiry,
or transient exception changes *when* results arrive, never *what*
they are — every shard's entropy is keyed to its position, so retried
output is byte-identical to a clean run's.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.engine import StreamSpec, get_backend
from repro.engine.backends import SupervisorPolicy
from repro.engine.backends.pool import WorkerPool
from repro.engine.backends.supervisor import chaos_from_env
from repro.errors import ConfigurationError, ExecutionError, exit_code_for
from repro.switches.revsort_switch import RevsortSwitch
from repro.verify import CertifyOptions, certify_design

#: Small budgets so certify-based tests run in seconds.
QUICK = CertifyOptions(
    max_total=1 << 10, max_per_k=32, chunk=64, scalar_rows=16,
    metamorphic_rows=8,
)

SPEC = StreamSpec(trials=24000, seed=42, load="mixed", shard_trials=4000)


def _switch() -> RevsortSwitch:
    return RevsortSwitch(16, 12)


def _stream_ref():
    return get_backend("process", workers=1).run_stream(_switch(), SPEC)


def _chaos_token(tmp_path) -> str:
    return str(tmp_path / "chaos.token")


def _set_chaos(monkeypatch, spec: str, tmp_path=None) -> None:
    """Arm ``REPRO_CHAOS=spec``; with ``tmp_path``, the injected failure
    fires once (a ``REPRO_CHAOS_TOKEN`` once-token), else on every
    attempt."""
    monkeypatch.setenv("REPRO_CHAOS", spec)
    if tmp_path is not None:
        monkeypatch.setenv("REPRO_CHAOS_TOKEN", _chaos_token(tmp_path))
    else:
        monkeypatch.delenv("REPRO_CHAOS_TOKEN", raising=False)


class TestPoolRespawn:
    def test_respawn_resets_plan_shipping(self):
        """Satellite fix: a respawned pool's children start with empty
        plan caches, so previously-shipped keys must ship again."""
        pool = WorkerPool(1)
        pool._shipped = {"stale-key"}
        pool._inherited = {"stale-too"}
        generation = pool.generation
        pool.respawn()
        assert pool._shipped == set()
        assert pool._inherited == set()
        assert pool.generation == generation + 1

    def test_executor_property_resets_stale_sets(self):
        """The lazy executor property itself also clears the sets: a
        pool whose executor was torn down elsewhere (shutdown) must not
        starve fresh children of plans recorded as shipped to dead
        ones."""
        pool = WorkerPool(1)
        pool._shipped = {"stale-key"}
        try:
            pool.executor  # noqa: B018 - property has the side effect
            assert "stale-key" not in pool._shipped
        finally:
            pool.shutdown()

    def test_fresh_fork_pool_ships_no_inherited_plan(self, monkeypatch):
        """A fresh ``fork`` pool's children fork at the first submit and
        inherit every plan compiled by then, so its first payload is
        empty; under ``spawn`` the plan still ships."""
        import multiprocessing

        from repro.engine.backends import pool as pool_module

        key = RevsortSwitch(16, 12)._plan.key
        for method, ships in (("fork", False), ("spawn", True)):
            monkeypatch.setattr(
                pool_module, "_mp_context",
                lambda method=method: multiprocessing.get_context(method),
            )
            pool = WorkerPool(2)
            try:
                payload = pool.plan_payload([key])
                assert (payload is not None) == ships, method
                if ships:
                    assert key in payload
            finally:
                pool.shutdown()


class TestChaosEnv:
    def test_unset_means_no_chaos(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert chaos_from_env() is None

    def test_parses_mode_shard_and_token(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "sleep:2:7.5")
        monkeypatch.setenv("REPRO_CHAOS_TOKEN", "/tmp/tok")
        assert chaos_from_env() == {
            "die_mode": "sleep", "shard": 2, "sleep_s": 7.5,
            "once_token": "/tmp/tok",
        }


class TestSupervisedStream:
    """Kill, crash, stall, and exhaust workers; the stream summary must
    match the in-process batch backend bit for bit."""

    @pytest.mark.parametrize("mode", ["kill", "exit"])
    def test_worker_death_is_retried_and_identical(
        self, tmp_path, monkeypatch, mode
    ):
        _set_chaos(monkeypatch, mode, tmp_path)
        with obs.collecting() as registry:
            backend = get_backend("process", workers=3)
            got = backend.run_stream(_switch(), SPEC)
        assert got == _stream_ref()
        counters = registry.snapshot()["counters"]
        assert counters.get("engine.shard_retries", 0) >= 1
        assert counters.get("engine.pool_respawns", 0) >= 1

    def test_transient_exception_is_retried_and_identical(
        self, tmp_path, monkeypatch
    ):
        _set_chaos(monkeypatch, "raise", tmp_path)
        with obs.collecting() as registry:
            backend = get_backend("process", workers=3)
            got = backend.run_stream(_switch(), SPEC)
        assert got == _stream_ref()
        counters = registry.snapshot()["counters"]
        assert counters.get("engine.shard_retries", 0) >= 1
        # A transient in-job exception needs no executor teardown.
        assert counters.get("engine.pool_respawns", 0) == 0

    def test_deadline_expiry_kills_and_retries(self, tmp_path, monkeypatch):
        _set_chaos(monkeypatch, "sleep:0:60", tmp_path)
        with obs.collecting() as registry:
            backend = get_backend(
                "process", workers=3, policy=SupervisorPolicy(deadline_s=1.0)
            )
            got = backend.run_stream(_switch(), SPEC)
        assert got == _stream_ref()
        counters = registry.snapshot()["counters"]
        assert counters.get("engine.shard_timeouts", 0) >= 1
        assert counters.get("engine.pool_respawns", 0) >= 1

    def test_exhausted_budget_degrades_to_in_process(self, monkeypatch):
        # Shard 2 fails on *every* attempt (no once-token): after the
        # retry budget it must run inline in the parent — with the
        # chaos payload stripped — and still produce identical output.
        _set_chaos(monkeypatch, "raise:2")
        with obs.collecting() as registry:
            backend = get_backend(
                "process", workers=3, policy=SupervisorPolicy(max_retries=1)
            )
            got = backend.run_stream(_switch(), SPEC)
        assert got == _stream_ref()
        counters = registry.snapshot()["counters"]
        assert counters.get("engine.degraded_fallbacks", 0) >= 1

    def test_degradation_disabled_raises_execution_error(self, monkeypatch):
        _set_chaos(monkeypatch, "raise:2")
        backend = get_backend(
            "process", workers=3,
            policy=SupervisorPolicy(max_retries=1, degrade=False),
        )
        with pytest.raises(ExecutionError) as excinfo:
            backend.run_stream(_switch(), SPEC)
        assert exit_code_for(excinfo.value) == 3

    def test_no_shm_leaked_after_chaos(self, tmp_path, monkeypatch, rng):
        # run_trials pickles its row slices (no shared memory is left
        # to leak); kill a worker mid-round and check the retried
        # shards route exactly as one inline batch does.
        _set_chaos(monkeypatch, "kill", tmp_path)
        with obs.collecting() as registry:
            backend = get_backend("process", workers=2, shard_trials=64)
            valid = rng.random((256, 16)) < 0.5
            batch = backend.run_trials(_switch(), valid)
        ref = _switch().setup_batch(valid)
        assert (batch.input_to_output == ref.input_to_output).all()
        counters = registry.snapshot()["counters"]
        assert counters.get("engine.shard_retries", 0) >= 1


class TestCertifyChaos:
    """The acceptance scenario: SIGKILL a pool worker mid
    ``certify --workers 4`` and require a byte-identical certificate
    plus visible retry counters."""

    ARGS = [
        "certify", "revsort", "--n", "16", "--m", "12",
        "--workers", "4", "--chunk", "64", "--max-total", "1024",
    ]

    def _run(self, tmp_path, name, env=None, journal=None, monkeypatch=None):
        from repro.cli import main

        out = tmp_path / name
        argv = self.ARGS + ["--out", str(out)]
        if journal is not None:
            argv += ["--journal", str(journal)]
        if env:
            for key, value in env.items():
                monkeypatch.setenv(key, value)
        try:
            assert main(argv) == 0
        finally:
            if env:
                for key in env:
                    monkeypatch.delenv(key)
        return out.read_bytes()

    def test_worker_kill_mid_certify_is_byte_identical(
        self, tmp_path, monkeypatch
    ):
        clean = self._run(tmp_path, "clean.json")
        journal = tmp_path / "chaos.jsonl"
        killed = self._run(
            tmp_path, "killed.json",
            env={
                "REPRO_CHAOS": "kill",
                "REPRO_CHAOS_TOKEN": _chaos_token(tmp_path),
            },
            journal=journal,
            monkeypatch=monkeypatch,
        )
        assert killed == clean

        from repro.obs.live import replay_journal

        events = [
            json.loads(line) for line in journal.read_text().splitlines()
        ]
        counters = replay_journal(events)["counters"]
        assert counters.get("engine.shard_retries", 0) >= 1
        assert counters.get("engine.pool_respawns", 0) >= 1
        assert any(e.get("type") == "worker_death" for e in events)

        from repro.obs.perf.analyze import analyze_journal

        supervision = analyze_journal(events)["supervision"]
        assert supervision["shard_retries"] >= 1
        assert supervision["pool_respawns"] >= 1
        assert supervision["worker_deaths"] >= 1


def _seeded_draw(value, rng):
    # Module level: the sweep pickles it to the pool.
    return {"value": value, "draw": float(rng.random())}


class TestFanOutChaos:
    """``repro compare`` and ``analysis.sweep`` fan out through the same
    supervised ``fan_out`` as certify and the sharded backend: a killed
    worker costs a retry, and the output stays byte-identical."""

    COMPARE = [
        "compare", "--switch", "revsort", "--n", "64", "--m", "48",
        "--trials", "16", "--seed", "1", "--workers", "2",
        "--format", "json",
    ]

    def _kill_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "kill")
        monkeypatch.setenv("REPRO_CHAOS_TOKEN", _chaos_token(tmp_path))

    def test_worker_kill_mid_compare_is_byte_identical(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        from repro.obs.live import replay_journal

        journal = tmp_path / "run.jsonl"
        argv = self.COMPARE + ["--journal", str(journal)]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        self._kill_once(tmp_path, monkeypatch)
        assert main(argv) == 0
        assert capsys.readouterr().out == clean
        counters = replay_journal(journal)["counters"]
        assert counters.get("engine.shard_retries", 0) >= 1

    def test_worker_kill_mid_sweep_is_byte_identical(self, tmp_path, monkeypatch):
        from repro.analysis.sweep import sweep

        params = [1, 2, 3, 4]
        clean = sweep(params, _seeded_draw, seed=5, workers=2)
        self._kill_once(tmp_path, monkeypatch)
        with obs.collecting() as registry:
            killed = sweep(params, _seeded_draw, seed=5, workers=2)
        assert json.dumps(killed) == json.dumps(clean)
        assert registry.snapshot()["counters"].get("engine.shard_retries", 0) >= 1


class TestSpawnStartMethod:
    """Under ``spawn`` the workers inherit no plans, so every plan ships
    in the job payload; results must match the ``fork`` run byte for
    byte."""

    def test_spawn_pool_matches_fork(self, monkeypatch, rng):
        import multiprocessing

        from repro.engine.backends import pool as pool_module

        switch = RevsortSwitch(256, 192)
        backend = get_backend("process", workers=2, shard_trials=256)
        valid = rng.random((1024, switch.n)) < 0.5
        spec = StreamSpec(trials=2048, seed=3, load="mixed", shard_trials=512)

        def run():
            return (
                backend.run_stream(switch, spec),
                backend.run_trials(switch, valid).input_to_output.tobytes(),
            )

        forked = run()
        pool_module.shutdown_pools()
        monkeypatch.setattr(
            pool_module, "_mp_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        try:
            spawned = run()
            executor = pool_module.shared_pool(2)._executor
            assert executor is not None  # the rounds ran on the pool
            assert executor._mp_context.get_start_method() == "spawn"
        finally:
            pool_module.shutdown_pools()
        assert spawned == forked


class TestCheckpoint:
    DESIGN = ("revsort", {"n": 16, "m": 12})

    def _clean(self):
        name, params = self.DESIGN
        return certify_design(name, dict(params), options=QUICK, workers=1)

    def test_serial_crash_and_resume_identical(self, tmp_path, monkeypatch):
        import repro.verify.exhaustive as ex

        clean = self._clean().as_dict()
        real = ex._examine_chunk
        calls = {"n": 0, "armed": True}

        def dying(switch, chunk, config):
            calls["n"] += 1
            if calls["armed"] and calls["n"] > 3:
                calls["armed"] = False
                raise RuntimeError("simulated kill")
            return real(switch, chunk, config)

        monkeypatch.setattr(ex, "_examine_chunk", dying)
        name, params = self.DESIGN
        with pytest.raises(RuntimeError, match="simulated kill"):
            certify_design(
                name, dict(params), options=QUICK, workers=1,
                checkpoint_dir=str(tmp_path),
            )
        total_chunks = calls["n"]  # 3 completed + the dying one

        # Resume: only unfinished chunks re-run, certificate identical.
        calls["n"] = 0
        resumed = certify_design(
            name, dict(params), options=QUICK, workers=1,
            checkpoint_dir=str(tmp_path),
        )
        assert resumed.as_dict() == clean
        assert calls["n"] >= 1  # something was actually left to do
        # The three checkpointed chunks were skipped.
        full_calls = calls["n"] + 3
        assert full_calls >= total_chunks

        # A second resume finds everything done: zero chunk executions.
        calls["n"] = 0
        again = certify_design(
            name, dict(params), options=QUICK, workers=1,
            checkpoint_dir=str(tmp_path),
        )
        assert again.as_dict() == clean
        assert calls["n"] == 0

    def test_parallel_resume_from_serial_checkpoint(self, tmp_path):
        """Chunk identity is worker-invariant, so a checkpoint written
        serially resumes under the supervised pool (and vice versa)."""
        name, params = self.DESIGN
        clean = self._clean().as_dict()
        first = certify_design(
            name, dict(params), options=QUICK, workers=1,
            checkpoint_dir=str(tmp_path),
        )
        resumed = certify_design(
            name, dict(params), options=QUICK, workers=2,
            checkpoint_dir=str(tmp_path),
        )
        assert first.as_dict() == clean
        assert resumed.as_dict() == clean

    def test_truncated_checkpoint_resumes(self, tmp_path):
        name, params = self.DESIGN
        clean = self._clean().as_dict()
        certify_design(
            name, dict(params), options=QUICK, workers=1,
            checkpoint_dir=str(tmp_path),
        )
        path = tmp_path / "revsort-n16-m12.jsonl"
        lines = path.read_text().splitlines()
        # Keep the header + 2 records, plus a half-written record (the
        # run died mid-write); the partial line must be discarded.
        path.write_text("\n".join(lines[:3]) + "\n" + lines[3][: len(lines[3]) // 2])
        resumed = certify_design(
            name, dict(params), options=QUICK, workers=1,
            checkpoint_dir=str(tmp_path),
        )
        assert resumed.as_dict() == clean

    def test_fingerprint_mismatch_is_config_error(self, tmp_path):
        name, params = self.DESIGN
        certify_design(
            name, dict(params), options=QUICK, workers=1,
            checkpoint_dir=str(tmp_path),
        )
        from dataclasses import replace

        other = replace(QUICK, scalar_rows=8)
        with pytest.raises(ConfigurationError):
            certify_design(
                name, dict(params), options=other, workers=1,
                checkpoint_dir=str(tmp_path),
            )


class TestSloDefaults:
    def test_absent_metric_uses_default(self):
        from repro.obs.slo import evaluate_slo, parse_slo_spec

        rules = parse_slo_spec(
            {
                "schema": "repro.obs/slo@1",
                "rules": [
                    {
                        "metric": "counter:engine.shard_retries",
                        "op": "<=", "threshold": 0, "default": 0,
                    },
                    {
                        "metric": "counter:engine.shard_retries",
                        "op": "<=", "threshold": 0,
                    },
                ],
            }
        )
        defaulted, missing = evaluate_slo(rules, {"counters": {}})
        assert defaulted.ok and "defaulted" in defaulted.detail
        assert not missing.ok  # no default: absence still fails

        # A present value ignores the default entirely.
        present, _ = evaluate_slo(
            rules, {"counters": {"engine.shard_retries": 2}}
        )
        assert not present.ok and present.value == 2.0

    def test_committed_supervision_spec_loads(self):
        from pathlib import Path

        from repro.obs.slo import evaluate_slo, load_slo_spec

        spec = (
            Path(__file__).parent.parent / "benchmarks" / "slo_supervision.toml"
        )
        rules = load_slo_spec(spec)
        source = {"counters": {"verify.patterns{design=revsort}": 5906.0}}
        assert all(v.ok for v in evaluate_slo(rules, source))
        source["counters"]["engine.pool_respawns"] = 1.0
        assert not all(v.ok for v in evaluate_slo(rules, source))


class TestFlightRecorderWorkerDeath:
    def test_worker_death_frame_becomes_failing_span(self):
        from repro.obs.live.flight import failing_span

        events = [
            {"type": "counter"},
            {"type": "worker_death", "shard": 5, "label": "certify"},
        ]
        span = failing_span(reversed(events))
        assert span == {
            "name": "engine.shard",
            "path": None,
            "error": "worker-death (shard 5)",
            "duration_s": None,
        }

    def test_error_tagged_span_still_wins(self):
        from repro.obs.live.flight import failing_span

        events = [
            {"type": "worker_death", "shard": 5},
            {
                "type": "span", "name": "verify.certify", "path": "p",
                "meta": {"error": "boom"}, "duration_s": 0.5,
            },
        ]
        assert failing_span(reversed(events))["name"] == "verify.certify"


class TestExitCodeContract:
    def test_execution_error_exits_3(self):
        assert exit_code_for(ExecutionError("pool gave up")) == 3

    def test_cli_maps_execution_error_to_3(self, monkeypatch, capsys):
        from repro.cli import main
        import repro.verify.exhaustive as ex

        def broken(*args, **kwargs):
            raise ExecutionError("shard 0 exhausted its retry budget")

        monkeypatch.setattr(ex, "certify_design", broken)
        monkeypatch.setattr("repro.verify.certify_design", broken)
        assert main(["certify", "hyper", "--n", "8"]) == 3
        assert "execution failure" in capsys.readouterr().err


def teardown_module() -> None:
    """Chaos tests leave broken executors behind; later test modules
    reuse the process-wide pools, so reset them."""
    from repro.engine.backends.pool import shutdown_pools

    shutdown_pools()
    for key in ("REPRO_CHAOS", "REPRO_CHAOS_TOKEN"):
        os.environ.pop(key, None)
