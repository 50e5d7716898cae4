"""Live telemetry pipeline: journal, merge protocol, sampler, flight
recorder, and the CLI wiring.

The heart of the suite is **replay parity**: the journal's delta-flush
metric events must reduce to exactly the live registry's final totals,
including metrics merged back from worker registries — the property
that makes the journal a faithful forensic record rather than a lossy
log.  A byte-for-byte golden (``tests/golden/journal_deterministic.
jsonl``) pins the schema; everything runs on injected fake clocks, so
nothing here sleeps.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from repro import obs
from repro.errors import ConfigurationError, exit_code_for
from repro.obs.live import (
    CRASH_SCHEMA,
    JOURNAL_SCHEMA,
    WORKER_SCHEMA,
    EventJournal,
    FlightRecorder,
    JournalSink,
    ResourceSampler,
    failing_span,
    merge_portable,
    portable_snapshot,
    read_crash_report,
    read_journal,
    replay_journal,
    roundtrip,
)
from repro.obs.registry import split_metric_key
from repro.obs.tracing import SpanRecord, Tracer

GOLDEN_DIR = Path(__file__).parent / "golden"


class FakeClock:
    """Manually advanced clock — no sleeps anywhere in this module."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def deterministic_run(path: Path | None):
    """One fully deterministic journaled run (fixed clock, fixed
    values).  Returns ``(registry, journal)`` after closing both; used
    by the golden test and regenerable via
    ``python -m tests.test_obs_live`` semantics below."""
    clock = FakeClock(start=0.0)
    registry = obs.Registry(clock=clock)
    journal = EventJournal(path, clock=clock, command="golden")
    sink = JournalSink(registry, journal)
    journal.emit("phase", name="work", total=2)
    registry.counter("sim.rounds").inc(3)
    registry.gauge("proc.rss_kb").set(512)
    with registry.tracer.span("sim.run", rounds=1):
        clock.tick(0.5)
        with registry.tracer.span("sim.round", round=0):
            clock.tick(0.25)
    registry.histogram("serial.transit_cycles").observe(9)
    sink.flush()
    journal.emit("progress", phase="work", done=1, total=2)
    # A worker registry merged through the portable protocol: counters
    # land in the parent's keys, gauges gain a worker label.
    worker = obs.Registry(clock=clock)
    worker.counter("sim.rounds").inc(2)
    worker.gauge("proc.rss_kb").set(640)
    with worker.tracer.span("sim.round", round=1):
        clock.tick(0.25)
    merge_portable(registry, roundtrip(portable_snapshot(worker)), worker="w0")
    sink.flush()
    journal.emit("progress", phase="work", done=2, total=2)
    sink.close()
    journal.close()
    return registry, journal


class TestEventJournal:
    def test_start_line_carries_schema_and_command(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with EventJournal(path, clock=FakeClock(), command="test"):
            pass
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events[0]["type"] == "start"
        assert events[0]["schema"] == JOURNAL_SCHEMA
        assert events[0]["command"] == "test"
        assert events[-1]["type"] == "end"

    def test_seq_is_monotonic_and_lines_flush_immediately(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path, clock=FakeClock())
        journal.emit("phase", name="a")
        # visible before close: a live tailer must see every line
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        journal.emit("phase", name="b")
        journal.close()
        seqs = [json.loads(line)["seq"] for line in path.read_text().splitlines()]
        assert seqs == list(range(len(seqs)))

    def test_bulk_frames_reach_disk_at_the_next_boundary(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path, clock=FakeClock())

        def on_disk() -> list[str]:
            return [json.loads(line)["type"]
                    for line in path.read_text().splitlines()]

        seen = []
        journal.subscribe(seen.append)
        journal.emit_span(SpanRecord("s", "s", 0, start=0.0, duration_s=0.1))
        journal.emit("counter", key="c", delta=1.0)
        assert on_disk() == ["start"]  # buffered, not yet flushed
        assert [e["type"] for e in seen] == ["span", "counter"]  # sinks: at once
        journal.emit("heartbeat", uptime=1.0)
        assert on_disk() == ["start", "span", "counter", "heartbeat"]
        journal.emit("hist", key="h", count=1, sum=0.5, min=0.5, max=0.5,
                     buckets={})
        assert on_disk()[-1] == "heartbeat"
        journal.close()
        assert on_disk()[-2:] == ["hist", "end"]

    def test_in_memory_journal_feeds_subscribers(self):
        seen = []
        journal = EventJournal(None, clock=FakeClock())
        journal.subscribe(seen.append)
        journal.emit("phase", name="x")
        journal.close()
        assert [e["type"] for e in seen] == ["phase", "end"]

    def test_broken_subscriber_does_not_break_the_journal(self):
        def bad(event):
            raise RuntimeError("consumer bug")

        journal = EventJournal(None, clock=FakeClock())
        journal.subscribe(bad)
        event = journal.emit("phase", name="x")
        assert event["name"] == "x"

    def test_span_budget_counts_overflow(self):
        journal = EventJournal(None, clock=FakeClock(), span_limit=2)
        seen = []
        journal.subscribe(seen.append)
        for i in range(5):
            journal.emit_span(
                SpanRecord(f"s{i}", f"s{i}", 0, start=0.0, duration_s=0.1)
            )
        journal.close()
        spans = [e for e in seen if e["type"] == "span"]
        assert len(spans) == 2
        assert seen[-1]["type"] == "end"
        assert seen[-1]["spans_dropped"] == 3

    def test_directory_path_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            EventJournal(tmp_path)

    def test_read_journal_rejects_garbage(self, tmp_path):
        path = tmp_path / "not.jsonl"
        path.write_text('{"seq": 0, "type": "other"}\n')
        with pytest.raises(ConfigurationError):
            read_journal(path)
        with pytest.raises(ConfigurationError):
            read_journal([])
        with pytest.raises(ConfigurationError):
            read_journal(tmp_path / "missing.jsonl")


class TestJournalGolden:
    GOLDEN = GOLDEN_DIR / "journal_deterministic.jsonl"

    def test_golden_journal_is_byte_stable(self, tmp_path):
        path = tmp_path / "j.jsonl"
        deterministic_run(path)
        produced = path.read_text(encoding="utf-8")
        assert produced == self.GOLDEN.read_text(encoding="utf-8"), (
            "the journal schema drifted; if intentional, regenerate "
            "tests/golden/journal_deterministic.jsonl with "
            "tests.test_obs_live.deterministic_run"
        )

    def test_replay_reduces_to_live_registry_totals(self, tmp_path):
        path = tmp_path / "j.jsonl"
        registry, _ = deterministic_run(path)
        snapshot = registry.snapshot()
        replayed = replay_journal(path)
        assert replayed["counters"] == snapshot["counters"]
        assert replayed["gauges"] == snapshot["gauges"]
        for key, hist in snapshot["histograms"].items():
            assert replayed["histograms"][key]["count"] == hist["count"]
            assert replayed["histograms"][key]["sum"] == pytest.approx(hist["sum"])
            assert replayed["histograms"][key]["min"] == hist["min"]
            assert replayed["histograms"][key]["max"] == hist["max"]

    def test_worker_metrics_present_after_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        registry, _ = deterministic_run(path)
        replayed = replay_journal(path)
        # worker counter landed in the parent's key (3 local + 2 merged)
        assert replayed["counters"]["sim.rounds"] == 5
        assert replayed["counters"]["obs.workers_merged{worker=w0}"] == 1
        # worker gauge kept its provenance label
        assert replayed["gauges"]["proc.rss_kb{worker=w0}"] == 640
        assert replayed["gauges"]["proc.rss_kb"] == 512

    def test_replayed_spans_match_tracer(self, tmp_path):
        path = tmp_path / "j.jsonl"
        registry, _ = deterministic_run(path)
        replayed = replay_journal(path)
        live = [e.as_dict() for e in registry.tracer.events]
        assert replayed["spans"]["events"] == live
        assert replayed["spans"]["dropped"] == 0


class TestMergeProtocol:
    def test_portable_snapshot_roundtrips_as_json(self):
        registry = obs.Registry(clock=FakeClock())
        registry.counter("sim.rounds").inc()
        with registry.tracer.span("sim.run"):
            pass
        document = portable_snapshot(registry, worker="w3")
        assert document["schema"] == WORKER_SCHEMA
        assert document["worker"] == "w3"
        assert roundtrip(document) == json.loads(json.dumps(document))

    def test_merge_semantics(self):
        clock = FakeClock()
        parent = obs.Registry(clock=clock)
        parent.counter("sim.rounds").inc(10)
        parent.histogram("serial.transit_cycles").observe(4)
        worker = obs.Registry(clock=clock)
        worker.counter("sim.rounds").inc(7)
        worker.counter("sim.delivered", policy="drop").inc(2)
        worker.gauge("proc.cpu_s").set(1.5)
        worker.histogram("serial.transit_cycles").observe(16)
        with worker.tracer.span("sim.round"):
            clock.tick(0.1)
        merge_portable(parent, roundtrip(portable_snapshot(worker)), worker="w1")
        snap = parent.snapshot()
        # counters/histograms keep their original keys: totals exact
        assert snap["counters"]["sim.rounds"] == 17
        assert snap["counters"]["sim.delivered{policy=drop}"] == 2
        assert snap["counters"]["obs.workers_merged{worker=w1}"] == 1
        hist = snap["histograms"]["serial.transit_cycles"]
        assert hist["count"] == 2 and hist["min"] == 4 and hist["max"] == 16
        # gauges are per-worker facts: rekeyed with provenance
        assert snap["gauges"]["proc.cpu_s{worker=w1}"] == 1.5
        # spans absorbed with worker meta
        merged = [e for e in parent.tracer.events if e.name == "sim.round"]
        assert merged and merged[0].meta["worker"] == "w1"

    def test_merge_rejects_wrong_schema(self):
        registry = obs.Registry()
        with pytest.raises(ConfigurationError):
            merge_portable(registry, {"schema": "nope", "counters": {}})

    def test_split_metric_key_inverts_metric_key(self):
        from repro.obs.registry import metric_key

        for name, labels in [
            ("sim.rounds", {}),
            ("sim.delivered", {"policy": "drop"}),
            ("x", {"b": "2", "a": "1"}),
        ]:
            base, parsed = split_metric_key(metric_key(name, labels))
            assert base == name
            assert parsed == {k: str(v) for k, v in labels.items()}


class TestThreadLocalRegistry:
    def test_using_overrides_only_this_thread(self):
        local = obs.Registry()
        with obs.using(local):
            obs.counter("sim.rounds").inc()
            assert obs.get_registry() is local
        assert obs.get_registry() is not local
        assert local.snapshot()["counters"]["sim.rounds"] == 1

    def test_using_nests(self):
        a, b = obs.Registry(), obs.Registry()
        with obs.using(a):
            with obs.using(b):
                obs.counter("sim.rounds").inc()
            obs.counter("sim.rounds").inc(5)
        assert b.snapshot()["counters"]["sim.rounds"] == 1
        assert a.snapshot()["counters"]["sim.rounds"] == 5

    def test_worker_threads_do_not_interleave_shared_tracer(self):
        """Regression: spans from pool threads must not corrupt the
        installed registry's span stack."""
        with obs.collecting() as registry:
            with obs.span("main.work"):
                done = threading.Event()

                def worker():
                    local = obs.Registry()
                    with obs.using(local):
                        with obs.span("worker.work"):
                            pass
                    done.set()

                t = threading.Thread(target=worker)
                t.start()
                t.join()
                assert done.is_set()
            paths = [e.path for e in registry.tracer.events]
        assert paths == ["main.work"]  # no worker.work under main.work


def _counting_measure(value):
    # Module level: with workers > 1 the sweep pickles it to the pool.
    obs.counter("sim.rounds").inc(value)
    return {"doubled": value * 2}


class TestSweepMergesWorkers:
    def test_parallel_sweep_merges_metrics_in_order(self):
        from repro.analysis.sweep import sweep

        with obs.collecting() as registry:
            rows = sweep([1, 2, 3], _counting_measure, workers=2)
        assert [r["doubled"] for r in rows] == [2, 4, 6]
        snap = registry.snapshot()
        assert snap["counters"]["sim.rounds"] == 6
        assert snap["counters"]["obs.workers_merged{worker=sweep-0}"] == 1
        assert snap["counters"]["obs.workers_merged{worker=sweep-2}"] == 1

    def test_serial_sweep_unchanged(self):
        from repro.analysis.sweep import sweep

        with obs.collecting() as registry:
            rows = sweep([1, 2], lambda v: {"v": v}, workers=0)
        assert [r["v"] for r in rows] == [1, 2]
        assert "obs.workers_merged" not in str(registry.snapshot()["counters"])

    def test_compare_workers_tag_provenance(self):
        from repro.network.simulate import compare_partial_vs_perfect
        from repro.switches.perfect import PerfectConcentrator
        from repro.switches.revsort_switch import RevsortSwitch

        partial = RevsortSwitch(64, 48)
        perfect = PerfectConcentrator(n=48, m=36)
        with obs.collecting() as registry:
            parallel = compare_partial_vs_perfect(
                perfect, partial, [8, 36], trials=4, seed=0, workers=2
            )
        serial = compare_partial_vs_perfect(
            perfect, partial, [8, 36], trials=4, seed=0, workers=1
        )
        assert parallel == serial  # worker determinism contract
        counters = registry.snapshot()["counters"]
        merged = [k for k in counters if k.startswith("obs.workers_merged")]
        assert "obs.workers_merged{worker=perfect-k8}" in merged
        assert "obs.workers_merged{worker=partial-k36}" in merged
        assert counters["engine.batch_setups{switch=RevsortSwitch}"] == 2

    def test_run_bench_merge_into(self):
        from repro.obs.perf.suite import run_bench, suite_specs

        spec = suite_specs("smoke", contains="engine.hyper")[0]
        registry = obs.Registry()
        record = run_bench(
            spec, suite="smoke", repeats=1, alloc=False, merge_into=registry
        )
        assert record["bench"] == spec.id
        counters = registry.snapshot()["counters"]
        assert counters[f"obs.workers_merged{{worker={spec.id}}}"] == 1
        assert "bench.repeat.seconds" in registry.snapshot()["histograms"]


class TestTracerSink:
    def test_sink_sees_every_completed_span_even_past_buffer(self):
        seen = []
        tracer = Tracer(clock=FakeClock(), max_events=1, sink=seen.append)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s.name for s in seen] == ["a", "b"]
        assert len(tracer.events) == 1 and tracer.dropped == 1

    def test_sink_exception_does_not_break_span(self):
        def bad(record):
            raise RuntimeError("sink bug")

        tracer = Tracer(clock=FakeClock(), sink=bad)
        with tracer.span("works"):
            pass
        assert tracer.events[0].name == "works"

    def test_exception_tags_span_error_and_unwinds_stack(self):
        """Regression pin for the exception-path audit: a span the
        exception escapes from is error-tagged, the stack fully
        unwinds, and the span still reaches the sink."""
        seen = []
        tracer = Tracer(clock=FakeClock(), sink=seen.append)
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        assert tracer.active_depth == 0
        assert tracer.active_path == ""
        by_name = {s.name: s for s in seen}
        assert by_name["inner"].meta["error"] == "ValueError"
        assert by_name["outer"].meta["error"] == "ValueError"

    def test_keyboardinterrupt_also_tagged(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(KeyboardInterrupt):
            with tracer.span("killed"):
                raise KeyboardInterrupt
        assert tracer.events[0].meta["error"] == "KeyboardInterrupt"
        assert tracer.active_depth == 0

    def test_clean_span_has_no_error_tag(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("fine"):
            pass
        assert "error" not in tracer.events[0].meta

    def test_registry_span_histogram_still_fills_on_exception(self):
        clock = FakeClock()
        registry = obs.Registry(clock=clock)
        with pytest.raises(RuntimeError):
            with registry.span("work"):
                clock.tick(2.0)
                raise RuntimeError
        hist = registry.snapshot()["histograms"]["work.seconds"]
        assert hist["count"] == 1
        assert hist["sum"] == pytest.approx(2.0)


class TestResourceSampler:
    def test_sample_once_sets_gauges_and_heartbeat(self):
        registry = obs.Registry(clock=FakeClock())
        journal = EventJournal(None, clock=FakeClock())
        seen = []
        journal.subscribe(seen.append)
        sampler = ResourceSampler(
            registry,
            journal,
            clock=FakeClock(start=5.0),
            sampler=lambda: {"rss_kb": 1024, "cpu_s": 0.5, "gc_collections": 3},
        )
        vitals = sampler.sample_once()
        assert vitals["rss_kb"] == 1024
        snap = registry.snapshot()
        assert snap["gauges"]["proc.rss_kb"] == 1024
        assert snap["gauges"]["proc.cpu_s"] == 0.5
        assert snap["gauges"]["proc.gc_collections"] == 3
        assert snap["counters"]["obs.heartbeats"] == 1
        beats = [e for e in seen if e["type"] == "heartbeat"]
        assert beats == [
            {
                "seq": 1,
                "t": 100.0,
                "type": "heartbeat",
                "uptime": 5.0,
                "rss_kb": 1024,
                "cpu_s": 0.5,
                "gc_collections": 3,
            }
        ]

    def test_gauges_created_eagerly_before_thread_start(self):
        registry = obs.Registry()
        ResourceSampler(registry, None)
        gauges = registry.snapshot()["gauges"]
        for name in ("proc.rss_kb", "proc.cpu_s", "proc.gc_collections"):
            assert name in gauges

    def test_start_samples_synchronously_and_stop_joins(self):
        registry = obs.Registry()
        with ResourceSampler(registry, None, interval=3600.0) as sampler:
            assert sampler.samples >= 1
        assert sampler._thread is None

    def test_real_process_sample_shape(self):
        from repro.obs.live import sample_process

        vitals = sample_process()
        assert vitals["cpu_s"] >= 0.0
        assert vitals["gc_collections"] >= 0
        assert vitals["rss_kb"] is None or vitals["rss_kb"] > 0


class TestFlightRecorder:
    def _journaled_crash(self):
        clock = FakeClock()
        registry = obs.Registry(clock=clock)
        journal = EventJournal(None, clock=clock)
        sink = JournalSink(registry, journal)
        recorder = FlightRecorder(capacity=4)
        journal.subscribe(recorder.record)
        registry.counter("sim.rounds").inc(2)
        sink.flush()
        exc = None
        try:
            with registry.tracer.span("sim.run"):
                clock.tick(0.5)
                raise RuntimeError("mid-flight death")
        except RuntimeError as caught:
            exc = caught
        sink.flush()
        return registry, recorder, exc

    def test_ring_buffer_is_bounded(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(10):
            recorder.record({"seq": i, "type": "phase"})
        assert len(recorder.events) == 3
        assert recorder.total_seen == 10
        assert [e["seq"] for e in recorder.events] == [7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FlightRecorder(capacity=0)

    def test_crash_report_identifies_failing_span(self):
        registry, recorder, exc = self._journaled_crash()
        report = recorder.crash_report(
            reason="unhandled-exception", command="test", exc=exc,
            registry=registry,
        )
        assert report["schema"] == CRASH_SCHEMA
        assert report["reason"] == "unhandled-exception"
        assert report["failing_span"]["name"] == "sim.run"
        assert report["failing_span"]["error"] == "RuntimeError"
        assert report["exception"]["type"] == "RuntimeError"
        assert report["exception"]["exit_code"] == 70
        assert report["counters"]["sim.rounds"] == 2
        assert report["events"]  # the last-N window is present

    def test_write_and_read_roundtrip(self, tmp_path):
        _, recorder, exc = self._journaled_crash()
        path = recorder.write(
            tmp_path / "deep" / "crash.json", reason="contract-violation",
            exc=exc,
        )
        doc = read_crash_report(path)
        assert doc["reason"] == "contract-violation"
        with pytest.raises(ConfigurationError):
            bad = tmp_path / "bad.json"
            bad.write_text("{}")
            read_crash_report(bad)

    def test_failing_span_scans_in_given_order(self):
        events = [
            {"type": "span", "name": "a", "meta": {"error": "X"}},
            {"type": "phase"},
            {"type": "span", "name": "b", "meta": {}},
        ]
        assert failing_span(events)["name"] == "a"
        assert failing_span(reversed(events))["name"] == "a"
        assert failing_span([{"type": "span", "name": "c", "meta": {}}]) is None

    def test_exit_codes(self):
        from repro.errors import ConcentrationError, ReproError

        assert exit_code_for(ConcentrationError("x")) == 1
        assert exit_code_for(ReproError("x")) == 2
        assert exit_code_for(ConfigurationError("x")) == 2
        assert exit_code_for(RuntimeError("x")) == 70


class TestChromeTraceGolden:
    GOLDEN = GOLDEN_DIR / "chrometrace_deterministic.json"

    def test_chrome_trace_export_is_byte_stable(self, tmp_path):
        from repro.obs.perf.chrometrace import write_chrome_trace

        registry, _ = deterministic_run(None)
        path = tmp_path / "trace.json"
        write_chrome_trace(
            registry.snapshot()["spans"], path, metadata={"run": "golden"}
        )
        assert path.read_text(encoding="utf-8") == self.GOLDEN.read_text(
            encoding="utf-8"
        ), (
            "the Chrome-trace export drifted; if intentional, regenerate "
            "tests/golden/chrometrace_deterministic.json"
        )


class TestCLITelemetry:
    """End-to-end CLI wiring: the acceptance-criteria scenarios."""

    def _main(self, argv):
        from repro.cli import main

        return main(argv)

    def test_certify_journal_replays_to_live_totals(
        self, tmp_path, capsys, live_registries
    ):
        journal = tmp_path / "run.jsonl"
        code = self._main(
            ["certify", "revsort", "--n", "16", "--m", "12",
             "--journal", str(journal)]
        )
        assert code == 0
        snapshot = live_registries[0].snapshot()
        replayed = replay_journal(journal)
        assert replayed["counters"] == snapshot["counters"]
        events = read_journal(journal)
        kinds = {e["type"] for e in events}
        assert {"start", "env", "phase", "progress", "heartbeat",
                "counter", "span", "end"} <= kinds
        assert events[0]["command"] == "certify"

    def test_compare_journal_includes_worker_metrics(
        self, tmp_path, capsys, live_registries
    ):
        journal = tmp_path / "run.jsonl"
        code = self._main(
            ["compare", "--switch", "revsort", "--n", "64", "--m", "48",
             "--trials", "4", "--workers", "2",
             "--journal", str(journal)]
        )
        assert code == 0
        snapshot = live_registries[0].snapshot()
        replayed = replay_journal(journal)
        # worker-process metrics included, exactly
        assert replayed["counters"] == snapshot["counters"]
        assert any(
            k.startswith("obs.workers_merged") for k in replayed["counters"]
        )

    def test_mid_flight_kill_dumps_flight_recorder(self, tmp_path, capsys,
                                                   monkeypatch):
        import repro.verify

        def killed(design, params, options=None, workers=1):
            with obs.span("verify.certify", design=design):
                obs.counter("verify.patterns", design=design).inc(7)
                raise KeyboardInterrupt

        monkeypatch.setattr(repro.verify, "certify_design", killed)
        journal = tmp_path / "run.jsonl"
        with pytest.raises(KeyboardInterrupt):
            self._main(
                ["certify", "revsort", "--n", "16", "--m", "12",
                 "--journal", str(journal)]
            )
        report = read_crash_report(tmp_path / "run-crash.json")
        assert report["reason"] == "unhandled-exception"
        assert report["exception"]["type"] == "KeyboardInterrupt"
        assert report["events"]  # the last-N events window
        assert report["failing_span"]["name"] == "verify.certify"
        assert report["failing_span"]["error"] == "KeyboardInterrupt"
        # the journal survived the kill with an un-closed tail
        events = read_journal(journal)
        assert events[0]["schema"] == JOURNAL_SCHEMA

    def test_contract_violation_dumps_crash_report(self, tmp_path, capsys,
                                                   monkeypatch):
        import repro.verify

        def violated(design, params, options=None, workers=1):
            from repro.errors import ConcentrationError

            with obs.span("verify.certify", design=design):
                raise ConcentrationError("valid message dropped")

        monkeypatch.setattr(repro.verify, "certify_design", violated)
        code = self._main(
            ["certify", "revsort", "--n", "16", "--m", "12",
             "--crash-dir", str(tmp_path / "crashes")]
        )
        assert code == 1  # ConcentrationError -> contract violation
        reports = list((tmp_path / "crashes").glob("*.json"))
        assert len(reports) == 1
        doc = read_crash_report(reports[0])
        assert doc["reason"] == "contract-violation"
        assert doc["exception"]["exit_code"] == 1

    def test_obs_export_json_from_journal(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        registry, _ = deterministic_run(journal)
        code = self._main(["obs", "export", "--journal", str(journal)])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["counters"] == registry.snapshot()["counters"]
        assert document["counters"]["sim.rounds"] == 5
        assert document["gauges"]["proc.rss_kb{worker=w0}"] == 640

    def test_obs_export_requires_exactly_one_source(self, capsys):
        # The journal is the one source: argparse rejects its absence.
        with pytest.raises(SystemExit) as exited:
            self._main(["obs", "export"])
        assert exited.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["export", "report", "analyze"])
    def test_obs_out_directory_is_a_usage_error(self, subcommand, tmp_path,
                                                capsys):
        journal = tmp_path / "run.jsonl"
        deterministic_run(journal)
        trajectory = tmp_path / "traj.jsonl"
        trajectory.write_text(json.dumps({
            "schema": "repro.obs/bench", "version": 1, "bench": "engine.demo",
            "median_wall_s": 0.1, "wall_s": [0.1],
        }) + "\n")
        argv = {
            "export": ["obs", "export", "--journal", str(journal)],
            "report": ["obs", "report", "--trajectory", str(trajectory)],
            "analyze": ["obs", "analyze", str(journal)],
        }[subcommand]
        code = self._main([*argv, "--out", str(tmp_path)])
        assert code == 2
        assert f"error: {tmp_path} is a directory" in capsys.readouterr().err

    def test_bench_compare_regression_output_and_crash(self, tmp_path,
                                                       capsys):
        def record(bench, wall):
            return {
                "schema": "repro.obs/bench",
                "version": 1,
                "bench": bench,
                "median_wall_s": wall,
                "wall_s": [wall],
            }

        trajectory = tmp_path / "traj.jsonl"
        with trajectory.open("w") as fh:
            for wall in (0.1, 0.1, 0.1, 0.4):
                fh.write(json.dumps(record("engine.demo", wall)) + "\n")
        code = self._main(
            ["bench", "compare", "--baseline", str(trajectory),
             "--crash-dir", str(tmp_path / "crashes")]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "performance regression" in captured.err
        # satellite: offending metric's baseline/candidate/delta in text
        assert "baseline 100.000ms -> candidate 400.000ms" in captured.err
        assert "delta +300.0%" in captured.err
        reports = list((tmp_path / "crashes").glob("*.json"))
        assert len(reports) == 1
        assert read_crash_report(reports[0])["reason"] == "regression-gate"

        code = self._main(
            ["bench", "compare", "--baseline", str(trajectory),
             "--format", "json"]
        )
        assert code == 1
        verdict = json.loads(capsys.readouterr().out)["verdicts"][0]
        # satellite: JSON mode carries the same numbers
        assert verdict["baseline_wall_s"] == pytest.approx(0.1)
        assert verdict["candidate_wall_s"] == pytest.approx(0.4)
        assert verdict["ratio"] == pytest.approx(4.0)
        assert verdict["delta_pct"] == pytest.approx(300.0)

    def test_knockout_journal_replays_to_metrics_out(
        self, tmp_path, capsys, live_registries
    ):
        journal = tmp_path / "k.jsonl"
        code = self._main(
            ["knockout", "--ports", "8", "--slots", "30",
             "--journal", str(journal)]
        )
        assert code == 0
        snapshot = live_registries[0].snapshot()
        replayed = replay_journal(journal)
        assert replayed["counters"] == snapshot["counters"]
        assert any(k.startswith("knockout.") for k in replayed["counters"])
        assert read_journal(journal)[0]["command"] == "knockout"


class TestJournalTax:
    """The journal is cheap: a journal-on run prints exactly what a
    journal-off run prints, and its hot loops aggregate into histograms
    instead of writing one frame per engine stage."""

    CERTIFY = ["certify", "--max-total", "256", "--max-per-k", "8"]

    def _stdout(self, argv, capsys) -> str:
        from repro.cli import main

        capsys.readouterr()
        assert main(argv) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", [CERTIFY, ["flows", "compare", "--n", "16"]],
        ids=["certify", "flows-compare"],
    )
    def test_journal_on_stdout_is_byte_identical(self, argv, tmp_path, capsys):
        off = self._stdout(argv, capsys)
        on = self._stdout([*argv, "--journal", str(tmp_path / "j.jsonl")],
                          capsys)
        assert on == off

    def test_certify_journal_has_no_engine_spans(self, tmp_path, capsys):
        journal = tmp_path / "c.jsonl"
        self._stdout([*self.CERTIFY, "--format", "json",
                      "--journal", str(journal)], capsys)
        events = read_journal(journal)
        spans = [e["name"] for e in events if e["type"] == "span"]
        configs = spans.count("verify.certify")
        assert configs == 10
        assert not [name for name in spans if name.startswith("engine.")]
        assert len(events) <= 20 * configs
        # the aggregate still says where the engine's time went
        hists = replay_journal(journal)["histograms"]
        assert hists["engine.stage.seconds"]["count"] > \
            hists["engine.run_plan.seconds"]["count"] > 0
