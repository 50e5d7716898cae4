"""Tests for the repro.obs observability layer.

Covers the registry primitives (counters/gauges/histograms), span
nesting, the zero-cost no-op guarantee (instrumented code produces
byte-identical simulation results with obs disabled), JSON export
round-trips, run-metadata records, and the metric-name catalog.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.messages.congestion import BufferPolicy, DropPolicy, ResendPolicy
from repro.network.simulate import SwitchSimulation
from repro.network.traffic import BernoulliTraffic
from repro.switches.revsort_switch import RevsortSwitch


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts and ends with the null registry installed."""
    obs.uninstall()
    yield
    obs.uninstall()


def _run_simulation(policy=None, rounds=12, seed=7):
    switch = RevsortSwitch(64, 48)
    traffic = BernoulliTraffic(64, p=0.9, seed=seed)
    return SwitchSimulation(
        switch, traffic, policy if policy is not None else DropPolicy(), seed=seed
    ).run(rounds)


class TestCounters:
    def test_inc_accumulates(self):
        reg = obs.Registry()
        reg.counter("x").inc()
        reg.counter("x").inc(4)
        assert reg.counter("x").value == 5

    def test_counter_cannot_decrease(self):
        with pytest.raises(ValueError):
            obs.Registry().counter("x").inc(-1)

    def test_labels_split_series(self):
        reg = obs.Registry()
        reg.counter("hits", switch="A").inc()
        reg.counter("hits", switch="B").inc(2)
        snap = reg.snapshot()["counters"]
        assert snap == {"hits{switch=A}": 1, "hits{switch=B}": 2}

    def test_metric_key_sorts_labels(self):
        assert obs.metric_key("m", {"b": 1, "a": 2}) == "m{a=2,b=1}"
        assert obs.metric_key("m", {}) == "m"


class TestGauges:
    def test_set_inc_dec(self):
        reg = obs.Registry()
        g = reg.gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert reg.snapshot()["gauges"]["depth"] == 12


class TestHistograms:
    def test_summary_stats(self):
        reg = obs.Registry()
        h = reg.histogram("t")
        for v in (1, 2, 4, 8):
            h.observe(v)
        d = reg.snapshot()["histograms"]["t"]
        assert d["count"] == 4
        assert d["sum"] == 15
        assert d["min"] == 1 and d["max"] == 8
        assert d["mean"] == pytest.approx(3.75)

    def test_magnitude_buckets(self):
        assert obs.bucket_key(0) == "0"
        assert obs.bucket_key(1) == "2^0"
        assert obs.bucket_key(3) == "2^1"
        assert obs.bucket_key(1024) == "2^10"
        assert obs.bucket_key(0.25) == "2^-2"
        assert obs.bucket_key(-1) == "neg"

    def test_bucket_census(self):
        reg = obs.Registry()
        h = reg.histogram("t")
        for v in (1, 1.5, 3, 0):
            h.observe(v)
        assert h.buckets == {"2^0": 2, "2^1": 1, "0": 1}

    def test_empty_histogram_exports_none_bounds(self):
        d = obs.Registry().histogram("t").as_dict()
        assert d["min"] is None and d["max"] is None and d["count"] == 0


class TestSpans:
    def test_nesting_records_paths(self):
        reg = obs.Registry()
        with reg.span("outer"):
            with reg.span("inner"):
                pass
            with reg.span("inner"):
                pass
        events = reg.tracer.events
        assert [e.path for e in events] == ["outer/inner", "outer/inner", "outer"]
        assert [e.depth for e in events] == [1, 1, 0]
        assert all(e.duration_s >= 0 for e in events)

    def test_span_feeds_seconds_histogram(self):
        reg = obs.Registry()
        with reg.span("work", step=3):
            pass
        hist = reg.snapshot()["histograms"]["work.seconds"]
        assert hist["count"] == 1
        assert reg.tracer.events[0].meta == {"step": 3}

    def test_trace_buffer_is_bounded(self):
        reg = obs.Registry(max_trace_events=2)
        for _ in range(5):
            with reg.span("s"):
                pass
        assert len(reg.tracer.events) == 2
        assert reg.tracer.dropped == 3
        # aggregate stats keep counting past the buffer cap
        assert reg.snapshot()["histograms"]["s.seconds"]["count"] == 5

    def test_stack_unwinds_on_exception(self):
        reg = obs.Registry()
        with pytest.raises(RuntimeError):
            with reg.span("outer"):
                raise RuntimeError("boom")
        assert reg.tracer.active_depth == 0
        assert reg.tracer.events[0].name == "outer"


class FakeClock:
    """A manually advanced clock for sleep-free timing assertions."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


class TestClockInjection:
    """Span timing with an injected clock — no real sleeps anywhere."""

    def test_span_duration_is_clock_delta(self):
        clock = FakeClock()
        tracer = obs.Tracer(clock=clock)
        with tracer.span("work"):
            clock.tick(2.5)
        event = tracer.events[0]
        assert event.start == 100.0
        assert event.duration_s == pytest.approx(2.5)

    def test_nested_spans_time_their_own_regions(self):
        clock = FakeClock()
        tracer = obs.Tracer(clock=clock)
        with tracer.span("outer"):
            clock.tick(1.0)
            with tracer.span("inner"):
                clock.tick(3.0)
            clock.tick(1.0)
        by_name = {e.name: e for e in tracer.events}
        assert by_name["inner"].duration_s == pytest.approx(3.0)
        assert by_name["outer"].duration_s == pytest.approx(5.0)
        # the child's interval is contained in the parent's — the
        # invariant Chrome-trace nesting relies on
        inner, outer = by_name["inner"], by_name["outer"]
        assert outer.start <= inner.start
        assert (inner.start + inner.duration_s
                <= outer.start + outer.duration_s)

    def test_sequential_spans_are_monotonic(self):
        clock = FakeClock()
        tracer = obs.Tracer(clock=clock)
        for _ in range(4):
            with tracer.span("step"):
                clock.tick(0.5)
        starts = [e.start for e in tracer.events]
        assert starts == sorted(starts)
        ends = [e.start + e.duration_s for e in tracer.events]
        for end, next_start in zip(ends, starts[1:]):
            assert next_start >= end

    def test_registry_histogram_uses_injected_clock(self):
        clock = FakeClock()
        reg = obs.Registry(clock=clock)
        with reg.span("work"):
            clock.tick(4.0)
        hist = reg.snapshot()["histograms"]["work.seconds"]
        assert hist["sum"] == pytest.approx(4.0)
        assert reg.tracer.events[0].duration_s == pytest.approx(4.0)

    def test_zero_elapsed_clock_gives_zero_duration(self):
        tracer = obs.Tracer(clock=FakeClock())
        with tracer.span("instant"):
            pass
        assert tracer.events[0].duration_s == 0.0


class TestInstallation:
    def test_null_by_default(self):
        assert not obs.enabled()
        assert obs.get_registry() is obs.NULL_REGISTRY

    def test_collecting_restores_previous(self):
        with obs.collecting() as reg:
            assert obs.get_registry() is reg
            assert obs.enabled()
        assert obs.get_registry() is obs.NULL_REGISTRY

    def test_collecting_nests(self):
        with obs.collecting() as outer:
            with obs.collecting() as inner:
                obs.counter("x").inc()
                assert obs.get_registry() is inner
            assert obs.get_registry() is outer
        assert inner.snapshot()["counters"] == {"x": 1}
        assert outer.snapshot()["counters"] == {}

    def test_install_returns_previous(self):
        reg = obs.Registry()
        prev = obs.install(reg)
        assert prev is obs.NULL_REGISTRY
        assert obs.uninstall() is reg

    def test_memoised_handles_follow_registry_swaps_and_reset(self):
        """``setup_batch`` and plan-cache hits count through handles
        resolved once per registry: each ``using`` scope still counts
        into its own registry, and ``reset`` drops the handles."""
        valid = np.ones((3, 16), dtype=bool)
        trials = "engine.batch_trials{switch=RevsortSwitch}"
        hits = "engine.plan_cache.hit{kind=revsort}"
        RevsortSwitch(16, 12).setup_batch(valid)  # compile and cache the plan
        first, second = obs.Registry(), obs.Registry()
        for reg in (first, second, first):
            with obs.using(reg):
                RevsortSwitch(16, 12).setup_batch(valid)
        assert first.snapshot()["counters"][trials] == 6
        assert second.snapshot()["counters"][trials] == 3
        assert first.snapshot()["counters"][hits] == 2
        assert second.snapshot()["counters"][hits] == 1
        first.reset()
        with obs.using(first):
            RevsortSwitch(16, 12).setup_batch(valid)
        assert first.snapshot()["counters"][trials] == 3

    def test_null_registry_is_inert(self):
        obs.counter("x").inc(100)
        obs.gauge("g").set(5)
        obs.histogram("h").observe(1.0)
        with obs.span("s"):
            pass
        assert obs.NULL_REGISTRY.snapshot()["counters"] == {}


class TestNoOpParity:
    """Obs disabled vs enabled must not change simulation results."""

    @pytest.mark.parametrize("policy_cls", [DropPolicy, BufferPolicy, ResendPolicy])
    def test_switch_simulation_identical(self, policy_cls):
        plain = _run_simulation(policy_cls())
        with obs.collecting():
            instrumented = _run_simulation(policy_cls())
        assert plain == instrumented

    def test_event_sim_identical(self):
        from repro.gates.event_sim import EventSimulator
        from repro.gates.hyperconc_gates import build_hyperconcentrator

        circuit = build_hyperconcentrator(8, with_datapath=False)
        rng = np.random.default_rng(3)
        old = rng.random(8) < 0.5
        new = rng.random(8) < 0.5
        r1 = EventSimulator(circuit).transition(old, new)
        with obs.collecting():
            r2 = EventSimulator(circuit).transition(old, new)
        assert r1.settle_time == r2.settle_time
        assert np.array_equal(r1.final_values, r2.final_values)
        assert np.array_equal(r1.transitions_per_wire, r2.transitions_per_wire)

    def test_instrumentation_consumes_no_rng(self):
        # Two identically seeded runs, one instrumented, must drive the
        # backlog shuffle RNG identically.
        p1 = BufferPolicy(capacity=4)
        s1 = _run_simulation(p1, rounds=20)
        with obs.collecting():
            p2 = BufferPolicy(capacity=4)
            s2 = _run_simulation(p2, rounds=20)
        assert s1.per_round == s2.per_round
        assert p1.depth_history == p2.depth_history


class TestSimulationMetrics:
    def test_counters_match_summary(self):
        with obs.collecting() as reg:
            summary = _run_simulation(BufferPolicy(capacity=3), rounds=15)
        counters = reg.snapshot()["counters"]
        assert counters["sim.rounds"] == summary.rounds
        assert counters["sim.offered"] == summary.offered
        assert counters["sim.delivered"] == summary.delivered
        assert counters["sim.lost"] == summary.lost
        assert counters["sim.retried"] == summary.retried

    def test_round_spans_nested_under_run(self):
        with obs.collecting() as reg:
            _run_simulation(rounds=5)
        paths = [e.path for e in reg.tracer.events]
        assert paths.count("sim.run/sim.round") == 5
        assert paths[-1] == "sim.run"
        hist = reg.snapshot()["histograms"]
        assert hist["sim.round.seconds"]["count"] == 5
        assert hist["sim.run.seconds"]["count"] == 1

    def test_congestion_counters_labelled_by_policy(self):
        with obs.collecting() as reg:
            _run_simulation(ResendPolicy(ack_timeout=1, max_retries=1), rounds=15)
        counters = reg.snapshot()["counters"]
        assert counters.get("congestion.retried{policy=ResendPolicy}", 0) > 0

    def test_knockout_counters_match_stats(self):
        from repro.network.knockout import KnockoutSwitch, uniform_packet_traffic

        with obs.collecting() as reg:
            switch = KnockoutSwitch(8, 2, buffer_depth=2)
            for packets in uniform_packet_traffic(8, 0.9, 40, seed=5):
                switch.step(packets)
        counters = reg.snapshot()["counters"]
        assert counters["knockout.offered"] == switch.stats.offered
        assert counters["knockout.knocked_out"] == switch.stats.knocked_out
        assert counters["knockout.buffer_overflow"] == switch.stats.buffer_overflow
        assert counters["knockout.delivered"] == switch.stats.delivered

    def test_serial_transit_metrics(self):
        from repro.messages.message import Message
        from repro.messages.serial_sim import BitSerialSimulator

        switch = RevsortSwitch(16, 12)
        messages = [Message.from_int(i, 8) if i < 6 else None for i in range(16)]
        with obs.collecting() as reg:
            record = BitSerialSimulator(switch).transit(messages)
        snap = reg.snapshot()
        assert snap["counters"]["serial.transits"] == 1
        assert snap["counters"]["serial.cycles"] == record.cycles == 9
        assert snap["histograms"]["serial.transit_cycles"]["count"] == 1
        assert snap["histograms"]["serial.transit.seconds"]["count"] == 1


class TestSummaryConsistency:
    """The satellite fix: legacy summary and per-round records agree."""

    @pytest.mark.parametrize(
        "policy_cls,kwargs",
        [
            (DropPolicy, {}),
            (BufferPolicy, {"capacity": 3}),
            (ResendPolicy, {"ack_timeout": 1, "max_retries": 2}),
        ],
    )
    def test_per_round_totals_match(self, policy_cls, kwargs):
        policy = policy_cls(**kwargs)
        summary = _run_simulation(policy, rounds=25)
        assert summary.lost == sum(r.lost for r in summary.per_round)
        assert summary.retried == sum(r.retried for r in summary.per_round)
        assert summary.lost == policy.stats.dropped
        for r in summary.per_round:
            assert r.unrouted == r.lost + r.retried

    def test_drop_policy_loses_every_unrouted(self):
        summary = _run_simulation(DropPolicy(), rounds=10)
        assert summary.retried == 0
        assert summary.lost == sum(r.unrouted for r in summary.per_round)


class TestExport:
    def _collected(self):
        with obs.collecting() as reg:
            _run_simulation(rounds=4)
        return reg

    def test_json_round_trip(self, tmp_path, capsys):
        """A journaled run, exported by ``repro obs export``, reads back
        as the live registry's snapshot."""
        from repro.cli import main
        from repro.obs.live import EventJournal, JournalSink

        journal = tmp_path / "run.jsonl"
        with EventJournal(journal) as events, obs.collecting() as reg:
            sink = JournalSink(reg, events)
            _run_simulation(rounds=4)
            sink.close()
        path = tmp_path / "metrics.json"
        assert main(["obs", "export", "--journal", str(journal),
                     "--out", str(path)]) == 0
        back = json.loads(path.read_text(encoding="utf-8"))
        snapshot = json.loads(json.dumps(reg.snapshot()))
        assert back["counters"] == snapshot["counters"]
        assert back["gauges"] == snapshot["gauges"]
        assert back["spans"] == snapshot["spans"]
        for key, hist in snapshot["histograms"].items():
            assert back["histograms"][key]["count"] == hist["count"]

    def test_rejects_foreign_json(self, tmp_path):
        """The snapshot's one source, the journal, refuses other JSON."""
        from repro.errors import ConfigurationError
        from repro.obs.live import replay_journal

        target = tmp_path / "x.json"
        target.write_text("{}")
        with pytest.raises(ConfigurationError):
            replay_journal(target)

    def test_markdown_render(self):
        reg = self._collected()
        md = obs.metrics_markdown(reg.snapshot())
        assert "`sim.delivered`" in md
        assert "**Histograms**" in md
        assert "**Slowest spans**" in md

    def test_markdown_empty_snapshot(self):
        assert "no metrics" in obs.metrics_markdown(obs.NULL_REGISTRY.snapshot())

    def test_report_builder_integration(self):
        from repro.analysis.reporting import ReportBuilder

        reg = self._collected()
        builder = ReportBuilder(title="t")
        builder.add_metrics("Metrics", reg.snapshot(), note="collected by obs")
        text = builder.render()
        assert "## Metrics" in text
        assert "`sim.rounds`" in text
        assert "collected by obs" in text


class TestRunMetadata:
    def test_record_shape(self):
        with obs.collecting() as reg:
            _run_simulation(rounds=3)
        record = obs.run_metadata(
            run_id="tests::demo", seed=7, wall_s=0.5, registry=reg
        )
        assert record["run_id"] == "tests::demo"
        assert record["seed"] == 7
        assert record["wall_s"] == 0.5
        assert record["metrics"]["counters"]["sim.rounds"] == 3
        assert isinstance(record["metrics"]["span_events"], int)
        assert "spans" not in record["metrics"]
        json.dumps(record)  # must be JSON-serialisable

    def test_git_sha_in_repo(self):
        sha = obs.git_sha()
        assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))

    def test_git_dirty_flag(self):
        dirty = obs.git_dirty()
        assert dirty is None or isinstance(dirty, bool)
        # sha and dirty come from the same checkout: both known or both not
        assert (obs.git_sha() is None) == (dirty is None)

    def test_environment_block(self):
        import platform

        env = obs.environment()
        assert set(env) == {
            "git_sha", "git_dirty", "python", "numpy", "platform", "cpu_count",
        }
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["cpu_count"] == os.cpu_count()
        json.dumps(env)

    def test_record_carries_environment(self):
        record = obs.run_metadata(run_id="tests::env", seed=None, wall_s=0.1)
        assert record["version"] == 3
        assert record["numpy"] == np.__version__
        assert "git_dirty" in record
        assert record["git_sha"] == obs.git_sha()


class TestCatalog:
    def test_emitted_metrics_are_cataloged(self):
        """Every metric the instrumented stack emits appears in the
        catalog (guards against namespace drift)."""
        from repro.network.knockout import knockout_loss_curve

        with obs.collecting() as reg:
            _run_simulation(BufferPolicy(capacity=2), rounds=6)
            knockout_loss_curve(8, loads=[0.9], l_values=[2], slots=10, seed=1)
        snapshot = reg.snapshot()
        known = set(obs.metric_names())
        emitted = list(snapshot["counters"]) + list(snapshot["histograms"])
        for key in emitted:
            base = key.split("{")[0]
            if base.endswith(".seconds"):
                base = base[: -len(".seconds")]
            assert base in known, f"{key} missing from repro.obs.catalog"

    def test_catalog_rows_renderable(self):
        rows = obs.catalog_rows()
        assert {"metric", "kind", "labels", "description"} == set(rows[0])
        assert len(rows) > 20
