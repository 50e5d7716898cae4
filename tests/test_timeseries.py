"""Bounded decimating timeseries: the Series buffer itself, the
registry/journal/merge plumbing around it, and the flows-facing ends —
instrumented simulators emitting real curves and the ``repro obs
report`` flows section.

A second byte-for-byte golden journal
(``tests/golden/flows_journal_deterministic.jsonl``) pins the
``series`` frame encoding the same way ``journal_deterministic.jsonl``
pins the original frame set: regenerate it with
:func:`deterministic_flows_run` only for intentional format changes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs.live import (
    EventJournal,
    JournalSink,
    merge_portable,
    portable_snapshot,
    read_journal,
    replay_journal,
    roundtrip,
)
from repro.obs.timeseries import DEFAULT_BUDGET, NULL_SERIES, Series

GOLDEN_DIR = Path(__file__).parent / "golden"


class FakeClock:
    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


class TestSeries:
    def test_keeps_everything_under_budget(self):
        series = Series("s", budget=8)
        for i in range(6):
            series.append(float(i * 10), t=float(i))
        assert series.stride == 1
        assert series.points == [(float(i), float(i * 10)) for i in range(6)]
        assert series.count == 6

    def test_decimation_halves_and_doubles_stride(self):
        series = Series("s", budget=8)
        for i in range(100):
            series.append(float(i))
        # budget/2 <= kept <= budget, stride is a power of two
        assert 4 <= len(series.points) <= 8
        assert series.stride & (series.stride - 1) == 0
        assert series.count == 100
        # the kept points are spread across the whole run, not a tail
        # window: the first sample survives every halving
        assert series.points[0] == (0.0, 0.0)
        assert series.points[-1][0] > 50.0
        times = [t for t, _ in series.points]
        assert times == sorted(times)

    def test_decimation_is_a_pure_function_of_the_append_sequence(self):
        a, b = Series("a", budget=16), Series("b", budget=16)
        for i in range(1000):
            value = float((i * 7919) % 257)
            a.append(value, t=float(i))
            b.append(value, t=float(i))
        assert a.as_dict() == b.as_dict()

    def test_default_time_axis_is_the_raw_index(self):
        series = Series("s", budget=4)
        for value in (5.0, 6.0, 7.0):
            series.append(value)
        assert [t for t, _ in series.points] == [0.0, 1.0, 2.0]

    def test_budget_below_two_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            Series("s", budget=1)

    def test_summary_accessors(self):
        series = Series("s", budget=8)
        assert series.last is None and series.max is None
        assert series.mean is None
        for value in (1.0, 9.0, 4.0):
            series.append(value)
        assert series.last == 4.0
        assert series.max == 9.0
        assert series.mean == pytest.approx(14.0 / 3.0)
        assert series.values() == [1.0, 9.0, 4.0]

    def test_as_dict_from_dict_roundtrip(self):
        series = Series("s", budget=8)
        for i in range(50):
            series.append(float(i % 5), t=float(i))
        clone = Series.from_dict("s", json.loads(json.dumps(series.as_dict())))
        assert clone.as_dict() == series.as_dict()
        assert clone.budget == 8
        # the clone keeps decimating from where the original left off
        series.append(99.0, t=99.0)
        clone.append(99.0, t=99.0)
        assert clone.as_dict() == series.as_dict()


class TestRegistrySeries:
    def test_accessor_creates_and_reuses_by_labelled_key(self):
        registry = obs.Registry()
        series = registry.series("flows.queue_depth", fabric="knockout")
        series.append(3.0, t=0.0)
        again = registry.series("flows.queue_depth", fabric="knockout")
        assert again is series
        other = registry.series("flows.queue_depth", fabric="fat-tree")
        assert other is not series
        snapshot = registry.snapshot()
        assert set(snapshot["series"]) == {
            "flows.queue_depth{fabric=fat-tree}",
            "flows.queue_depth{fabric=knockout}",
        }
        assert snapshot["series"]["flows.queue_depth{fabric=knockout}"][
            "points"
        ] == [[0.0, 3.0]]

    def test_default_budget_is_bounded(self):
        registry = obs.Registry()
        series = registry.series("s")
        for i in range(10 * DEFAULT_BUDGET):
            series.append(float(i))
        assert len(series.points) <= DEFAULT_BUDGET

    def test_null_registry_hands_out_null_series(self):
        assert obs.get_registry().series("s") is NULL_SERIES
        # appending to it must be a no-op, not an error
        obs.series("s", fabric="x").append(1.0, t=2.0)
        assert obs.get_registry().snapshot()["series"] == {}

    def test_merge_rekeys_worker_series_like_gauges(self):
        parent = obs.Registry()
        parent.series("flows.queue_depth", fabric="knockout").append(1.0, t=0.0)
        worker = obs.Registry()
        worker.series("flows.queue_depth", fabric="knockout").append(7.0, t=3.0)
        merge_portable(parent, roundtrip(portable_snapshot(worker)), worker="w1")
        snapshot = parent.snapshot()
        assert set(snapshot["series"]) == {
            "flows.queue_depth{fabric=knockout}",
            "flows.queue_depth{fabric=knockout,worker=w1}",
        }
        merged = snapshot["series"]["flows.queue_depth{fabric=knockout,worker=w1}"]
        assert merged["points"] == [[3.0, 7.0]]
        assert merged["count"] == 1


def deterministic_flows_run(path: Path | None):
    """A fully deterministic journaled run that exercises ``series``
    frames (fixed clock, fixed values).  Returns ``(registry,
    journal)``; the golden
    ``tests/golden/flows_journal_deterministic.jsonl`` is this run's
    byte-exact output."""
    clock = FakeClock(start=0.0)
    registry = obs.Registry(clock=clock)
    journal = EventJournal(path, clock=clock, command="flows-golden")
    sink = JournalSink(registry, journal)
    journal.emit("phase", name="flows", total=1)
    queue = registry.series("flows.queue_depth", fabric="knockout")
    for cycle in range(6):
        queue.append(float(cycle % 3), t=float(cycle))
    registry.counter("flows.events", fabric="knockout").inc(6)
    with registry.tracer.span("flows.run", fabric="knockout"):
        clock.tick(0.5)
    sink.flush()
    # a second flush after more appends re-emits the whole buffer
    queue.append(9.0, t=6.0)
    registry.series("flows.cwnd_mean", fabric="knockout").append(2.5, t=6.0)
    sink.flush()
    journal.emit("progress", phase="flows", done=1, total=1)
    sink.close()
    journal.close()
    return registry, journal


class TestJournalSeries:
    def test_golden_flows_journal_is_byte_stable(self, tmp_path):
        path = tmp_path / "flows.jsonl"
        deterministic_flows_run(path)
        golden = GOLDEN_DIR / "flows_journal_deterministic.jsonl"
        assert path.read_bytes() == golden.read_bytes(), (
            "journal series format drifted; if intentional, regenerate "
            "tests/golden/flows_journal_deterministic.jsonl with "
            "tests.test_timeseries.deterministic_flows_run"
        )

    def test_series_frames_replay_to_the_live_snapshot(self, tmp_path):
        path = tmp_path / "flows.jsonl"
        registry, _ = deterministic_flows_run(path)
        replayed = replay_journal(path)
        snapshot = registry.snapshot()
        assert replayed["series"] == snapshot["series"]
        assert replayed["counters"] == snapshot["counters"]

    def test_flush_skips_unchanged_series(self, tmp_path):
        path = tmp_path / "j.jsonl"
        clock = FakeClock()
        registry = obs.Registry(clock=clock)
        journal = EventJournal(path, clock=clock, command="t")
        sink = JournalSink(registry, journal)
        registry.series("s").append(1.0)
        assert sink.flush() == 1
        assert sink.flush() == 0  # no new samples, no new frame
        registry.series("s").append(2.0)
        assert sink.flush() == 1
        journal.close()
        frames = [e for e in read_journal(path) if e["type"] == "series"]
        assert len(frames) == 2
        assert frames[-1]["count"] == 2

    def test_metrics_json_roundtrips_series(self, tmp_path, capsys):
        """``repro obs export`` writes the replayed series as JSON."""
        from repro.cli import main

        journal = tmp_path / "flows.jsonl"
        registry, _ = deterministic_flows_run(journal)
        path = tmp_path / "metrics.json"
        assert main(["obs", "export", "--journal", str(journal),
                     "--out", str(path)]) == 0
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["series"] == registry.snapshot()["series"]


class TestFlowsInstrumentation:
    def test_run_fabric_emits_percycle_series(self):
        from repro.network.flows import run_fabric
        from repro.network.flows.workload import WorkloadSpec

        spec = WorkloadSpec(n=16, load=0.6, duration=30.0, seed=1)
        with obs.collecting() as registry:
            run_fabric("knockout", spec)
        snapshot = registry.snapshot()
        for name in (
            "flows.queue_depth",
            "flows.inflight_cells",
            "flows.cwnd_mean",
            "flows.delivery_rate",
            "flows.fifo_depth",
        ):
            key = f"{name}{{fabric=knockout}}"
            assert key in snapshot["series"], key
            assert snapshot["series"][key]["count"] > 0
        # the time axis is the fabric cycle counter: integral, monotone
        points = snapshot["series"]["flows.queue_depth{fabric=knockout}"][
            "points"
        ]
        times = [t for t, _ in points]
        assert times == sorted(times)

    def test_congestion_policies_emit_series(self):
        from types import SimpleNamespace

        from repro.messages.congestion import BufferPolicy, RetryPolicy

        msgs = [SimpleNamespace(tag=i) for i in range(3)]
        with obs.collecting() as registry:
            buffer_policy = BufferPolicy(capacity=4)
            buffer_policy.on_unrouted(msgs[:2], round_index=0)
            retry = RetryPolicy(seed=0)
            retry.on_unrouted(msgs[2:], round_index=1)
        snapshot = registry.snapshot()
        assert "congestion.queue_depth{policy=BufferPolicy}" in snapshot["series"]
        assert "congestion.inflight{policy=RetryPolicy}" in snapshot["series"]


class TestFlowsRunJournalCLI:
    """A ``repro flows run --journal`` session replays to the live
    registry's exact final snapshot, series frames included."""

    def test_journal_replays_to_metrics_snapshot(
        self, tmp_path, capsys, live_registries
    ):
        from repro.cli import main

        journal = tmp_path / "flows.jsonl"
        code = main(
            ["flows", "run", "--fabric", "knockout", "--n", "16",
             "--load", "0.6", "--duration", "30", "--seed", "1",
             "--journal", str(journal), "--format", "json"]
        )
        assert code == 0
        capsys.readouterr()
        frames = [
            e for e in read_journal(journal) if e["type"] == "series"
        ]
        assert frames, "expected series frames in the flows journal"
        assert any(
            f["key"].startswith("flows.queue_depth") for f in frames
        )
        replayed = replay_journal(journal)
        snapshot = live_registries[0].snapshot()
        assert replayed["series"] == snapshot["series"]
        assert replayed["counters"] == snapshot["counters"]


class TestReportFlowsSection:
    """Satellite: the trajectory report's flows table."""

    def _record(self, bench, throughput, median, meta, started="2026-01-01"):
        return {
            "bench": bench,
            "median_wall_s": median,
            "throughput": throughput,
            "unit": "events",
            "meta": meta,
            "env": {"git_sha": "abc", "python": "3", "numpy": "2",
                    "cpu_count": 4},
            "started_at": started,
        }

    def test_flows_rows_pull_fct_meta_and_trend(self):
        from repro.obs.perf.report import flows_rows

        records = [
            self._record("flows.knockout", 1000.0, 0.2,
                         {"fabric": "knockout", "fct_p50": 12.0,
                          "fct_p99": 80.0}),
            self._record("flows.knockout", 2000.0, 0.1,
                         {"fabric": "knockout", "fct_p50": 11.0,
                          "fct_p99": 70.0}),
            self._record("engine.batch", 5.0, 0.3, {}),
        ]
        rows = flows_rows(records)
        assert len(rows) == 1
        row = rows[0]
        assert row["bench"] == "flows.knockout"
        assert row["fct p50"] == "11"
        assert row["fct p99"] == "70"
        assert len(row["trend"]) == 2

    def test_trajectory_report_renders_flows_section(self):
        from repro.obs.perf.report import trajectory_report

        records = [
            self._record("flows.knockout", 1500.0, 0.2,
                         {"fabric": "knockout", "fct_p50": 12.0,
                          "fct_p99": 80.0}),
        ]
        for fmt in ("table", "md"):
            text = trajectory_report(records, fmt=fmt)
            assert "flows" in text.lower()
            assert "knockout" in text
            assert "cpus=4" in text

    def test_missing_fct_meta_renders_dashes(self):
        from repro.obs.perf.report import flows_rows

        rows = flows_rows(
            [self._record("flows.concentrator", None, 0.2, {})]
        )
        assert rows[0]["fct p50"] == "-"
        assert rows[0]["events/s"] == "-"
