"""Tests for the performance observatory (repro.obs.perf).

Covers the trajectory store, the noise-aware regression detector (and
its edge cases: empty baseline, single repeat, exact tie), the
Chrome-trace exporter, the bench-suite runner, the engine's per-stage
timing histograms, and the ``repro bench`` / ``repro obs report`` CLI —
including the acceptance check that an injected slowdown in the batch
executor trips ``bench compare``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs.perf import (
    chrometrace,
    regression,
    report,
    suite,
    trajectory,
)
from repro.obs.tracing import SpanRecord

REPO_ROOT = Path(__file__).resolve().parents[1]


def _record(bench: str, median: float, **over) -> dict:
    base = trajectory.new_record(
        bench=bench,
        suite="smoke",
        unit="trials",
        repeats=3,
        wall_s=[median, median, median],
        median_wall_s=median,
        best_wall_s=median,
        work=64,
        throughput=64 / median if median else None,
        rss_peak_kb=1000,
        alloc_peak_kb=10,
        alloc_blocks=5,
        plan_cache={"hits": 3, "misses": 0, "hit_rate": 1.0},
        span_seconds={},
        meta={},
        env={"git_sha": "a" * 40, "git_dirty": False, "python": "3",
             "numpy": "2", "platform": "test"},
        seed=7,
        started_at="2026-01-01T00:00:00+0000",
    )
    base.update(over)
    return base


class TestTrajectory:
    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        first = [_record("a", 0.1), _record("b", 0.2)]
        trajectory.append_records(path, first)
        trajectory.append_records(path, [_record("a", 0.3)])
        records = trajectory.read_trajectory(path)
        assert [r["bench"] for r in records] == ["a", "b", "a"]
        assert records[0] == first[0]  # append never rewrites old lines

    def test_append_rejects_foreign_schema(self, tmp_path):
        with pytest.raises(ConfigurationError):
            trajectory.append_records(tmp_path / "t.jsonl", [{"schema": "x"}])

    def test_read_rejects_foreign_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"schema": "not-a-bench"}\n')
        with pytest.raises(ConfigurationError, match="not a repro.obs/bench"):
            trajectory.read_trajectory(path)

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no trajectory"):
            trajectory.read_trajectory(tmp_path / "absent.jsonl")

    def test_split_latest(self):
        records = [_record("a", 0.1), _record("b", 0.2), _record("a", 0.3)]
        candidates, history = trajectory.split_latest(records)
        assert candidates["a"]["median_wall_s"] == 0.3
        assert candidates["b"]["median_wall_s"] == 0.2
        assert history == [records[0]]

    def test_committed_seed_baseline(self):
        """The repo ships the legacy engine report's rows, backfilled,
        as record 0, so `repro bench compare` always has a baseline
        file."""
        records = trajectory.read_trajectory(REPO_ROOT / "BENCH_TRAJECTORY.jsonl")
        assert len(records) >= 4
        benches = {r["bench"] for r in records}
        assert "engine.columnsort-n4096" in benches
        assert all(r["meta"].get("backfilled_from") == "BENCH_engine.json"
                   for r in records[:4])


class TestRegression:
    def test_host_ref_normalises_a_slower_host(self):
        # Same code on a host half as fast: twice the wall time, twice
        # the reference-loop time -> no regression once normalised.
        history = [_record("a", 0.1, host_ref_s=0.05)]
        candidate = {"a": _record("a", 0.2, host_ref_s=0.1)}
        (verdict,) = regression.compare_records(candidate, history)
        assert verdict.normalised and verdict.status == "ok"
        assert verdict.ratio == pytest.approx(1.0)
        assert verdict.baseline_wall_s == pytest.approx(0.2)
        assert verdict.as_dict()["normalised"] is True
        # the raw comparison of the same pair is a 2x regression
        raw = {"a": _record("a", 0.2)}
        (verdict,) = regression.compare_records(raw, history)
        assert not verdict.normalised and verdict.status == "regression"

    def test_host_ref_baseline_uses_only_stamped_history(self):
        history = [_record("a", 9.0), _record("a", 0.1, host_ref_s=0.05)]
        candidate = {"a": _record("a", 0.1, host_ref_s=0.05)}
        (verdict,) = regression.compare_records(candidate, history)
        assert verdict.normalised and verdict.window == 1
        assert verdict.status == "ok"

    def test_run_bench_stamps_host_ref(self):
        spec = suite.suite_specs("smoke", contains="hyper")[0]
        record = suite.run_bench(spec, suite="smoke", repeats=1, alloc=False)
        assert record["host_ref_s"] > 0

    def test_empty_baseline_passes(self):
        verdicts = regression.compare_records({"a": _record("a", 0.1)}, [])
        assert [v.status for v in verdicts] == ["no-baseline"]
        assert not regression.has_regressions(verdicts)

    def test_single_repeat_record(self):
        cand = _record("a", 0.1, repeats=1, wall_s=[0.1])
        verdicts = regression.compare_records(
            {"a": cand}, [_record("a", 0.1, repeats=1, wall_s=[0.1])]
        )
        assert verdicts[0].status == "ok"
        assert verdicts[0].ratio == 1.0

    def test_exact_tie_is_ok(self):
        verdicts = regression.compare_records(
            {"a": _record("a", 0.0)}, [_record("a", 0.0)]
        )
        assert verdicts[0].status == "ok"

    def test_zero_baseline_nonzero_candidate_regresses(self):
        verdicts = regression.compare_records(
            {"a": _record("a", 0.1)}, [_record("a", 0.0)]
        )
        assert verdicts[0].status == "regression"
        assert verdicts[0].ratio is None

    def test_two_x_slowdown_regresses(self):
        verdicts = regression.compare_records(
            {"a": _record("a", 0.2)}, [_record("a", 0.1)]
        )
        assert verdicts[0].status == "regression"
        assert verdicts[0].ratio == pytest.approx(2.0)
        assert regression.has_regressions(verdicts)

    def test_improvement_and_noise_band(self):
        verdicts = regression.compare_records(
            {"fast": _record("fast", 0.04), "noisy": _record("noisy", 0.13)},
            [_record("fast", 0.1), _record("noisy", 0.1)],
        )
        by_bench = {v.bench: v for v in verdicts}
        assert by_bench["fast"].status == "improvement"
        assert by_bench["noisy"].status == "ok"

    def test_window_uses_trailing_median(self):
        history = [_record("a", w) for w in (0.1, 0.1, 10.0, 0.1, 0.1)]
        verdicts = regression.compare_records(
            {"a": _record("a", 0.12)}, history, window=5
        )
        # median of the window is 0.1 — one historic outlier cannot
        # poison the baseline.
        assert verdicts[0].baseline_wall_s == pytest.approx(0.1)
        assert verdicts[0].status == "ok"
        # a window of 1 sees only the newest historic record
        verdicts = regression.compare_records(
            {"a": _record("a", 0.12)}, history[:3], window=1
        )
        assert verdicts[0].baseline_wall_s == pytest.approx(10.0)
        assert verdicts[0].status == "improvement"

    def test_bad_options(self):
        with pytest.raises(ConfigurationError):
            regression.compare_records({}, [], tolerance=-0.1)
        with pytest.raises(ConfigurationError):
            regression.compare_records({}, [], window=0)

    def test_regressions_sort_first(self):
        verdicts = regression.compare_records(
            {"ok": _record("ok", 0.1), "bad": _record("bad", 0.9)},
            [_record("ok", 0.1), _record("bad", 0.1)],
        )
        assert verdicts[0].bench == "bad"
        assert verdicts[0].regressed


class TestChromeTrace:
    SPANS = [
        SpanRecord("outer", "outer", 0, start=10.0, duration_s=0.5),
        SpanRecord("inner", "outer/inner", 1, start=10.1,
                   duration_s=0.2, meta={"layer": 0}),
    ]

    def test_events_rebased_to_microseconds(self):
        events = chrometrace.chrome_trace_events(self.SPANS)
        assert [e["name"] for e in events] == ["outer", "inner"]
        assert events[0]["ts"] == 0.0
        assert events[0]["dur"] == pytest.approx(5e5)
        assert events[1]["ts"] == pytest.approx(1e5)
        assert events[1]["args"]["layer"] == 0
        assert events[1]["args"]["path"] == "outer/inner"
        assert all(e["ph"] == "X" for e in events)

    def test_document_and_write(self, tmp_path):
        path = tmp_path / "trace.json"
        chrometrace.write_chrome_trace(
            {"events": [s.as_dict() for s in self.SPANS], "dropped": 3},
            path,
            metadata={"switch": "demo"},
        )
        document = json.loads(path.read_text())
        assert document["otherData"]["switch"] == "demo"
        assert document["otherData"]["dropped_spans"] == 3
        phases = {e["ph"] for e in document["traceEvents"]}
        assert phases == {"M", "X"}
        names = [e["name"] for e in document["traceEvents"] if e["ph"] == "M"]
        assert "process_name" in names and "thread_name" in names

    def test_empty_spans(self):
        assert chrometrace.chrome_trace_events([]) == []
        document = chrometrace.chrome_trace_document([])
        assert all(e["ph"] == "M" for e in document["traceEvents"])


class TestSuite:
    def test_suite_registry_shape(self):
        assert set(suite.suite_names()) == {"smoke", "full", "scaling", "flows"}
        flows = suite.suite_specs("flows")
        assert {s.id for s in flows} == {
            f"flows.{fabric}-n64"
            for fabric in ("concentrator", "fattree", "knockout", "rotor")
        }
        smoke = suite.suite_specs("smoke")
        assert {s.id for s in smoke} >= {
            "engine.columnsort-n256",
            "quality.thm4-columnsort-n256",
            "certify.revsort-n16",
        }
        only = suite.suite_specs("smoke", contains="hyper")
        assert [s.id for s in only] == ["engine.hyper-n256"]
        with pytest.raises(ConfigurationError):
            suite.suite_specs("nope")

    def test_run_bench_record_shape(self):
        spec = suite.suite_specs("smoke", contains="engine.columnsort")[0]
        record = suite.run_bench(spec, suite="smoke", repeats=2, alloc=True)
        assert record["schema"] == trajectory.TRAJECTORY_SCHEMA
        assert record["bench"] == spec.id
        assert len(record["wall_s"]) == 2
        assert record["median_wall_s"] > 0
        assert record["throughput"] > 0
        assert record["plan_cache"]["hit_rate"] == 1.0  # warmed in make()
        assert record["alloc_peak_kb"] is not None
        assert record["alloc_blocks"] is not None
        assert "engine.stage.seconds" in record["span_seconds"]
        assert record["span_seconds"]["bench.repeat.seconds"]["count"] == 2
        assert record["env"]["numpy"] == np.__version__
        json.dumps(record)  # JSONL-ready

    def test_quality_bench_meta_has_theory_lines(self):
        spec = suite.suite_specs("smoke", contains="thm4")[0]
        record = suite.run_bench(spec, suite="smoke", repeats=1, alloc=False)
        meta = record["meta"]
        assert meta["gate_delays"] > 0
        assert meta["theory_delays"] == pytest.approx(4 * 0.75 * 8)  # 4b lg 256
        assert record["alloc_peak_kb"] is None  # alloc pass skipped

    def test_scalar_benches_check_against_setup_batch(self, monkeypatch):
        from repro.engine.batch import BatchRouting
        from repro.errors import RoutingError
        from repro.switches.revsort_switch import RevsortSwitch

        full = {s.id for s in suite.suite_specs("full", contains="scalar.")}
        assert full == {"scalar.revsort-n4096", "scalar.columnsort-n4096"}
        workload = suite._scalar_factory(suite._revsort(64, 48), trials=8)()
        assert workload.run(np.random.default_rng(1)) == 8
        workload.check()  # scalar loop and batch agree

        original = RevsortSwitch.setup_batch

        def off_by_one(self, valid):
            batch = original(self, valid)
            routing = batch.input_to_output.copy()
            routing[3] = np.roll(routing[3], 1)
            return BatchRouting(batch.n_inputs, batch.n_outputs,
                                batch.valid, routing)

        monkeypatch.setattr(RevsortSwitch, "setup_batch", off_by_one)
        with pytest.raises(RoutingError, match="1 of 8 trials"):
            workload.check()

    def test_run_bench_rejects_zero_repeats(self):
        spec = suite.suite_specs("smoke")[0]
        with pytest.raises(ConfigurationError):
            suite.run_bench(spec, suite="smoke", repeats=0)


class TestEngineSpans:
    """The plan walkers open no spans: they observe the ``.seconds``
    histograms, once per call and once per layer."""

    @staticmethod
    def _observations(registry) -> tuple[list[str], int, int]:
        snapshot = registry.snapshot()
        hists = snapshot["histograms"]
        return (
            [e["name"] for e in snapshot["spans"]["events"]],
            hists["engine.run_plan.seconds"]["count"],
            hists["engine.stage.seconds"]["count"],
        )

    def test_default_observes_histograms_not_spans(self):
        from repro.engine.batch import _compile_steps
        from repro.switches.columnsort_switch import ColumnsortSwitch

        switch = ColumnsortSwitch.from_beta(256, 0.75, 192)
        valid = np.zeros((4, 256), dtype=bool)
        valid[:, :64] = True
        switch.setup_batch(valid)
        steps, _ = _compile_steps(switch._plan)
        with obs.collecting() as registry:
            for _ in range(3):
                switch.setup_batch(valid)
        spans, plan_count, stage_count = self._observations(registry)
        assert spans == []
        assert plan_count == 3
        assert stage_count == 3 * len(steps)

    def test_default_comparator_plan_observations(self):
        from repro.switches.bitonic import BitonicHyperconcentrator, _bitonic_plan

        switch = BitonicHyperconcentrator(16)
        valid = np.zeros((2, 16), dtype=bool)
        valid[:, :5] = True
        switch.setup_batch(valid)
        with obs.collecting() as registry:
            switch.setup_batch(valid)
            switch.setup_batch(valid)
        spans, plan_count, stage_count = self._observations(registry)
        assert spans == []
        assert plan_count == 2
        assert stage_count == 2 * len(_bitonic_plan(16).stages)

    def test_new_metrics_are_cataloged(self):
        known = set(obs.metric_names())
        for name in ("engine.run_plan.seconds", "engine.stage.seconds",
                     "bench.repeat"):
            assert name in known


class TestBenchCli:
    ARGS = [
        "bench", "run", "--suite", "smoke", "--filter",
        "engine.columnsort-n256", "--repeats", "1", "--no-alloc",
    ]

    def test_run_then_compare_ok(self, tmp_path, capsys):
        out = tmp_path / "traj.jsonl"
        assert main([*self.ARGS, "--out", str(out)]) == 0
        assert "record(s) appended" in capsys.readouterr().out
        # first record: no baseline yet, still exit 0
        assert main(["bench", "compare", "--baseline", str(out)]) == 0
        assert "no-baseline" in capsys.readouterr().out
        # The same record again must judge ok.  It is re-appended, not
        # re-run: two single-repeat runs of a sub-millisecond bench can
        # differ by more than the tolerance on a noisy host.  The real
        # timing path is exercised by test_injected_slowdown_trips_the_gate.
        first = trajectory.read_trajectory(out)
        trajectory.append_records(out, first)
        assert main(["bench", "compare", "--baseline", str(out)]) == 0
        assert "REGRESSION" not in capsys.readouterr().out
        assert len(trajectory.read_trajectory(out)) == 2

    def test_injected_slowdown_trips_the_gate(self, tmp_path, capsys,
                                              monkeypatch):
        """Acceptance: a 2x slowdown in the batch executor makes
        `repro bench compare` exit nonzero."""
        import repro.engine.batch as batch_mod

        out = tmp_path / "traj.jsonl"
        assert main([*self.ARGS, "--out", str(out)]) == 0

        original = batch_mod._run_plan_sparse_flat

        def handicapped(plan, valid):
            time.sleep(0.02)  # >> the ~1ms genuine workload => >2x
            return original(plan, valid)

        monkeypatch.setattr(batch_mod, "_run_plan_sparse_flat", handicapped)
        assert main([*self.ARGS, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["bench", "compare", "--baseline", str(out)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "performance regression" in captured.err
        # warn-only mode reports but exits 0 (the CI smoke contract)
        assert main(["bench", "compare", "--baseline", str(out),
                     "--warn-only"]) == 0

    def test_compare_json_format_and_candidate_file(self, tmp_path, capsys):
        baseline = tmp_path / "base.jsonl"
        candidate = tmp_path / "cand.jsonl"
        trajectory.append_records(baseline, [_record("a", 0.1)])
        trajectory.append_records(candidate, [_record("a", 0.3)])
        code = main([
            "bench", "compare", "--baseline", str(baseline),
            "--candidate", str(candidate), "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["verdicts"][0]["status"] == "regression"
        assert payload["verdicts"][0]["ratio"] == pytest.approx(3.0)

    def test_compare_missing_file_is_cli_error(self, tmp_path, capsys):
        code = main(["bench", "compare", "--baseline",
                     str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestObsCli:
    def test_report_table_and_md(self, tmp_path, capsys):
        traj = tmp_path / "traj.jsonl"
        trajectory.append_records(traj, [
            _record("engine.demo", 0.1),
            _record("engine.demo", 0.08),
            _record(
                "quality.demo", 0.2,
                meta={"n": 256, "family": "revsort", "gate_delays": 31,
                      "theory_delays": 24.0},
            ),
        ])
        assert main(["obs", "report", "--trajectory", str(traj)]) == 0
        text = capsys.readouterr().out
        assert "bench trajectory" in text
        assert "3 lg n = 24" in text
        md_out = tmp_path / "report.md"
        assert main(["obs", "report", "--trajectory", str(traj),
                     "--format", "md", "--out", str(md_out)]) == 0
        assert "# Bench trajectory" in md_out.read_text()

    def test_plain_obs_still_lists_catalog(self, capsys):
        assert main(["obs"]) == 0
        assert "metric catalog" in capsys.readouterr().out


class TestReportHelpers:
    def test_sparkline(self):
        assert report.sparkline([]) == ""
        assert report.sparkline([1.0, 1.0]) == "▁▁"
        line = report.sparkline([0.0, 0.5, 1.0])
        assert line[0] == "▁" and line[-1] == "█"

    def test_empty_trajectory_raises(self):
        with pytest.raises(ConfigurationError):
            report.trajectory_report([])

    def test_bad_format(self):
        with pytest.raises(ConfigurationError):
            report.trajectory_report([_record("a", 0.1)], fmt="html")


class TestBenchMetricsCataloged:
    def test_bench_run_emits_only_cataloged_metrics(self):
        """A bench run (engine + quality paths) emits no metric the
        catalog does not document — the 'repro obs' table stays
        complete."""
        spec = suite.suite_specs("smoke", contains="thm3")[0]
        record = suite.run_bench(spec, suite="smoke", repeats=1, alloc=False)
        known = set(obs.metric_names())
        for key in record["span_seconds"]:
            # a span's derived histogram, or one cataloged by full name
            # (the plan walkers' engine.*.seconds)
            name = key.split("{")[0]
            base = name.removesuffix(".seconds")
            assert name in known or base in known, (
                f"{key} missing from repro.obs.catalog"
            )
