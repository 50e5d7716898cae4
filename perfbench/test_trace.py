"""Integrity tests for the traced run.

    python3 -m pytest perfbench -q        (from the repository root, ~1 min)

Each workload is run once untraced and once traced (seed 1).  The tests
check that the layer split adds up, that every layer is reached on the
workloads the table in ``layers.py`` names, that the bypass predictions
hold as exact zero counts, and that tracing changes nothing the command
prints.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import ALL, LAYERS, per_layer_units  # noqa: E402
from run import ROOT, Runner, coverage_gaps, scratch_dir  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def traced():
    """``{workload: (untraced sample, traced sample, runner)}``."""
    out = {}
    with scratch_dir("test") as scratch:
        for name in ALL:
            runner = Runner(WORKLOADS[name], seed=1, scratch=scratch)
            off = runner.run("off")
            trace = runner.run("traced")
            runner.compare(off, trace)
            out[name] = (off, trace, runner)
    return out


@pytest.mark.parametrize("name", ALL)
def test_traced_output_matches_and_shims_are_removed(traced, name):
    off, trace, runner = traced[name]
    assert off.ok and trace.ok, f"{name}: a run failed its output check"
    assert trace.stdout == off.stdout
    assert runner.failed == 0
    assert trace.record["leftover_shims"] == 0
    assert trace.record["exit_code"] == 0


@pytest.mark.parametrize("name", ALL)
def test_self_times_and_remainder_sum_to_traced_wall(traced, name):
    record = traced[name][1].record
    wall = record["wall_s"]
    self_s = record["self_s"]
    assert set(self_s) <= {layer.name for layer in LAYERS}
    assert all(value >= 0 for value in self_s.values()), self_s
    unattributed = wall - sum(self_s.values())
    # Self times never double count: together they fit in the wall time.
    assert unattributed >= 0
    assert sum(self_s.values()) + unattributed == pytest.approx(wall, rel=1e-12)
    # Outermost totals bound self times from above.
    for layer, seconds in self_s.items():
        assert seconds <= record["total_s"][layer] + 1e-9


@pytest.mark.parametrize("name", ALL)
def test_every_layer_is_reached_where_the_table_says(traced, name):
    record = traced[name][1].record
    assert coverage_gaps(record, name) == []
    for layer in LAYERS:
        if name in layer.on:
            assert record["self_s"].get(layer.name, 0.0) > 0.0, f"{layer.name} on {name}"


def test_a_vanished_layer_fails_the_coverage_check(traced):
    record = dict(traced["faults"][1].record)
    record["calls"] = {k: v for k, v in record["calls"].items() if k != "network.simulate"}
    record["missing_targets"] = ["repro.network.simulate.SwitchSimulation.run"]
    gaps = coverage_gaps(record, "faults")
    assert "layer network.simulate not reached" in gaps
    assert any("SwitchSimulation.run" in gap for gap in gaps)


@pytest.mark.parametrize("name", ALL)
def test_bypass_predictions_hold_as_exact_counts(traced, name):
    record = traced[name][1].record
    counts, calls = record["counts"], record["calls"]
    if name != "faults":
        assert counts.get("engine.batch.fault_walker.calls", 0) == 0
        assert counts.get("network.simulate.rounds", 0) == 0
    if name != "flows":
        assert counts.get("flows.events", 0) == 0
        assert counts.get("flows.cycles", 0) == 0
    if name != "verify":
        assert calls.get("engine.backends.dispatch", 0) == 0
        assert record["self_s"].get("engine.backends.dispatch", 0.0) == 0.0
        assert counts.get("engine.backends.job_bytes", 0) == 0


def test_benchmark_json_lists_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert listed == per_layer_units()
    assert bench["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
