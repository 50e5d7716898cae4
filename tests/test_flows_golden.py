"""Golden snapshots for the ``repro flows`` CLI.

The ``--format json`` documents and the rendered FCT report are pinned
under ``tests/golden/`` — any schema or behavioural drift (workload
generation, fabric semantics, percentile math, float rounding) trips
these tests.  Regenerate with the exact commands recorded on each
class if the change is intentional.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro import obs
from repro.cli import main
from repro.faults import FaultScenario, FlakyPinFault
from repro.network.flows import WorkloadSpec, fabric_names, head_to_head

GOLDEN_DIR = Path(__file__).parent / "golden"


def _golden(name: str) -> dict | list:
    return json.loads((GOLDEN_DIR / name).read_text())


class TestFlowsRunJson:
    # PYTHONPATH=src python -m repro flows run --fabric concentrator \
    #   --n 16 --duration 40 --seed 0 --format json
    ARGS = [
        "flows", "run", "--fabric", "concentrator", "--n", "16",
        "--duration", "40", "--seed", "0", "--format", "json",
    ]

    def test_matches_golden_snapshot(self, capsys):
        assert main(self.ARGS) == 0
        assert json.loads(capsys.readouterr().out) == _golden(
            "flows_run_concentrator.json"
        )

    def test_stdout_schema(self, capsys):
        assert main(self.ARGS) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.cli/flows-run@1"
        result = doc["result"]
        assert result["fabric"] == "concentrator"
        assert result["completed"] <= result["flows"]
        assert {"p50", "p90", "p99", "p99.9"} <= set(result)
        assert result["delivered_cells"] + result["dropped_cells"] <= (
            result["offered_cells"]
        )

    def test_bad_fabric_param_exits_2(self, capsys):
        args = [
            "flows", "run", "--fabric", "knockout", "--n", "16",
            "--lanes", "0",
        ]
        assert main(args) == 2
        assert "error" in capsys.readouterr().err


class TestFlowsCompareJson:
    # PYTHONPATH=src python -m repro flows compare --n 16 --duration 30 \
    #   --seed 0 --format json
    ARGS = [
        "flows", "compare", "--n", "16", "--duration", "30",
        "--seed", "0", "--format", "json",
    ]

    def test_matches_golden_snapshot(self, capsys):
        assert main(self.ARGS) == 0
        assert json.loads(capsys.readouterr().out) == _golden(
            "flows_compare_n16.json"
        )

    def test_all_fabrics_on_the_same_workload(self, capsys):
        assert main(self.ARGS) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.cli/flows-compare@1"
        assert sorted(doc["fabrics"]) == fabric_names()
        flow_counts = {f["flows"] for f in doc["fabrics"].values()}
        assert flow_counts == {doc["flows"]}
        assert doc["total_events"] == sum(
            f["events"] for f in doc["fabrics"].values()
        )

    def test_percentiles_are_json_safe(self, capsys):
        # _json_safe turns NaN into null and rounds floats, so the
        # document must survive a strict JSON parse.
        assert main(self.ARGS) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject)
        for fabric in doc["fabrics"].values():
            for key in ("p50", "p90", "p99", "p99.9"):
                assert fabric[key] is None or math.isfinite(fabric[key])


class TestFlowsCompareReport:
    # PYTHONPATH=src python -m repro flows compare --n 16 --duration 30 \
    #   --seed 0
    ARGS = ["flows", "compare", "--n", "16", "--duration", "30", "--seed", "0"]

    def test_fct_report_matches_golden_text(self, capsys):
        assert main(self.ARGS) == 0
        expected = (GOLDEN_DIR / "flows_compare_n16.txt").read_text()
        assert capsys.readouterr().out == expected


def _reject(token: str):
    raise AssertionError(f"non-strict JSON constant leaked: {token}")


class TestFlowsCompareN64Json:
    """The benchmark's shape: contention at every fat-tree level and
    knockout FIFOs near full depth, which the n=16 snapshot never
    reaches."""

    # PYTHONPATH=src python -m repro flows compare --n 64 --load 0.7 \
    #   --sizes websearch --seed 1 --max-cycles 500 --format json
    ARGS = [
        "flows", "compare", "--n", "64", "--load", "0.7",
        "--sizes", "websearch", "--seed", "1", "--max-cycles", "500",
        "--format", "json",
    ]

    def test_matches_golden_bytes(self, capsys):
        assert main(self.ARGS) == 0
        expected = (GOLDEN_DIR / "flows_compare_n64.json").read_text()
        assert capsys.readouterr().out == expected


class TestFlowsRunKnockoutOpenLoop:
    """Uncapped open-loop knockout: the drop path and FIFO surfacing
    run to completion (every flow resolves, a few cells drop)."""

    # PYTHONPATH=src python -m repro flows run --fabric knockout --n 32 \
    #   --no-backpressure --duration 100 --seed 3 --format json
    ARGS = [
        "flows", "run", "--fabric", "knockout", "--n", "32",
        "--no-backpressure", "--duration", "100", "--seed", "3",
        "--format", "json",
    ]

    def test_matches_golden_bytes(self, capsys):
        assert main(self.ARGS) == 0
        expected = (GOLDEN_DIR / "flows_run_knockout_open_loop.json").read_text()
        assert capsys.readouterr().out == expected


def flows_telemetry() -> list[dict]:
    """The ``flows.*`` counters and series of three n=16 head-to-head
    runs, one record per metric: every fabric with backpressure, every
    fabric open loop, and the concentrator under two flaky input pins.
    Two knockout lanes and four-deep FIFOs make the knockout stage
    overflow.  The golden ``tests/golden/flows_telemetry_n16.jsonl`` is
    this function's output, one ``json.dumps(record)`` per line."""
    spec = WorkloadSpec(n=16, load=0.9, duration=80.0, seed=0)
    flaky = FaultScenario(
        "flaky", (FlakyPinFault(3, 0.3), FlakyPinFault(7, 0.2)), seed=5
    )
    runs = {
        "backpressure": {"lanes": 2, "fifo_depth": 4},
        "open_loop": {"lanes": 2, "fifo_depth": 4, "backpressure": False},
        "flaky": {"fabrics": ["concentrator"], "scenario": flaky},
    }
    records = []
    for label, kwargs in runs.items():
        with obs.collecting() as registry:
            head_to_head(spec, max_cycles=400, **kwargs)
        snap = registry.snapshot()
        for kind in ("counters", "series"):
            records.extend(
                {"run": label, "kind": kind, "key": key, "value": value}
                for key, value in snap[kind].items()
                if key.startswith("flows.")
            )
    return records


class TestFlowsTelemetryParity:
    def test_counters_and_series_match_golden(self):
        # Exact equality: JSON floats round-trip, so cwnd_mean must be
        # bit-identical, not merely close.
        observed = [json.loads(json.dumps(r)) for r in flows_telemetry()]
        golden = (GOLDEN_DIR / "flows_telemetry_n16.jsonl").read_text()
        assert observed == [json.loads(line) for line in golden.splitlines()]
