"""CLI exit codes and machine-readable stdout for the verification
commands: ``verify``, ``compare``, and ``certify``.

The ``--format json`` outputs are pinned as golden snapshots under
``tests/golden/`` — any schema or behaviour drift trips these tests.
Regenerate with the exact commands recorded in each test.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.switches import registry
from repro.verify import read_certificate_dict

GOLDEN_DIR = Path(__file__).parent / "golden"


def _golden(name: str) -> dict | list:
    return json.loads((GOLDEN_DIR / name).read_text())


class TestVerifyBatchJson:
    """``repro verify`` runs one path, the sharded engine backend's
    batched trial stream (inline at the default ``--workers 1``)."""

    ARGS = [
        "verify", "columnsort", "--r", "8", "--s", "2", "--m", "12",
        "--trials", "40", "--seed", "3", "--format", "json",
    ]

    def test_matches_golden_snapshot(self, capsys):
        assert main(self.ARGS) == 0
        assert json.loads(capsys.readouterr().out) == _golden(
            "verify_process_columnsort_r8s2.json"
        )

    def test_batch_mode_reports_epsilon(self, capsys):
        """The batched path measures worst ε (it once printed '-')."""
        assert main(self.ARGS) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["worst_epsilon"] is not None
        assert doc["worst_epsilon"] <= doc["epsilon_bound"]

    def test_bad_config_exits_2(self, capsys):
        assert main(["verify", "revsort", "--n", "100", "--m", "50"]) == 2
        assert "error" in capsys.readouterr().err


class TestCompareJson:
    ARGS = [
        "compare", "--switch", "columnsort", "--r", "8", "--s", "2",
        "--m", "12", "--trials", "8", "--seed", "1", "--format", "json",
    ]

    def test_matches_golden_snapshot(self, capsys):
        assert main(self.ARGS) == 0
        assert json.loads(capsys.readouterr().out) == _golden(
            "compare_columnsort.json"
        )


class TestCertifyCommand:
    ARGS = ["certify", "hyper", "--n", "8", "--format", "json"]

    def test_matches_golden_snapshot(self, capsys):
        assert main(self.ARGS) == 0
        assert json.loads(capsys.readouterr().out) == _golden(
            "certify_hyper8.json"
        )

    def test_registry_probe_is_byte_identical(self, capsys):
        """Every registry config at ``--max-total 1 --max-per-k 1``: both
        strides are 1, so every sampled pattern goes through scalar
        parity and all three metamorphic relations.  Regenerate with
        ``PYTHONPATH=src python -m repro certify --format json
        --max-total 1 --max-per-k 1``."""
        args = ["certify", "--format", "json", "--max-total", "1", "--max-per-k", "1"]
        assert main(args) == 0
        assert capsys.readouterr().out == (
            GOLDEN_DIR / "certify_registry_probe.json"
        ).read_text()

    def test_stdout_schema(self, capsys):
        assert main(self.ARGS) == 0
        (doc,) = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.verify/certificate@1"
        assert doc["ok"] is True
        assert doc["tier"] == "exhaustive"
        assert doc["total_patterns"] == 256
        assert {s["k"] for s in doc["per_k"]} == set(range(9))

    def test_table_output_and_exit_zero(self, capsys):
        assert main(["certify", "hyper", "--n", "12"]) == 0
        out = capsys.readouterr().out
        assert "CERTIFIED" in out

    def test_writes_certificate_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "certs"
        assert main(["certify", "hyper", "--n", "8", "--out", str(out_dir)]) == 0
        (path,) = sorted(out_dir.glob("*.json"))
        assert path.name == "hyper-n8-m8.json"
        assert read_certificate_dict(path)["ok"] is True

    def test_single_json_artifact_path(self, tmp_path, capsys):
        target = tmp_path / "one.json"
        assert main(["certify", "hyper", "--n", "8", "--out", str(target)]) == 0
        assert read_certificate_dict(target)["design"] == "hyper"

    def test_unknown_switch_exits_2(self, capsys):
        # Invalid choices abort argparse with SystemExit(2).
        with pytest.raises(SystemExit) as exc:
            main(["certify", "nope"])
        assert exc.value.code == 2

    def test_bad_size_exits_2(self, capsys):
        assert main(["certify", "revsort", "--n", "100", "--m", "50"]) == 2
        assert "error" in capsys.readouterr().err

    def test_override_without_switch_exits_2(self, capsys):
        assert main(["certify", "--n", "8"]) == 2
        assert "error" in capsys.readouterr().err

    def test_violations_exit_1(self, monkeypatch, capsys):
        """Registering a deliberately mutated design must turn the CLI
        exit code to 1 and name the failing checks on stderr."""
        from tests.test_verify_certify import _MutantHyper

        entry = registry.SwitchEntry(
            "mutant",
            "injected routing fault (test only)",
            lambda **params: _MutantHyper(int(params["n"])),
            certify=({"n": 8},),
        )
        monkeypatch.setitem(registry.REGISTRY, "mutant", entry)
        assert main(["certify", "mutant"]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "VIOLATION" in captured.err
