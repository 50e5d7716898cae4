"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestTable1Command:
    def test_prints_all_switches(self, capsys):
        assert main(["table1", "--n", "1024", "--m", "768"]) == 0
        out = capsys.readouterr().out
        assert "Revsort" in out
        assert "Columnsort b=0.5" in out
        assert "Columnsort b=0.75" in out

    def test_bad_size_is_an_error(self, capsys):
        assert main(["table1", "--n", "1000", "--m", "500"]) == 2
        assert "error" in capsys.readouterr().err


class TestDesignCommand:
    def test_finds_feasible_design(self, capsys):
        assert main(["design", "--n", "256", "--m", "192", "--pin-budget", "80"]) == 0
        out = capsys.readouterr().out
        assert "best feasible design" in out

    def test_infeasible_budget(self, capsys):
        assert main(["design", "--n", "256", "--m", "192", "--pin-budget", "3"]) == 1
        assert "no design fits" in capsys.readouterr().out


class TestSimulateCommand:
    def test_revsort_light_load(self, capsys):
        code = main(
            [
                "simulate",
                "--switch",
                "revsort",
                "--n",
                "256",
                "--m",
                "192",
                "--load",
                "0.3",
                "--rounds",
                "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "loss rate" in out
        assert "0.0000" in out  # below capacity: no loss

    def test_columnsort_by_shape(self, capsys):
        code = main(
            [
                "simulate",
                "--switch",
                "columnsort",
                "--r",
                "64",
                "--s",
                "4",
                "--m",
                "192",
                "--load",
                "0.4",
                "--rounds",
                "5",
            ]
        )
        assert code == 0

    def test_policies(self, capsys):
        for policy in ("drop", "buffer", "resend"):
            code = main(
                [
                    "simulate",
                    "--n",
                    "64",
                    "--m",
                    "48",
                    "--load",
                    "0.9",
                    "--rounds",
                    "5",
                    "--policy",
                    policy,
                ]
            )
            assert code == 0


class TestVerifyCommand:
    def test_revsort_contract(self, capsys):
        code = main(
            ["verify", "--switch", "revsort", "--n", "256", "--m", "192", "--trials", "20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_columnsort_beta(self, capsys):
        code = main(
            [
                "verify",
                "--switch",
                "columnsort",
                "--n",
                "256",
                "--m",
                "192",
                "--beta",
                "0.75",
                "--trials",
                "20",
            ]
        )
        assert code == 0


class TestKnockoutCommand:
    def test_analytic_and_simulated_close(self, capsys):
        assert main(["knockout", "--ports", "16", "--load", "0.9", "--slots", "150"]) == 0
        out = capsys.readouterr().out
        assert "analytic loss" in out and "simulated loss" in out


class TestReproduceCommand:
    def test_full_report_passes(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        assert "All reproduction checks passed." in out

    @pytest.mark.parametrize("command", ["reproduce", "knockout"])
    def test_takes_the_live_telemetry_flags(self, command):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [command, "--journal", "j.jsonl", "--crash-dir", "c"]
        )
        assert (args.journal, args.crash_dir) == ("j.jsonl", "c")


class TestObsCommand:
    def test_catalog_table(self, capsys):
        assert main(["obs"]) == 0
        out = capsys.readouterr().out
        assert "sim.delivered" in out
        assert "gates.settle_time" in out

    def test_catalog_json(self, capsys):
        import json

        assert main(["obs", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert any(r["metric"] == "sim.lost" for r in rows)


class TestMetricsOut:
    """A command's metrics persist as its ``--journal``, which replays
    to the run's snapshot."""

    SIM_ARGS = [
        "simulate", "--switch", "revsort", "--n", "256", "--m", "192",
        "--load", "0.9", "--rounds", "10",
    ]

    def test_simulate_writes_snapshot(self, capsys, tmp_path):
        from repro.obs.live import JOURNAL_SCHEMA, read_journal, replay_journal

        target = tmp_path / "run.jsonl"
        assert main(self.SIM_ARGS + ["--journal", str(target)]) == 0
        assert read_journal(target)[0]["schema"] == JOURNAL_SCHEMA
        doc = replay_journal(target)
        assert doc["counters"]["sim.rounds"] == 10
        assert doc["counters"]["sim.delivered"] > 0
        assert doc["counters"]["sim.lost"] > 0  # overloaded: losses occur
        # at least one timing histogram with per-round samples
        assert doc["histograms"]["sim.round.seconds"]["count"] == 10

    def test_output_identical_with_obs_disabled(self, capsys, tmp_path):
        """Acceptance check: collecting metrics must not perturb the
        simulation (same seed => same table)."""
        assert main(self.SIM_ARGS) == 0
        plain = capsys.readouterr().out
        target = tmp_path / "run.jsonl"
        assert main(self.SIM_ARGS + ["--journal", str(target)]) == 0
        assert capsys.readouterr().out == plain

    def test_positional_switch_form(self, capsys, tmp_path):
        """The documented short form `repro simulate revsort ...` works."""
        from repro.obs.live import replay_journal

        target = tmp_path / "run.jsonl"
        code = main(
            ["simulate", "revsort", "--n", "256", "--journal", str(target)]
        )
        assert code == 0
        assert "RevsortSwitch(n=256" in capsys.readouterr().out
        doc = replay_journal(target)
        assert doc["counters"]["sim.delivered"] > 0

    def test_obs_disabled_after_run(self, tmp_path):
        from repro import obs

        main(self.SIM_ARGS + ["--journal", str(tmp_path / "run.jsonl")])
        assert not obs.enabled()

    def test_knockout_writes_snapshot(self, capsys, tmp_path):
        from repro.obs.live import replay_journal

        target = tmp_path / "run.jsonl"
        code = main(
            ["knockout", "--ports", "16", "--load", "0.9", "--slots", "50",
             "--journal", str(target)]
        )
        assert code == 0
        doc = replay_journal(target)
        assert doc["counters"]["knockout.offered"] > 0
        assert doc["histograms"]["knockout.config.seconds"]["count"] == 4


class TestLogging:
    def test_log_level_flag_accepted(self, capsys):
        assert main(["--log-level", "debug", "table1", "--n", "256", "--m", "192"]) == 0

    def test_library_logger_has_null_handler(self):
        import logging

        import repro  # noqa: F401 - import side effect under test

        handlers = logging.getLogger("repro").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestTable1Formats:
    def test_json(self, capsys):
        import json

        assert main(["table1", "--n", "256", "--m", "192", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["switch"] == "Revsort"
        assert len(rows) == 4

    def test_csv(self, capsys):
        assert main(["table1", "--n", "256", "--m", "192", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("switch,")
        assert len(lines) == 5


class TestExitCodes:
    @pytest.mark.parametrize(
        "error, code, label",
        [
            ("ConcentrationError", 1, "contract violation: "),
            ("ConfigurationError", 2, "error: "),
            ("ExecutionError", 3, "execution failure: "),
        ],
    )
    def test_main_maps_library_errors(self, monkeypatch, capsys, error, code, label):
        import argparse

        from repro import errors

        def raising(args):
            raise getattr(errors, error)("boom")

        monkeypatch.setattr(
            argparse.ArgumentParser,
            "parse_args",
            lambda self, argv=None: argparse.Namespace(func=raising, log_level="warning"),
        )
        assert main([]) == code
        assert capsys.readouterr().err == f"{label}boom\n"
