"""Observability: the ``obs`` metric catalog and ``obs export``,
``obs report``, ``obs analyze`` and ``obs slo``
(``docs/observability.md``)."""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.commands.common import TABLE_JSON, add_flags, emit, json_safe
from repro.errors import ConfigurationError, ReproError


def cmd_obs(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table

    def show() -> None:
        print(render_table(rows, title="repro.obs metric catalog"))
        print(
            "every span also fills a '<name>.seconds' histogram; "
            "collect with --journal on simulate, certify, compare, "
            "knockout, reproduce, faults sweep, flows and bench"
        )

    rows = obs.catalog_rows()
    emit(args, rows, show)
    return 0


def _write_or_print(text: str, out: str | None, what: str) -> None:
    """Write ``text`` to ``--out`` and say so, or print it."""
    if out:
        from pathlib import Path

        target = Path(out)
        if target.is_dir():
            raise ConfigurationError(f"{target} is a directory")
        target.write_text(text + "\n", encoding="utf-8")
        print(f"{what} written to {out}")
    else:
        print(text)


def cmd_obs_export(args: argparse.Namespace) -> int:
    import json

    from repro.obs.live import replay_journal

    snapshot = replay_journal(args.journal)
    _write_or_print(json.dumps(snapshot, indent=2), args.out, "snapshot")
    return 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.perf.report import trajectory_report
    from repro.obs.perf.trajectory import read_trajectory

    records = read_trajectory(args.trajectory)
    if not records:
        raise ReproError(
            f"{args.trajectory} holds no trajectory records — run 'repro bench run' first"
        )
    _write_or_print(trajectory_report(records, fmt=args.format), args.out, "report")
    return 0


def cmd_obs_analyze(args: argparse.Namespace) -> int:
    from repro.obs.perf.analyze import analysis_report, analyze_journal
    from repro.obs.perf.chrometrace import write_chrome_trace

    analysis = analyze_journal(args.journal)
    if args.format == "json":
        import json

        serializable = {
            k: v for k, v in analysis.items() if k not in ("tree", "replayed")
        }
        serializable["tree"] = {
            "roots": analysis["tree"]["roots"],
            "nodes": analysis["tree"]["nodes"],
        }
        text = json.dumps(json_safe(serializable), indent=2)
    else:
        text = analysis_report(analysis, fmt=args.format)
    if args.trace_out:
        path = write_chrome_trace(
            analysis["replayed"]["spans"],
            args.trace_out,
            metadata={
                "command": analysis.get("command"),
                "trace_id": analysis.get("trace_id"),
            },
        )
        print(f"perfetto trace written to {path}")
    _write_or_print(text, args.out, "analysis")
    return 0


def cmd_obs_slo(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.tables import render_table
    from repro.errors import ConcentrationError
    from repro.obs.live import replay_journal
    from repro.obs.slo import evaluate_slo, load_slo_spec, slo_rows, violations

    if bool(args.journal) == bool(args.input):
        raise ReproError("give exactly one of --journal or --input")
    rules = load_slo_spec(args.spec)
    if args.journal:
        source = replay_journal(args.journal)
        against = args.journal
    else:
        from pathlib import Path

        if not Path(args.input).exists():
            raise ReproError(f"no input file at {args.input}")
        try:
            source = json.loads(Path(args.input).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ReproError(f"{args.input} is not JSON: {exc}") from None
        if not isinstance(source, dict):
            raise ReproError(f"{args.input} is not a JSON object")
        against = args.input
    verdicts = evaluate_slo(rules, source)
    failed = violations(verdicts)
    emit(
        args,
        {
            "schema": "repro.cli/slo-verdicts@1",
            "spec": str(args.spec),
            "against": str(against),
            "ok": not failed,
            "verdicts": [v.as_dict() for v in verdicts],
        },
        lambda: print(render_table(
            slo_rows(verdicts), title=f"SLO gate: {args.spec} vs {against}"
        )),
    )
    if failed:
        names = ", ".join(v.rule.name for v in failed)
        if args.warn_only:
            print(
                f"WARNING: {len(failed)} objective(s) violated: {names} "
                "(warn-only mode: exiting 0)",
                file=sys.stderr,
            )
            return 0
        raise ConcentrationError(
            f"{len(failed)} SLO objective(s) violated: {names}"
        )
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "obs",
        help="observability: metric catalog, span-timeline traces, "
        "trajectory reports",
    )
    add_flags(p, formats=TABLE_JSON)
    p.set_defaults(func=cmd_obs)
    obs_sub = p.add_subparsers(dest="obs_command")

    p = obs_sub.add_parser(
        "export",
        help="replay an event journal into a metrics snapshot (JSON)",
    )
    p.add_argument(
        "--journal",
        required=True,
        metavar="PATH",
        help="a repro.obs/journal@1 JSONL to replay into a snapshot",
    )
    p.add_argument("--out", default=None, help="write instead of printing")
    p.set_defaults(func=cmd_obs_export)

    p = obs_sub.add_parser(
        "report", help="render the bench trajectory dashboard"
    )
    p.add_argument(
        "--trajectory",
        default="BENCH_TRAJECTORY.jsonl",
        help="trajectory file to render",
    )
    add_flags(p, formats=("table", "md"))
    p.add_argument("--out", default=None, help="write instead of printing")
    p.set_defaults(func=cmd_obs_report)

    p = obs_sub.add_parser(
        "analyze",
        help="reconstruct the causal span tree from a journal: critical "
        "path, per-phase breakdown, worker utilization/stragglers",
    )
    p.add_argument(
        "journal", metavar="JOURNAL",
        help="a repro.obs/journal@1 JSONL written with --journal",
    )
    add_flags(p, formats=("table", "md", "json"))
    p.add_argument("--out", default=None, help="write instead of printing")
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="also export the replayed spans as Chrome-trace/Perfetto "
        "JSON (one track per worker, flow arrows from the dispatch span)",
    )
    p.set_defaults(func=cmd_obs_analyze)

    p = obs_sub.add_parser(
        "slo",
        help="evaluate a declarative SLO spec against a journal or a "
        "flows run/compare JSON; exits 1 on violation",
    )
    p.add_argument(
        "--spec", required=True, help="SLO spec (.toml on Python >=3.11, or .json)"
    )
    p.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="evaluate against a replayed repro.obs/journal@1 journal",
    )
    p.add_argument(
        "--input",
        default=None,
        metavar="PATH",
        help="evaluate against a flows run/compare JSON document",
    )
    add_flags(p, formats=TABLE_JSON)
    p.add_argument(
        "--warn-only",
        action="store_true",
        help="report violations but exit 0 (CI soak mode)",
    )
    p.set_defaults(func=cmd_obs_slo)
