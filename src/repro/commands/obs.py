"""Observability: the ``obs`` metric catalog and ``obs trace``,
``obs export``, ``obs report``, ``obs analyze`` and ``obs slo``
(``docs/observability.md``)."""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.commands.common import TABLE_JSON, add_flags, add_geometry, build_switch, emit, json_safe
from repro.errors import ReproError


def cmd_obs(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table

    if args.demo:
        from repro.messages.congestion import DropPolicy
        from repro.network.simulate import SwitchSimulation
        from repro.network.traffic import BernoulliTraffic
        from repro.switches.registry import build_switch as build

        with obs.collecting() as registry:
            switch = build("revsort", n=64, m=48, r=0, s=0, beta=0.75)
            traffic = BernoulliTraffic(switch.n, p=0.8, seed=0)
            SwitchSimulation(switch, traffic, DropPolicy(), seed=0).run(rounds=20)
        snapshot = registry.snapshot()
        emit(args, snapshot, lambda: print(obs.metrics_markdown(snapshot)))
        return 0

    def show() -> None:
        print(render_table(rows, title="repro.obs metric catalog"))
        print(
            "every span also fills a '<name>.seconds' histogram; "
            "collect with --metrics-out or --journal on simulate, certify, "
            "compare, knockout, reproduce, faults sweep, flows and bench"
        )

    rows = obs.catalog_rows()
    emit(args, rows, show)
    return 0


def cmd_obs_trace(args: argparse.Namespace) -> int:
    from repro._util.rng import default_rng
    from repro.obs.perf.chrometrace import write_chrome_trace
    from repro.obs.perf.profiler import profiled, write_profile

    switch = build_switch(args)
    valid = default_rng(args.seed).random((args.trials, switch.n)) < 0.5
    profile = None
    with obs.collecting(max_trace_events=args.max_spans) as registry:
        registry.detail_spans = True  # one engine.stage bar per layer
        with obs.span("trace.run", switch=repr(switch), trials=args.trials):
            if args.profile:
                with profiled() as profile:
                    switch.setup_batch(valid)
            else:
                switch.setup_batch(valid)
    spans = registry.snapshot()["spans"]
    path = write_chrome_trace(
        spans, args.out, metadata={"switch": repr(switch), "trials": args.trials}
    )
    print(
        f"chrome trace written to {path} ({len(spans['events'])} spans, "
        f"{spans['dropped']} dropped) — load at https://ui.perfetto.dev"
    )
    if args.profile and profile is not None:
        prof_path = write_profile(profile, args.profile, top=args.profile_top)
        print(f"profile written to {prof_path}")
    return 0


def _write_or_print(text: str, out: str | None, what: str) -> None:
    """Write ``text`` to ``--out`` and say so, or print it."""
    if out:
        from pathlib import Path

        Path(out).write_text(text + "\n", encoding="utf-8")
        print(f"{what} written to {out}")
    else:
        print(text)


def cmd_obs_export(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs.live import prometheus_text, replay_journal

    if bool(args.metrics) == bool(args.journal):
        raise ReproError("give exactly one of --metrics or --journal")
    if args.metrics:
        if not Path(args.metrics).exists():
            raise ReproError(f"no metrics file at {args.metrics}")
        snapshot = obs.read_metrics_json(args.metrics)
    else:
        snapshot = replay_journal(args.journal)
    if args.format == "prometheus":
        text = prometheus_text(snapshot)
    else:
        text = json.dumps(snapshot, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"exported to {args.out}")
    else:
        print(text, end="")
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
    p.add_argument(
        "--demo",
        action="store_true",
        help="run a small instrumented simulation and print its snapshot",
    )
    p.set_defaults(func=cmd_obs)
    obs_sub = p.add_subparsers(dest="obs_command")

    p = obs_sub.add_parser(
        "trace",
        help="run a switch geometry through the batch engine and export "
        "the span timeline as Chrome-trace/Perfetto JSON",
    )
    add_geometry(
        p, switch="columnsort", n=4096, m=3072,
        positional="switch to trace (same as --switch)",
    )
    p.add_argument("--trials", type=int, default=128)
    add_flags(p, seed=0)
    p.add_argument("--out", required=True, help="Chrome-trace JSON path")
    p.add_argument(
        "--max-spans",
        type=int,
        default=50_000,
        help="span buffer size (further spans are counted, not stored)",
    )
    p.add_argument(
        "--profile",
        default=None,
        help="also cProfile the traced run: binary stats for .prof/.pstats "
        "paths (flamegraph tools), a pstats table otherwise",
    )
    p.add_argument(
        "--profile-top",
        type=int,
        default=30,
        help="rows in the pstats table (text profiles only)",
    )
    p.set_defaults(func=cmd_obs_trace)

    p = obs_sub.add_parser(
        "export",
        help="render a metrics snapshot or a replayed event journal as "
        "OpenMetrics/Prometheus text or JSON",
    )
    p.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="a metrics.json written by --metrics-out",
    )
    p.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="a repro.obs/journal@1 JSONL to replay into a snapshot",
    )
    add_flags(p, formats=("prometheus", "json"))
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
