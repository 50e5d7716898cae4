"""The performance observatory: ``bench run`` and ``bench compare``
(``docs/performance.md``)."""

from __future__ import annotations

import argparse
import sys

from repro.commands.common import TABLE_JSON, LazyChoices, add_flags, emit
from repro.commands.telemetry import telemetry_scope
from repro.errors import ReproError


def cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.engine import resolve_workers
    from repro.obs.perf.suite import run_bench, suite_specs
    from repro.obs.perf.trajectory import append_records

    workers_cap = resolve_workers(args.workers)
    specs = suite_specs(args.suite, contains=args.filter or None)
    if not specs:
        raise ReproError(
            f"no bench in suite {args.suite!r} matches {args.filter!r}"
        )
    records = []
    with telemetry_scope(args) as tele:
        tele.phase("bench", total=len(specs))
        for index, spec in enumerate(specs):
            record = run_bench(
                spec,
                suite=args.suite,
                repeats=args.repeats,
                seed=args.seed,
                alloc=not args.no_alloc,
                merge_into=tele.registry,
                workers_cap=workers_cap,
            )
            records.append(record)
            tele.advance("bench", index + 1, len(specs))
            cache = record["plan_cache"]
            hit_rate = (
                f"{cache['hit_rate'] * 100:3.0f}%" if cache["hit_rate"] is not None
                else "  -"
            )
            print(
                f"{spec.id:>28}  median {record['median_wall_s'] * 1e3:9.3f}ms  "
                f"{record['throughput']:>12,.0f} {record['unit']}/s  "
                f"cache {hit_rate}  rss {record['rss_peak_kb'] or 0:>7}KiB"
            )
    path = append_records(args.out, records)
    sha = records[-1]["env"]["git_sha"] or "?"
    dirty = " (dirty)" if records[-1]["env"]["git_dirty"] else ""
    print(
        f"{len(records)} record(s) appended to {path} at {sha[:12]}{dirty}"
    )
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.obs.perf.regression import (
        DEFAULT_TOLERANCE,
        DEFAULT_WINDOW,
        compare_records,
        has_regressions,
    )
    from repro.obs.perf.trajectory import (
        latest_per_bench,
        read_trajectory,
        split_latest,
    )

    if args.tolerance is None:
        args.tolerance = DEFAULT_TOLERANCE
    if args.window is None:
        args.window = DEFAULT_WINDOW
    baseline_records = read_trajectory(args.baseline)
    if not baseline_records:
        raise ReproError(f"{args.baseline} holds no trajectory records")
    if args.candidate:
        candidates = latest_per_bench(read_trajectory(args.candidate))
        history = baseline_records
    else:
        candidates, history = split_latest(baseline_records)
    with telemetry_scope(args) as tele:
        tele.phase("bench-compare", total=len(candidates))
        verdicts = compare_records(
            candidates, history, tolerance=args.tolerance, window=args.window
        )
        tele.advance("bench-compare", len(verdicts), len(candidates))
        emit(
            args,
            {
                "schema": "repro.cli/bench-compare@1",
                "baseline": str(args.baseline),
                "tolerance": args.tolerance,
                "window": args.window,
                "verdicts": [v.as_dict() for v in verdicts],
            },
            lambda: print(render_table(
                [
                    {
                        "bench": v.bench,
                        "baseline": (
                            f"{v.baseline_wall_s * 1e3:.3f}ms (n={v.window})"
                            if v.baseline_wall_s is not None
                            else "-"
                        ),
                        "candidate": f"{v.candidate_wall_s * 1e3:.3f}ms",
                        "ratio": f"{v.ratio:.2f}" if v.ratio is not None else "-",
                        "delta": (
                            f"{v.delta_pct:+.1f}%" if v.delta_pct is not None else "-"
                        ),
                        "host": "normalised" if v.normalised else "raw",
                        "status": v.status.upper() if v.regressed else v.status,
                    }
                    for v in verdicts
                ],
                title=(
                    f"bench compare vs {args.baseline} "
                    f"(tolerance {args.tolerance:.0%}, window {args.window})"
                ),
            )),
        )
        if has_regressions(verdicts):
            offenders = [v for v in verdicts if v.regressed]
            bad = ", ".join(v.bench for v in offenders)
            print(f"ERROR: performance regression in {bad}", file=sys.stderr)
            for v in offenders:
                baseline = (
                    f"{v.baseline_wall_s * 1e3:.3f}ms"
                    if v.baseline_wall_s is not None
                    else "no baseline"
                )
                delta = (
                    f"{v.delta_pct:+.1f}%" if v.delta_pct is not None else "n/a"
                )
                print(
                    f"  {v.bench}: baseline {baseline} -> candidate "
                    f"{v.candidate_wall_s * 1e3:.3f}ms (delta {delta})",
                    file=sys.stderr,
                )
            tele.crash(
                "regression-gate",
                detail={"verdicts": [v.as_dict() for v in offenders]},
            )
            if not args.warn_only:
                return 1
            print("(warn-only mode: exiting 0)", file=sys.stderr)
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "bench",
        help="performance observatory: run bench suites, gate on the "
        "trajectory (see docs/performance.md)",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    p = bench_sub.add_parser(
        "run",
        help="run a registry-driven bench suite and append trajectory "
        "records",
    )
    p.add_argument(
        "--suite", default="smoke",
        help="which suite to run (smoke: CI-sized, full: paper-scale)",
    ).choices = LazyChoices("repro.obs.perf.suite", "suite_names")
    p.add_argument("--repeats", type=int, default=3)
    add_flags(p, seed=0x1987)
    p.add_argument(
        "--filter", default=None, help="only benches whose id contains this"
    )
    p.add_argument(
        "--out",
        default="BENCH_TRAJECTORY.jsonl",
        help="append records to this trajectory file",
    )
    p.add_argument(
        "--no-alloc",
        action="store_true",
        help="skip the (untimed) tracemalloc allocation pass",
    )
    add_flags(
        p,
        workers=(
            0,
            "cap the process fan-out of scaling benches (0 = one per core; "
            "other suites are unaffected)",
        ),
        telemetry=True,
    )
    p.set_defaults(func=cmd_bench_run)

    p = bench_sub.add_parser(
        "compare",
        help="diff the newest record per bench against its baseline "
        "window; exits 1 on regression",
    )
    p.add_argument(
        "--baseline",
        default="BENCH_TRAJECTORY.jsonl",
        help="trajectory holding the baseline (and, without "
        "--candidate, the candidates too)",
    )
    p.add_argument(
        "--candidate",
        default=None,
        help="separate trajectory whose newest records are the "
        "candidates (default: newest per bench in --baseline)",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="relative wall-time band treated as noise (default 0.5)",
    )
    p.add_argument(
        "--window",
        type=int,
        default=None,
        help="trailing records per bench forming the baseline median "
        "(default 5)",
    )
    p.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (CI smoke mode)",
    )
    add_flags(p, formats=TABLE_JSON, telemetry=True)
    p.set_defaults(func=cmd_bench_compare)
