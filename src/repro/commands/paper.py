"""The paper's artifacts: ``table1``, ``design`` and ``reproduce``."""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro.commands.common import add_flags, emit
from repro.commands.telemetry import telemetry_scope


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.hardware.costs import table1

    rows = [r.as_row() for r in table1(args.n, args.m)]
    if args.format == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        print(buf.getvalue(), end="")
        return 0
    emit(args, rows, lambda: print(
        render_table(rows, title=f"Table 1 at n={args.n}, m={args.m}")
    ))
    return 0


def cmd_design(args: argparse.Namespace) -> int:
    from repro._util.bits import ilg
    from repro.analysis.tables import render_table
    from repro.hardware.costs import columnsort_measures, revsort_measures

    t = ilg(args.n)
    rows = []
    feasible = []
    designs = [("Revsort", revsort_measures(args.n, args.m))]
    for a in range((t + 1) // 2, t + 1):
        beta = a / t
        designs.append(
            (f"Columnsort r=2^{a}", columnsort_measures(args.n, args.m, beta))
        )
    for name, meas in designs:
        fits = meas.pins_per_chip <= args.pin_budget
        rows.append(
            {
                "design": name,
                "pins/chip": meas.pins_per_chip,
                "chips": meas.chip_count,
                "alpha": f"{meas.load_ratio:.4f}",
                "delays": meas.gate_delays,
                "volume": meas.volume,
                "fits": "yes" if fits else "NO",
            }
        )
        if fits:
            feasible.append((name, meas))
    print(render_table(rows, title=f"designs for (n={args.n}, m={args.m}), budget {args.pin_budget} pins"))
    if not feasible:
        print("no design fits the pin budget")
        return 1
    feasible.sort(key=lambda d: (-d[1].load_ratio, d[1].gate_delays, d[1].volume))
    print(f"best feasible design: {feasible[0][0]}")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    import importlib.util
    import io
    from pathlib import Path

    script = Path(__file__).resolve().parents[3] / "examples" / "reproduce_paper.py"
    if not script.exists():
        print("error: examples/reproduce_paper.py not found", file=sys.stderr)
        return 2
    spec = importlib.util.spec_from_file_location("reproduce_paper", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    buffer = io.StringIO()
    with telemetry_scope(args) as tele:
        # With --output the transcript is captured for the report, then
        # echoed; without it the script prints as it runs.
        capture = contextlib.redirect_stdout(buffer) if args.output else contextlib.nullcontext()
        try:
            with capture:
                module.main()
            code = 0
        except SystemExit as exc:
            code = int(exc.code) if exc.code else 1
        if args.output:
            from repro.analysis.reporting import ReportBuilder

            text = buffer.getvalue()
            print(text, end="")
            builder = ReportBuilder(
                title="Reproduction report — Cormen 1987, multichip partial "
                "concentrator switches"
            )
            builder.add_text("Full run transcript", f"```\n{text.strip()}\n```")
            builder.add_text(
                "Verdict",
                "All checks passed." if code == 0 else "SOME CHECKS FAILED.",
            )
            if tele.registry is not None:
                builder.add_metrics(
                    "Metrics",
                    tele.registry.snapshot(),
                    note="Collected by `repro.obs`; see docs/observability.md.",
                )
            print(f"report written to {builder.write(args.output)}")
    return code


def register(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("table1", help="print Table 1 for a concrete size")
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--m", type=int, default=3072)
    add_flags(p, formats=("table", "json", "csv"))
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("design", help="sweep designs under a pin budget")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--m", type=int, default=768)
    p.add_argument("--pin-budget", type=int, default=150)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("reproduce", help="run the full reproduction report")
    p.add_argument("--output", default=None, help="also write a Markdown report here")
    add_flags(p, telemetry=True)
    p.set_defaults(func=cmd_reproduce)
