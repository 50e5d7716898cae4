"""Fault injection and degraded-mode certification: ``faults inject``,
``faults sweep`` and ``faults report`` (``docs/robustness.md``)."""

from __future__ import annotations

import argparse
import sys

from repro.commands.common import TABLE_JSON, add_flags, add_geometry, build_switch, emit
from repro.commands.telemetry import telemetry_scope
from repro.errors import ReproError


def _parse_fault(spec: str):
    """One ``--fault`` spec → a fault object.

    Formats: ``stuck0:PIN``, ``stuck1:PIN``, ``chip:STAGE:CHIP``,
    ``wire:STAGE:POS``, ``output:OUT``, ``flaky:PIN:PROB``.
    """
    from repro.errors import FaultInjectionError
    from repro.faults import (
        DeadChipFault,
        DeadOutputFault,
        FlakyPinFault,
        SeveredWireFault,
        StuckAtFault,
    )

    kind, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []
    try:
        if kind in ("stuck0", "stuck1"):
            (pos,) = parts
            return StuckAtFault(int(pos), 0 if kind == "stuck0" else 1)
        if kind == "chip":
            stage, chip = parts
            return DeadChipFault(int(stage), int(chip))
        if kind == "wire":
            stage, pos = parts
            return SeveredWireFault(int(stage), int(pos))
        if kind == "output":
            (out,) = parts
            return DeadOutputFault(int(out))
        if kind == "flaky":
            pos, p = parts
            return FlakyPinFault(int(pos), float(p))
    except ValueError as exc:
        raise FaultInjectionError(f"bad fault spec {spec!r}: {exc}") from None
    raise FaultInjectionError(
        f"unknown fault kind {kind!r} in {spec!r}; use stuck0:PIN, "
        "stuck1:PIN, chip:STAGE:CHIP, wire:STAGE:POS, output:OUT, "
        "or flaky:PIN:PROB"
    )


def cmd_faults_inject(args: argparse.Namespace) -> int:
    from repro._util.rng import default_rng
    from repro.analysis.tables import render_table
    from repro.errors import FaultInjectionError
    from repro.faults import (
        FaultScenario,
        flaky_resilience,
        measure_scenario,
        sample_scenario,
    )

    switch = build_switch(args)
    rng = default_rng(args.seed)
    if args.fault and args.sample:
        raise FaultInjectionError("give either --fault specs or --sample, not both")
    if args.fault:
        faults = tuple(_parse_fault(spec) for spec in args.fault)
        scenario = FaultScenario(name=args.name, faults=faults, seed=args.seed)
    elif args.sample:
        scenario = sample_scenario(
            switch,
            faults=args.sample,
            rng=rng,
            classes=args.classes,
            name=args.name,
            seed=args.seed,
        )
    else:
        raise FaultInjectionError(
            "nothing to inject: give --fault specs or --sample COUNT"
        )

    report = measure_scenario(
        switch,
        scenario,
        trials=args.trials,
        seed=args.seed,
        remap_outputs=args.remap_outputs,
    )
    resilience = None
    if scenario.flaky_pins():
        resilience = flaky_resilience(
            switch, scenario, rounds=args.rounds, seed=args.seed
        )

    doc = report.as_dict()
    if resilience is not None:
        doc["resilience"] = resilience

    def show() -> None:
        print(render_table([
            {
                "scenario": report.name,
                "faults": report.fault_count,
                "alpha": f"{report.empirical_alpha:.4f}",
                "min/mean routed": f"{report.min_routed}/{report.mean_routed:.1f}",
                "eps": report.worst_epsilon if report.worst_epsilon is not None else "-",
                "live outputs": report.live_outputs,
                "parity": "ok" if report.parity_ok else "FAIL",
            }
        ], title=f"fault injection: {switch!r}"))
        for line in report.faults:
            print(f"  - {line}")
        for failure in report.parity_failures:
            print(f"PARITY {failure}", file=sys.stderr)
        if resilience is not None:
            print(
                f"  flaky resilience: drop={resilience['drop_delivery_rate']:.4f} "
                f"retry={resilience['retry_delivery_rate']:.4f} "
                f"recovered={resilience['recovered']}"
            )

    emit(args, doc, show)
    ok = report.parity_ok and (resilience is None or resilience["recovered"])
    return 0 if ok else 1


def _alpha_span(alphas: list[float]) -> str:
    return f"{min(alphas):.3f}..{max(alphas):.3f}" if alphas else "-"


def _or_dash(value) -> str:
    return "-" if value is None else str(value)


def _sweep_targets(args: argparse.Namespace) -> list[tuple[str, object]]:
    """``(design-label, switch)`` targets for a fault sweep."""
    from repro.switches.columnsort_switch import ColumnsortSwitch
    from repro.switches.revsort_switch import RevsortSwitch

    if args.switch:
        sw = build_switch(args)
        return [(f"{args.switch}-n{sw.n}-m{sw.m}", sw)]
    if args.smoke:
        # Small geometries so CI finishes fast; the n=16 revsort keeps
        # the gate netlist path live in every smoke run.
        return [
            ("revsort-n64-m48", RevsortSwitch(64, 48)),
            ("columnsort-r16-s4-m48", ColumnsortSwitch(16, 4, 48)),
            ("revsort-n16-m12", RevsortSwitch(16, 12)),
        ]
    # The paper's flagship sizes: Thm-3 revsort and Thm-4 β=2/3
    # columnsort at n=4096.
    return [
        ("revsort-n4096-m3072", RevsortSwitch(4096, 3072)),
        ("columnsort-beta23-n4096-m3072", ColumnsortSwitch.from_beta(4096, 2 / 3, 3072)),
    ]


def cmd_faults_sweep(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.tables import render_table
    from repro.faults import sweep_switch, write_degradation_certificate

    trials = args.trials if args.trials else (12 if args.smoke else 32)
    rounds = args.rounds if args.rounds else (20 if args.smoke else 40)
    targets = _sweep_targets(args)

    with telemetry_scope(args) as tele:
        results = []
        tele.phase("faults-sweep", total=len(targets))
        for index, (design, switch) in enumerate(targets):
            results.append(
                sweep_switch(
                    switch,
                    design=design,
                    chains=args.chains,
                    chain_length=args.chain_length,
                    parity_scenarios=args.parity_scenarios,
                    parity_faults=args.parity_faults,
                    flaky_scenarios=args.flaky_scenarios,
                    trials=trials,
                    rounds=rounds,
                    seed=args.seed,
                )
            )
            tele.advance("faults-sweep", index + 1, len(targets))
        if not all(r.ok for r in results):
            tele.crash(
                "contract-violation",
                detail={"failed_sweeps": [r.design for r in results if not r.ok]},
            )

    written = []
    if args.out:
        out = Path(args.out)
        for result in results:
            for index, cert in enumerate(result.certificates):
                written.append(
                    write_degradation_certificate(
                        cert, out / f"{result.design}-{cert.kind}{index}.json"
                    )
                )

    def show() -> None:
        rows = []
        for result in results:
            for cert in result.certificates:
                recovered = sum(1 for r in cert.resilience if r["recovered"])
                rows.append(
                    {
                        "design": result.design,
                        "kind": cert.kind,
                        "steps": len(cert.steps),
                        "alpha": _alpha_span([s.empirical_alpha for s in cert.steps]),
                        "monotone": _or_dash(cert.monotone_alpha),
                        "parity": "ok" if all(s.parity_ok for s in cert.steps) else "FAIL",
                        "flaky recovered": (
                            f"{recovered}/{len(cert.resilience)}" if cert.resilience else "-"
                        ),
                        "verdict": "OK" if cert.ok else "FAIL",
                    }
                )
        print(render_table(rows, title="fault sweep"))

    emit(
        args,
        [
            {
                "design": r.design,
                "ok": r.ok,
                "certificates": [c.as_dict() for c in r.certificates],
            }
            for r in results
        ],
        show,
    )
    for result in results:
        if not result.ok:
            print(
                f"SWEEP FAIL {result.design}: "
                f"{result.parity_violations} parity violations, "
                f"{result.non_monotone_chains} non-monotone chains, "
                f"{result.unrecovered_flaky} unrecovered flaky scenarios",
                file=sys.stderr,
            )
    for path in written:
        print(f"degradation certificate written to {path}", file=sys.stderr)
    return 0 if all(r.ok for r in results) else 1


def cmd_faults_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.tables import render_table
    from repro.faults import read_degradation_certificate

    paths: list[Path] = []
    for entry in args.paths:
        p = Path(entry)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.json")))
        else:
            paths.append(p)
    if not paths:
        raise ReproError("no certificate files found")

    rows = []
    all_ok = True
    for path in paths:
        try:
            doc = read_degradation_certificate(path)
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
        all_ok = all_ok and doc["ok"]
        rows.append(
            {
                "file": path.name,
                "design": doc["design"],
                "kind": doc["kind"],
                "steps": len(doc["steps"]),
                "alpha": _alpha_span([s["empirical_alpha"] for s in doc["steps"]]),
                "monotone": _or_dash(doc["monotone_alpha"]),
                "verdict": "OK" if doc["ok"] else "FAIL",
            }
        )
    print(render_table(rows, title="degradation certificates"))
    return 0 if all_ok else 1


def register(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "faults",
        help="fault injection and degraded-mode certification "
        "(docs/robustness.md)",
    )
    faults_sub = p.add_subparsers(dest="faults_command", required=True)

    p = faults_sub.add_parser(
        "inject",
        help="inject one scenario into a switch and measure degradation",
    )
    add_geometry(p, n=64, m=48)
    p.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="a fault to inject (repeatable): stuck0:PIN, stuck1:PIN, "
        "chip:STAGE:CHIP, wire:STAGE:POS, output:OUT, flaky:PIN:PROB",
    )
    p.add_argument(
        "--sample",
        type=int,
        default=0,
        metavar="COUNT",
        help="instead of --fault specs: sample COUNT reliability-weighted "
        "faults",
    )
    p.add_argument(
        "--classes",
        choices=["boundary", "structural", "all"],
        default="structural",
        help="fault classes for --sample",
    )
    p.add_argument("--name", default="injected")
    p.add_argument("--trials", type=int, default=32)
    p.add_argument("--rounds", type=int, default=40,
                   help="simulation rounds for flaky-pin resilience")
    add_flags(p, seed=0)
    p.add_argument(
        "--remap-outputs",
        action="store_true",
        help="route around dead output pads using spare positions",
    )
    add_flags(p, formats=TABLE_JSON)
    p.set_defaults(func=cmd_faults_inject)

    p = faults_sub.add_parser(
        "sweep",
        help="full fault campaign: monotone boundary chains, cross-path "
        "parity scenarios, flaky-pin resilience",
    )
    add_geometry(
        p,
        switch=None,
        switch_help="sweep one geometry (default: the paper's n=4096 revsort "
        "and beta=2/3 columnsort)",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="small geometries + live gate parity — the CI chaos job",
    )
    p.add_argument("--chains", type=int, default=2)
    p.add_argument("--chain-length", type=int, default=4)
    p.add_argument("--parity-scenarios", type=int, default=3)
    p.add_argument("--parity-faults", type=int, default=2)
    p.add_argument("--flaky-scenarios", type=int, default=2)
    p.add_argument("--trials", type=int, default=0,
                   help="capacity probes per scenario (default 32; 12 "
                   "with --smoke)")
    p.add_argument("--rounds", type=int, default=0,
                   help="resilience simulation rounds (default 40; 20 "
                   "with --smoke)")
    add_flags(p, seed=0)
    p.add_argument(
        "--out",
        default=None,
        help="directory for degradation certificate JSONs",
    )
    add_flags(p, formats=TABLE_JSON, telemetry=True)
    p.set_defaults(func=cmd_faults_sweep)

    p = faults_sub.add_parser(
        "report",
        help="render degradation certificates produced by sweep/certify",
    )
    p.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="certificate files or directories of them",
    )
    p.set_defaults(func=cmd_faults_report)
