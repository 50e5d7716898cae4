"""Contract checks: ``verify``, ``certify`` and ``compare``."""

from __future__ import annotations

import argparse
import sys

from repro.commands.common import TABLE_JSON, add_flags, add_geometry, build_switch, emit
from repro.commands.telemetry import telemetry_scope
from repro.errors import ConcentrationError, ReproError


def cmd_verify(args: argparse.Namespace) -> int:
    # Trials are generated per SeedSequence-keyed shard, so the measured
    # ε/α are identical for any --workers count (inline at 1).
    from repro.analysis.tables import render_table
    from repro.engine import StreamSpec, get_backend, resolve_workers

    switch = build_switch(args)
    spec = switch.spec
    mode = args.backend
    backend = get_backend(mode, workers=resolve_workers(args.workers))
    summary = backend.run_stream(switch, StreamSpec(trials=args.trials, seed=args.seed))
    if summary.violations:
        raise ConcentrationError(
            f"{summary.violations} trial(s) violated the contract: "
            + "; ".join(summary.messages)
        )
    worst_eps = summary.worst_epsilon
    bound = getattr(switch, "epsilon_bound", None)
    ok = bound is None or worst_eps is None or worst_eps <= bound
    emit(
        args,
        {
            "schema": "repro.cli/verify@1",
            "switch": repr(switch),
            "trials": args.trials,
            "mode": mode,
            "alpha": round(float(spec.alpha), 6),
            "worst_epsilon": worst_eps,
            "epsilon_bound": bound,
            "ok": ok,
        },
        lambda: print(render_table(
            [
                {
                    "switch": repr(switch),
                    "trials": args.trials,
                    "mode": mode,
                    "alpha": f"{spec.alpha:.4f}",
                    "worst eps": worst_eps if worst_eps is not None else "-",
                    "eps bound": bound if bound is not None else "-",
                    "verdict": "OK" if ok else "FAIL",
                }
            ],
            title="contract verification",
        )),
    )
    if not ok:
        print("ERROR: measured epsilon exceeds the theorem bound", file=sys.stderr)
        return 1
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.tables import render_table
    from repro.engine import resolve_workers
    from repro.switches.registry import certify_configs
    from repro.verify import CertifyOptions, certify_design, write_certificate

    workers = resolve_workers(args.workers)
    # --chunk 0 leaves the library's chunk size.
    chunk = {"chunk": args.chunk} if args.chunk else {}
    options = CertifyOptions(max_total=args.max_total, max_per_k=args.max_per_k, **chunk)
    checkpoint = {"checkpoint_dir": args.checkpoint} if args.checkpoint else {}
    explicit = {key: getattr(args, key) for key in ("n", "m") if getattr(args, key)}
    if args.r and args.s:
        explicit.update(r=args.r, s=args.s)
    if explicit and not args.switch_name:
        raise ReproError("size overrides need an explicit SWITCH argument")
    if args.switch_name and explicit:
        configs = [(args.switch_name, explicit)]
    else:
        configs = certify_configs([args.switch_name] if args.switch_name else None)
    if not configs:
        raise ReproError(
            f"design {args.switch_name!r} declares no certification configs; "
            "pass an explicit size (e.g. --n 16)"
        )

    with telemetry_scope(args) as tele:
        certs = []
        tele.phase("certify", total=len(configs))
        for index, (design, params) in enumerate(configs):
            try:
                certs.append(certify_design(
                    design, params, options=options, workers=workers, **checkpoint
                ))
            except TypeError as exc:  # e.g. a missing required override
                raise ReproError(f"bad parameters for {design!r}: {exc}") from exc
            tele.advance("certify", index + 1, len(configs))

        # --faults: a quick degradation campaign per config on top of
        # the healthy certification.
        sweeps = []
        if args.faults:
            from repro.faults import sweep_switch
            from repro.switches.registry import build_switch as build

            tele.phase("certify-faults", total=len(configs))
            for index, (design, params) in enumerate(configs):
                switch = build(design, **params)
                sweeps.append(
                    sweep_switch(
                        switch,
                        design=f"{design}-n{switch.n}-m{switch.m}",
                        chains=1,
                        chain_length=2,
                        parity_scenarios=1,
                        parity_faults=2,
                        flaky_scenarios=1,
                        trials=8,
                        rounds=20,
                        seed=0,
                    )
                )
                tele.advance("certify-faults", index + 1, len(configs))

        ok = all(cert.ok for cert in certs) and all(s.ok for s in sweeps)
        if not ok:
            tele.crash(
                "contract-violation",
                detail={
                    "failed_designs": [c.design for c in certs if not c.ok],
                    "failed_sweeps": [s.design for s in sweeps if not s.ok],
                },
            )

    written: list[Path] = []
    if args.out:
        out = Path(args.out)
        if out.suffix == ".json" and len(certs) == 1:
            written.append(write_certificate(certs[0], out))
        else:
            for cert in certs:
                written.append(
                    write_certificate(cert, out / f"{cert.design}-n{cert.n}-m{cert.m}.json")
                )
        if sweeps and out.suffix != ".json":
            from repro.faults import write_degradation_certificate

            for sweep in sweeps:
                for index, dcert in enumerate(sweep.certificates):
                    written.append(
                        write_degradation_certificate(
                            dcert,
                            out / f"{sweep.design}-degradation{index}.json",
                        )
                    )

    def show() -> None:
        rows = []
        for cert in certs:
            eps = (
                f"{cert.worst_epsilon}/{cert.epsilon_bound}"
                if cert.epsilon_bound is not None
                else "-"
            )
            rows.append(
                {
                    "design": cert.design,
                    "params": ", ".join(f"{k}={v}" for k, v in cert.params.items()),
                    "tier": cert.tier,
                    "patterns": cert.total_patterns,
                    "paths": "+".join(cert.paths),
                    "eps/bound": eps,
                    "violations": len(cert.violations),
                    "verdict": "CERTIFIED" if cert.ok else "FAIL",
                }
            )
        print(render_table(rows, title="certification"))
        for cert in certs:
            for v in cert.violations:
                print(
                    f"VIOLATION {cert.design}: [{v.check}] k={v.k} "
                    f"pattern={v.pattern}: {v.message}",
                    file=sys.stderr,
                )

    emit(args, [cert.as_dict() for cert in certs], show)
    for path in written:
        print(f"certificate written to {path}", file=sys.stderr)
    for sweep in sweeps:
        if sweep.ok:
            print(
                f"fault sweep {sweep.design}: OK "
                f"({len(sweep.certificates)} degradation certificates)",
                file=sys.stderr,
            )
        else:
            print(
                f"FAULT SWEEP FAIL {sweep.design}: "
                f"{sweep.parity_violations} parity violations",
                file=sys.stderr,
            )
    return 0 if ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.engine import resolve_workers
    from repro.network.simulate import compare_partial_vs_perfect
    from repro.switches.perfect import PerfectConcentrator

    workers = resolve_workers(args.workers)
    with telemetry_scope(args) as tele:
        partial = build_switch(args)
        alpha = partial.spec.alpha
        perfect = PerfectConcentrator(
            n=max(1, int(partial.n * alpha)), m=max(1, int(partial.m * alpha))
        )
        k_values = sorted({max(1, perfect.m // 2), perfect.m, min(perfect.n, 2 * perfect.m)})
        tele.phase("compare", total=len(k_values))
        results = compare_partial_vs_perfect(
            perfect,
            partial,
            k_values,
            trials=args.trials,
            seed=args.seed,
            workers=workers,
        )
        tele.advance("compare", len(k_values), len(k_values))
        ordered = sorted(results.items())
        emit(
            args,
            {
                "schema": "repro.cli/compare@1",
                "partial": repr(partial),
                "perfect": repr(perfect),
                "alpha": round(float(alpha), 6),
                "trials": args.trials,
                "results": [
                    {
                        "k": int(k),
                        "perfect_mean_routed": round(res["perfect"], 4),
                        "partial_mean_routed": round(res["partial"], 4),
                    }
                    for k, res in ordered
                ],
            },
            lambda: print(render_table(
                [
                    {
                        "k": k,
                        "perfect mean routed": f"{res['perfect']:.2f}",
                        "partial mean routed": f"{res['partial']:.2f}",
                    }
                    for k, res in ordered
                ],
                title=(
                    f"partial ({partial.n}x{partial.m}, alpha={alpha:.3f}) vs "
                    f"perfect ({perfect.n}x{perfect.m}), "
                    f"trials={args.trials}, workers={args.workers}"
                ),
            )),
        )
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("verify")
    add_geometry(p, positional="switch to use (same as --switch)")
    add_flags(p, seed=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument(
        "--backend",
        choices=["process"],
        default="process",
        help="verification path: the sharded engine backend (see "
        "--workers), the only one",
    )
    add_flags(
        p,
        workers=(
            1,
            "worker processes for --backend process (0 = one per core); "
            "results are identical for any worker count",
        ),
        formats=TABLE_JSON,
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "certify",
        help="exhaustively certify registered designs "
        "(all valid-bit patterns for small n, stratified per-load above)",
    )
    from repro.switches.registry import available

    p.add_argument(
        "switch_name",
        nargs="?",
        choices=available(),
        default=None,
        metavar="SWITCH",
        help="certify one design (default: every registered design)",
    )
    p.add_argument("--n", type=int, default=0, help="override: inputs")
    p.add_argument("--m", type=int, default=0, help="override: outputs")
    p.add_argument("--r", type=int, default=0, help="override: matrix rows")
    p.add_argument("--s", type=int, default=0, help="override: matrix columns")
    p.add_argument(
        "--max-total",
        type=int,
        default=1 << 16,
        help="enumerate all 2^n patterns when 2^n fits this budget",
    )
    p.add_argument(
        "--max-per-k",
        type=int,
        default=512,
        help="stratified tier: pattern budget per load level k",
    )
    p.add_argument(
        "--out",
        default=None,
        help="write certificate JSON artifacts (a directory, or a .json "
        "path when certifying a single config)",
    )
    add_flags(
        p,
        workers=(
            1,
            "worker processes for chunk certification (0 = one per core); "
            "certificates are byte-identical for any worker count",
        ),
    )
    p.add_argument(
        "--chunk",
        type=int,
        default=0,
        help="patterns per chunk (default: the library's chunk size); "
        "smaller chunks mean finer checkpoint/retry granularity",
    )
    p.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="persist completed chunk reports to per-config journals "
        "under DIR; a killed run resumed with the same arguments skips "
        "finished chunks and emits an identical certificate",
    )
    add_flags(p, formats=TABLE_JSON)
    p.add_argument(
        "--faults",
        action="store_true",
        help="additionally run a fault campaign per config and emit "
        "degradation certificates (see docs/robustness.md)",
    )
    add_flags(p, telemetry=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser(
        "compare",
        help="partial-vs-perfect substitution experiment (Section 1)",
    )
    add_geometry(p)
    p.add_argument("--trials", type=int, default=64)
    add_flags(
        p,
        seed=0,
        workers=(
            1,
            "workers for the batched path (0 = one per core); more than one "
            "fans out over the supervised process pool; results are "
            "identical for any worker count",
        ),
        formats=TABLE_JSON,
        telemetry=True,
    )
    p.set_defaults(func=cmd_compare)
