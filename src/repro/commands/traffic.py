"""Traffic through a switch: ``simulate``, ``knockout`` and the
event-driven ``flows run`` / ``flows compare`` (``docs/flows.md``)."""

from __future__ import annotations

import argparse

from repro.commands.common import (
    TABLE_JSON,
    LazyChoices,
    add_flags,
    add_geometry,
    build_switch,
    emit,
    json_safe,
)
from repro.commands.telemetry import telemetry_scope


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.messages.congestion import (
        BufferPolicy,
        DropPolicy,
        ResendPolicy,
        RetryPolicy,
    )
    from repro.network.simulate import SwitchSimulation
    from repro.network.traffic import BernoulliTraffic

    with telemetry_scope(args) as tele:
        switch = build_switch(args)
        policy = {
            "drop": DropPolicy,
            "buffer": BufferPolicy,
            "resend": ResendPolicy,
            "retry": RetryPolicy,
        }[args.policy]()
        traffic = BernoulliTraffic(switch.n, p=args.load, seed=args.seed)
        tele.phase("simulate", total=args.rounds)
        summary = SwitchSimulation(switch, traffic, policy, seed=args.seed).run(
            rounds=args.rounds
        )
        tele.advance("simulate", summary.rounds, args.rounds)
        print(render_table(
            [
                {
                    "switch": repr(switch),
                    "rounds": summary.rounds,
                    "offered": summary.offered,
                    "delivered": summary.delivered,
                    "lost": summary.lost,
                    "retried": summary.retried,
                    "loss rate": f"{summary.loss_rate:.4f}",
                }
            ],
            title="simulation summary",
        ))
    return 0


def cmd_knockout(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.network.analytic import knockout_loss_analytic
    from repro.network.knockout import knockout_loss_curve

    l_values = [1, 2, 4, 8]
    with telemetry_scope(args):
        sim = knockout_loss_curve(
            args.ports,
            loads=[args.load],
            l_values=l_values,
            slots=args.slots,
            seed=args.seed,
        )
        rows = [
            {
                "L": L,
                "analytic loss": f"{knockout_loss_analytic(args.ports, args.load, L):.5f}",
                "simulated loss": f"{sim[(args.load, L)]:.5f}",
            }
            for L in l_values
        ]
        print(render_table(
            rows, title=f"knockout concentrator loss (N={args.ports}, load={args.load})"
        ))
    return 0


def _flows_workload(args: argparse.Namespace):
    from repro.network.flows import WorkloadSpec

    return WorkloadSpec(
        n=args.n,
        load=args.load,
        duration=args.duration,
        sizes=args.sizes,
        fixed_size=args.fixed_size,
        seed=args.seed,
    )


def _flows_options(args: argparse.Namespace) -> dict:
    """The keyword arguments ``run_fabric`` and ``head_to_head`` share."""
    return {
        "backpressure": not args.no_backpressure,
        "max_cycles": args.max_cycles or None,
        "design": args.design,
        "m": args.m if args.m > 0 else None,
        "lanes": args.lanes,
        "fifo_depth": args.fifo_depth,
        "slot_cycles": args.slot_cycles,
    }


def _flows_row(name: str, result) -> dict:
    pct = result.fct_percentiles()

    def fmt(v: float) -> str:
        import math

        return "-" if math.isnan(v) else f"{v:.1f}"

    return {
        "fabric": name,
        "flows": f"{result.completed}/{result.flows}",
        "loss": f"{result.loss_rate:.4f}",
        "fct p50": fmt(pct["p50"]),
        "fct p99": fmt(pct["p99"]),
        "cycles": result.cycles,
        "events": result.events,
    }


def cmd_flows_run(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.network.flows import run_fabric

    spec = _flows_workload(args)
    with telemetry_scope(args) as tele:
        tele.phase("flows", total=1)
        result = run_fabric(args.fabric, spec, **_flows_options(args))
        tele.advance("flows", 1, 1)
        emit(
            args,
            json_safe(
                {
                    "schema": "repro.cli/flows-run@1",
                    "workload": {
                        "n": spec.n,
                        "load": spec.load,
                        "duration": spec.duration,
                        "sizes": spec.sizes,
                        "seed": spec.seed,
                    },
                    "backpressure": not args.no_backpressure,
                    "result": result.as_dict(),
                }
            ),
            lambda: print(render_table(
                [_flows_row(args.fabric, result)],
                title=(
                    f"flows run: {args.fabric} fabric, n={spec.n}, "
                    f"load={spec.load}, sizes={spec.sizes}, seed={spec.seed}"
                ),
            )),
        )
    return 0


def cmd_flows_compare(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.network.flows import fabric_names, head_to_head

    spec = _flows_workload(args)
    names = (
        [f.strip() for f in args.fabrics.split(",") if f.strip()]
        if args.fabrics
        else fabric_names()
    )
    with telemetry_scope(args) as tele:
        tele.phase("flows-compare", total=len(names))
        report = head_to_head(spec, names, **_flows_options(args))
        tele.advance("flows-compare", len(names), len(names))
        emit(
            args,
            {"schema": "repro.cli/flows-compare@1", **json_safe(report.as_dict())},
            lambda: print(render_table(
                [_flows_row(name, report.results[name]) for name in names],
                title=(
                    f"flows head-to-head: n={spec.n}, load={spec.load}, "
                    f"sizes={spec.sizes}, seed={spec.seed}, "
                    f"{report.total_events:,} events"
                ),
            )),
        )
    return 0


def _add_flows_workload_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--n", type=int, default=64,
        help="fabric ports (power of four fits every fabric)",
    )
    p.add_argument(
        "--load", type=float, default=0.7,
        help="offered load per port in cells/cycle",
    )
    p.add_argument(
        "--duration", type=float, default=200.0,
        help="arrival horizon in cycles (the run drains afterwards)",
    )
    p.add_argument(
        "--sizes", default="websearch", help="flow size mix",
    ).choices = LazyChoices("repro.network.flows", "size_distribution_names")
    p.add_argument(
        "--fixed-size", type=int, default=4,
        help="cells per flow for --sizes fixed",
    )
    add_flags(p, seed=0)
    p.add_argument(
        "--no-backpressure", action="store_true",
        help="drop rejected cells instead of retransmitting",
    )
    p.add_argument(
        "--max-cycles", type=int, default=0,
        help="cap fabric cycles (0 = the default drain bound)",
    )
    p.add_argument(
        "--design", default="revsort",
        help="registry design for the concentrator fabric",
    )
    p.add_argument(
        "--m", type=int, default=0,
        help="concentrator outputs (0 = 3n/4)",
    )
    p.add_argument(
        "--lanes", type=int, default=4,
        help="knockout concentration ratio L",
    )
    p.add_argument(
        "--fifo-depth", type=int, default=16,
        help="knockout per-output FIFO depth",
    )
    p.add_argument(
        "--slot-cycles", type=int, default=1,
        help="cycles the rotor holds each matching",
    )
    add_flags(p, formats=TABLE_JSON, telemetry=True)


def register(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("simulate")
    add_geometry(p, positional="switch to use (same as --switch)")
    add_flags(p, seed=0)
    p.add_argument("--load", type=float, default=0.5)
    p.add_argument("--rounds", type=int, default=50)
    p.add_argument(
        "--policy",
        choices=["drop", "buffer", "resend", "retry"],
        default="drop",
    )
    add_flags(p, telemetry=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("knockout", help="analytic vs simulated knockout loss")
    p.add_argument("--ports", type=int, default=16)
    p.add_argument("--load", type=float, default=0.9)
    p.add_argument("--slots", type=int, default=300)
    add_flags(p, seed=0, telemetry=True)
    p.set_defaults(func=cmd_knockout)

    p = sub.add_parser(
        "flows",
        help="event-driven flow-level fabric simulation: run one fabric "
        "or a head-to-head FCT study (see docs/flows.md)",
    )
    flows_sub = p.add_subparsers(dest="flows_command", required=True)

    p = flows_sub.add_parser(
        "run", help="simulate one fabric over a seeded workload"
    )
    p.add_argument(
        "--fabric", default="concentrator"
    ).choices = LazyChoices("repro.network.flows", "fabric_names")
    _add_flows_workload_flags(p)
    p.set_defaults(func=cmd_flows_run)

    p = flows_sub.add_parser(
        "compare",
        help="head-to-head FCT study: every fabric over the same workload",
    )
    p.add_argument(
        "--fabrics", default=None,
        help="comma-separated fabric subset (default: all)",
    )
    _add_flows_workload_flags(p)
    # The acceptance-sized default study: >=10^6 events at seed 0.
    p.set_defaults(func=cmd_flows_compare, n=256, duration=1500.0)
