"""The head-to-head fabric study behind ``repro flows compare``.

Methodology: one workload is generated once from the seed, and every
fabric simulates *exactly the same flows* — identical offered load,
identical arrival times, identical sizes — so differences in the
flow-completion-time percentiles and loss are attributable to the
fabric alone.  The fabrics run serially, in order: a process pool of
two measured no faster on the full study (rotor alone takes most of
the time; see ``docs/performance.md``, "Scaling").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.errors import ConfigurationError
from repro.network.flows.fabric import build_fabric, fabric_names
from repro.network.flows.sim import FlowSim, FlowSimResult
from repro.network.flows.workload import WorkloadSpec, generate_flows


@dataclass
class CompareReport:
    """Results of one head-to-head run: one :class:`FlowSimResult` per
    fabric, all over the same workload."""

    workload: WorkloadSpec
    fabrics: list[str]
    results: dict[str, FlowSimResult] = field(default_factory=dict)

    @property
    def total_events(self) -> int:
        return sum(r.events for r in self.results.values())

    def as_dict(self) -> dict:
        return {
            "workload": {
                "n": self.workload.n,
                "load": self.workload.load,
                "duration": self.workload.duration,
                "sizes": self.workload.sizes,
                "seed": self.workload.seed,
            },
            "flows": next(iter(self.results.values())).flows
            if self.results
            else 0,
            "total_events": self.total_events,
            "fabrics": {
                name: self.results[name].as_dict() for name in self.fabrics
            },
        }


def _default_max_cycles(spec: WorkloadSpec) -> int:
    # Generous drain bound: under persistent overload a fabric clears
    # at most one cell per port per cycle, so 50x the arrival horizon
    # (plus slack for tiny workloads) always suffices for the loads the
    # CLI exposes while still bounding a pathological no-progress run.
    return int(spec.duration) * 50 + 5000


def run_fabric(
    name: str,
    spec: WorkloadSpec,
    *,
    backpressure: bool = True,
    max_cycles: int | None = None,
    **fabric_params,
) -> FlowSimResult:
    """Simulate one fabric over the workload (``repro flows run``)."""
    flows = generate_flows(spec)
    stage = build_fabric(name, spec.n, **fabric_params)
    sim = FlowSim(
        stage,
        flows,
        backpressure=backpressure,
        max_cycles=max_cycles or _default_max_cycles(spec),
    )
    return sim.run()


def head_to_head(
    spec: WorkloadSpec,
    fabrics: list[str] | None = None,
    *,
    backpressure: bool = True,
    max_cycles: int | None = None,
    **fabric_params,
) -> CompareReport:
    """Run every fabric over the same workload.

    ``fabrics`` defaults to all of :func:`fabric_names` (the paper's
    concentrator fabric, the fat-tree and knockout models, and the
    rotor/optical baseline).  ``fabric_params`` configure the stages
    (see :func:`~repro.network.flows.fabric.build_fabric`).
    """
    names = list(fabrics) if fabrics is not None else fabric_names()
    unknown = set(names) - set(fabric_names())
    if unknown:
        raise ConfigurationError(
            f"unknown fabrics: {sorted(unknown)}; "
            f"available: {', '.join(fabric_names())}"
        )
    flows = generate_flows(spec)
    cap = max_cycles or _default_max_cycles(spec)

    report = CompareReport(workload=spec, fabrics=names)
    with obs.span("flows.compare", fabrics=",".join(names), n=spec.n):
        for name in names:
            stage = build_fabric(name, spec.n, **fabric_params)
            report.results[name] = FlowSim(
                stage, flows, backpressure=backpressure, max_cycles=cap
            ).run()
    return report
