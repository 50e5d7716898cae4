"""Event-driven flow-level fabric simulation.

Where :mod:`repro.network.simulate` drives a switch round by round with
synthetic per-round loads, this package models *traffic*: servers open
TCP-ish flows against a fabric of concentrator stages, cells move
through ToR-like ingress queues under backpressure, and the clock only
advances when something happens.  The pieces:

* :mod:`repro.network.flows.events` — the deterministic heap-based
  event queue (stable FIFO tie-breaking, injectable clock);
* :mod:`repro.network.flows.workload` — heavy-tailed flow generators
  (websearch/datamining-style size mixes) seeded via ``SeedSequence``;
* :mod:`repro.network.flows.fabric` — pluggable fabric stages: the
  paper's concentrator switches (routed through the engine's batch
  path, fault scenarios included), a knockout-style output-buffered
  stage, the fat-tree up-path, and a rotor/optical round-robin
  partition baseline;
* :mod:`repro.network.flows.sim` — :class:`FlowSim`, the event loop
  tying them together and measuring flow-completion times;
* :mod:`repro.network.flows.study` — the head-to-head comparison
  behind ``repro flows compare``.

See ``docs/flows.md`` for the event model and the methodology of the
head-to-head study.
"""

from repro.network.flows.events import Event, EventQueue, SimClock
from repro.network.flows.fabric import (
    ConcentratorFabric,
    FabricStage,
    FatTreeFabric,
    KnockoutFabric,
    RotorFabric,
    build_fabric,
    fabric_names,
)
from repro.network.flows.sim import FlowSim, FlowSimResult
from repro.network.flows.study import CompareReport, head_to_head, run_fabric
from repro.network.flows.workload import (
    FlowSpec,
    SizeDistribution,
    WorkloadSpec,
    generate_flows,
    one_shot_flows,
    size_distribution,
    size_distribution_names,
)

__all__ = [
    "CompareReport",
    "ConcentratorFabric",
    "Event",
    "EventQueue",
    "FabricStage",
    "FatTreeFabric",
    "FlowSim",
    "FlowSimResult",
    "FlowSpec",
    "KnockoutFabric",
    "RotorFabric",
    "SimClock",
    "SizeDistribution",
    "WorkloadSpec",
    "build_fabric",
    "fabric_names",
    "generate_flows",
    "head_to_head",
    "one_shot_flows",
    "run_fabric",
    "size_distribution",
    "size_distribution_names",
]
