"""Routing-network application substrate.

The paper's introduction motivates concentrators as components of the
message-routing networks of parallel computers: many input lines carry
relatively few messages that must be funneled onto fewer output links.
This package provides the synthetic workloads and round-based network
simulations that exercise that use case:

* :mod:`repro.network.traffic` — Bernoulli, fixed-k, and hot-spot
  workload generators;
* :mod:`repro.network.simulate` — single-switch simulations under a
  congestion policy, with throughput/loss statistics (the light-load
  equivalence experiment of Section 1 lives here);
* :mod:`repro.network.funnel` — multi-level concentration funnels
  with per-level loss accounting;
* :mod:`repro.network.flows` — the event-driven flow-level layer:
  TCP-ish flows with heavy-tailed sizes against pluggable fabric
  stages, measuring flow-completion times (``repro flows``).
"""

from repro.network.analytic import (
    knockout_l_for_target_loss,
    knockout_loss_analytic,
)
from repro.network.fattree import (
    FatTree,
    Routed,
    constant_capacity,
    full_bisection_capacity,
    random_permutation_round,
    universal_capacity,
)
from repro.network.flows import (
    FlowSim,
    FlowSimResult,
    FlowSpec,
    WorkloadSpec,
    build_fabric,
    fabric_names,
    generate_flows,
    head_to_head,
)
from repro.network.funnel import FunnelNetwork, LevelStats
from repro.network.knockout import (
    KnockoutSwitch,
    Packet,
    knockout_loss_curve,
    uniform_packet_traffic,
)
from repro.network.simulate import (
    RoundResult,
    SwitchSimulation,
    compare_partial_vs_perfect,
)
from repro.network.traffic import (
    BernoulliTraffic,
    FixedKTraffic,
    HotSpotTraffic,
    TrafficGenerator,
)

__all__ = [
    "BernoulliTraffic",
    "FatTree",
    "FlowSim",
    "FlowSimResult",
    "FlowSpec",
    "WorkloadSpec",
    "build_fabric",
    "fabric_names",
    "generate_flows",
    "head_to_head",
    "Routed",
    "constant_capacity",
    "full_bisection_capacity",
    "knockout_l_for_target_loss",
    "knockout_loss_analytic",
    "random_permutation_round",
    "universal_capacity",
    "FunnelNetwork",
    "KnockoutSwitch",
    "LevelStats",
    "Packet",
    "knockout_loss_curve",
    "uniform_packet_traffic",
    "FixedKTraffic",
    "HotSpotTraffic",
    "RoundResult",
    "SwitchSimulation",
    "TrafficGenerator",
    "compare_partial_vs_perfect",
]
