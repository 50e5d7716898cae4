"""Catalog of every metric and span the library emits.

Documentation-as-data: ``python -m repro obs`` renders this table, and
:mod:`docs/observability.md` mirrors it.  Keeping the names here (and
asserting the instrumented modules only use cataloged names, see
``tests/test_obs.py``) prevents the metric namespace from drifting.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MetricInfo:
    name: str
    kind: str  # "counter" | "gauge" | "histogram" | "series" | "span"
    labels: tuple[str, ...]
    description: str


CATALOG: tuple[MetricInfo, ...] = (
    # switches/
    MetricInfo("switch.built", "counter", ("name",),
               "switches instantiated through the registry, by design name"),
    MetricInfo("switch.route_calls", "counter", ("switch",),
               "ConcentratorSwitch.route invocations, by switch class"),
    MetricInfo("switch.valid_in", "counter", ("switch",),
               "valid messages presented to route(), by switch class"),
    MetricInfo("switch.routed_out", "counter", ("switch",),
               "messages that received an output path, by switch class"),
    # engine/
    MetricInfo("engine.plan_cache.hit", "counter", ("kind",),
               "compiled stage-plan cache hits, by plan kind"),
    MetricInfo("engine.plan_cache.miss", "counter", ("kind",),
               "stage-plan cache misses (plan compiled), by plan kind"),
    MetricInfo("engine.batch_setups", "counter", ("switch",),
               "setup_batch invocations, by switch class"),
    MetricInfo("engine.batch_trials", "counter", ("switch",),
               "total trials routed through setup_batch, by switch class"),
    MetricInfo("engine.plan_cache.restored", "counter", ("kind",),
               "plans installed from a shipped PlanCache.snapshot() "
               "payload (worker warm-start), by plan kind"),
    MetricInfo("engine.shards", "counter", ("backend",),
               "stream shards and fan_out jobs, by backend name or fan_out "
               "label (process, certify, sweep, compare); also the span "
               "wrapping a fan_out dispatch round (meta: backend, "
               "shards) — the causal parent shipped to every worker"),
    MetricInfo("engine.shard", "span", (),
               "one shard executing in a worker (meta: shard index)"),
    MetricInfo("engine.supervisor", "span", (),
               "one supervised dispatch round over the worker pool "
               "(meta: shards, workers, label) — wraps submission, the "
               "retry loop, and any respawns/fallbacks"),
    MetricInfo("engine.shard_retries", "counter", (),
               "shard resubmissions by the supervisor (worker death, "
               "deadline expiry, transient exception, or rescue after a "
               "pool respawn); zero on a clean run"),
    MetricInfo("engine.shard_timeouts", "counter", (),
               "shards that outlived the supervisor's per-shard "
               "deadline (each also costs a charged retry and a "
               "kill-respawn of the pool)"),
    MetricInfo("engine.pool_respawns", "counter", (),
               "worker-pool executor teardowns + rebuilds by the "
               "supervisor after a worker death or deadline expiry"),
    MetricInfo("engine.degraded_fallbacks", "counter", (),
               "shards run in-process in the parent after exhausting "
               "their retry budget (graceful degradation)"),
    MetricInfo("engine.run_plan.seconds", "histogram", (),
               "wall time of one plan walk (batched or one-row), one "
               "observation per call"),
    MetricInfo("engine.stage.seconds", "histogram", (),
               "wall time of one chip or comparator layer inside a plan "
               "walk, one observation per layer"),
    # network/simulate
    MetricInfo("sim.rounds", "counter", (),
               "simulation rounds executed by SwitchSimulation.run"),
    MetricInfo("sim.offered", "counter", (),
               "fresh messages offered by the traffic generator"),
    MetricInfo("sim.injected", "counter", (),
               "messages entering the switch (fresh + re-injected backlog)"),
    MetricInfo("sim.delivered", "counter", (),
               "messages delivered to an output"),
    MetricInfo("sim.lost", "counter", (),
               "messages permanently dropped by the congestion policy"),
    MetricInfo("sim.retried", "counter", (),
               "messages queued by the policy for a later round"),
    MetricInfo("sim.faulted", "counter", (),
               "messages killed at a flaky input pin before the switch"),
    MetricInfo("sim.expired", "counter", (),
               "messages the congestion policy aged out via its TTL"),
    MetricInfo("sim.run", "span", (),
               "one SwitchSimulation.run call (meta: rounds)"),
    MetricInfo("sim.round", "span", (),
               "one simulated round inside sim.run (meta: round)"),
    # network/flows (the event-driven flow simulator, see docs/flows.md)
    MetricInfo("flows.cells_offered", "counter", ("fabric",),
               "cell transmission attempts offered to a fabric stage "
               "(retransmissions count again), by fabric"),
    MetricInfo("flows.cells_delivered", "counter", ("fabric",),
               "cells delivered through the fabric, by fabric"),
    MetricInfo("flows.cells_dropped", "counter", ("fabric",),
               "cells permanently dropped (no backpressure), by fabric"),
    MetricInfo("flows.cells_blocked", "counter", ("fabric",),
               "cells blocked awaiting their slot (rotor), by fabric"),
    MetricInfo("flows.cells_faulted", "counter", ("fabric",),
               "cells garbled at a flaky input pin, by fabric"),
    MetricInfo("flows.cycles", "counter", ("fabric",),
               "fabric cycles executed by FlowSim.run, by fabric"),
    MetricInfo("flows.events", "counter", ("fabric",),
               "queue events popped by FlowSim.run, by fabric"),
    MetricInfo("flows.run", "span", (),
               "one FlowSim.run call (meta: fabric, flows)"),
    MetricInfo("flows.compare", "span", (),
               "one head-to-head fabric study (meta: fabrics, n)"),
    MetricInfo("flows.queue_depth", "series", ("fabric",),
               "per-cycle cells held inside the fabric stage, by fabric"),
    MetricInfo("flows.inflight_cells", "series", ("fabric",),
               "per-cycle cells the simulator has handed to the fabric "
               "but not yet seen delivered, by fabric"),
    MetricInfo("flows.cwnd_mean", "series", ("fabric",),
               "per-cycle mean AIMD congestion window across flows"),
    MetricInfo("flows.delivery_rate", "series", ("fabric",),
               "cells delivered per fabric cycle, by fabric"),
    MetricInfo("flows.drop_rate", "series", ("fabric",),
               "cells dropped per fabric cycle (no backpressure), by fabric"),
    MetricInfo("flows.fifo_depth", "series", ("fabric",),
               "per-cycle total knockout egress-FIFO occupancy"),
    # network/knockout
    MetricInfo("knockout.offered", "counter", (),
               "packets offered to the knockout switch"),
    MetricInfo("knockout.knocked_out", "counter", (),
               "packets lost in an output concentrator (arrivals > L)"),
    MetricInfo("knockout.buffer_overflow", "counter", (),
               "packets lost to a full output FIFO"),
    MetricInfo("knockout.delivered", "counter", (),
               "packets leaving on an output line"),
    MetricInfo("knockout.config", "span", (),
               "one (load, L) cell of knockout_loss_curve (meta: load, L)"),
    # messages/congestion
    MetricInfo("congestion.dropped", "counter", ("policy",),
               "messages a congestion policy declared lost"),
    MetricInfo("congestion.retried", "counter", ("policy",),
               "messages a congestion policy queued for retry"),
    MetricInfo("congestion.expired", "counter", ("policy",),
               "TTL expiries (sub-count of congestion.dropped)"),
    MetricInfo("congestion.queue_depth", "series", ("policy",),
               "per-round input-buffer depth of BufferPolicy"),
    MetricInfo("congestion.inflight", "series", ("policy",),
               "per-round messages waiting out a RetryPolicy backoff"),
    # faults/
    MetricInfo("faults.injected", "counter", ("kind",),
               "faults compiled into a FaultySwitch, by fault kind"),
    MetricInfo("faults.scenarios", "counter", (),
               "fault scenarios measured by measure_scenario"),
    MetricInfo("faults.measure", "span", (),
               "one scenario degradation measurement (meta: scenario, "
               "faults, trials)"),
    MetricInfo("faults.sweep", "span", (),
               "one full fault campaign (meta: design, chains, trials)"),
    # messages/serial_sim + clock
    MetricInfo("serial.transits", "counter", (),
               "bit-serial message-set transits simulated"),
    MetricInfo("serial.cycles", "counter", (),
               "clock cycles streamed (setup cycle + one per payload bit)"),
    MetricInfo("serial.transit_cycles", "histogram", (),
               "cycles per transit (payload length + 1)"),
    MetricInfo("serial.transit", "span", (),
               "one BitSerialSimulator.transit call"),
    MetricInfo("pipeline.waves", "counter", (),
               "message waves driven by WavePipeline.run"),
    # gates/event_sim
    MetricInfo("gates.transitions", "counter", (),
               "input transitions simulated by EventSimulator"),
    MetricInfo("gates.wire_events", "counter", (),
               "wire value changes propagated during settling"),
    MetricInfo("gates.settle_time", "histogram", (),
               "settle time (gate delays) per input transition"),
    MetricInfo("gates.glitches", "histogram", (),
               "glitch count (extra transitions) per input transition"),
    # verify/
    MetricInfo("verify.patterns", "counter", ("design",),
               "valid-bit patterns enumerated by the certifier, by design"),
    MetricInfo("verify.violations", "counter", ("design", "check"),
               "contract/parity/metamorphic violations found, by design and check"),
    MetricInfo("verify.certify", "span", (),
               "one certify_switch run (meta: design, n, m)"),
    # obs/perf (the performance observatory, see docs/performance.md)
    MetricInfo("bench.repeat", "span", (),
               "one timed repeat of a bench spec (meta: bench, repeat)"),
    # obs/live (the live telemetry pipeline, see docs/observability.md)
    MetricInfo("proc.rss_kb", "gauge", (),
               "resident set size of the process, KiB (resource sampler)"),
    MetricInfo("proc.cpu_s", "gauge", (),
               "cumulative user+system CPU seconds (resource sampler)"),
    MetricInfo("proc.gc_collections", "gauge", (),
               "total Python GC collections across generations"),
    MetricInfo("obs.heartbeats", "counter", (),
               "resource-sampler heartbeats emitted this run"),
    MetricInfo("obs.workers_merged", "counter", ("worker",),
               "worker registry snapshots merged into this registry"),
)

#: Derived timing histograms: every span also fills ``<name>.seconds``.
SPAN_SECONDS_SUFFIX = ".seconds"


def metric_names() -> list[str]:
    return [m.name for m in CATALOG]


def catalog_rows() -> list[dict[str, str]]:
    """Catalog as table rows for the CLI / reports."""
    return [
        {
            "metric": m.name,
            "kind": m.kind,
            "labels": ",".join(m.labels) or "-",
            "description": m.description,
        }
        for m in CATALOG
    ]
