"""The per-layer table: which public functions make up each layer, how
each is timed and counted, which workloads should call it, and which
end-to-end metric it should move.

A layer's time is its *self* time in the traced run: the time inside its
functions minus the time inside other traced layers they call.  Self
times plus ``unattributed`` add up to the traced wall time.  Times are
reported as a share (%) of that wall time; ``trace.wall_s`` turns a
share back into seconds.

``on`` lists the workloads whose traced run must record at least one
call; every other workload is predicted to bypass the layer (no calls,
zero time).  ``moves`` is the end-to-end metric a change to the layer
should move on those workloads.

``tracer.py`` dispatches only on ``Target.span`` and ``Count.kind``, so
renaming a target or a count here needs no change there.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL = ("certify", "faults", "flows", "verify")


@dataclass(frozen=True)
class Count:
    """An exact count read off the calls of one target."""

    name: str
    #: What is added up:
    #:
    #: - ``"calls"``: outermost calls into the layer through this target
    #:   (spans, for ``builder`` and ``each_next`` targets);
    #: - ``"arg"``: the integer argument ``field`` of each outermost call;
    #: - ``"arg_rows"``: rows of the array argument ``field`` of each
    #:   outermost call (1 for a single row);
    #: - ``"result"``: attribute ``field`` of each outermost call's result;
    #: - ``"items"``: rows of every chunk an ``each_next`` target yields;
    #: - ``"pickled_args"``: pickled size of the arguments after ``self``,
    #:   on every call.
    kind: str
    field: str | None = None
    unit: str = "count"


@dataclass(frozen=True)
class Target:
    """A public function timed as part of a layer."""

    module: str
    #: Function name, or ``Class.method``.
    qualname: str
    #: What the layer's span covers:
    #:
    #: - ``"call"``: each call;
    #: - ``"builder"``: only the call's ``builder`` argument, so a cache
    #:   lookup is timed only when it misses and builds;
    #: - ``"each_next"``: each ``next`` of the iterator the call returns
    #:   (its last element, when the call returns a tuple);
    #: - ``"first_call"``: the first call on each ``generation`` of the
    #:   object, the one that starts a fresh pool's processes.
    span: str = "call"
    counts: tuple[Count, ...] = ()


@dataclass(frozen=True)
class Layer:
    name: str
    on: tuple[str, ...]
    moves: str
    targets: tuple[Target, ...]

    @property
    def counts(self) -> tuple[Count, ...]:
        """The layer's counts, each once (targets may share one)."""
        seen: dict[str, Count] = {}
        for target in self.targets:
            for count in target.counts:
                seen.setdefault(count.name, count)
        return tuple(seen.values())


def calls(name: str) -> Count:
    return Count(name, "calls")


FABRIC_CLASSES = {
    "concentrator": "ConcentratorFabric",
    "fattree": "FatTreeFabric",
    "knockout": "KnockoutFabric",
    "rotor": "RotorFabric",
}

LAYERS = (
    # No targets: the tracer times ``import repro.cli`` itself.
    Layer("cli.import", ALL, "setup_s", ()),
    Layer(
        "engine.plan.compile", ("certify", "faults"), "setup_s",
        (
            Target(
                "repro.engine.plan", "PlanCache.get_or_build", span="builder",
                counts=(calls("engine.plan.misses"),),
            ),
        ),
    ),
    Layer(
        "verify.netlist_build", ("certify",), "setup_s",
        (Target("repro.verify.differential", "netlist_for"),),
    ),
    Layer(
        "engine.batch.setup_batch", ("certify", "flows"), "wall_s",
        (
            Target(
                "repro.switches.base", "ConcentratorSwitch.setup_batch",
                counts=(
                    calls("engine.batch.setup_batch.calls"),
                    Count("engine.batch.setup_batch.rows", "arg_rows", "valid"),
                ),
            ),
        ),
    ),
    Layer(
        "engine.batch.validate", ("certify",), "wall_s",
        (Target("repro.engine.batch", "validate_batch_partial_concentration"),),
    ),
    Layer(
        "engine.batch.fault_walker", ("faults",), "wall_s",
        (
            Target(
                "repro.engine.batch", "run_plan_with_faults",
                counts=(calls("engine.batch.fault_walker.calls"),),
            ),
        ),
    ),
    Layer(
        "verify.patterns", ("certify",), "wall_s",
        tuple(
            Target(
                "repro.verify.patterns", fn, span="each_next",
                counts=(Count("verify.patterns", "items"),),
            )
            for fn in ("all_patterns", "patterns_with_k")
        ),
    ),
    Layer(
        "verify.occupancy", ("certify",), "wall_s",
        (
            Target("repro.verify.differential", "output_occupancy"),
            Target("repro.engine.batch", "nearsortedness_batch"),
        ),
    ),
    Layer(
        "verify.scalar_parity", ("certify",), "wall_s",
        (Target("repro.verify.differential", "scalar_parity_failures"),),
    ),
    Layer(
        "verify.metamorphic", ("certify",), "wall_s",
        (Target("repro.verify.metamorphic", "metamorphic_failures"),),
    ),
    Layer(
        "gates.evaluate", ("certify", "faults"), "wall_s",
        (
            Target(
                "repro.verify.differential", "gate_parity_failures",
                counts=(calls("gates.evaluate.calls"),),
            ),
            Target(
                "repro.faults.injector", "gate_occupancy",
                counts=(calls("gates.evaluate.calls"),),
            ),
        ),
    ),
    Layer(
        "faults.sample", ("faults",), "wall_s",
        tuple(
            Target("repro.faults.sampling", fn)
            for fn in ("sample_scenario", "sample_chain", "sample_flaky_scenario")
        ),
    ),
    Layer(
        "faults.measure", ("faults",), "wall_s",
        (Target("repro.faults.certify", "measure_scenario"),),
    ),
    Layer(
        "network.simulate", ("faults",), "wall_s",
        (
            Target(
                "repro.network.simulate", "SwitchSimulation.run",
                counts=(Count("network.simulate.rounds", "arg", "rounds"),),
            ),
        ),
    ),
    Layer(
        "flows.generate", ("flows",), "wall_s",
        (Target("repro.network.flows.workload", "generate_flows"),),
    ),
    Layer(
        "flows.sim_self", ("flows",), "wall_s",
        (
            Target(
                "repro.network.flows.sim", "FlowSim.run",
                counts=(
                    Count("flows.events", "result", "events"),
                    Count("flows.cycles", "result", "cycles"),
                ),
            ),
        ),
    ),
    *(
        Layer(
            f"flows.fabric.{fabric}.step", ("flows",), "wall_s",
            (
                Target(
                    "repro.network.flows.fabric", f"{cls}.step",
                    counts=(calls(f"flows.fabric.{fabric}.steps"),),
                ),
            ),
        )
        for fabric, cls in FABRIC_CLASSES.items()
    ),
    Layer(
        "engine.backends.spawn", ("verify",), "setup_s",
        (
            Target("repro.engine.backends.pool", "WorkerPool.executor"),
            Target("repro.engine.backends.pool", "WorkerPool.plan_payload"),
            Target(
                "repro.engine.backends.pool", "WorkerPool.submit", span="first_call",
                counts=(
                    Count("engine.backends.job_bytes", "pickled_args", unit="bytes"),
                ),
            ),
        ),
    ),
    Layer(
        "engine.backends.dispatch", ("verify",), "wall_s",
        (
            Target("repro.engine.backends.sharded", "ShardedBackend.run_stream"),
            Target("repro.engine.backends.sharded", "ShardedBackend.run_trials"),
        ),
    ),
)

def share_metric(layer: str) -> str:
    """Metric name of a layer's self-time share."""
    return f"{layer}_pct"


#: Per-layer metrics beside the layer shares and counts: name → unit.
EXTRA_METRICS = {
    "unattributed_pct": "%",
    "engine.backends.worker_cpu_pct": "%",
    "engine.backends.worker_idle_pct": "%",
    "engine.backends.retries": "count",
    "obs.tax_pct": "%",
    "obs.journal_bytes": "bytes",
    "obs.journal_frames": "count",
    "trace.wall_s": "s",
    "trace.overhead_pct": "%",
    "host.ref_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[share_metric(layer.name)] = "%"
        for count in layer.counts:
            units[count.name] = count.unit
    units.update(EXTRA_METRICS)
    return units
