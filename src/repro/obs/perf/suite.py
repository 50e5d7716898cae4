"""Registry-driven bench suites for ``repro bench run``.

A :class:`BenchSpec` names a deterministic workload; a *suite* is a
tag selecting specs sized for a purpose — ``smoke`` runs in seconds
for CI, ``full`` runs the paper-scale n=4096 geometries, including the
scalar ``setup`` oracle next to the batched engine so the ledger keeps
the scalar-vs-batch ratio.  Every workload draws from
:func:`repro._util.rng.default_rng` with a fixed per-record seed and
re-seeds identically on every repeat, so repeats measure machine noise
only, never workload variance.

:func:`run_bench` executes one spec and returns a trajectory record
(see :mod:`repro.obs.perf.trajectory`) capturing:

* ``wall_s`` per repeat plus the median/best (median is what
  :mod:`repro.obs.perf.regression` gates on);
* per-stage span timings from the ``repro.obs`` registry collected
  around the run (``engine.stage.seconds`` et al.);
* plan-cache hit/miss deltas and the derived hit rate;
* ``host_ref_s``, the host's time for a fixed reference loop taken
  just before the repeats (:mod:`repro.obs.perf.hostref`), which
  ``repro bench compare`` normalises by;
* peak RSS (``resource.getrusage``) and — in a separate *untimed*
  pass so timings stay clean — tracemalloc's peak allocation and live
  block count.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from repro import obs
from repro._util.bits import ilg
from repro._util.rng import DEFAULT_SEED, default_rng
from repro.errors import (
    ConcentrationError,
    ConfigurationError,
    RoutingError,
    SimulationError,
)
from repro.obs.perf.trajectory import new_record


@dataclass(frozen=True)
class Workload:
    """A built bench: ``run(rng)`` does the work and returns how many
    ``unit`` s it processed; ``meta`` is static spec context that lands
    in the record (sizes, gate delays, theory lines).  ``check``, when
    set, runs once after the timed repeats and raises if their output
    was wrong — verification that must not be timed."""

    run: Callable[[np.random.Generator], int]
    meta: dict = field(default_factory=dict)
    check: Callable[[], None] | None = None


@dataclass(frozen=True)
class BenchSpec:
    """One registered bench: id, the suites it belongs to, the unit of
    work, and a factory building its :class:`Workload` (construction —
    switch building, plan compilation — happens in ``make`` so it is
    excluded from the timed region)."""

    id: str
    suites: tuple[str, ...]
    unit: str
    make: Callable[[], Workload]
    description: str = ""


#: Worker cap for the scaling workloads, installed by :func:`run_bench`
#: from the CLI's ``--workers`` for the duration of ``spec.make()``.
#: ``None`` means uncapped (each spec uses its registered worker count).
_WORKERS_CAP: int | None = None


def _warm(switch) -> None:
    """Compile the switch's plan outside the timed region."""
    warm = np.zeros((2, switch.n), dtype=bool)
    warm[:, 0] = True
    switch.setup_batch(warm)


def _engine_factory(build: Callable[[], object], trials: int):
    """Engine throughput: route ``trials`` random half-load rows
    through one ``setup_batch`` call on the warmed plan cache."""

    def make() -> Workload:
        switch = build()
        _warm(switch)

        def run(rng: np.random.Generator) -> int:
            valid = rng.random((trials, switch.n)) < 0.5
            switch.setup_batch(valid)
            return trials

        return Workload(
            run=run,
            meta={"n": switch.n, "m": switch.m, "trials": trials},
        )

    return make


def _scalar_factory(build: Callable[[], object], trials: int):
    """Scalar oracle throughput: route the ``engine.*`` bench's
    ``trials`` half-load rows through a plain ``setup`` loop.  Dividing
    this bench's wall time by the same geometry's ``engine.*`` bench
    gives the scalar-vs-batch ratio.  After timing, the last repeat's
    routings must equal one ``setup_batch`` call on the same rows, or
    the bench raises :class:`~repro.errors.RoutingError`."""

    def make() -> Workload:
        switch = build()
        _warm(switch)
        last: dict[str, np.ndarray] = {}

        def run(rng: np.random.Generator) -> int:
            valid = rng.random((trials, switch.n)) < 0.5
            last["valid"] = valid
            last["routing"] = np.stack(
                [switch.setup(row).input_to_output for row in valid]
            )
            return trials

        def check() -> None:
            batch = switch.setup_batch(last["valid"]).input_to_output
            wrong = np.flatnonzero((batch != last["routing"]).any(axis=1))
            if wrong.size:
                raise RoutingError(
                    f"{switch!r}: scalar setup and setup_batch disagree on "
                    f"{wrong.size} of {trials} trials (first: {int(wrong[0])})"
                )

        return Workload(
            run=run,
            meta={"n": switch.n, "m": switch.m, "trials": trials},
            check=check,
        )

    return make


def _scaling_factory(
    build: Callable[[], object], trials: int, workers: int, shard_trials: int
):
    """Cores-vs-throughput point for the ``scaling`` suite: stream
    ``trials`` half-load trials through the sharded process backend at
    a fixed worker count.  The shard grid depends only on ``trials`` /
    ``shard_trials`` — never on ``workers`` — so every point of the
    curve folds the same per-shard summaries; only the wall time moves.
    ``workers`` is clamped by :func:`run_bench`'s ``workers_cap`` (the
    CLI's ``--workers``) so smoke boxes never oversubscribe."""

    def make() -> Workload:
        from repro.engine import StreamSpec, get_backend

        switch = build()
        _warm(switch)
        effective = workers
        if _WORKERS_CAP is not None and _WORKERS_CAP >= 1:
            effective = min(effective, _WORKERS_CAP)
        backend = get_backend(
            "process", workers=effective, shard_trials=shard_trials
        )
        stream = StreamSpec(
            trials=trials,
            seed=DEFAULT_SEED,
            load="half",
            shard_trials=shard_trials,
            check_contract=False,
            measure_epsilon=False,
        )
        # Spin the pool up (fork + numpy import) outside the timed region.
        backend.run_stream(
            switch, StreamSpec(trials=shard_trials, shard_trials=shard_trials)
        )

        def run(rng: np.random.Generator) -> int:
            summary = backend.run_stream(switch, stream)
            return summary.trials

        return Workload(
            run=run,
            meta={
                "n": switch.n,
                "m": switch.m,
                "trials": trials,
                "shard_trials": shard_trials,
                "backend": "process",
                "workers": workers,
                "workers_effective": effective,
            },
        )

    return make


def _quality_factory(
    build: Callable[[], object], trials: int, family: str, beta: float | None
):
    """Thm-3/4 quality bench: batch-verify the contract and measure the
    worst nearsortedness over random mixed-load trials — the workload
    behind ``repro verify --backend batch`` — with the delay-in-gates
    theory line recorded for the trajectory report."""

    def make() -> Workload:
        from repro.engine import (
            nearsortedness_batch,
            validate_batch_partial_concentration,
        )
        from repro.verify.differential import output_occupancy

        switch = build()
        _warm(switch)
        t = ilg(switch.n)
        theory = 3 * t if family == "revsort" else 4 * (beta or 0.0) * t

        def run(rng: np.random.Generator) -> int:
            valid = rng.random((trials, switch.n)) < rng.random((trials, 1))
            batch = switch.setup_batch(valid)
            validate_batch_partial_concentration(switch.spec, batch)
            occupancy = output_occupancy(switch, batch)
            if occupancy is not None:
                nearsortedness_batch(occupancy).max(initial=0)
            return trials

        return Workload(
            run=run,
            meta={
                "n": switch.n,
                "m": switch.m,
                "trials": trials,
                "family": family,
                "beta": beta,
                "gate_delays": int(switch.gate_delays),
                "theory_delays": float(theory),
                "epsilon_bound": getattr(switch, "epsilon_bound", None),
            },
        )

    return make


def _stream_factory(build: Callable[[], object], trials: int):
    """Checked stream shard: ``trials`` mixed-load trials as one shard
    of the sharded backend's stream, run inline, with the contract
    check and the ε measurement on — the per-shard body of ``repro
    verify --backend process``.  Raises :class:`~repro.errors.ConcentrationError` on a
    violation."""

    def make() -> Workload:
        from repro.engine import StreamSpec, get_backend

        switch = build()
        _warm(switch)
        backend = get_backend("process", workers=1)
        stream = StreamSpec(trials=trials, seed=DEFAULT_SEED, shard_trials=trials)

        def run(rng: np.random.Generator) -> int:
            summary = backend.run_stream(switch, stream)
            if summary.violations:
                raise ConcentrationError(
                    f"{switch!r}: {summary.violations} stream violation(s): "
                    + "; ".join(summary.messages)
                )
            return summary.trials

        return Workload(
            run=run, meta={"n": switch.n, "m": switch.m, "trials": trials}
        )

    return make


def _certify_factory(design: str, params: dict):
    """Certify wall time: one full ``certify_design`` run (exhaustive
    at these sizes); work is the number of patterns proved."""

    def make() -> Workload:
        from repro.verify import CertifyOptions, certify_design

        def run(rng: np.random.Generator) -> int:
            cert = certify_design(design, dict(params), options=CertifyOptions())
            if not cert.ok:
                raise ConfigurationError(
                    f"certify bench found violations in {design!r}"
                )
            return cert.total_patterns

        return Workload(run=run, meta={"design": design, **params})

    return make


def _flows_factory(
    fabric: str, n: int, load: float, duration: float, sizes: str, **params
):
    """Event-driven flow-sim throughput: one full drain of a seeded
    workload against ``fabric``; work is the event count (queue events
    plus per-cell outcomes).  The flow list is generated in ``make``
    (untimed); the stage is rebuilt per repeat because stages are
    stateful (FIFOs, rotor phase) — plan compilation is already cached
    after the warm-up build."""

    def make() -> Workload:
        from repro.network.flows import (
            FlowSim,
            WorkloadSpec,
            build_fabric,
            generate_flows,
        )

        spec = WorkloadSpec(
            n=n, load=load, duration=duration, sizes=sizes, seed=DEFAULT_SEED
        )
        flows = generate_flows(spec)
        build_fabric(fabric, n, **params)  # warm the plan cache
        cap = int(duration) * 50 + 5000

        meta = {
            "fabric": fabric,
            "n": n,
            "load": load,
            "duration": duration,
            "sizes": sizes,
            "flows": len(flows),
        }

        def run(rng: np.random.Generator) -> int:
            stage = build_fabric(fabric, n, **params)
            result = FlowSim(stage, flows, max_cycles=cap).run()
            # The run is deterministic, so stamping the FCT percentiles
            # per repeat is idempotent; they land in the trajectory
            # record's meta for `repro obs report`'s flows section.
            percentiles = result.fct_percentiles((50.0, 99.0))
            for q, key in ((50.0, "fct_p50"), (99.0, "fct_p99")):
                value = percentiles[f"p{q:g}"]
                meta[key] = None if value != value else value
            return result.events

        return Workload(run=run, meta=meta)

    return make


def _resilience_factory(build: Callable[[], object], rounds: int, pins: int):
    """Flaky-pin resilience: one :func:`~repro.faults.flaky_resilience`
    run (the no-retry and the retry/backoff simulation, ``rounds``
    rounds each) on a seeded ``pins``-pin flaky scenario — the
    simulator half of ``repro faults sweep``; work is ``rounds``.
    After timing, the bench raises
    :class:`~repro.errors.SimulationError` unless retrying recovered
    at least the no-retry delivery rate."""

    def make() -> Workload:
        from repro.faults import flaky_resilience, sample_flaky_scenario

        switch = build()
        _warm(switch)
        scenario = sample_flaky_scenario(
            switch, pins=pins, rng=default_rng(DEFAULT_SEED), name="bench-flaky"
        )
        last: dict[str, dict] = {}

        def run(rng: np.random.Generator) -> int:
            last["result"] = flaky_resilience(switch, scenario, rounds=rounds)
            return rounds

        def check() -> None:
            result = last["result"]
            if not result["recovered"]:
                raise SimulationError(
                    f"{switch!r}: retry delivered "
                    f"{result['retry_delivery_rate']:.4f} < no-retry "
                    f"{result['drop_delivery_rate']:.4f} under {scenario.name}"
                )

        return Workload(
            run=run,
            meta={"n": switch.n, "m": switch.m, "rounds": rounds, "pins": pins},
            check=check,
        )

    return make


def _columnsort(n: int, m: int):
    from repro.switches.columnsort_switch import ColumnsortSwitch

    return lambda: ColumnsortSwitch.from_beta(n, 0.75, m)


def _revsort(n: int, m: int):
    from repro.switches.revsort_switch import RevsortSwitch

    return lambda: RevsortSwitch(n, m)


def _hyper(n: int):
    from repro.switches.hyperconcentrator import Hyperconcentrator

    return lambda: Hyperconcentrator(n)


def _fullrevsort(n: int):
    from repro.switches.multichip_hyper import FullRevsortHyperconcentrator

    return lambda: FullRevsortHyperconcentrator(n)


#: Every registered bench.  Ids are stable — they key the trajectory —
#: so renaming one orphans its history; add new ids instead.
SPECS: tuple[BenchSpec, ...] = (
    # -- engine throughput --------------------------------------------
    BenchSpec(
        "engine.columnsort-n256", ("smoke",), "trials",
        _engine_factory(_columnsort(256, 192), trials=64),
        "batched routing, Columnsort beta=0.75 at n=256",
    ),
    BenchSpec(
        "engine.revsort-n256", ("smoke",), "trials",
        _engine_factory(_revsort(256, 192), trials=64),
        "batched routing, Revsort at n=256",
    ),
    BenchSpec(
        "engine.hyper-n256", ("smoke",), "trials",
        _engine_factory(_hyper(256), trials=64),
        "batched routing, functional hyperconcentrator at n=256",
    ),
    BenchSpec(
        "engine.columnsort-n4096", ("full",), "trials",
        _engine_factory(_columnsort(4096, 3072), trials=128),
        "batched routing, the Thm-4 headline geometry (r=512, s=8)",
    ),
    BenchSpec(
        "engine.revsort-n4096", ("full",), "trials",
        _engine_factory(_revsort(4096, 3072), trials=128),
        "batched routing, Revsort at n=4096",
    ),
    BenchSpec(
        "engine.hyper-n4096", ("full",), "trials",
        _engine_factory(_hyper(4096), trials=128),
        "batched routing, functional hyperconcentrator at n=4096",
    ),
    BenchSpec(
        "engine.fullrevsort-n4096", ("full",), "trials",
        _engine_factory(_fullrevsort(4096), trials=128),
        "batched routing, Section 6 full-Revsort hyperconcentrator",
    ),
    # -- the scalar oracle on the engine benches' rows ------------------
    BenchSpec(
        "scalar.columnsort-n4096", ("full",), "trials",
        _scalar_factory(_columnsort(4096, 3072), trials=128),
        "scalar setup loop, the Thm-4 headline geometry; raises unless "
        "it matches setup_batch",
    ),
    BenchSpec(
        "scalar.revsort-n4096", ("full",), "trials",
        _scalar_factory(_revsort(4096, 3072), trials=128),
        "scalar setup loop, Revsort at n=4096; raises unless it matches "
        "setup_batch",
    ),
    # -- Thm-3/4 quality geometries ------------------------------------
    BenchSpec(
        "quality.thm3-revsort-n256", ("smoke",), "trials",
        _quality_factory(_revsort(256, 192), 64, "revsort", None),
        "Thm-3 contract + worst-eps sweep, Revsort n=256",
    ),
    BenchSpec(
        "quality.thm4-columnsort-n256", ("smoke",), "trials",
        _quality_factory(_columnsort(256, 192), 64, "columnsort", 0.75),
        "Thm-4 contract + worst-eps sweep, Columnsort n=256",
    ),
    BenchSpec(
        "quality.thm3-revsort-n4096", ("full",), "trials",
        _quality_factory(_revsort(4096, 3072), 128, "revsort", None),
        "Thm-3 contract + worst-eps sweep, Revsort n=4096",
    ),
    BenchSpec(
        "quality.thm4-columnsort-n4096", ("full",), "trials",
        _quality_factory(_columnsort(4096, 3072), 128, "columnsort", 0.75),
        "Thm-4 contract + worst-eps sweep, the columnsort n=4096 geometry",
    ),
    # -- the checked trial stream --------------------------------------
    BenchSpec(
        "verify.stream-revsort-n1024", ("smoke",), "trials",
        _stream_factory(_revsort(1024, 768), trials=4096),
        "one checked 4096-trial stream shard (contract + worst eps), "
        "Revsort n=1024",
    ),
    # -- certification wall time ---------------------------------------
    BenchSpec(
        "certify.revsort-n16", ("smoke", "full"), "patterns",
        _certify_factory("revsort", {"n": 16, "m": 12}),
        "exhaustive certify_design('revsort', n=16) wall time",
    ),
    # -- fault campaign: the round simulator under flaky pins ----------
    BenchSpec(
        "faults.resilience-revsort-n4096", ("smoke",), "rounds",
        _resilience_factory(_revsort(4096, 3072), rounds=10, pins=3),
        "flaky_resilience, 10 rounds on Revsort n=4096; raises unless "
        "retrying recovers",
    ),
    # -- event-driven flow simulator (see docs/flows.md) ---------------
    BenchSpec(
        "flows.concentrator-n64", ("flows",), "events",
        _flows_factory("concentrator", 64, 0.7, 120.0, "websearch"),
        "event-driven drain, revsort concentrator fabric at n=64",
    ),
    BenchSpec(
        "flows.fattree-n64", ("flows",), "events",
        _flows_factory("fattree", 64, 0.7, 120.0, "websearch"),
        "event-driven drain, fat-tree up-path fabric at n=64",
    ),
    BenchSpec(
        "flows.knockout-n64", ("flows",), "events",
        _flows_factory("knockout", 64, 0.7, 120.0, "websearch"),
        "event-driven drain, knockout output-buffered fabric at n=64",
    ),
    BenchSpec(
        "flows.rotor-n64", ("flows",), "events",
        _flows_factory("rotor", 64, 0.7, 120.0, "websearch"),
        "event-driven drain, rotor/optical baseline at n=64",
    ),
    BenchSpec(
        "flows.concentrator-n256", ("full",), "events",
        _flows_factory("concentrator", 256, 0.7, 400.0, "websearch"),
        "event-driven drain, revsort concentrator fabric at n=256",
    ),
    # -- engine scaling curve (sharded process backend) ----------------
    #    One spec per (geometry, worker-count) point; plot workers vs
    #    throughput from the trajectory to get the cores-vs-throughput
    #    curve in docs/performance.md.
    BenchSpec(
        "scaling.columnsort-n256-w1", ("scaling",), "trials",
        _scaling_factory(_columnsort(256, 192), trials=4096, workers=1,
                         shard_trials=512),
        "sharded stream, Columnsort n=256, 1 worker (serial baseline)",
    ),
    BenchSpec(
        "scaling.columnsort-n256-w2", ("scaling",), "trials",
        _scaling_factory(_columnsort(256, 192), trials=4096, workers=2,
                         shard_trials=512),
        "sharded stream, Columnsort n=256, 2 workers",
    ),
    BenchSpec(
        "scaling.columnsort-n4096-w1", ("scaling",), "trials",
        _scaling_factory(_columnsort(4096, 3072), trials=2048, workers=1,
                         shard_trials=256),
        "sharded stream, Thm-4 headline geometry, 1 worker (serial baseline)",
    ),
    BenchSpec(
        "scaling.columnsort-n4096-w2", ("scaling",), "trials",
        _scaling_factory(_columnsort(4096, 3072), trials=2048, workers=2,
                         shard_trials=256),
        "sharded stream, Thm-4 headline geometry, 2 workers",
    ),
    BenchSpec(
        "scaling.columnsort-n4096-w4", ("scaling",), "trials",
        _scaling_factory(_columnsort(4096, 3072), trials=2048, workers=4,
                         shard_trials=256),
        "sharded stream, Thm-4 headline geometry, 4 workers",
    ),
)


def suite_names() -> list[str]:
    names: set[str] = set()
    for spec in SPECS:
        names.update(spec.suites)
    return sorted(names)


def suite_specs(suite: str, *, contains: str | None = None) -> list[BenchSpec]:
    """The specs of ``suite``, optionally filtered to ids containing
    ``contains``."""
    if suite not in suite_names():
        raise ConfigurationError(
            f"unknown suite {suite!r}; available: {', '.join(suite_names())}"
        )
    picked = [spec for spec in SPECS if suite in spec.suites]
    if contains:
        picked = [spec for spec in picked if contains in spec.id]
    return picked


def _peak_rss_kb() -> int | None:
    """Peak RSS in KiB aggregated over this process *and its reaped
    children* (``RUSAGE_SELF + RUSAGE_CHILDREN``), or None where the
    resource module is unavailable.  ``ru_maxrss`` is KiB on Linux,
    bytes on macOS.  RUSAGE_CHILDREN only covers waited-for children,
    so live pool workers are invisible to it — :func:`_worker_rss_kb`
    covers those from the merged worker telemetry."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return int(peak)


def _worker_rss_kb(snapshot: dict) -> int:
    """Resident memory of *live* pool workers, which RUSAGE_CHILDREN
    cannot see: the ``proc.rss_kb{pid=...,worker=...}`` gauges merged
    back from worker processes, deduped by pid (one worker serves many
    shards) and excluding this process itself (the inline
    ``workers == 1`` fallback samples the parent, already covered by
    RUSAGE_SELF)."""
    import os

    from repro.obs.registry import split_metric_key

    by_pid: dict[str, int] = {}
    own = str(os.getpid())
    for key, value in snapshot.get("gauges", {}).items():
        name, labels = split_metric_key(key)
        pid = labels.get("pid")
        if name != "proc.rss_kb" or pid is None or pid == own:
            continue
        by_pid[pid] = max(by_pid.get(pid, 0), int(value))
    return sum(by_pid.values())


def _span_seconds(snapshot: dict) -> dict:
    """The ``*.seconds`` histograms of a snapshot, reduced to the
    count/sum pairs the trajectory keeps."""
    out = {}
    for key, hist in snapshot.get("histograms", {}).items():
        if key.endswith(".seconds"):
            out[key] = {"count": hist.get("count"), "sum": hist.get("sum")}
    return out


def run_bench(
    spec: BenchSpec,
    *,
    suite: str,
    repeats: int = 3,
    seed: int = DEFAULT_SEED,
    alloc: bool = True,
    merge_into: obs.Registry | None = None,
    workers_cap: int | None = None,
) -> dict:
    """Execute one spec and build its trajectory record.

    The timed repeats run with only the span registry collecting (a
    thread-local override, so an outer telemetry registry keeps
    working); the allocation pass (tracemalloc roughly halves
    throughput) runs once more *after* timing so it can never pollute
    ``wall_s``.  ``merge_into`` optionally receives the bench
    registry's portable snapshot afterwards, with ``worker=<bench id>``
    provenance — how ``repro bench run --journal`` gets per-bench
    metrics into the live event stream.  ``workers_cap`` clamps the
    worker counts of the scaling workloads (see
    :func:`_scaling_factory`); it is installed only around
    ``spec.make()``, where backends are chosen.
    """
    from repro.engine import plan_cache
    from repro.obs.live.merge import merge_portable, portable_snapshot, roundtrip
    from repro.obs.perf.hostref import host_ref_seconds

    global _WORKERS_CAP
    if repeats < 1:
        raise ConfigurationError("repeats must be >= 1")
    _WORKERS_CAP = workers_cap
    try:
        workload = spec.make()
    finally:
        _WORKERS_CAP = None
    host_ref_s = host_ref_seconds()
    cache_before = plan_cache().stats()
    started_at = time.time()
    walls: list[float] = []
    registry = obs.Registry(max_trace_events=50_000)
    with obs.using(registry):
        for repeat in range(repeats):
            rng = default_rng(seed)
            with obs.span("bench.repeat", bench=spec.id, repeat=repeat):
                t0 = perf_counter()
                work = workload.run(rng)
                walls.append(perf_counter() - t0)
    if workload.check is not None:
        workload.check()
    if merge_into is not None:
        merge_portable(
            merge_into, roundtrip(portable_snapshot(registry)), worker=spec.id
        )

    alloc_peak_kb = alloc_blocks = None
    if alloc:
        tracemalloc.start()
        try:
            workload.run(default_rng(seed))
            _, peak = tracemalloc.get_traced_memory()
            alloc_peak_kb = int(peak // 1024)
            alloc_blocks = int(
                sum(
                    stat.count
                    for stat in tracemalloc.take_snapshot().statistics("filename")
                )
            )
        finally:
            tracemalloc.stop()

    cache_after = plan_cache().stats()
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    lookups = hits + misses
    median_wall = statistics.median(walls)
    snapshot = registry.snapshot()
    rss_self = _peak_rss_kb()
    rss_workers = _worker_rss_kb(snapshot)
    return new_record(
        bench=spec.id,
        suite=suite,
        unit=spec.unit,
        repeats=repeats,
        wall_s=walls,
        median_wall_s=median_wall,
        best_wall_s=min(walls),
        work=int(work),
        throughput=(int(work) / median_wall) if median_wall > 0 else None,
        rss_peak_kb=(
            rss_self + rss_workers if rss_self is not None else None
        ),
        rss_workers_kb=rss_workers,
        alloc_peak_kb=alloc_peak_kb,
        alloc_blocks=alloc_blocks,
        plan_cache={
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / lookups) if lookups else None,
        },
        span_seconds=_span_seconds(snapshot),
        host_ref_s=host_ref_s,
        meta=workload.meta,
        env=obs.environment(),
        seed=seed,
        started_at=time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime(started_at)
        ),
    )
