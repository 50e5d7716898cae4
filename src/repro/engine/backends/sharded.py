"""The sharded multiprocess backend (``--backend process``).

Work is split into shards whose boundaries depend only on the trial
count (never the worker count), each shard is dispatched to the
persistent :mod:`~repro.engine.backends.pool` and executed through the
vectorized batch engine, and the results come back two ways:

* ``run_trials`` — the trial data itself crosses the boundary through
  ``multiprocessing.shared_memory``: the parent publishes the uint8
  valid bits, workers write int32 final positions into their own row
  slice, and nothing but per-shard stats is pickled;
* ``run_stream`` — workers *generate* their shard's trials from a
  ``SeedSequence(seed).spawn(...)`` child keyed by shard position and
  return an O(1) :class:`~repro.engine.backends.base.StreamSummary`,
  which the parent folds as shards complete — peak memory stays flat
  at 10⁷+ trials because full trial arrays never exist anywhere.

Each shard runs under a private :mod:`repro.obs` registry
(:func:`~repro.engine.backends.pool.run_collected`); the parent merges
the portable snapshots back in shard order, so counters and histograms
land in their original keys and gauges/spans carry
``{worker=shard-N}`` provenance.  ``workers == 1`` short-circuits to
in-process execution through the very same shard plan, which is why
results are byte-identical for any worker count.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.engine.backends.base import (
    CAP_OCCUPANCY,
    CAP_PARALLEL,
    CAP_ROUTING,
    CAP_STREAM,
    CAP_SUPERVISED,
    DEFAULT_SHARD_TRIALS,
    EngineBackend,
    StreamSpec,
    StreamSummary,
    register_backend,
    resolve_workers,
    shard_valid,
    summarize_batch,
)
from repro.engine.backends.pool import (
    as_shm_array,
    attach_shm,
    run_collected,
    shared_pool,
    shm_segments,
)
from repro.engine.backends.supervisor import (
    ShardSupervisor,
    SupervisorPolicy,
    chaos_from_env,
)


def _routing_shard_job(job: dict) -> dict:
    """Worker body for ``run_trials``: route rows [start, stop) of the
    shared valid buffer, write positions into the shared out buffer."""
    switch = job["switch"]
    start, stop = job["rows"]
    shm_in = attach_shm(job["valid_shm"])
    shm_out = attach_shm(job["out_shm"])
    try:
        valid_all = as_shm_array(shm_in, job["shape"], np.uint8)
        out_all = as_shm_array(shm_out, job["shape"], np.int32)
        valid = valid_all[start:stop].astype(bool)
        batch = switch.setup_batch(valid)
        out_all[start:stop] = batch.input_to_output.astype(np.int32)
        routed = batch.routed_counts
        return {
            "trials": int(stop - start),
            "routed_total": int(routed.sum()),
        }
    finally:
        shm_in.close()
        shm_out.close()


def _stream_shard_job(job: dict) -> dict:
    """Worker body for ``run_stream``: generate this shard's trials
    from its own SeedSequence child, route, and reduce to a summary."""
    switch = job["switch"]
    valid = shard_valid(switch.n, job["count"], job["entropy"], job["load"])
    summary = summarize_batch(
        switch,
        switch.setup_batch(valid),
        start=job["start"],
        check_contract=job["check_contract"],
        measure_epsilon=job["measure_epsilon"],
    )
    return summary.__dict__.copy()


class ShardedBackend(EngineBackend):
    """Sharded multiprocess execution over the persistent pool."""

    name = "process"

    def __init__(
        self,
        *,
        workers: int = 0,
        shard_trials: int = DEFAULT_SHARD_TRIALS,
        deadline_s: float | None = None,
        max_retries: int = 2,
        backoff_s: float = 0.05,
        degrade: bool = True,
        _test_shard_delay_s: float = 0.0,
        _test_chaos: dict | None = None,
        **_options,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.shard_trials = int(shard_trials)
        self.policy = SupervisorPolicy(
            deadline_s=deadline_s,
            max_retries=int(max_retries),
            backoff_s=float(backoff_s),
            degrade=bool(degrade),
        )
        self._test_shard_delay_s = float(_test_shard_delay_s)
        self._test_chaos = _test_chaos

    def capabilities(self) -> frozenset:
        return frozenset(
            {CAP_ROUTING, CAP_OCCUPANCY, CAP_STREAM, CAP_PARALLEL, CAP_SUPERVISED}
        )

    # -- dispatch plumbing -------------------------------------------

    def _jobs(self, switch, jobs: list[dict]) -> None:
        """Attach shard indices, the plan payload, and test hooks."""
        payload = None
        if self.workers > 1:
            key = self.plan_key(switch)
            payload = shared_pool(self.workers).plan_payload([key])
        for index, job in enumerate(jobs):
            job["shard"] = index
            if payload:
                job["plans"] = payload
            if self._test_shard_delay_s and index == 0:
                job["delay_s"] = self._test_shard_delay_s

    def _dispatch(self, switch, fn, jobs: list[dict]) -> list[object]:
        """Run the shard jobs (pool or inline), merge worker snapshots
        back in shard order, and return per-shard results in shard
        order.

        Pool dispatch is supervised (:mod:`.supervisor`): a dead or
        deadline-stuck worker costs a retry and a pool respawn, never
        the run — and because every shard's entropy is keyed to its
        position, retried results are byte-identical to a clean run's.

        The whole round runs inside one ``engine.shards`` span; when a
        trace context is active its span id is shipped to every shard
        as the causal parent of the worker's root spans, which is how
        ``repro obs analyze`` stitches per-worker subtrees back under
        the dispatching command.
        """
        self._jobs(switch, jobs)
        for _ in jobs:
            obs.counter("engine.shards", backend=self.name).inc()
        parent = obs.get_registry()
        with parent.span("engine.shards", backend=self.name, shards=len(jobs)):
            ctx = parent.tracer.context if parent.enabled else None
            if ctx is not None:
                dispatch_id = parent.tracer.active_span_id
                for job in jobs:
                    job["trace"] = ctx.ship(
                        parent_id=dispatch_id, prefix=f"shard-{job['shard']}"
                    )
            if self.workers > 1 and len(jobs) > 1:
                chaos = self._test_chaos or chaos_from_env()
                if chaos:
                    for job in jobs:
                        job["chaos"] = dict(chaos)
                supervisor = ShardSupervisor(
                    shared_pool(self.workers),
                    self.policy,
                    plan_keys=[self.plan_key(switch)],
                    label=self.name,
                )
                outcomes = supervisor.run(fn, jobs)
            else:
                outcomes = [run_collected(fn, job) for job in jobs]
            results = []
            for index, (result, snapshot) in enumerate(outcomes):
                if parent.enabled:
                    from repro.obs.live.merge import merge_portable

                    merge_portable(parent, snapshot, worker=f"shard-{index}")
                results.append(result)
        return results

    # -- the protocol ------------------------------------------------

    def run_trials(self, switch, valid: np.ndarray):
        from repro.engine.batch import BatchRouting

        valid = np.asarray(valid, dtype=bool)
        trials, n = valid.shape
        bounds = [
            (start, min(start + self.shard_trials, trials))
            for start in range(0, trials, self.shard_trials)
        ]
        if self.workers <= 1 or len(bounds) <= 1:
            # Small batches aren't worth the buffer round trip; the
            # result is identical because rows route independently.
            return switch.setup_batch(valid)
        # The context manager releases both segments on every exit path
        # — including a failure between the two allocations or a shard
        # job raising mid-dispatch — and registers them in the orphan
        # set that pool shutdown sweeps as a last resort.
        with shm_segments(trials * n, trials * n * 4) as (shm_in, shm_out):
            as_shm_array(shm_in, valid.shape, np.uint8)[:] = valid
            jobs = [
                {
                    "switch": switch,
                    "rows": rows,
                    "valid_shm": shm_in.name,
                    "out_shm": shm_out.name,
                    "shape": valid.shape,
                }
                for rows in bounds
            ]
            self._dispatch(switch, _routing_shard_job, jobs)
            routing = (
                as_shm_array(shm_out, valid.shape, np.int32)
                .astype(np.int64)
            )
        return BatchRouting(
            n_inputs=switch.n,
            n_outputs=switch.m,
            valid=valid,
            input_to_output=routing,
        )

    def run_stream(self, switch, spec: StreamSpec) -> StreamSummary:
        shards = spec.shards()
        if not shards:
            return StreamSummary()
        children = np.random.SeedSequence(spec.seed).spawn(len(shards))
        jobs = [
            {
                "switch": switch,
                "start": start,
                "count": stop - start,
                "entropy": children[index],
                "load": spec.load,
                "check_contract": spec.check_contract,
                "measure_epsilon": spec.measure_epsilon,
            }
            for index, (start, stop) in enumerate(shards)
        ]
        summary = StreamSummary()
        for result in self._dispatch(switch, _stream_shard_job, jobs):
            result = dict(result)
            result["messages"] = tuple(result.get("messages", ()))
            summary = summary.fold(StreamSummary(**result))
        return summary


register_backend("process", ShardedBackend)
