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

Shards are dispatched through :func:`~repro.engine.backends.supervisor.fan_out`:
each runs under a private :mod:`repro.obs` registry and the parent
merges the portable snapshots back in shard order, so counters and
histograms land in their original keys and gauges/spans carry
``{worker=shard-N}`` provenance.  ``workers == 1`` short-circuits to
in-process execution through the very same shard plan, which is why
results are byte-identical for any worker count.
"""

from __future__ import annotations

import numpy as np

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
from repro.engine.backends.pool import as_shm_array, attach_shm, shm_segments
from repro.engine.backends.supervisor import SupervisorPolicy, fan_out


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

    def _run_shards(self, switch, fn, jobs: list[dict]):
        """Run the shard jobs through :func:`.supervisor.fan_out`: a
        dead or deadline-stuck worker costs a retry, never the run, and
        every shard's entropy is keyed to its position, so retried
        results are byte-identical to a clean run's."""
        if self._test_shard_delay_s and jobs:
            jobs[0]["delay_s"] = self._test_shard_delay_s
        if self._test_chaos:
            for job in jobs:
                job["chaos"] = dict(self._test_chaos)
        return fan_out(
            fn,
            jobs,
            label=self.name,
            workers=self.workers,
            plan_keys=[self.plan_key(switch)],
            policy=self.policy,
            names=[f"shard-{index}" for index in range(len(jobs))],
        )

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
            for _ in self._run_shards(switch, _routing_shard_job, jobs):
                pass  # taking each result merges that shard's telemetry
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
        for result in self._run_shards(switch, _stream_shard_job, jobs):
            result = dict(result)
            result["messages"] = tuple(result.get("messages", ()))
            summary = summary.fold(StreamSummary(**result))
        return summary


register_backend("process", ShardedBackend)
