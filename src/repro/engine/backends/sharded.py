"""The sharded backend (``repro verify --backend process``), the one
engine backend.

Work is split into shards whose boundaries depend only on the trial
count (never the worker count), each shard is dispatched to the
persistent :mod:`~repro.engine.backends.pool` and executed through the
vectorized batch engine, and the results come back two ways:

* ``run_trials`` — each job carries its row slice of the valid bits
  and returns that slice's routing (int32 for the plan switches), both
  by pickle, so inline and pooled results share dtype and bytes;
* ``run_stream`` — workers *generate* their shard's trials from a
  ``SeedSequence(seed).spawn(...)`` child keyed by shard position, in
  row blocks of about :data:`~repro.engine.backends.base.BLOCK_CELLS`
  cells that are routed, checked and folded one at a time, and return
  an O(1) :class:`~repro.engine.backends.base.StreamSummary`, which the
  parent folds in shard order — peak memory stays flat in both the
  trial count and the shard size, because neither the stream nor a
  shard is ever held as one trial array.

Shards are dispatched through :func:`~repro.engine.backends.supervisor.fan_out`:
each runs under a private :mod:`repro.obs` registry and the parent
merges the portable snapshots back in shard order, so counters and
histograms land in their original keys and gauges/spans carry
``{worker=shard-N}`` provenance.  ``workers == 1`` runs the very same
shard plan inline, which is why results are byte-identical for any
worker count.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.engine.backends.base import (
    DEFAULT_SHARD_TRIALS,
    StreamSpec,
    StreamSummary,
    resolve_workers,
    shard_blocks,
    summarize_batch,
)
from repro.engine.backends.supervisor import SupervisorPolicy, fan_out
from repro.engine.plan import plan_key
from repro.errors import ConfigurationError


def _routing_shard_job(job: dict) -> np.ndarray:
    """Worker body for ``run_trials``: route this shard's rows and
    return their routing in the switch's own dtype."""
    return job["switch"].setup_batch(job["valid"]).input_to_output


def _stream_shard_job(job: dict) -> dict:
    """Worker body for ``run_stream``: generate this shard's trials
    from its own SeedSequence child block by block, route and reduce
    each block, and fold the blocks in order into one shard summary."""
    switch = job["switch"]
    summary = StreamSummary()
    for offset, valid in shard_blocks(
        switch.n, job["count"], job["entropy"], job["load"]
    ):
        summary = summary.fold(
            summarize_batch(
                switch,
                switch.setup_batch(valid),
                start=job["start"] + offset,
                check_contract=job["check_contract"],
                measure_epsilon=job["measure_epsilon"],
            )
        )
    return replace(summary, shards=1).__dict__


class ShardedBackend:
    """Sharded execution, inline or over the persistent process pool."""

    name = "process"

    def __init__(
        self,
        *,
        workers: int = 0,
        shard_trials: int = DEFAULT_SHARD_TRIALS,
        policy: SupervisorPolicy | None = None,
        _test_shard_delay_s: float = 0.0,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.shard_trials = int(shard_trials)
        self.policy = policy
        self._test_shard_delay_s = float(_test_shard_delay_s)

    def _run_shards(self, switch, fn, jobs: list[dict]):
        """Run the shard jobs through :func:`.supervisor.fan_out`: a
        dead or deadline-stuck worker costs a retry, never the run, and
        every shard's input is keyed to its position, so retried
        results are byte-identical to a clean run's."""
        if self._test_shard_delay_s and jobs:
            jobs[0]["delay_s"] = self._test_shard_delay_s
        return fan_out(
            fn,
            jobs,
            label=self.name,
            workers=self.workers,
            plan_keys=[plan_key(switch)],
            policy=self.policy,
            names=[f"shard-{index}" for index in range(len(jobs))],
        )

    def run_trials(self, switch, valid: np.ndarray):
        """Route a ``(B, n)`` trial array; returns a
        :class:`~repro.engine.batch.BatchRouting`."""
        from repro.engine.batch import BatchRouting

        valid = np.asarray(valid, dtype=bool)
        trials = valid.shape[0]
        bounds = [
            (start, min(start + self.shard_trials, trials))
            for start in range(0, trials, self.shard_trials)
        ]
        if self.workers <= 1 or len(bounds) <= 1:
            # Rows route independently, so one inline batch gives the
            # same positions as the shard round.
            return switch.setup_batch(valid)
        jobs = [
            {"switch": switch, "valid": valid[start:stop]}
            for start, stop in bounds
        ]
        routing = np.concatenate(
            list(self._run_shards(switch, _routing_shard_job, jobs))
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


def get_backend(name: str, *, workers: int = 1, **options) -> ShardedBackend:
    """The engine backend factory: ``get_backend("process", workers=W,
    shard_trials=..., policy=...)``.  ``process`` is the only backend;
    any other name is a configuration error."""
    if name != ShardedBackend.name:
        raise ConfigurationError(
            f"unknown engine backend {name!r}; available: {ShardedBackend.name}"
        )
    return ShardedBackend(workers=workers, **options)


__all__ = ["ShardedBackend", "get_backend"]
