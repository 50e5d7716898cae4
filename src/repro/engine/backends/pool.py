"""The persistent worker-process pool behind the sharded backend.

One :class:`WorkerPool` per worker count lives for the whole process
(created lazily, shut down atexit), so plan compilation, interpreter
startup, and numpy import are paid once — not per dispatch round.

Two pieces of process-boundary plumbing live here:

* **plan shipping** — compiled ``StagePlan``/``ComparatorPlan`` arrays
  cross the boundary once per ``(type, n, m)`` key via
  ``PlanCache.snapshot()``/``restore()`` (never rebuilt per shard).
  Under the ``fork`` start method the pool's children additionally
  inherit every plan compiled before the first submit forks them, so
  the payload only covers keys compiled afterwards.
* **collected execution** — :func:`run_collected` runs a job under a
  private :mod:`repro.obs` registry, samples the worker's own process
  vitals (``proc.rss_kb`` et al. — the parent's resource sampler only
  sees the parent), and returns the result with a portable
  ``repro.obs/worker@1`` snapshot for the parent to merge in work-list
  order.  A shipped ``trace`` payload (:mod:`repro.obs.tracectx`)
  rebuilds the parent's causal trace context, so worker spans carry
  ``span_id``/``parent_id`` linking back to the dispatching span.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

from repro import obs
from repro.engine.plan import PLAN_CACHE


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _sample_worker_vitals() -> None:
    """Record this worker's own process vitals as gauges on the active
    (private) registry; after the merge they surface in the parent as
    ``proc.rss_kb{pid=...,worker=...}`` etc. — per-worker provenance
    the parent-side resource sampler cannot provide.  The ``pid`` label
    lets aggregators (the bench suite's child-RSS roll-up) dedupe the
    many per-shard samples of one worker process, and distinguish real
    pool children from the inline ``workers == 1`` fallback running in
    the parent."""
    import os

    from repro.obs.live.resource import sample_process

    vitals = sample_process()
    pid = os.getpid()
    if vitals.get("rss_kb") is not None:
        obs.gauge("proc.rss_kb", pid=pid).set(int(vitals["rss_kb"]))
    obs.gauge("proc.cpu_s", pid=pid).set(vitals["cpu_s"])
    obs.gauge("proc.gc_collections", pid=pid).set(vitals["gc_collections"])


def maybe_die(chaos: dict | None, shard: int | None) -> None:
    """Test-only chaos hook: act out the job's ``chaos`` payload.

    ``die_mode`` is one of ``exit`` (abrupt ``os._exit``, the shape of
    an OOM kill), ``kill`` (SIGKILL to self), ``raise`` (a transient
    in-job exception), or ``sleep`` (sleep ``sleep_s`` seconds — long
    enough to blow any test deadline).  ``shard`` scopes the chaos to
    one shard index; ``once_token`` is a filesystem path claimed
    atomically by the first victim, so the injected failure fires
    exactly once across the whole run and every retry runs clean.
    Never set outside tests/CI.
    """
    if not chaos:
        return
    target = chaos.get("shard")
    if target is not None and shard != target:
        return
    token = chaos.get("once_token")
    if token:
        try:
            os.close(os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return  # somebody already died for this token
    mode = chaos.get("die_mode")
    if mode == "exit":
        os._exit(17)
    if mode == "kill":
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
    if mode == "raise":
        raise RuntimeError(f"injected chaos failure (shard {shard})")
    if mode == "sleep":
        time.sleep(float(chaos.get("sleep_s", 60.0)))


def run_collected(fn, job: dict) -> tuple[object, dict]:
    """Execute ``fn(job)`` in a worker: restore any shipped plans,
    collect metrics into a private registry, and return
    ``(result, portable_snapshot)``.

    Also the serial in-process fallback (``workers == 1`` runs this
    inline), so journals and provenance labels look the same for every
    worker count.
    """
    from repro.obs.live.merge import portable_snapshot, roundtrip
    from repro.obs.tracectx import child_context

    plans = job.pop("plans", None)
    if plans:
        PLAN_CACHE.restore(plans)
    delay = job.pop("delay_s", 0.0)
    if delay:
        # Test hook: an injected slow shard (see tests/test_backend.py's
        # regression-gate pin). Never set outside tests.
        time.sleep(delay)
    maybe_die(job.pop("chaos", None), job.get("shard"))
    trace = job.pop("trace", None)
    local = obs.Registry()
    if trace is not None:
        # Rebuild the dispatching parent's trace context so this
        # worker's spans carry span_id/parent_id rooted at the parent's
        # engine.shards span (see repro.obs.tracectx).
        local.tracer.context = child_context(trace)
    with obs.using(local):
        with obs.span("engine.shard", shard=job.get("shard", 0)):
            result = fn(job)
        _sample_worker_vitals()
    return result, roundtrip(portable_snapshot(local))


class WorkerPool:
    """A lazily-started, persistent ``ProcessPoolExecutor``."""

    def __init__(self, workers: int) -> None:
        self.workers = int(workers)
        self._executor: ProcessPoolExecutor | None = None
        self._shipped: set = set()
        self._inherited: set = set()
        #: Bumped on every respawn, so a supervisor can tell a future
        #: that died with the *current* executor from a stale one.
        self.generation = 0

    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            ctx = _mp_context()
            # A fresh executor has fresh children: any record of plans
            # shipped to (or inherited by) earlier children is stale
            # and would starve the new ones of their warm start.
            self._shipped = set()
            self._inherited = set()
            if ctx.get_start_method() == "fork":
                # The children fork at the first submit and inherit
                # every plan compiled by then.
                self._inherited = PLAN_CACHE.keys()
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=ctx
            )
        return self._executor

    def respawn(self, *, kill: bool = False) -> None:
        """Tear down the executor (killing wedged workers when ``kill``)
        so the next submit builds a fresh one with reset plan shipping.
        Safe on a broken executor and a no-op-ish when none exists."""
        executor = self._executor
        self._executor = None
        self._shipped = set()
        self._inherited = set()
        self.generation += 1
        if executor is None:
            return
        if kill:
            # shutdown() would join workers that will never return from
            # a wedged shard; reclaim them first.
            for proc in list(getattr(executor, "_processes", {}).values()):
                with contextlib.suppress(Exception):
                    proc.kill()
        with contextlib.suppress(Exception):
            executor.shutdown(wait=False, cancel_futures=True)

    def plan_payload(self, keys) -> dict | None:
        """The ``PlanCache.snapshot`` payload to attach to this round's
        jobs: plans the pool's workers cannot already have.  Keys ship
        once — callers attach the payload to every job of the round
        that first needs them, and restore() in the worker is an
        idempotent no-op for plans it already holds.

        The executor is resolved first: its creation resets the shipped
        and inherited sets, and under ``fork`` it records every plan
        compiled so far as inherited (the children fork at the first
        submit, after this payload is built)."""
        self.executor  # noqa: B018 - resolving it sets _inherited
        wanted = [
            key
            for key in keys
            if key is not None
            and key not in self._shipped
            and key not in self._inherited
        ]
        if not wanted:
            return None
        payload = PLAN_CACHE.snapshot(wanted)
        self._shipped.update(payload)
        return payload or None

    def submit(self, fn, job: dict):
        return self.executor.submit(run_collected, fn, job)

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._shipped.clear()
        self._inherited = set()


_POOLS: dict[int, WorkerPool] = {}


def shared_pool(workers: int) -> WorkerPool:
    """The process-wide pool for ``workers`` worker processes."""
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _POOLS[workers] = WorkerPool(workers)
    return pool


def shutdown_pools() -> None:
    for pool in _POOLS.values():
        pool.shutdown()
    _POOLS.clear()


atexit.register(shutdown_pools)

