"""The shard supervisor: self-healing dispatch over the worker pool.

A multi-hour certify or stream run used to die with a raw
``BrokenProcessPool`` the moment one pool worker was OOM-killed or
segfaulted, throwing away every completed shard.  The supervisor wraps
every pool dispatch with the recovery loop the rest of the stack can
build on, and :func:`fan_out` is the one entry point every parallel
call site (the sharded backend, certify, ``analysis.sweep``, the
Section 1 compare) goes through:

* **failure classification** — a completed-with-exception shard is one
  of ``worker-death`` (the executor broke underneath it),
  ``timeout`` (it outlived the per-shard deadline), or ``transient``
  (the job itself raised);
* **deterministic retry** — failed shards are resubmitted with capped
  exponential backoff.  A shard job carries its own SeedSequence child
  (or its own pattern chunk), so a retried shard recomputes exactly the
  bytes a clean run would have produced — retries change *when* a
  result arrives, never *what* it is;
* **pool respawn** — a broken or deadline-stuck executor is torn down
  (stuck workers killed) and rebuilt; the pool's plan-shipping sets are
  reset so compiled plans re-ship to the fresh children;
* **graceful degradation** — a shard that exhausts its retry budget
  runs in-process in the parent (chaos hooks stripped) instead of
  crashing the run; only if that also fails does the supervisor raise
  :class:`~repro.errors.ExecutionError` (CLI exit 3).

Observability: the whole recovery loop runs inside an
``engine.supervisor`` span; resubmissions, deadline expiries, respawns,
and fallbacks tick the ``engine.shard_retries`` /
``engine.shard_timeouts`` / ``engine.pool_respawns`` /
``engine.degraded_fallbacks`` counters; and worker-death / timeout /
respawn / degraded events reach the live journal through the module's
event sinks (wired up by the CLI's telemetry scope), so a crash report
can name the shard that killed its worker.

Chaos hooks: a job dict may carry a ``chaos`` entry (see
:func:`repro.engine.backends.pool.maybe_die`) with ``die_mode`` one of
``exit`` (``os._exit``), ``kill`` (SIGKILL to self), ``raise``, or
``sleep`` (sleep past the deadline) — test-only fault injection,
settable via the ``REPRO_CHAOS`` environment variable for CLI-level
chaos tests (never set outside tests/CI).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, CancelledError, wait
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro import obs
from repro.engine.backends.pool import run_collected, shared_pool
from repro.errors import ExecutionError

#: Failure classes the supervisor distinguishes.
REASON_WORKER_DEATH = "worker-death"
REASON_TIMEOUT = "timeout"
REASON_TRANSIENT = "transient"

_EVENT_SINKS: list[Callable[..., None]] = []


def add_event_sink(sink: Callable[..., None]) -> None:
    """Register a ``sink(kind, **fields)`` callable for supervision
    events (``worker_death`` / ``shard_timeout`` / ``pool_respawn`` /
    ``degraded``).  The CLI's telemetry scope adapts these into journal
    frames."""
    _EVENT_SINKS.append(sink)


def remove_event_sink(sink: Callable[..., None]) -> None:
    if sink in _EVENT_SINKS:
        _EVENT_SINKS.remove(sink)


def _emit_event(kind: str, **fields: object) -> None:
    for sink in list(_EVENT_SINKS):
        try:
            sink(kind, **fields)
        except Exception:
            # A broken consumer must not take the dispatch down.
            pass


def chaos_from_env() -> dict | None:
    """Test-only: parse ``REPRO_CHAOS=die_mode[:shard[:sleep_s]]`` (and
    the optional ``REPRO_CHAOS_TOKEN`` once-token path) into a chaos
    dict for the job payload.  Returns None when unset — the production
    path."""
    spec = os.environ.get("REPRO_CHAOS")
    if not spec:
        return None
    parts = spec.split(":")
    chaos: dict = {"die_mode": parts[0]}
    if len(parts) > 1 and parts[1] != "":
        chaos["shard"] = int(parts[1])
    if len(parts) > 2:
        chaos["sleep_s"] = float(parts[2])
    token = os.environ.get("REPRO_CHAOS_TOKEN")
    if token:
        chaos["once_token"] = token
    return chaos


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/deadline knobs for one supervised dispatch round."""

    #: Per-shard wall deadline, measured from (re)submission.  None
    #: disables deadline enforcement (the default: a clean run must
    #: never pay a timeout respawn because a shard was merely slow).
    deadline_s: float | None = None
    #: Resubmissions a single shard may consume before it degrades.
    max_retries: int = 2
    #: First backoff sleep; doubles per charged retry of that shard.
    backoff_s: float = 0.05
    #: Backoff ceiling.
    backoff_cap_s: float = 1.0
    #: Run budget-exhausted shards in-process instead of raising.
    degrade: bool = True
    #: Poll granularity of the wait loop (also bounds how late a
    #: deadline expiry is noticed).
    poll_s: float = 0.05


class ShardSupervisor:
    """Supervised execution of one round of shard jobs over a
    :class:`~repro.engine.backends.pool.WorkerPool`.

    Results come back in job order, exactly shaped like the unsupervised
    path (``(result, worker_snapshot)`` pairs), so callers fold and
    merge precisely as before — byte-identical outputs are the whole
    point of keying retries to the same shard entropy.
    """

    def __init__(
        self,
        pool,
        policy: SupervisorPolicy | None = None,
        *,
        plan_keys: tuple | list = (),
        label: str = "shards",
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.pool = pool
        self.policy = policy or SupervisorPolicy()
        self.plan_keys = [key for key in plan_keys if key is not None]
        self.label = label
        self.clock = clock
        self.sleep = sleep

    # -- internals ---------------------------------------------------

    def _backoff(self, charged_retries: int) -> float:
        policy = self.policy
        return min(
            policy.backoff_cap_s, policy.backoff_s * (2 ** max(0, charged_retries - 1))
        )

    def _respawn(self, *, kill: bool, reason: str) -> dict | None:
        """Tear down and rebuild the pool executor; returns the plan
        payload to re-ship to the fresh children (their caches start
        empty)."""
        obs.counter("engine.pool_respawns").inc()
        self.pool.respawn(kill=kill)
        _emit_event(
            "pool_respawn", reason=reason, workers=self.pool.workers,
            label=self.label,
        )
        if self.plan_keys:
            return self.pool.plan_payload(self.plan_keys)
        return None

    def _submit(self, fn, state: dict, index: int, pending: dict) -> None:
        entry = state[index]
        try:
            future = self.pool.submit(fn, entry["job"])
        except BrokenExecutor:
            # The executor broke *before* accepting this job (a worker
            # died while the round was still being submitted — submit
            # raises synchronously on a broken pool).  Respawn and hand
            # the job to the fresh executor; the shard never ran, so
            # nothing is charged.  Already-accepted futures of the dead
            # generation surface as stale BrokenExecutor results and
            # are rescued by the main loop.
            _emit_event("worker_death", shard=index, label=self.label,
                        retries=entry["retries"])
            payload = self._respawn(kill=False, reason=REASON_WORKER_DEATH)
            if payload:
                entry["job"]["plans"] = payload
            future = self.pool.submit(fn, entry["job"])
        entry["started"] = self.clock()
        entry["generation"] = self.pool.generation
        pending[future] = index

    def _degrade(self, fn, entry: dict, index: int, reason: str):
        """Budget exhausted: run the shard in-process in the parent.
        Chaos hooks and plan payloads are stripped — the parent owns
        the live plan cache, and an in-process ``os._exit`` would kill
        the run the fallback exists to save."""
        obs.counter("engine.degraded_fallbacks").inc()
        _emit_event(
            "degraded", shard=index, reason=reason, label=self.label,
            retries=entry["retries"],
        )
        job = dict(entry["job"])
        job.pop("chaos", None)
        job.pop("plans", None)
        try:
            return run_collected(fn, job)
        except Exception as exc:
            raise ExecutionError(
                f"shard {index} failed in-process after exhausting "
                f"{self.policy.max_retries} retries ({reason}): {exc!r}"
            ) from exc

    # -- the loop ----------------------------------------------------

    def run(self, fn, jobs: list[dict], *, on_result=None) -> list[tuple]:
        """Execute ``fn`` over ``jobs`` with supervision; returns
        ``(result, snapshot)`` pairs in job order.  ``on_result(index,
        outcome)`` fires in *completion* order — checkpoint writers
        hook it to persist finished shards as they land."""
        policy = self.policy
        results: list = [None] * len(jobs)
        state = {
            index: {"job": job, "retries": 0, "started": None, "generation": 0}
            for index, job in enumerate(jobs)
        }
        pending: dict = {}
        with obs.span(
            "engine.supervisor",
            shards=len(jobs),
            workers=self.pool.workers,
            label=self.label,
        ):
            try:
                for index in state:
                    self._submit(fn, state, index, pending)
                while pending:
                    done, _ = wait(
                        set(pending), timeout=policy.poll_s,
                        return_when=FIRST_COMPLETED,
                    )
                    retry: list[tuple[int, str, bool]] = []  # (shard, reason, charged)
                    respawn_reason: str | None = None
                    respawn_kill = False
                    broken: list[int] = []
                    for future in done:
                        index = pending.pop(future)
                        entry = state[index]
                        try:
                            outcome = future.result()
                        except BrokenExecutor:
                            stale = entry["generation"] < self.pool.generation
                            if not stale:
                                respawn_reason = respawn_reason or REASON_WORKER_DEATH
                                broken.append(index)
                            # Stale futures are collateral of an earlier
                            # respawn in this round: rescue, don't charge.
                            retry.append((index, REASON_WORKER_DEATH, not stale))
                        except CancelledError:
                            retry.append((index, REASON_WORKER_DEATH, False))
                        except Exception:
                            retry.append((index, REASON_TRANSIENT, True))
                        else:
                            results[index] = outcome
                            if on_result is not None:
                                on_result(index, outcome)
                    if broken:
                        # One death breaks every in-flight future at
                        # once; one journal frame describes it (the
                        # victim is unknowable — the executor only says
                        # "a child terminated abruptly").
                        _emit_event(
                            "worker_death", shard=min(broken),
                            in_flight=len(broken), label=self.label,
                        )
                    if policy.deadline_s is not None:
                        now = self.clock()
                        for future, index in list(pending.items()):
                            entry = state[index]
                            started = entry["started"]
                            if started is None or now - started <= policy.deadline_s:
                                continue
                            obs.counter("engine.shard_timeouts").inc()
                            _emit_event(
                                "shard_timeout", shard=index, label=self.label,
                                deadline_s=policy.deadline_s,
                                retries=entry["retries"],
                            )
                            del pending[future]
                            retry.append((index, REASON_TIMEOUT, True))
                            respawn_reason = respawn_reason or REASON_TIMEOUT
                            # The worker is wedged mid-shard; only a
                            # kill can reclaim it.
                            respawn_kill = True
                    if not retry:
                        continue
                    payload = None
                    if respawn_reason is not None:
                        # Everything still in flight rode the torn-down
                        # executor: rescue those shards in this round too.
                        for future, index in list(pending.items()):
                            del pending[future]
                            future.cancel()
                            retry.append((index, respawn_reason, False))
                        payload = self._respawn(
                            kill=respawn_kill, reason=respawn_reason
                        )
                    max_backoff = 0.0
                    exhausted: list[tuple[int, str]] = []
                    resubmit: list[int] = []
                    for index, reason, charged in retry:
                        entry = state[index]
                        if charged:
                            entry["retries"] += 1
                        if charged and entry["retries"] > policy.max_retries:
                            exhausted.append((index, reason))
                            continue
                        obs.counter("engine.shard_retries").inc()
                        if charged:
                            max_backoff = max(
                                max_backoff, self._backoff(entry["retries"])
                            )
                        resubmit.append(index)
                    for index, reason in exhausted:
                        if not policy.degrade:
                            raise ExecutionError(
                                f"shard {index} exhausted its retry budget "
                                f"({policy.max_retries} retries, last failure: "
                                f"{reason}) and degradation is disabled"
                            )
                        outcome = self._degrade(fn, state[index], index, reason)
                        results[index] = outcome
                        if on_result is not None:
                            on_result(index, outcome)
                    if max_backoff > 0.0:
                        self.sleep(max_backoff)
                    for index in sorted(resubmit):
                        if payload:
                            state[index]["job"]["plans"] = payload
                        self._submit(fn, state, index, pending)
            except BaseException:
                for future in pending:
                    future.cancel()
                raise
        return results


def fan_out(
    fn,
    jobs: list[dict],
    *,
    label: str,
    workers: int,
    plan_keys: Sequence = (),
    policy: SupervisorPolicy | None = None,
    on_result=None,
    names: Sequence[str] | None = None,
) -> Iterator:
    """Run ``fn(job)`` for every job dict, supervised over the shared
    pool of ``workers`` processes (inline through ``run_collected`` when
    ``workers <= 1`` or there is only one job), and return an iterator
    over the results in job order.

    Each job is stamped with its ``shard`` index (unless it carries
    one), the plan payload for ``plan_keys``, the ``REPRO_CHAOS`` hooks
    (pool rounds only — inline jobs run with chaos stripped, as a
    degraded shard does), and the shipped trace context, all under one
    ``engine.shards`` span.  Job ``i``'s worker snapshot merges into the
    caller's registry with provenance ``names[i]`` (default
    ``<label>-<shard>``) as its result is taken from the iterator, so a
    caller that stops early merges only what it consumed.
    ``on_result(index, outcome)`` fires in completion order, like
    :meth:`ShardSupervisor.run`'s.
    """
    for index, job in enumerate(jobs):
        job.setdefault("shard", index)
    if names is None:
        names = [f"{label}-{job['shard']}" for job in jobs]
    obs.counter("engine.shards", backend=label).inc(len(jobs))
    parent = obs.get_registry()
    with parent.span("engine.shards", backend=label, shards=len(jobs)):
        # The dispatch span is the causal parent of every worker's root
        # spans; that is how ``repro obs analyze`` stitches them back.
        ctx = parent.tracer.context if parent.enabled else None
        if ctx is not None:
            dispatch_id = parent.tracer.active_span_id
            for job, name in zip(jobs, names):
                job["trace"] = ctx.ship(parent_id=dispatch_id, prefix=name)
        if workers > 1 and len(jobs) > 1:
            pool = shared_pool(workers)
            payload = pool.plan_payload(plan_keys)
            chaos = chaos_from_env()
            for job in jobs:
                if payload:
                    job["plans"] = payload
                if chaos:
                    job.setdefault("chaos", dict(chaos))
            supervisor = ShardSupervisor(
                pool, policy, plan_keys=plan_keys, label=label
            )
            outcomes = supervisor.run(fn, jobs, on_result=on_result)
        else:
            outcomes = []
            for index, job in enumerate(jobs):
                job.pop("chaos", None)
                outcomes.append(run_collected(fn, job))
                if on_result is not None:
                    on_result(index, outcomes[-1])
    return _merged(parent, outcomes, names)


def _merged(parent, outcomes: list[tuple], names: Sequence[str]) -> Iterator:
    from repro.obs.live.merge import merge_portable

    for (result, snapshot), name in zip(outcomes, names):
        if parent.enabled:
            merge_portable(parent, snapshot, worker=name)
        yield result


__all__ = [
    "REASON_TIMEOUT",
    "REASON_TRANSIENT",
    "REASON_WORKER_DEATH",
    "ShardSupervisor",
    "SupervisorPolicy",
    "add_event_sink",
    "chaos_from_env",
    "fan_out",
    "remove_event_sink",
]
