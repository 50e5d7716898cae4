"""Compiled stage plans and the process-wide plan cache.

A multichip switch's *structure* — which wire positions feed which
chip, the fixed inter-stage wiring permutations, the comparator pairs
of a sorting network — depends only on the design parameters
``(type, n, m, ...)``, never on the valid bits of a particular setup.
The scalar code paths historically rebuilt (or per-instance cached)
those index arrays; the engine compiles them **once per design key**
into an immutable plan held in a process-wide :class:`PlanCache`, so

* two instances of the same design share one set of wiring arrays, and
* the batched executor (:mod:`repro.engine.batch`) can run thousands
  of trials against the same compiled arrays without reconstruction.

Cache traffic is observable: every lookup increments
``engine.plan_cache.hit`` or ``engine.plan_cache.miss`` (labelled by
design kind) on the installed :mod:`repro.obs` registry.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

import numpy as np

from repro import obs
from repro.errors import ConfigurationError


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Return a read-only int64 view/copy of ``arr`` (plans are shared
    across instances and threads, so they must be immutable)."""
    out = np.ascontiguousarray(arr, dtype=np.int64)
    if out is arr or out.base is not None:
        out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ChipLayer:
    """One bank of equal-width hyperconcentrator chips.

    ``groups[c, w]`` is the flat wire position wired to chip ``c``'s
    local wire ``w``; no wire feeds two chips.  The batched executor
    requires every layer of a plan to cover all of its positions
    (``total_upto >= plan.n``) and raises
    :class:`~repro.errors.ConfigurationError` otherwise; there is no
    pass-through wire.

    The executor-facing derived tables are int32 (half the memory
    traffic of the int64 ``groups``, which the scalar paths keep using):
    ``flat32[c*width + w] = groups[c, w]`` and its inverse ``cm_of``
    (−1 for positions no chip touches).  ``total_upto`` is the largest
    plan width for which the layer covers *every* position.
    """

    groups: np.ndarray  # (chips, width) int64, read-only
    flat32: np.ndarray  # (chips*width,) int32, read-only
    cm_of: np.ndarray  # (max_pos+1,) int32, read-only inverse
    total_upto: int

    @property
    def n_chips(self) -> int:
        return int(self.groups.shape[0])

    @property
    def chip_width(self) -> int:
        return int(self.groups.shape[1])


@dataclass(frozen=True)
class FixedPermutation:
    """Hardwired pin-to-pin wiring between stages: the content at
    position ``p`` moves to position ``perm[p]``."""

    perm: np.ndarray  # (n,) int64, read-only
    perm32: np.ndarray  # (n,) int32, read-only


PlanOp = ChipLayer | FixedPermutation


@dataclass(frozen=True)
class StagePlan:
    """A compiled switch structure: the op pipeline plus sizes.

    ``ops`` alternates :class:`ChipLayer` and :class:`FixedPermutation`
    entries; running them left to right (see
    :func:`repro.engine.batch.run_plan`) yields each input's final flat
    position, exactly like the scalar ``stage_permutations`` +
    ``compose`` path.
    """

    key: tuple
    n: int
    ops: tuple[PlanOp, ...]


@dataclass(frozen=True)
class ComparatorPlan:
    """A compiled comparator network: per stage, the (hi, lo) wire
    index arrays (``hi`` keeps the larger bit; ties do not exchange)."""

    key: tuple
    n: int
    stages: tuple[tuple[np.ndarray, np.ndarray], ...]


def _freeze32(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.int32)
    if out is arr or out.base is not None:
        out = out.copy()
    out.setflags(write=False)
    return out


#: Raised by :func:`chip_layer` (and the irregular-group path of
#: :func:`repro.switches.wiring.apply_chip_layer`) for non-disjoint groups.
OVERLAP_MESSAGE = "chip groups overlap: a wire feeds two chips"


def chip_layer(groups: list[np.ndarray] | np.ndarray) -> ChipLayer:
    """Build a :class:`ChipLayer` from a group list (all equal width).

    Raises :class:`~repro.errors.ConfigurationError` when two groups
    share a wire.  This is the only overlap check a compiled layer
    gets: it runs once per design, and the executors trust it.
    """
    stacked = np.stack(list(groups)) if isinstance(groups, list) else groups
    frozen = _freeze(stacked)
    flat = frozen.reshape(-1)
    size = int(flat.max()) + 1 if flat.size else 0
    cm_of = np.full(size, -1, dtype=np.int32)
    cm_of[flat] = np.arange(flat.size, dtype=np.int32)
    uncovered = np.nonzero(cm_of < 0)[0]
    if size - uncovered.size != flat.size:
        raise ConfigurationError(OVERLAP_MESSAGE)
    total_upto = int(uncovered[0]) if uncovered.size else size
    return ChipLayer(
        groups=frozen,
        flat32=_freeze32(flat),
        cm_of=_freeze32(cm_of),
        total_upto=total_upto,
    )


def fixed_permutation(perm: np.ndarray) -> FixedPermutation:
    frozen = _freeze(perm)
    return FixedPermutation(perm=frozen, perm32=_freeze32(frozen))


def comparator_stages(
    key: tuple, n: int, stages: list[list[tuple[int, int]]]
) -> ComparatorPlan:
    """Compile a comparator stage list into paired index arrays."""
    compiled = []
    for stage in stages:
        hi = _freeze(np.array([c[0] for c in stage], dtype=np.int64))
        lo = _freeze(np.array([c[1] for c in stage], dtype=np.int64))
        compiled.append((hi, lo))
    return ComparatorPlan(key=key, n=n, stages=tuple(compiled))


#: Callbacks run by :meth:`PlanCache.clear` so derived caches (e.g. the
#: executor's compiled step tables) stay in sync with the plan store.
_CLEAR_HOOKS: list[Callable[[], None]] = []


def _refreeze_plan(plan: object) -> None:
    """Re-apply the read-only flag to a plan's arrays in place (pickle
    round-trips produce writable copies)."""
    if isinstance(plan, StagePlan):
        for op in plan.ops:
            if isinstance(op, ChipLayer):
                for arr in (op.groups, op.flat32, op.cm_of):
                    arr.setflags(write=False)
            elif isinstance(op, FixedPermutation):
                op.perm.setflags(write=False)
                op.perm32.setflags(write=False)
    elif isinstance(plan, ComparatorPlan):
        for hi, lo in plan.stages:
            hi.setflags(write=False)
            lo.setflags(write=False)


class PlanCache:
    """Process-wide cache of compiled plans, keyed by design tuple.

    Keys are ``(kind, *params)`` tuples, e.g. ``("columnsort", r, s)``.
    The cache never stores per-setup state — only wiring structure — so
    sharing an entry between switch instances cannot leak routing
    results between them (the parity tests assert this).
    """

    def __init__(self) -> None:
        self._plans: dict[Hashable, object] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._restored = 0

    def get_or_build(self, key: tuple, builder: Callable[[], object]) -> object:
        kind = key[0] if key else "?"
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._hits += 1
                reg = obs.get_registry()
                if reg.enabled:
                    hit = reg.handles.get(("engine.plan_cache.hit", kind))
                    if hit is None:
                        hit = reg.handles[("engine.plan_cache.hit", kind)] = (
                            reg.counter("engine.plan_cache.hit", kind=kind)
                        )
                    hit.inc()
                return plan
        # Build outside the lock (builders can be expensive); a
        # concurrent duplicate build is harmless — last write wins and
        # both results are equivalent immutable plans.
        plan = builder()
        with self._lock:
            self._plans.setdefault(key, plan)
            self._misses += 1
            obs.counter("engine.plan_cache.miss", kind=kind).inc()
            return self._plans[key]

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._plans),
                "hits": self._hits,
                "misses": self._misses,
                "restored": self._restored,
            }

    def keys(self) -> set:
        with self._lock:
            return set(self._plans)

    def snapshot(self, keys: Iterable[tuple] | None = None) -> dict:
        """A pure-data, pickle-safe copy of the cache: ``{key: plan}``.

        Plans are immutable dataclasses of read-only numpy arrays, so
        the plan objects themselves are the payload — no per-process
        state (locks, counters, obs handles) rides along.  This is what
        the multiprocess backend ships to warm each worker instead of
        recompiling plans per shard (see
        :meth:`repro.engine.backends.pool.WorkerPool.plan_payload`).
        """
        with self._lock:
            if keys is None:
                return dict(self._plans)
            return {key: self._plans[key] for key in keys if key in self._plans}

    def restore(self, plans: dict) -> int:
        """Install a :meth:`snapshot` payload (e.g. after crossing a
        process boundary) and return how many entries were new.

        Existing entries win — a restore never clobbers a plan the
        process already built — and neither path counts as a hit or a
        miss, so the hit/miss counters keep measuring only real lookup
        traffic.  Arrays are re-frozen: pickling drops the read-only
        flag, and restored plans are shared exactly like built ones.
        """
        installed = 0
        for key, plan in plans.items():
            _refreeze_plan(plan)
            kind = key[0] if key else "?"
            with self._lock:
                if key in self._plans:
                    continue
                self._plans[key] = plan
                self._restored += 1
                installed += 1
            obs.counter("engine.plan_cache.restored", kind=kind).inc()
        return installed

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._hits = 0
            self._misses = 0
            self._restored = 0
        for hook in _CLEAR_HOOKS:
            hook()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


#: The process-wide plan cache every switch shares.
PLAN_CACHE = PlanCache()


def plan_cache() -> PlanCache:
    """The process-wide :class:`PlanCache`."""
    return PLAN_CACHE


def plan_key(switch) -> tuple | None:
    """The switch's compiled-plan cache key, or None for switches
    without a plan.  Reading it compiles the plan as a side effect,
    which is what warm-start shipping to pool workers needs."""
    return getattr(getattr(switch, "_plan", None), "key", None)
