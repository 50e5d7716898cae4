"""repro.engine — batched execution engine.

Four pieces turn the per-trial scalar simulation stack into an
array-at-once engine:

* **compiled stage plans** (:mod:`repro.engine.plan`) — each switch
  design's wiring/comparator/permutation index arrays, built once per
  ``(type, n, m)`` key into an immutable plan held in a process-wide
  :class:`~repro.engine.plan.PlanCache` (hit/miss counters on
  :mod:`repro.obs`);
* **vectorized batch routing** (:mod:`repro.engine.batch`) —
  ``ConcentratorSwitch.setup_batch(valid)`` takes a ``(B, n)`` trial
  array and returns a :class:`~repro.engine.batch.BatchRouting`, with
  every stage executed on 2-D arrays (one row per trial);
* **bit-parallel gate evaluation** —
  :func:`repro.gates.evaluate.evaluate` packs 64 trials per ``uint64``
  lane and evaluates a levelized netlist with bitwise ops;
* **the sharded backend** (:mod:`repro.engine.backends`) —
  ``get_backend("process", workers=W)`` runs a seeded trial stream in
  position-keyed shards, inline or over a supervised process pool,
  with results identical for any worker count.

The scalar paths stay the correctness oracle: they read the compiled
chip layers but rank each chip with their own full stable argsort, and
the parity tests in ``tests/test_engine.py`` pin batch == scalar for
every design in the registry.  See ``docs/performance.md``.
"""

from repro.engine.batch import (
    BatchRouting,
    concentrate_plan_batch,
    hyperconcentrate_batch,
    nearsortedness_batch,
    prefix_ranks_batch,
    run_comparator_plan,
    run_plan,
    run_plan_sparse,
    run_plan_with_faults,
    validate_batch_partial_concentration,
)
from repro.engine.backends import (
    StreamSpec,
    StreamSummary,
    get_backend,
    resolve_workers,
)
from repro.engine.plan import (
    PLAN_CACHE,
    ChipLayer,
    ComparatorPlan,
    FixedPermutation,
    PlanCache,
    StagePlan,
    chip_layer,
    comparator_stages,
    fixed_permutation,
    plan_cache,
    plan_key,
)

__all__ = [
    "BatchRouting",
    "ChipLayer",
    "ComparatorPlan",
    "FixedPermutation",
    "PLAN_CACHE",
    "PlanCache",
    "StagePlan",
    "StreamSpec",
    "StreamSummary",
    "chip_layer",
    "comparator_stages",
    "concentrate_plan_batch",
    "fixed_permutation",
    "get_backend",
    "hyperconcentrate_batch",
    "nearsortedness_batch",
    "plan_cache",
    "plan_key",
    "prefix_ranks_batch",
    "resolve_workers",
    "run_comparator_plan",
    "run_plan",
    "run_plan_sparse",
    "run_plan_with_faults",
    "validate_batch_partial_concentration",
]
