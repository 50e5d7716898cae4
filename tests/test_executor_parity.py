"""In-thread vs process-pool parity.

``analysis.sweep.sweep`` and ``simulate.compare_partial_vs_perfect``
run their work items in the calling thread at ``workers <= 1`` and over
the supervised process pool at ``workers > 1``.  Both promise identical
results (and, for ``sweep``, a match with serial) for any worker count:
work items are seeded by position via ``SeedSequence.spawn``, never by
worker or completion order.  These tests pin that promise — a
divergence here means one path reordered draws or dropped the
positional seeding.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.analysis.sweep import sweep
from repro.network.simulate import compare_partial_vs_perfect
from repro.switches.columnsort_switch import ColumnsortSwitch
from repro.switches.perfect import PerfectConcentrator


def _measure(value, rng):
    # Module level so the process pool can pickle it.
    return {"sq": value * value, "draw": float(rng.random())}


def _with_counters(run):
    """``run()`` under a live registry; returns its result and counters."""
    with obs.collecting() as registry:
        return run(), registry.snapshot()["counters"]


class TestSweepExecutorParity:
    PARAMS = [1, 2, 3, 4, 5]

    def test_thread_and_process_match_serial(self):
        serial = sweep(self.PARAMS, _measure, seed=9)
        in_thread = sweep(self.PARAMS, _measure, seed=9, workers=1)
        processed = sweep(self.PARAMS, _measure, seed=9, workers=2)
        assert in_thread == serial
        assert processed == serial
        assert [row["param"] for row in processed] == self.PARAMS

    def test_parity_holds_with_telemetry_enabled(self):
        # The metric-collection wrappers (private worker registries,
        # portable snapshot merges) must not perturb the rows either.
        def run(workers):
            rows, _ = _with_counters(
                lambda: sweep(self.PARAMS, _measure, seed=9, workers=workers)
            )
            return rows

        assert run(1) == run(2) == sweep(self.PARAMS, _measure, seed=9)


class TestComparePartialVsPerfectExecutorParity:
    KW = dict(k_values=[12, 24, 36], trials=6, seed=3)

    @staticmethod
    def _switches():
        return PerfectConcentrator(48, 36), ColumnsortSwitch(16, 4, 36)

    def test_thread_and_process_match(self):
        perfect, partial = self._switches()
        zero = compare_partial_vs_perfect(
            perfect, partial, workers=0, **self.KW
        )
        one = compare_partial_vs_perfect(
            perfect, partial, workers=1, **self.KW
        )
        processed = compare_partial_vs_perfect(
            perfect, partial, workers=2, **self.KW
        )
        assert zero == one
        assert processed == one

    def test_process_parity_with_telemetry_enabled(self):
        perfect, partial = self._switches()

        def run(workers):
            return _with_counters(
                lambda: compare_partial_vs_perfect(
                    perfect, partial, workers=workers, **self.KW
                )
            )

        in_thread, thread_counters = run(1)
        processed, process_counters = run(2)
        assert in_thread == processed
        # The routed work merges back from the workers intact (plan-cache
        # traffic legitimately differs: processes restore shipped plans).
        trials_key = "engine.batch_trials{switch=PerfectConcentrator}"
        assert thread_counters[trials_key] == process_counters[trials_key]

    def test_means_are_finite_and_bounded(self):
        perfect, partial = self._switches()
        results = compare_partial_vs_perfect(
            perfect, partial, workers=2, **self.KW
        )
        for k, row in results.items():
            assert 0.0 <= row["perfect"] <= min(k, perfect.m)
            assert np.isfinite(row["partial"])
