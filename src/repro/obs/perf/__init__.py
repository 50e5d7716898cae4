"""repro.obs.perf — the performance observatory.

Built on top of :mod:`repro.obs`, this subpackage turns one-off bench
snapshots into a continuously measured *trajectory* with a regression
gate, so the paper's resource claims (Theorems 3-4, Table 1) stay
backed by numbers that are re-earned on every commit:

* :mod:`repro.obs.perf.suite` — the registry-driven bench harness
  behind ``repro bench run``: deterministic workloads (engine
  throughput, Thm-3/4 quality geometries, certify wall time) timed
  with median-of-repeats, capturing per-stage span timings, plan-cache
  hit rates, peak RSS, and allocation counts;
* :mod:`repro.obs.perf.trajectory` — the schema-tagged, append-only
  ``BENCH_TRAJECTORY.jsonl`` record store, keyed by git SHA;
* :mod:`repro.obs.perf.regression` — noise-aware baseline comparison
  (``repro bench compare``), exiting nonzero on regression for CI;
* :mod:`repro.obs.perf.analyze` — the causal span tree, critical path
  and worker utilization of a journal (``repro obs analyze``);
* :mod:`repro.obs.perf.chrometrace` — span-timeline export to
  Chrome-trace / Perfetto JSON (``repro obs analyze --trace-out``);
* :mod:`repro.obs.perf.report` — the ``repro obs report`` trajectory
  dashboard (throughput trends, delay-in-gates vs the theoretical
  ``3 lg n`` / ``4 beta lg n`` lines).

See docs/performance.md ("The performance observatory") for the
record schema and CLI recipes.
"""

from repro.obs.perf.analyze import analysis_report, analyze_journal
from repro.obs.perf.chrometrace import chrome_trace_document, write_chrome_trace
from repro.obs.perf.regression import Verdict, compare_records, has_regressions
from repro.obs.perf.report import trajectory_report
from repro.obs.perf.suite import (
    SPECS,
    BenchSpec,
    Workload,
    run_bench,
    suite_names,
    suite_specs,
)
from repro.obs.perf.trajectory import (
    TRAJECTORY_SCHEMA,
    TRAJECTORY_VERSION,
    append_records,
    latest_per_bench,
    read_trajectory,
    split_latest,
)

__all__ = [
    "SPECS",
    "TRAJECTORY_SCHEMA",
    "TRAJECTORY_VERSION",
    "BenchSpec",
    "Verdict",
    "Workload",
    "analysis_report",
    "analyze_journal",
    "append_records",
    "chrome_trace_document",
    "compare_records",
    "has_regressions",
    "latest_per_bench",
    "read_trajectory",
    "run_bench",
    "split_latest",
    "suite_names",
    "suite_specs",
    "trajectory_report",
    "write_chrome_trace",
]
