"""Engine throughput: scalar setup loop vs batched compiled-plan path.

Standalone script (not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --out BENCH_engine.json

For each configured switch it routes the same random trial set through
(a) a plain ``setup`` loop and (b) one ``setup_batch`` call on the
warmed plan cache, checks the two produce identical routings (exit 1 on
any mismatch), and writes a JSON report with per-row speedups plus the
plan-cache statistics.  ``--smoke`` shrinks sizes/trials for CI.

The headline row is the Thm-4 Columnsort quality-bench geometry,
``ColumnsortSwitch.from_beta(4096, 0.75, 3072)``; docs/performance.md
records the measured per-trial speedups.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.engine import plan_cache
from repro.switches.columnsort_switch import ColumnsortSwitch
from repro.switches.hyperconcentrator import Hyperconcentrator
from repro.switches.multichip_hyper import FullRevsortHyperconcentrator
from repro.switches.revsort_switch import RevsortSwitch


def _configs(smoke: bool):
    if smoke:
        return [
            ("columnsort-n256", ColumnsortSwitch.from_beta(256, 0.75, 192)),
            ("revsort-n256", RevsortSwitch(256, 192)),
            ("hyper-n256", Hyperconcentrator(256)),
        ]
    return [
        ("columnsort-n4096", ColumnsortSwitch.from_beta(4096, 0.75, 3072)),
        ("revsort-n4096", RevsortSwitch(4096, 3072)),
        ("hyper-n4096", Hyperconcentrator(4096)),
        ("fullrevsort-n4096", FullRevsortHyperconcentrator(4096)),
    ]


def _bench_switch(name, switch, trials, rng, reps=3):
    valid = rng.random((trials, switch.n)) < 0.5

    # Interleave scalar/batch repetitions and take the best time of
    # each so both paths see the same machine conditions; on a shared
    # single-CPU box wall-clock noise otherwise dominates the ratio.
    switch.setup_batch(valid[:2])  # warm the plan cache
    scalar = None
    scalar_s = batch_s = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        scalar = np.stack(
            [switch.setup(valid[b]).input_to_output for b in range(trials)]
        )
        scalar_s = min(scalar_s, time.perf_counter() - t0)

        t0 = time.perf_counter()
        batch = switch.setup_batch(valid)
        batch_s = min(batch_s, time.perf_counter() - t0)

    match = bool(np.array_equal(scalar, batch.input_to_output))
    return {
        "switch": name,
        "n": switch.n,
        "m": switch.m,
        "trials": trials,
        "reps": reps,
        "scalar_seconds": scalar_s,
        "batch_seconds": batch_s,
        "scalar_trials_per_s": trials / scalar_s,
        "batch_trials_per_s": trials / batch_s,
        "speedup": scalar_s / batch_s,
        "match": match,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument("--trials", type=int, default=64)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes for CI smoke runs"
    )
    args = parser.parse_args(argv)

    plan_cache().clear()
    rng = np.random.default_rng(args.seed)
    rows = [
        _bench_switch(name, switch, args.trials, rng)
        for name, switch in _configs(args.smoke)
    ]
    report = {
        "trials": args.trials,
        "seed": args.seed,
        "smoke": args.smoke,
        "rows": rows,
        "plan_cache": plan_cache().stats(),
    }

    for row in rows:
        status = "ok" if row["match"] else "MISMATCH"
        print(
            f"{row['switch']:>20}  scalar {row['scalar_trials_per_s']:8.1f}/s  "
            f"batch {row['batch_trials_per_s']:9.1f}/s  "
            f"speedup {row['speedup']:6.1f}x  [{status}]"
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"report written to {args.out}")

    if not all(row["match"] for row in rows):
        print("ERROR: batch routing disagrees with the scalar oracle", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
