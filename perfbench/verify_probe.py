"""Set-up probe for the verify workload.

Does what the verify workload's ``repro verify revsort --backend process
--workers 2`` does before its first full shard (imports, switch
construction, plan compile, pool spawn and plan shipping), then routes
one trial on each worker instead of 4096.  The CLI offers no shard size,
so the probe calls the same public engine API the command does.

Usage: python perfbench/verify_probe.py --seed N   (with src/ on PYTHONPATH)
"""

from __future__ import annotations

import argparse
import json


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    import repro.cli  # noqa: F401  - the command's import cost
    from repro.engine import StreamSpec, get_backend
    from repro.switches.registry import build_switch
    from workloads import VERIFY_M, VERIFY_N, VERIFY_WORKERS

    switch = build_switch("revsort", n=VERIFY_N, m=VERIFY_M, r=None, s=None, beta=None)
    backend = get_backend("process", workers=VERIFY_WORKERS)
    summary = backend.run_stream(
        switch, StreamSpec(trials=2, seed=args.seed, shard_trials=1)
    )
    print(json.dumps({
        "violations": summary.violations,
        "worst_epsilon": summary.worst_epsilon,
        "epsilon_bound": switch.epsilon_bound,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
