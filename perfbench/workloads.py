"""The benchmark's four workloads: commands, set-up probes and checks.

Each workload is one ``repro`` command, run as its own process, one at a
time (a closed loop with a single client).  Every workload also has a
*set-up probe*: the same command cut down to almost no work, so its wall
time is the interpreter start, imports, switch/netlist construction,
plan compile and (for verify) pool spawn plus plan shipping that the
full command pays before its first pattern, cycle or shard.

The checks are structural, not golden digests: they hold for any seed
and survive a change that re-baselines the program's golden snapshots.
Each returns an error message, or None when the output is correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

# Each command is sized to take 1-3 s, so one 30 s run holds several
# samples of every variant; NOTES.md compares these sizes with the
# commands' defaults.

#: Certification budgets, passed explicitly so the planned pattern
#: count is a function of the command, not of library defaults.
CERTIFY_MAX_TOTAL = 4096
CERTIFY_MAX_PER_K = 128
#: The registry's certification configs at these budgets.
CERTIFY_CONFIGS = 10
CERTIFY_PATTERNS = 35_588

FAULTS_DESIGNS = ("revsort-n4096-m3072", "columnsort-beta23-n4096-m3072")
FAULTS_TRIALS = 8
FAULTS_ROUNDS = 10
FLOWS_FABRICS = ("concentrator", "fattree", "knockout", "rotor")
FLOWS_MAX_CYCLES = 500
VERIFY_N = 1024
VERIFY_M = 768
VERIFY_TRIALS = 8192
VERIFY_WORKERS = 2


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def planned_patterns(n: int, max_total: int, max_per_k: int) -> int:
    """Patterns ``repro certify`` enumerates for an n-input design:
    every pattern when 2^n fits the budget, else up to ``max_per_k``
    per load level k."""
    if (1 << n) <= max_total:
        return 1 << n
    return sum(min(math.comb(n, k), max_per_k) for k in range(n + 1))


def check_certify(stdout: str, argv: list[str]) -> str | None:
    certs = json.loads(stdout)
    max_total = int(_flag(argv, "--max-total"))
    max_per_k = int(_flag(argv, "--max-per-k"))
    if len(certs) != CERTIFY_CONFIGS:
        return f"expected {CERTIFY_CONFIGS} certificates, got {len(certs)}"
    total = 0
    for cert in certs:
        name = f"{cert['design']}-n{cert['n']}"
        if cert["schema"] != "repro.verify/certificate@1":
            return f"{name}: unexpected schema {cert['schema']!r}"
        if not cert["ok"] or cert["violations"]:
            return f"{name}: certificate not ok"
        planned = planned_patterns(cert["n"], max_total, max_per_k)
        if cert["total_patterns"] != planned:
            return f"{name}: {cert['total_patterns']} patterns, planned {planned}"
        bound = cert["epsilon_bound"]
        if bound is not None and cert["worst_epsilon"] > bound:
            return f"{name}: epsilon {cert['worst_epsilon']} > bound {bound}"
        total += cert["total_patterns"]
    if max_total == CERTIFY_MAX_TOTAL and max_per_k == CERTIFY_MAX_PER_K:
        if total != CERTIFY_PATTERNS:
            return f"{total} patterns in all, planned {CERTIFY_PATTERNS}"
    return None


def check_faults(stdout: str, argv: list[str]) -> str | None:
    sweeps = json.loads(stdout)
    designs = tuple(sweep["design"] for sweep in sweeps)
    if designs != FAULTS_DESIGNS:
        return f"swept {designs}, expected {FAULTS_DESIGNS}"
    for sweep in sweeps:
        if not sweep["ok"] or not sweep["certificates"]:
            return f"{sweep['design']}: sweep not ok"
        for cert in sweep["certificates"]:
            if cert["schema"] != "repro.faults/degradation@1" or not cert["ok"]:
                return f"{sweep['design']}: {cert['kind']} certificate not ok"
    return None


def check_flows(stdout: str, argv: list[str]) -> str | None:
    """Cell accounting per ``FlowSimResult``: with backpressure on,
    ``offered_cells`` counts attempts, so it is at least delivered plus
    dropped; fabrics that resolved every flow delivered the same cells."""
    report = json.loads(stdout)
    if report["schema"] != "repro.cli/flows-compare@1":
        return f"unexpected schema {report['schema']!r}"
    fabrics = report["fabrics"]
    if tuple(sorted(fabrics)) != FLOWS_FABRICS:
        return f"fabrics {sorted(fabrics)}, expected {FLOWS_FABRICS}"
    cap = int(_flag(argv, "--max-cycles"))
    drained = set()
    for name, row in fabrics.items():
        moved = row["delivered_cells"] + row["dropped_cells"]
        if row["flows"] != report["flows"] or not 0 <= row["completed"] <= row["flows"]:
            return f"{name}: {row['completed']}/{row['flows']} flows of {report['flows']}"
        if row["offered_cells"] < moved:
            return f"{name}: offered {row['offered_cells']} < moved {moved}"
        if not 0 < row["cycles"] <= cap:
            return f"{name}: {row['cycles']} cycles outside (0, {cap}]"
        if row["cycles"] == cap == FLOWS_MAX_CYCLES and not row["delivered_cells"]:
            return f"{name}: delivered nothing in {cap} cycles"
        if row["completed"] == row["flows"]:
            drained.add(moved)
    if len(drained) > 1:
        return f"drained fabrics disagree on cells moved: {sorted(drained)}"
    events = sum(row["events"] for row in fabrics.values())
    if events != report["total_events"]:
        return f"fabric events sum to {events}, total_events {report['total_events']}"
    return None


def check_verify(stdout: str, argv: list[str]) -> str | None:
    result = json.loads(stdout)
    if result["schema"] != "repro.cli/verify@1" or result["mode"] != "process":
        return f"unexpected result {result['schema']!r} / {result['mode']!r}"
    if result["trials"] != int(_flag(argv, "--trials")):
        return f"{result['trials']} trials, asked for {_flag(argv, '--trials')}"
    if not result["ok"] or result["worst_epsilon"] > result["epsilon_bound"]:
        return (
            f"not ok: epsilon {result['worst_epsilon']} "
            f"vs bound {result['epsilon_bound']}"
        )
    return None


def check_verify_probe(stdout: str, argv: list[str]) -> str | None:
    result = json.loads(stdout)
    if result["violations"] or result["worst_epsilon"] > result["epsilon_bound"]:
        return f"set-up probe not ok: {result}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``repro`` CLI arguments of the measured command for a seed.
    argv: Callable[[int], list[str]]
    #: Arguments of the set-up probe: ``repro`` CLI arguments, or, when
    #: ``probe_script`` is set, that script's arguments.
    probe_argv: Callable[[int], list[str]]
    check: Callable[[str, list[str]], str | None]
    probe_check: Callable[[str, list[str]], str | None]
    probe_script: str | None = None


def _certify(max_total: int, max_per_k: int) -> list[str]:
    return [
        "certify", "--format", "json",
        "--max-total", str(max_total), "--max-per-k", str(max_per_k),
    ]


def _faults(seed: int, trials: int = FAULTS_TRIALS, rounds: int = FAULTS_ROUNDS) -> list[str]:
    return [
        "faults", "sweep", "--seed", str(seed), "--format", "json",
        "--trials", str(trials), "--rounds", str(rounds),
    ]


def _flows(seed: int, max_cycles: int) -> list[str]:
    return [
        "flows", "compare", "--n", "64", "--load", "0.7",
        "--sizes", "websearch", "--seed", str(seed),
        "--max-cycles", str(max_cycles), "--format", "json",
    ]


def _verify(seed: int) -> list[str]:
    return [
        "verify", "revsort", "--n", str(VERIFY_N), "--m", str(VERIFY_M),
        "--trials", str(VERIFY_TRIALS), "--seed", str(seed),
        "--backend", "process", "--workers", str(VERIFY_WORKERS), "--format", "json",
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="certify",
            why="Certifies all 10 registry configs, serially: every check layer "
            "of verify over 256-row chunks of the sparse plan walker; no fault "
            "walker, simulator or pool.",
            argv=lambda seed: _certify(CERTIFY_MAX_TOTAL, CERTIFY_MAX_PER_K),
            probe_argv=lambda seed: _certify(1, 1),
            check=check_certify,
            probe_check=check_certify,
        ),
        Workload(
            name="faults",
            why="Fault sweep at n=4096: the only user of the dense fault walker "
            "and of the round-synchronous SwitchSimulation; barely journals, so "
            "it is the control for telemetry changes.",
            argv=_faults,
            probe_argv=lambda seed: _faults(seed, trials=1, rounds=1) + [
                "--chains", "1", "--chain-length", "1",
                "--parity-scenarios", "0", "--flaky-scenarios", "0",
            ],
            check=check_faults,
            probe_check=check_faults,
        ),
        Workload(
            name="flows",
            why="Four fabrics over one websearch flow list at n=64: the per-cycle "
            "Python loop of FlowSim with one-row engine calls; the heaviest "
            "journal user.",
            argv=lambda seed: _flows(seed, FLOWS_MAX_CYCLES),
            probe_argv=lambda seed: _flows(seed, 1),
            check=check_flows,
            probe_check=check_flows,
        ),
        Workload(
            name="verify",
            why="Sharded process backend on 2 workers at n=1024: pool spawn, plan "
            "shipping, pickling, shared memory, supervisor and fold around "
            "large engine batches.",
            argv=_verify,
            probe_argv=lambda seed: ["--seed", str(seed)],
            check=check_verify,
            probe_check=check_verify_probe,
            probe_script="verify_probe.py",
        ),
    )
}
