"""Experiment PERF — scaling of the simulators themselves.

Not a paper artifact: pytest-benchmark timings of the library's hot
paths across sizes, so performance regressions in the simulation
substrate are caught alongside the scientific results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.switches.columnsort_switch import ColumnsortSwitch
from repro.switches.hyperconcentrator import Hyperconcentrator
from repro.switches.multichip_hyper import FullRevsortHyperconcentrator
from repro.switches.revsort_switch import RevsortSwitch


def _valid(n: int) -> np.ndarray:
    rng = np.random.default_rng(81)
    return rng.random(n) < 0.5


@pytest.mark.parametrize("n", [1024, 4096, 16384])
def test_perf_revsort_setup(benchmark, n):
    switch = RevsortSwitch(n, (3 * n) // 4)
    valid = _valid(n)
    benchmark(switch.setup, valid)


@pytest.mark.parametrize("n", [1024, 4096, 16384])
def test_perf_columnsort_setup(benchmark, n):
    switch = ColumnsortSwitch.from_beta(n, 0.75, (3 * n) // 4)
    valid = _valid(n)
    benchmark(switch.setup, valid)


@pytest.mark.parametrize("n", [4096, 65536])
def test_perf_single_chip_setup(benchmark, n):
    switch = Hyperconcentrator(n)
    valid = _valid(n)
    benchmark(switch.setup, valid)


def test_perf_full_revsort_hyper_setup(benchmark):
    switch = FullRevsortHyperconcentrator(4096)
    valid = _valid(4096)
    benchmark(switch.setup, valid)


def test_perf_gate_netlist_build(benchmark):
    from repro.gates.hyperconc_gates import build_hyperconcentrator

    benchmark(build_hyperconcentrator, 32)


@pytest.mark.parametrize("trials", [64, 512])
def test_perf_gate_netlist_evaluate(benchmark, trials):
    """Bit-parallel levelized evaluation: 64 trials per uint64 word."""
    from repro.gates.evaluate import evaluate
    from repro.gates.hyperconc_gates import build_hyperconcentrator

    circuit = build_hyperconcentrator(32, with_datapath=False)
    rng = np.random.default_rng(82)
    batch = rng.random((trials, 32)) < 0.5
    evaluate(circuit, batch)  # levelize outside the timer
    benchmark(evaluate, circuit, batch)


@pytest.mark.parametrize("n", [1024, 4096])
def test_perf_revsort_setup_batch(benchmark, n):
    """Engine path: 128 trials per call (vs test_perf_revsort_setup)."""
    switch = RevsortSwitch(n, (3 * n) // 4)
    rng = np.random.default_rng(81)
    valid = rng.random((128, n)) < 0.5
    switch.setup_batch(valid)  # warm the plan cache outside the timer
    benchmark(switch.setup_batch, valid)


@pytest.mark.parametrize("n", [1024, 4096])
def test_perf_columnsort_setup_batch(benchmark, n):
    switch = ColumnsortSwitch.from_beta(n, 0.75, (3 * n) // 4)
    rng = np.random.default_rng(81)
    valid = rng.random((128, n)) < 0.5
    switch.setup_batch(valid)
    benchmark(switch.setup_batch, valid)

