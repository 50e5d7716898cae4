"""Shared fixtures and hypothesis settings for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro._util.rng import default_rng
from repro.gates.event_sim import _gate_output
from repro.gates.netlist import Circuit, Op

# One moderate profile for CI-style runs: deterministic, bounded time.
settings.register_profile(
    "repro",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG, fresh per test."""
    return default_rng(0xC0FFEE)


@pytest.fixture
def live_registries(monkeypatch) -> list:
    """Every registry ``obs.collecting`` opens during the test, in
    order; the first one a CLI command opens is its telemetry scope's.
    A journal's replay is compared with that registry's final
    snapshot, the state the run ended in."""
    import contextlib

    from repro import obs

    opened: list = []
    collecting = obs.collecting

    @contextlib.contextmanager
    def capture(registry=None):
        with collecting(registry) as reg:
            opened.append(reg)
            yield reg

    monkeypatch.setattr(obs, "collecting", capture)
    return opened


def random_bits(rng: np.random.Generator, n: int, k: int | None = None) -> np.ndarray:
    """Random valid-bit vector; exactly k ones when k is given."""
    out = np.zeros(n, dtype=bool)
    if k is None:
        out[:] = rng.random(n) < rng.random()
    elif k > 0:
        out[rng.choice(n, size=k, replace=False)] = True
    return out


def gate_fold(circuit: Circuit, inputs: np.ndarray, forces=None) -> np.ndarray:
    """Reference netlist evaluation, one row and one gate at a time
    through the timing simulator's scalar gate rule; same shapes and
    ``forces`` semantics as :func:`repro.gates.evaluate.evaluate`."""
    forces = forces or {}
    arr = np.asarray(inputs, dtype=bool)
    rows = np.atleast_2d(arr)
    out = np.zeros((rows.shape[0], circuit.n_wires), dtype=bool)
    for b, row in enumerate(rows.tolist()):
        feed = iter(row)
        values: list[bool] = []
        for gate in circuit.gates:
            if gate.op is Op.INPUT:
                value = next(feed)
            elif gate.op in (Op.CONST0, Op.CONST1):
                value = gate.op is Op.CONST1
            else:
                value = _gate_output(gate.op, [values[src] for src in gate.inputs])
            values.append(bool(forces.get(gate.output, value)))
        out[b] = values
    return out[0] if arr.ndim == 1 else out


def oneshot_valid(n, count, entropy, load):
    """A whole stream shard's valid bits in one draw: the formula the
    blocked ``shard_blocks`` generator must reproduce bit for bit."""
    rng = np.random.default_rng(entropy)
    if load == "half":
        return rng.random((count, n)) < 0.5
    thresholds = rng.random((count, 1))
    return rng.random((count, n)) < thresholds


def serial_stream(switch, spec):
    """Reference stream fold, without the backend's dispatch or its row
    blocks: each shard's rows in one draw from its position-keyed
    ``SeedSequence`` child, routed by one ``setup_batch``, summarised and
    folded in shard order."""
    from repro.engine.backends import StreamSummary, summarize_batch

    shards = spec.shards()
    children = np.random.SeedSequence(spec.seed).spawn(max(1, len(shards)))
    summary = StreamSummary()
    for index, (start, stop) in enumerate(shards):
        valid = oneshot_valid(switch.n, stop - start, children[index], spec.load)
        summary = summary.fold(
            summarize_batch(
                switch,
                switch.setup_batch(valid),
                start=start,
                check_contract=spec.check_contract,
                measure_epsilon=spec.measure_epsilon,
            )
        )
    return summary
