"""Single-process backends: the three historical execution paths
wrapped behind the :class:`~repro.engine.backends.base.EngineBackend`
protocol.

* ``scalar`` — the per-trial ``setup`` oracle (slow, definitionally
  correct; what every other path is certified against);
* ``batch`` — the vectorized ``setup_batch`` engine;
* ``packed`` — bit-parallel gate-netlist evaluation (64 trials per
  uint64 lane); occupancy only, n ≤ 16 designs with netlists.
"""

from __future__ import annotations

import numpy as np

from repro.engine.backends.base import (
    CAP_OCCUPANCY,
    CAP_ROUTING,
    CAP_STREAM,
    EngineBackend,
    register_backend,
)
from repro.errors import ConfigurationError


class ScalarBackend(EngineBackend):
    """The per-trial scalar oracle behind the protocol."""

    name = "scalar"

    def __init__(self, **_options) -> None:
        pass

    def capabilities(self) -> frozenset:
        return frozenset({CAP_ROUTING, CAP_OCCUPANCY, CAP_STREAM})

    def run_trials(self, switch, valid: np.ndarray):
        from repro.engine.batch import BatchRouting

        valid = np.asarray(valid, dtype=bool)
        routing = np.full(valid.shape, -1, dtype=np.int64)
        for i in range(valid.shape[0]):
            routing[i] = switch.setup(valid[i]).input_to_output
        return BatchRouting(
            n_inputs=switch.n,
            n_outputs=switch.m,
            valid=valid,
            input_to_output=routing,
        )


class BatchBackend(EngineBackend):
    """The vectorized numpy engine (``setup_batch``)."""

    name = "batch"

    def __init__(self, **_options) -> None:
        pass

    def capabilities(self) -> frozenset:
        return frozenset({CAP_ROUTING, CAP_OCCUPANCY, CAP_STREAM})

    def run_trials(self, switch, valid: np.ndarray):
        return switch.setup_batch(np.asarray(valid, dtype=bool))


class PackedGateBackend(EngineBackend):
    """Bit-packed netlist evaluation: 64 trials per uint64 lane."""

    name = "packed"

    def __init__(self, **_options) -> None:
        pass

    def capabilities(self) -> frozenset:
        return frozenset({CAP_OCCUPANCY})

    def run_occupancy(self, switch, valid: np.ndarray) -> np.ndarray:
        from repro.gates.evaluate import evaluate
        from repro.verify.differential import netlist_for

        netlist = netlist_for(switch)
        if netlist is None:
            raise ConfigurationError(
                f"backend {self.name!r} needs a gate netlist; "
                f"{switch!r} has none (n > 16 or unmapped design)"
            )
        circuit, out_wires = netlist
        values = evaluate(circuit, np.asarray(valid, dtype=bool))
        return values[:, out_wires]


register_backend("scalar", ScalarBackend)
register_backend("batch", BatchBackend)
register_backend("packed", PackedGateBackend)
