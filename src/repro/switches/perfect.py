"""n-by-m perfect concentrator from a hyperconcentrator (Section 1).

"We can make any n-by-m perfect concentrator switch from an n-by-n
hyperconcentrator switch by simply choosing the first m output wires."
"""

from __future__ import annotations

import numpy as np

from repro.core.concentration import ConcentratorSpec
from repro.engine.batch import BatchRouting, perfect_concentrate_batch
from repro.errors import ConfigurationError
from repro.switches.base import ConcentratorSwitch, Routing
from repro.switches.hyperconcentrator import Hyperconcentrator


class PerfectConcentrator(ConcentratorSwitch):
    """An n-by-m perfect concentrator switch.

    With k valid messages: all are routed when k ≤ m, and every output
    carries a message when k > m (the overflow k − m messages get no
    path and are handled by a congestion policy upstream).
    """

    def __init__(self, n: int, m: int):
        if not 1 <= m <= n:
            raise ConfigurationError(f"need 1 <= m <= n, got n={n}, m={m}")
        self.n = n
        self.m = m
        self._hyper = Hyperconcentrator(n)

    @property
    def spec(self) -> ConcentratorSpec:
        return ConcentratorSpec(n=self.n, m=self.m, alpha=1.0)

    @property
    def hyperconcentrator(self) -> Hyperconcentrator:
        """The underlying n-by-n hyperconcentrator chip."""
        return self._hyper

    def setup(self, valid: np.ndarray) -> Routing:
        valid = self._check_valid(valid)
        inner = self._hyper.setup(valid).input_to_output
        # Keep only paths that land on the first m outputs.
        routing = np.where(inner < self.m, inner, -1)
        return Routing(
            n_inputs=self.n, n_outputs=self.m, valid=valid, input_to_output=routing
        )

    def _setup_batch(self, valid: np.ndarray) -> BatchRouting:
        return BatchRouting(
            n_inputs=self.n,
            n_outputs=self.m,
            valid=valid,
            input_to_output=perfect_concentrate_batch(valid, self.m),
        )

    @property
    def gate_delays(self) -> int:
        """Delay equals the underlying hyperconcentrator's."""
        return self._hyper.gate_delays

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"PerfectConcentrator(n={self.n}, m={self.m})"
