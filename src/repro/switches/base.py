"""Common switch interface and routing representation.

Per Section 2 of the paper, a switch operates in two phases:

* **setup**: every input presents its valid bit in the same clock
  cycle; the combinational logic establishes disjoint electrical paths
  from valid inputs to outputs;
* **streaming**: subsequent message bits follow the established paths,
  one bit per clock cycle.

:meth:`ConcentratorSwitch.setup` models the first phase, returning a
:class:`Routing`; :meth:`ConcentratorSwitch.route` models an entire
message transit (setup from the messages' valid bits, then payload
delivery).  Bit-level clocked streaming lives in
:mod:`repro.messages.serial_sim`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.concentration import (
    ConcentratorSpec,
    outputs_to_inputs,
    validate_routing_disjoint,
)
from repro.engine.batch import BatchRouting
from repro.errors import ConfigurationError, RoutingError


def _as_bool_bits(arr: np.ndarray, *, copy: bool = True) -> np.ndarray:
    """Coerce a valid-bit array to bool, rejecting anything that is not
    a 0/1 value (mirrors :func:`repro.core.nearsort._as_bits`; a silent
    ``astype(bool)`` would truncate arbitrary ints to True).  With
    ``copy=False`` a bool input is returned as is."""
    if arr.dtype != np.bool_ and arr.size and not ((arr == 0) | (arr == 1)).all():
        raise ConfigurationError("valid bits must contain only 0/1 values")
    return arr.astype(bool, copy=copy)


@dataclass(frozen=True)
class Routing:
    """The electrical paths established during one setup cycle.

    ``input_to_output[i]`` is the output wire carrying input ``i``'s
    message (−1 when input ``i`` has no path).  Only valid inputs are
    given paths; paths are always disjoint.
    """

    n_inputs: int
    n_outputs: int
    valid: np.ndarray
    input_to_output: np.ndarray

    def __post_init__(self) -> None:
        if self.valid.shape != (self.n_inputs,):
            raise ConfigurationError("valid bits shape mismatch")
        if self.input_to_output.shape != (self.n_inputs,):
            raise ConfigurationError("routing shape mismatch")
        validate_routing_disjoint(self.input_to_output, self.n_outputs)

    @property
    def routed_count(self) -> int:
        """Number of valid messages with an established path."""
        return int((self.input_to_output[self.valid] >= 0).sum())

    @property
    def dropped_inputs(self) -> np.ndarray:
        """Indices of valid inputs that failed to get a path."""
        return np.flatnonzero(self.valid & (self.input_to_output < 0))

    def output_to_input(self) -> np.ndarray:
        """Inverse map: for each output wire, the input it carries
        (−1 when idle)."""
        inv = np.full(self.n_outputs, -1, dtype=np.int64)
        routed = np.flatnonzero(self.input_to_output >= 0)
        inv[self.input_to_output[routed]] = routed
        return inv

    def output_valid_bits(self) -> np.ndarray:
        """The valid bits as seen on the output wires."""
        out = np.zeros(self.n_outputs, dtype=bool)
        targets = self.input_to_output[self.valid]
        out[targets[targets >= 0]] = True
        return out


class ConcentratorSwitch(ABC):
    """Abstract base for every concentrator switch in the library."""

    #: Subclasses set these in ``__init__``.
    n: int
    m: int

    @property
    @abstractmethod
    def spec(self) -> ConcentratorSpec:
        """The (n, m, α) specification this switch guarantees."""

    @abstractmethod
    def setup(self, valid: np.ndarray) -> Routing:
        """Establish paths for one setup cycle of valid bits."""

    def _check_valid(self, valid: np.ndarray) -> np.ndarray:
        arr = np.asarray(valid)
        if arr.shape != (self.n,):
            raise ConfigurationError(
                f"expected {self.n} valid bits, got shape {arr.shape}"
            )
        return _as_bool_bits(arr)

    def _check_valid_batch(self, valid: np.ndarray) -> np.ndarray:
        arr = np.asarray(valid)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise ConfigurationError(
                f"expected a (B, {self.n}) batch of valid bits, "
                f"got shape {np.asarray(valid).shape}"
            )
        # No copy: no _setup_batch writes to its valid bits, and a
        # certify chunk of 4,096x64 bools would cost 256 KB per call.
        return _as_bool_bits(arr, copy=False)

    def setup_batch(self, valid: np.ndarray) -> BatchRouting:
        """Establish paths for ``B`` independent setup cycles at once.

        ``valid`` is a ``(B, n)`` bool array, one trial per row.  The
        base implementation loops over :meth:`setup` (correct for every
        switch); subclasses override :meth:`_setup_batch` with true
        vectorized execution.  Either way ``setup_batch(V)[i]`` equals
        ``setup(V[i])``.
        """
        valid2d = self._check_valid_batch(valid)
        reg = obs.get_registry()
        if reg.enabled:
            label = type(self).__name__
            counters = reg.handles.get(("engine.batch", label))
            if counters is None:
                counters = reg.handles[("engine.batch", label)] = (
                    reg.counter("engine.batch_setups", switch=label),
                    reg.counter("engine.batch_trials", switch=label),
                )
            counters[0].inc()
            counters[1].inc(valid2d.shape[0])
        return self._setup_batch(valid2d)

    def _setup_batch(self, valid: np.ndarray) -> BatchRouting:
        """Generic fallback through the scalar oracle; ``valid`` is
        pre-checked (B, n) bool."""
        routing = self.scalar_routing(valid)
        return BatchRouting(
            n_inputs=self.n, n_outputs=self.m, valid=valid, input_to_output=routing
        )

    def scalar_routing(self, valid: np.ndarray) -> np.ndarray:
        """The scalar oracle over a ``(B, n)`` batch: row ``i`` equals
        ``setup(valid[i]).input_to_output``, without the per-row
        :class:`Routing` disjointness check.  This default calls
        :meth:`setup` row by row; :class:`FinalPositionSwitch` designs
        make one call over the whole batch."""
        valid2d = self._check_valid_batch(valid)
        if not valid2d.shape[0]:
            return np.empty((0, self.n), dtype=np.int64)
        return np.stack([self.setup(row).input_to_output for row in valid2d])

    def route(self, messages: Sequence[object | None]) -> list[object | None]:
        """Route whole messages: ``messages[i]`` is input i's payload or
        None for an invalid message.  Returns the m output slots."""
        if len(messages) != self.n:
            raise RoutingError(f"expected {self.n} input messages, got {len(messages)}")
        valid = np.array([msg is not None for msg in messages], dtype=bool)
        routing = self.setup(valid)
        counters = self._route_counters()
        if counters is not None:
            counters[0].inc()
            counters[1].inc(int(valid.sum()))
            counters[2].inc(routing.routed_count)
        return _gather(messages, routing.output_to_input().tolist())

    def route_rows(
        self, rows: Sequence[Sequence[object | None]]
    ) -> list[list[object | None]]:
        """:meth:`route` over many setups: ``route_rows(rows)[b]`` equals
        ``route(rows[b])``.

        One :meth:`scalar_routing` call sets up every row, and one
        check over the batch asserts what :class:`Routing` asserts per
        setup (paths in range and disjoint).  The route counters count
        rows, as ``B`` :meth:`route` calls would."""
        if not len(rows):
            return []
        for messages in rows:
            if len(messages) != self.n:
                raise RoutingError(
                    f"expected {self.n} input messages, got {len(messages)}"
                )
        valid = np.array(
            [[msg is not None for msg in messages] for messages in rows], dtype=bool
        )
        routing = self.scalar_routing(valid)
        out_to_in = outputs_to_inputs(routing, self.m)
        counters = self._route_counters()
        if counters is not None:
            counters[0].inc(len(rows))
            counters[1].inc(int(valid.sum()))
            # Every path is a routed message: a switch gives paths only
            # to the inputs its setup saw valid (a stuck-at-1 fault's too).
            counters[2].inc(int((routing >= 0).sum()))
        return [
            _gather(messages, inputs)
            for messages, inputs in zip(rows, out_to_in.tolist())
        ]

    def _route_counters(self) -> tuple | None:
        """The ``switch.route_calls``, ``valid_in`` and ``routed_out``
        counters of this switch class, or None with telemetry off."""
        reg = obs.get_registry()
        if not reg.enabled:
            return None
        label = type(self).__name__
        counters = reg.handles.get(("switch.route", label))
        if counters is None:
            counters = reg.handles[("switch.route", label)] = (
                reg.counter("switch.route_calls", switch=label),
                reg.counter("switch.valid_in", switch=label),
                reg.counter("switch.routed_out", switch=label),
            )
        return counters


def _gather(messages: Sequence[object | None], inputs: list[int]) -> list[object | None]:
    """The output slots of one setup: ``inputs[j]`` is the input that
    output ``j`` carries, −1 when it is idle."""
    return [messages[i] if i >= 0 else None for i in inputs]


class FinalPositionSwitch(ConcentratorSwitch):
    """A switch whose scalar oracle is :meth:`final_positions`: input
    ``i`` leaves on output ``final_positions(valid)[i]`` when it is
    valid and that position is below m.

    ``final_positions`` takes one setup ``(n,)`` or a ``(B, n)`` batch,
    so :meth:`setup` and :meth:`scalar_routing` read one implementation
    of the oracle.  A subclass that overrides :meth:`setup` alone keeps
    that override as its oracle: :meth:`scalar_routing` then falls back
    to the row-by-row default.
    """

    @abstractmethod
    def final_positions(self, valid: np.ndarray) -> np.ndarray:
        """Final flat position of every input, shaped like ``valid``."""

    def _check_valid_rows(self, valid: np.ndarray) -> np.ndarray:
        """:meth:`_check_valid` for ``(n,)``, :meth:`_check_valid_batch`
        for anything else."""
        arr = np.asarray(valid)
        return self._check_valid(arr) if arr.ndim == 1 else self._check_valid_batch(arr)

    def _oracle_routing(self, valid: np.ndarray) -> np.ndarray:
        final = self.final_positions(valid)
        return np.where(valid & (final < self.m), final, -1)

    def setup(self, valid: np.ndarray) -> Routing:
        valid = self._check_valid(valid)
        return Routing(
            n_inputs=self.n,
            n_outputs=self.m,
            valid=valid,
            input_to_output=self._oracle_routing(valid),
        )

    def scalar_routing(self, valid: np.ndarray) -> np.ndarray:
        if type(self).setup is not FinalPositionSwitch.setup:
            return super().scalar_routing(valid)
        return self._oracle_routing(self._check_valid_batch(valid))


@dataclass
class StageReport:
    """Bookkeeping for one stage of a multichip switch (used by the
    hardware model and the 2-D/3-D layout reproductions)."""

    name: str
    chip_count: int
    chip_inputs: int
    wiring: str = "identity"
    extras: dict = field(default_factory=dict)
