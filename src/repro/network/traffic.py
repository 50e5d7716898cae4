"""Synthetic workload generators.

Each generator produces, per round, the set of input wires that carry a
valid message (and the message payloads).  These play the role of the
parallel computer's traffic that the paper's switches would see.

:meth:`TrafficGenerator.draw` is the array form of one round (what the
round simulator routes on); :meth:`TrafficGenerator.next_round` is the
:class:`Message` view of the same draws (what the bit-serial pipeline
transits).  Both consume the generator's RNG identically.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro._util.rng import default_rng
from repro.errors import ConfigurationError
from repro.messages.message import Message


#: Widest payload a generator draws: values come from one int64
#: ``rng.integers`` call, whose exclusive bound ``1 << bits`` must fit.
MAX_PAYLOAD_BITS = 63


class TrafficGenerator(ABC):
    """Produces one message set per round: as arrays (:meth:`draw`) or
    as a length-n list of Message/None (:meth:`next_round`)."""

    def __init__(self, n: int, payload_bits: int = 8, seed: int | None = None):
        if n < 1:
            raise ConfigurationError(f"n must be positive, got {n}")
        if not 0 <= payload_bits <= MAX_PAYLOAD_BITS:
            raise ConfigurationError(
                f"payload_bits must be in [0, {MAX_PAYLOAD_BITS}], "
                f"got {payload_bits}"
            )
        self.n = n
        self.payload_bits = payload_bits
        self.rng = default_rng(seed)

    @abstractmethod
    def active_inputs(self) -> np.ndarray:
        """Indices of inputs carrying a valid message this round."""

    def draw(self) -> tuple[np.ndarray, np.ndarray | None]:
        """One round: the active inputs, in the order
        :meth:`active_inputs` gave them, and each one's payload value
        (aligned with them), or None when ``payload_bits == 0``.  One
        vectorised ``rng.integers`` call yields the same values as one
        scalar draw per active input."""
        active = np.asarray(self.active_inputs(), dtype=np.intp)
        if not self.payload_bits:
            return active, None
        return active, self.rng.integers(0, 1 << self.payload_bits, size=len(active))

    def next_round(self) -> list[Message | None]:
        """The :class:`Message` view of :meth:`draw`: ``messages[i]``
        carries input i's payload, None on an idle input."""
        active, values = self.draw()
        payloads = values.tolist() if values is not None else [0] * len(active)
        messages: list[Message | None] = [None] * self.n
        for i, value in zip(active.tolist(), payloads):
            messages[i] = Message.from_int(value, self.payload_bits)
        return messages


class BernoulliTraffic(TrafficGenerator):
    """Each input independently carries a message with probability
    ``p`` (the offered load per wire)."""

    def __init__(self, n: int, p: float, payload_bits: int = 8, seed: int | None = None):
        super().__init__(n, payload_bits, seed)
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"p must be in [0, 1], got {p}")
        self.p = p

    def active_inputs(self) -> np.ndarray:
        return np.flatnonzero(self.rng.random(self.n) < self.p)


class FixedKTraffic(TrafficGenerator):
    """Exactly ``k`` uniformly chosen inputs carry messages — the load
    model of the paper's k-message analyses."""

    def __init__(self, n: int, k: int, payload_bits: int = 8, seed: int | None = None):
        super().__init__(n, payload_bits, seed)
        if not 0 <= k <= n:
            raise ConfigurationError(f"k={k} out of range for n={n}")
        self.k = k

    def active_inputs(self) -> np.ndarray:
        return self.rng.choice(self.n, size=self.k, replace=False)


class HotSpotTraffic(TrafficGenerator):
    """A contiguous band of inputs is hot (per-wire probability
    ``p_hot``) while the rest stay at ``p_cold`` — stresses the switch
    with spatially clustered valid bits, the adversarial pattern for
    mesh-based nearsorters."""

    def __init__(
        self,
        n: int,
        hot_fraction: float = 0.25,
        p_hot: float = 0.9,
        p_cold: float = 0.05,
        payload_bits: int = 8,
        seed: int | None = None,
    ):
        super().__init__(n, payload_bits, seed)
        if not 0.0 < hot_fraction <= 1.0:
            raise ConfigurationError("hot_fraction must be in (0, 1]")
        for name, p in (("p_hot", p_hot), ("p_cold", p_cold)):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {p}")
        self.hot_count = max(1, int(round(hot_fraction * n)))
        self.p_hot = p_hot
        self.p_cold = p_cold

    def active_inputs(self) -> np.ndarray:
        start = int(self.rng.integers(0, self.n))
        hot = (np.arange(self.hot_count) + start) % self.n
        mask = np.zeros(self.n, dtype=bool)
        mask[hot] = self.rng.random(self.hot_count) < self.p_hot
        cold = np.setdiff1d(np.arange(self.n), hot, assume_unique=False)
        mask[cold] = self.rng.random(cold.size) < self.p_cold
        return np.flatnonzero(mask)
