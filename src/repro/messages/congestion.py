"""Congestion-control policies (Section 1).

"Typical ways of handling unsuccessfully routed messages in a routing
network are to buffer them, to misroute them, or to simply drop them
and rely on a higher-level acknowledgment protocol to detect this
situation and resend them.  The switch designs in this paper are
compatible with any of these congestion control methods."

A policy consumes the messages a switch failed to route in one round
and decides what re-enters on later rounds.  The network simulator
drives rounds; policies keep their own state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro._util.rng import default_rng
from repro.errors import ConfigurationError
from repro.messages.message import Message


@dataclass
class PolicyStats:
    """Counters every policy maintains.

    ``expired`` is a sub-count of ``dropped``: messages whose TTL ran
    out (so ``dropped`` already includes them).
    """

    offered: int = 0
    delivered: int = 0
    dropped: int = 0
    retried: int = 0
    expired: int = 0

    @property
    def loss_rate(self) -> float:
        return self.dropped / self.offered if self.offered else 0.0


class CongestionPolicy(ABC):
    """Decides the fate of unrouted messages between rounds."""

    def __init__(self) -> None:
        self.stats = PolicyStats()

    def _count_dropped(self, amount: int = 1) -> None:
        """Record permanent losses (stats + the obs layer)."""
        self.stats.dropped += amount
        if amount:
            obs.counter("congestion.dropped", policy=type(self).__name__).inc(amount)

    def _count_retried(self, amount: int = 1) -> None:
        """Record messages queued for a later round."""
        self.stats.retried += amount
        if amount:
            obs.counter("congestion.retried", policy=type(self).__name__).inc(amount)

    def _count_expired(self, amount: int = 1) -> None:
        """Record TTL expiries (a kind of permanent loss)."""
        self.stats.dropped += amount
        self.stats.expired += amount
        if amount:
            name = type(self).__name__
            obs.counter("congestion.dropped", policy=name).inc(amount)
            obs.counter("congestion.expired", policy=name).inc(amount)

    @abstractmethod
    def on_unrouted(self, messages: list[Message], round_index: int) -> None:
        """Called with the messages the switch failed to route."""

    @abstractmethod
    def backlog(self) -> list[Message]:
        """Messages this policy wants re-injected next round."""

    def backlog_due(self, round_index: int) -> list[Message]:
        """Messages to re-inject at round ``round_index``; policies
        without timed release hand back their whole backlog."""
        return self.backlog()

    def on_offered(self, count: int) -> None:
        self.stats.offered += count

    def on_delivered(self, count: int) -> None:
        self.stats.delivered += count


class DropPolicy(CongestionPolicy):
    """Drop unrouted messages outright (loss is permanent)."""

    def on_unrouted(self, messages: list[Message], round_index: int) -> None:
        self._count_dropped(len(messages))

    def backlog(self) -> list[Message]:
        return []


class BufferPolicy(CongestionPolicy):
    """Buffer unrouted messages at the inputs and retry next round.

    ``capacity`` bounds the queue; overflow is dropped (queue-overflow
    is exactly the scenario the paper's BTR section handles with its
    emergency network).
    """

    def __init__(self, capacity: int | None = None):
        super().__init__()
        self.capacity = capacity
        self._queue: deque[Message] = deque()
        #: queue depth sampled at the end of every round with losses —
        #: by Little's law, mean depth / throughput approximates the
        #: mean extra waiting time buffering introduces.
        self.depth_history: list[int] = []

    def on_unrouted(self, messages: list[Message], round_index: int) -> None:
        for msg in messages:
            if self.capacity is not None and len(self._queue) >= self.capacity:
                self._count_dropped()
            else:
                self._queue.append(msg)
                self._count_retried()
        self.depth_history.append(len(self._queue))
        obs.series("congestion.queue_depth", policy=type(self).__name__).append(
            len(self._queue), t=round_index
        )

    def backlog(self) -> list[Message]:
        out = list(self._queue)
        self._queue.clear()
        return out

    @property
    def mean_queue_depth(self) -> float:
        if not self.depth_history:
            return 0.0
        return sum(self.depth_history) / len(self.depth_history)

    @property
    def peak_queue_depth(self) -> int:
        return max(self.depth_history, default=0)


@dataclass
class _Pending:
    message: Message
    resend_round: int


class _TimedRelease(CongestionPolicy):
    """A policy that schedules each retransmission for a later round
    and releases it only once that round comes."""

    def __init__(self) -> None:
        super().__init__()
        self._pending: list[_Pending] = []
        self._attempts: dict[int, int] = {}

    def backlog(self) -> list[Message]:
        ready = [p.message for p in self._pending]
        self._pending.clear()
        return ready

    def backlog_due(self, round_index: int) -> list[Message]:
        """Release the retransmissions whose round has come."""
        due = [p.message for p in self._pending if p.resend_round <= round_index]
        self._pending = [p for p in self._pending if p.resend_round > round_index]
        return due


class ResendPolicy(_TimedRelease):
    """Drop-and-resend: the sender detects a missing acknowledgment
    after ``ack_timeout`` rounds and retransmits, up to ``max_retries``
    per message (then the message is declared lost)."""

    def __init__(self, ack_timeout: int = 1, max_retries: int = 8):
        super().__init__()
        self.ack_timeout = ack_timeout
        self.max_retries = max_retries

    def on_unrouted(self, messages: list[Message], round_index: int) -> None:
        for msg in messages:
            attempts = self._attempts.get(msg.tag, 0) + 1
            self._attempts[msg.tag] = attempts
            if attempts > self.max_retries:
                self._count_dropped()
            else:
                self._pending.append(
                    _Pending(message=msg, resend_round=round_index + self.ack_timeout)
                )
                self._count_retried()


class RetryPolicy(_TimedRelease):
    """Retry with exponential backoff, jitter, and a per-message TTL.

    An unrouted message waits ``base_delay · backoff_factor^(a−1)``
    rounds on its a-th failure (capped at ``max_delay``), plus a
    uniform integer jitter in ``[0, jitter]`` to de-synchronise
    colliding retries, then re-enters on an idle input slot.  A message
    is permanently dropped once it exceeds ``max_retries`` attempts or
    ages past ``ttl`` rounds since its first failure (TTL drops are
    additionally counted in ``stats.expired``).  This is the resilient
    companion to the fault scenarios: flaky pins and degraded switches
    turn one-shot losses into recoverable retries.
    """

    def __init__(
        self,
        max_retries: int = 8,
        base_delay: int = 1,
        backoff_factor: float = 2.0,
        max_delay: int = 16,
        jitter: int = 1,
        ttl: int | None = None,
        seed: int | None = None,
    ):
        super().__init__()
        if max_retries < 0 or base_delay < 1 or max_delay < base_delay:
            raise ConfigurationError(
                "need max_retries >= 0 and 1 <= base_delay <= max_delay"
            )
        if backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if jitter < 0:
            raise ConfigurationError("jitter must be non-negative")
        if ttl is not None and ttl < 1:
            raise ConfigurationError("ttl must be positive (or None)")
        self.max_retries = max_retries
        self.base_delay = base_delay
        self.backoff_factor = backoff_factor
        self.max_delay = max_delay
        self.jitter = jitter
        self.ttl = ttl
        self._rng = default_rng(seed)
        self._first_failure: dict[int, int] = {}

    def delay_for(self, attempts: int) -> int:
        """Backoff delay (without jitter) before retry ``attempts``."""
        delay = self.base_delay * self.backoff_factor ** (attempts - 1)
        return max(1, min(int(round(delay)), self.max_delay))

    def on_unrouted(self, messages: list[Message], round_index: int) -> None:
        for msg in messages:
            attempts = self._attempts.get(msg.tag, 0) + 1
            self._attempts[msg.tag] = attempts
            first = self._first_failure.setdefault(msg.tag, round_index)
            if self.ttl is not None and round_index - first >= self.ttl:
                self._count_expired()
                continue
            if attempts > self.max_retries:
                self._count_dropped()
                continue
            wait = self.delay_for(attempts)
            if self.jitter:
                wait += int(self._rng.integers(0, self.jitter + 1))
            self._pending.append(
                _Pending(message=msg, resend_round=round_index + wait)
            )
            self._count_retried()
        obs.series("congestion.inflight", policy=type(self).__name__).append(
            len(self._pending), t=round_index
        )

    @property
    def in_flight(self) -> int:
        """Messages currently waiting out a backoff window."""
        return len(self._pending)


def place_backlog(
    occupied: np.ndarray, backlog: list[Message], rng
) -> tuple[np.ndarray, list[Message]]:
    """Place ``backlog`` on the idle inputs of one round, given its
    bool occupancy ``occupied``; the idle slots are taken in one
    ``rng.shuffle`` order (no draw when the backlog is empty).  Returns
    the slots, ``slots[k]`` taking ``backlog[k]``, and the overflow
    that found no idle slot."""
    if not backlog:
        return np.empty(0, dtype=np.intp), []
    idle = np.flatnonzero(~occupied)
    rng.shuffle(idle)
    slots = idle[: len(backlog)]
    return slots, backlog[len(slots):]
