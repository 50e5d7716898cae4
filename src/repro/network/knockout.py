"""A knockout-style packet switch built from concentrators.

The paper's introduction places concentrators inside "the switches
that route messages [in] many parallel computing systems".  The
canonical such design, contemporaneous with the paper, is the knockout
switch (Yeh–Hluchyj–Acampora, 1987): an N-port output-buffered packet
switch in which every output port listens to all N inputs through an
**N-to-L concentrator** — at most L packets per slot reach the output
buffers and the rest are "knocked out".  The concentrator is exactly
the component this library builds, so :class:`KnockoutSwitch` wires
any of our concentrator switches into that role and measures the loss
the design is famous for (loss falls off steeply in L and is nearly
independent of N).

Packets are (destination, payload) pairs; one slot routes at most one
packet per input.  Each output port has an N-input concentrator with
``L`` outputs feeding a FIFO of configurable depth, drained at one
packet per slot (the output line rate).  The model itself is the flow
simulator's :class:`~repro.network.flows.fabric.KnockoutFabric`;
:class:`KnockoutSwitch` is its packet interface.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.network.flows.fabric import ABSORBED, DELIVERED, KnockoutFabric
from repro.switches.base import ConcentratorSwitch

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Packet:
    """One fixed-size packet."""

    source: int
    destination: int
    slot: int


@dataclass
class KnockoutStats:
    """Loss accounting for a run."""

    offered: int = 0
    knocked_out: int = 0      # lost in a concentrator (arrivals > L)
    buffer_overflow: int = 0  # lost to a full output FIFO
    delivered: int = 0
    per_output_delivered: list[int] = field(default_factory=list)

    @property
    def lost(self) -> int:
        return self.knocked_out + self.buffer_overflow

    @property
    def loss_rate(self) -> float:
        return self.lost / self.offered if self.offered else 0.0


class KnockoutSwitch:
    """An N-port output-buffered switch with per-output N-to-L
    concentrators.

    A packet interface over the one knockout model,
    :class:`~repro.network.flows.fabric.KnockoutFabric`.

    Parameters
    ----------
    ports:
        Number of input (and output) ports N.
    concentrator_outputs:
        L, the concentrator fan-in limit per output per slot.
    buffer_depth:
        Output FIFO capacity (packets); drained 1/slot.
    concentrator_factory:
        Builds the N-to-L concentrator the outputs share; defaults to
        the perfect concentrator.  Passing a partial-concentrator
        factory reproduces the paper's cheaper switches in the role.
    """

    def __init__(
        self,
        ports: int,
        concentrator_outputs: int,
        *,
        buffer_depth: int = 16,
        concentrator_factory: Callable[[int, int], ConcentratorSwitch] | None = None,
    ):
        if not 1 <= concentrator_outputs <= ports:
            raise ConfigurationError(
                f"need 1 <= L <= N, got L={concentrator_outputs}, N={ports}"
            )
        self.ports = ports
        self.L = concentrator_outputs
        self.buffer_depth = buffer_depth
        self.fabric = KnockoutFabric(
            ports, lanes=concentrator_outputs, fifo_depth=buffer_depth,
            concentrator_factory=concentrator_factory,
        )
        # Flow id of every queued packet; each slot's ids are
        # ``base + input port``, with ``base`` advancing N per slot.
        self._queued: dict[int, Packet] = {}
        self._base = 0
        self.stats = KnockoutStats(per_output_delivered=[0] * ports)

    def step(self, packets: list[Packet | None]) -> list[Packet | None]:
        """Advance one slot: admit ``packets`` (one per input, None =
        idle), knock out each output's excess, enqueue survivors, and
        drain one packet per output.  Returns the packets leaving on
        each output line this slot."""
        if len(packets) != self.ports:
            raise ConfigurationError(
                f"expected {self.ports} input slots, got {len(packets)}"
            )
        flow = np.full(self.ports, -1, dtype=np.int64)
        dst = flow.copy()
        for port, packet in enumerate(packets):
            if packet is not None:
                flow[port], dst[port] = self._base + port, packet.destination
        fabric, stats = self.fabric, self.stats
        fate, surfaced = fabric.step(flow, dst)

        outputs: list[Packet | None] = [None] * self.ports
        for packet in map(self._queued.pop, surfaced):
            outputs[packet.destination] = packet
        for port in np.flatnonzero(fate == ABSORBED).tolist():
            self._queued[self._base + port] = packets[port]
        for port in np.flatnonzero(fate == DELIVERED).tolist():
            outputs[packets[port].destination] = packets[port]
        self._base += self.ports

        offered = int((flow >= 0).sum())
        knocked = fabric.knocked_out - stats.knocked_out
        overflow = fabric.overflowed - stats.buffer_overflow
        delivered = self._deliver([p for p in outputs if p is not None])
        stats.offered += offered
        stats.knocked_out, stats.buffer_overflow = fabric.knocked_out, fabric.overflowed
        reg = obs.get_registry()
        if reg.enabled:
            reg.counter("knockout.offered").inc(offered)
            reg.counter("knockout.knocked_out").inc(knocked)
            reg.counter("knockout.buffer_overflow").inc(overflow)
            reg.counter("knockout.delivered").inc(delivered)
        return outputs

    def _deliver(self, packets: list[Packet]) -> int:
        for packet in packets:
            self.stats.per_output_delivered[packet.destination] += 1
        self.stats.delivered += len(packets)
        return len(packets)

    def queue_lengths(self) -> list[int]:
        return self.fabric.queue_lengths()

    def drain(self) -> list[Packet]:
        """Drain all FIFOs (end of a run); counts as delivered."""
        leftovers = [self._queued.pop(fid) for fid in self.fabric.drain()]
        self._deliver(leftovers)
        return leftovers


def uniform_packet_traffic(
    ports: int, p: float, slots: int, seed: int | None = None
):
    """Generator of per-slot packet lists: each input holds a packet
    with probability ``p``, destination uniform over outputs."""
    from repro._util.rng import default_rng

    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must be in [0, 1], got {p}")
    rng = default_rng(seed)
    for slot in range(slots):
        packets: list[Packet | None] = [None] * ports
        active = np.flatnonzero(rng.random(ports) < p)
        destinations = rng.integers(0, ports, size=active.size)
        for src, dst in zip(active, destinations):
            packets[int(src)] = Packet(source=int(src), destination=int(dst), slot=slot)
        yield packets


def knockout_loss_curve(
    ports: int,
    loads: list[float],
    l_values: list[int],
    *,
    slots: int = 200,
    buffer_depth: int = 64,
    concentrator_factory=None,
    seed: int | None = None,
) -> dict[tuple[float, int], float]:
    """Measure concentrator (knockout) loss rate for each (load, L)."""
    results: dict[tuple[float, int], float] = {}
    for p in loads:
        for L in l_values:
            with obs.span("knockout.config", load=p, L=L):
                switch = KnockoutSwitch(
                    ports,
                    L,
                    buffer_depth=buffer_depth,
                    concentrator_factory=concentrator_factory,
                )
                for packets in uniform_packet_traffic(ports, p, slots, seed=seed):
                    switch.step(packets)
                switch.drain()
                offered = switch.stats.offered
                results[(p, L)] = (
                    switch.stats.knocked_out / offered if offered else 0.0
                )
            logger.debug(
                "knockout load=%.3f L=%d: offered=%d knocked_out=%d",
                p, L, offered, switch.stats.knocked_out,
            )
    return results
