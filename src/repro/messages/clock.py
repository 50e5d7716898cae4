"""Pipelined message waves.

Section 2's protocol sends one *wave* of messages per setup: valid
bits on the setup cycle, then L payload cycles.  A routing network
keeps the switch busy by launching a new wave every ``L + 1`` cycles.
:class:`WavePipeline` models that steady state on a single switch:
per-wave setup, per-cycle streaming, inter-wave congestion handling via
a policy, and wall-clock accounting in both cycles and gate-delay time
(cycle period × critical path).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro._util.rng import default_rng
from repro.errors import ConfigurationError, SimulationError
from repro.messages.congestion import CongestionPolicy, DropPolicy, place_backlog
from repro.messages.serial_sim import BitSerialSimulator
from repro.switches.base import ConcentratorSwitch


@dataclass
class WaveRecord:
    """Outcome of one wave."""

    wave_index: int
    start_cycle: int
    injected: int
    delivered: int
    unrouted: int


@dataclass
class PipelineSummary:
    """Aggregate over a pipelined run."""

    waves: list[WaveRecord] = field(default_factory=list)
    total_cycles: int = 0
    payload_bits_delivered: int = 0

    @property
    def delivered(self) -> int:
        return sum(w.delivered for w in self.waves)

    @property
    def injected(self) -> int:
        return sum(w.injected for w in self.waves)

    def throughput(self) -> float:
        """Messages delivered per cycle."""
        return self.delivered / self.total_cycles if self.total_cycles else 0.0


class WavePipeline:
    """Drive back-to-back message waves through one switch."""

    def __init__(
        self,
        switch: ConcentratorSwitch,
        payload_bits: int,
        policy: CongestionPolicy | None = None,
        seed: int | None = None,
    ):
        if payload_bits < 0:
            raise ConfigurationError("payload_bits must be non-negative")
        self.switch = switch
        self.payload_bits = payload_bits
        self.policy = policy if policy is not None else DropPolicy()
        self.sim = BitSerialSimulator(switch)
        self.rng = default_rng(seed)

    @property
    def cycles_per_wave(self) -> int:
        """Setup cycle + payload cycles."""
        return self.payload_bits + 1

    def wall_time(self, waves: int, delay_per_gate: float = 1.0) -> float:
        """Total time for ``waves`` waves: cycles × minimum clock
        period (the switch's critical path)."""
        return waves * self.cycles_per_wave * self.sim.min_clock_period(delay_per_gate)

    def run(self, traffic, waves: int) -> PipelineSummary:
        """Run ``waves`` waves of ``traffic`` (a TrafficGenerator)."""
        if traffic.n != self.switch.n:
            raise SimulationError(
                f"traffic width {traffic.n} != switch inputs {self.switch.n}"
            )
        if traffic.payload_bits != self.payload_bits:
            raise SimulationError(
                "traffic payload width must match the pipeline's"
            )
        summary = PipelineSummary()
        for wave_index in range(waves):
            injected = traffic.next_round()
            occupied = np.array([msg is not None for msg in injected], dtype=bool)
            offered = int(occupied.sum())
            self.policy.on_offered(offered)

            due = self.policy.backlog_due(wave_index)
            slots, overflow = place_backlog(occupied, due, self.rng)
            for slot, msg in zip(slots.tolist(), due):
                injected[slot] = msg

            record = self.sim.transit(injected)
            unrouted = record.dropped + overflow
            self.policy.on_delivered(len(record.delivered))
            self.policy.on_unrouted(unrouted, wave_index)

            summary.waves.append(
                WaveRecord(
                    wave_index=wave_index,
                    start_cycle=wave_index * self.cycles_per_wave,
                    injected=offered + len(slots),
                    delivered=len(record.delivered),
                    unrouted=len(unrouted),
                )
            )
            summary.payload_bits_delivered += len(record.delivered) * self.payload_bits
            obs.counter("pipeline.waves").inc()
        summary.total_cycles = waves * self.cycles_per_wave
        return summary
