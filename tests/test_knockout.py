"""Tests for the knockout-style packet switch built on concentrators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network.flows.fabric import REJECTED, KnockoutFabric
from repro.network.knockout import (
    KnockoutSwitch,
    Packet,
    knockout_loss_curve,
    uniform_packet_traffic,
)
from repro.switches.columnsort_switch import ColumnsortSwitch
from repro.switches.perfect import PerfectConcentrator


def packet(src: int, dst: int, slot: int = 0) -> Packet:
    return Packet(source=src, destination=dst, slot=slot)


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            KnockoutSwitch(0, 1)
        with pytest.raises(ConfigurationError):
            KnockoutSwitch(8, 0)
        with pytest.raises(ConfigurationError):
            KnockoutSwitch(8, 9)
        with pytest.raises(ConfigurationError):
            KnockoutSwitch(8, 2, buffer_depth=0)

    def test_rejects_mis_sized_factory(self):
        with pytest.raises(ConfigurationError):
            KnockoutSwitch(
                8, 2, concentrator_factory=lambda n, m: PerfectConcentrator(4, 2)
            )


class TestSingleSlot:
    def test_delivery_under_l(self):
        switch = KnockoutSwitch(4, 2)
        packets = [packet(0, 1), None, packet(2, 1), None]
        switch.step(packets)
        out = switch.step([None] * 4) + switch.drain()
        delivered = [p for p in out if p is not None]
        assert switch.stats.knocked_out == 0
        assert switch.stats.delivered >= 2

    def test_knockout_beyond_l(self):
        """Three packets to one output through an N-to-2 concentrator:
        exactly one is knocked out."""
        switch = KnockoutSwitch(4, 2)
        packets = [packet(i, 0) for i in range(3)] + [None]
        switch.step(packets)
        assert switch.stats.knocked_out == 1

    def test_output_line_rate_one_per_slot(self):
        switch = KnockoutSwitch(4, 2)
        switch.step([packet(0, 0), packet(1, 0), None, None])
        outputs = switch.step([None] * 4)
        assert sum(1 for p in outputs if p is not None) <= 4
        # Output 0 emits at most one packet per slot even with 2 queued.
        assert switch.queue_lengths()[0] <= 1

    def test_buffer_overflow_accounted(self):
        switch = KnockoutSwitch(4, 2, buffer_depth=1)
        # Two winners per slot into a depth-1 FIFO, drained 1/slot.
        switch.step([packet(0, 0), packet(1, 0), None, None])
        assert switch.stats.buffer_overflow >= 1

    def test_wrong_width_rejected(self):
        with pytest.raises(ConfigurationError):
            KnockoutSwitch(4, 2).step([None] * 3)

    def test_out_of_range_destinations_rejected(self):
        """A packet for an output the switch does not have is an error,
        not an offered packet that is neither delivered, lost nor
        queued."""
        switch = KnockoutSwitch(4, 2)
        with pytest.raises(ConfigurationError, match="bad destination"):
            switch.step([packet(0, 7), packet(1, -1), None, None])
        with pytest.raises(ConfigurationError, match="bad destination"):
            switch.step([None, packet(1, -1), None, None])


class TestPartialPicker:
    """Eight cells to one egress through the (16, 8, 7/8) Columnsort
    picker: above its guaranteed capacity of 7, so the picker's own
    routing decides.  Inputs {0..6, 8} are one of the 6,400 8-subsets
    it routes only 7 of."""

    PORTS = [0, 1, 2, 3, 4, 5, 6, 8]

    @staticmethod
    def factory(n, m):
        return ColumnsortSwitch(8, 2, 8)

    def test_fabric_knocks_out_what_the_picker_drops(self):
        fabric = KnockoutFabric(16, lanes=8, concentrator_factory=self.factory)
        flow = np.full(16, -1)
        dst = np.full(16, -1)
        flow[self.PORTS] = self.PORTS
        dst[self.PORTS] = 3
        fate, _ = fabric.step(flow, dst)
        picked = self.factory(16, 8).setup(flow >= 0).input_to_output >= 0
        assert list(fate[self.PORTS] == REJECTED) == list(~picked[self.PORTS])
        assert fabric.knocked_out == 1

    def test_switch_matches_the_scalar_picker(self):
        switch = KnockoutSwitch(16, 8, concentrator_factory=self.factory)
        packets = [packet(i, 3) if i in self.PORTS else None for i in range(16)]
        switch.step(packets)
        assert switch.stats.knocked_out == 1
        assert sum(switch.queue_lengths()) == 6  # 7 winners, 1 on the line


class TestConservation:
    def test_packets_conserved(self, rng):
        """offered = delivered + knocked_out + overflow (+ in flight)."""
        switch = KnockoutSwitch(8, 3, buffer_depth=4)
        for packets in uniform_packet_traffic(8, 0.7, 50, seed=1):
            switch.step(packets)
        switch.drain()
        stats = switch.stats
        assert stats.offered == stats.delivered + stats.lost

    def test_fifo_order_preserved(self):
        switch = KnockoutSwitch(4, 2)
        first = packet(0, 0, slot=0)
        second = packet(1, 0, slot=0)
        third = packet(2, 0, slot=1)
        # first and second arrive together; third one slot later.
        out0 = switch.step([first, second, None, None])
        out1 = switch.step([None, None, third, None])
        out2 = switch.step([None] * 4)
        emitted = [out[0] for out in (out0, out1, out2)]
        assert emitted == [first, second, third]


class TestLossCurve:
    def test_loss_decreases_in_l(self):
        """The knockout property: concentrator loss falls steeply as L
        grows, at fixed offered load."""
        curve = knockout_loss_curve(
            16, loads=[0.9], l_values=[1, 2, 4, 8], slots=150, seed=2
        )
        losses = [curve[(0.9, L)] for L in (1, 2, 4, 8)]
        assert losses == sorted(losses, reverse=True)
        assert losses[0] > 0.1         # L=1 loses heavily at 90% load
        assert losses[-1] < 0.01       # L=8 is nearly lossless

    def test_loss_increases_in_load(self):
        curve = knockout_loss_curve(
            16, loads=[0.3, 0.6, 0.9], l_values=[2], slots=150, seed=3
        )
        losses = [curve[(p, 2)] for p in (0.3, 0.6, 0.9)]
        assert losses == sorted(losses)

    def test_partial_concentrator_in_the_role(self):
        """A Columnsort partial concentrator can serve as the knockout
        concentrator: with its ε-slack covered by extra outputs, the
        loss matches the perfect concentrator's."""
        def partial_factory(n, m):
            # 16-to-8 via a Columnsort switch (ε = 1 with s = 2).
            assert (n, m) == (16, 8)
            return ColumnsortSwitch(8, 2, 8)

        perfect = knockout_loss_curve(
            16, loads=[0.8], l_values=[8], slots=100, seed=4
        )[(0.8, 8)]
        partial = knockout_loss_curve(
            16,
            loads=[0.8],
            l_values=[8],
            slots=100,
            seed=4,
            concentrator_factory=partial_factory,
        )[(0.8, 8)]
        assert partial <= perfect + 0.02


class TestTraffic:
    def test_uniform_traffic_rate(self):
        total = 0
        for packets in uniform_packet_traffic(100, 0.5, 20, seed=5):
            total += sum(1 for p in packets if p is not None)
        assert 800 < total < 1200

    def test_rejects_bad_load(self):
        with pytest.raises(ConfigurationError):
            list(uniform_packet_traffic(4, 1.5, 1))
