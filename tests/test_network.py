"""Tests for the traffic generators and network simulations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.messages.congestion import BufferPolicy, DropPolicy, ResendPolicy
from repro.messages.message import Message
from repro.network.funnel import FunnelNetwork
from repro.network.simulate import SwitchSimulation, compare_partial_vs_perfect
from repro.network.traffic import BernoulliTraffic, FixedKTraffic, HotSpotTraffic
from repro.switches.columnsort_switch import ColumnsortSwitch
from repro.switches.hyperconcentrator import Hyperconcentrator
from repro.switches.perfect import PerfectConcentrator
from repro.switches.revsort_switch import RevsortSwitch


class TestTrafficGenerators:
    def test_bernoulli_rate(self):
        gen = BernoulliTraffic(1000, p=0.3, seed=1)
        active = sum(len(gen.active_inputs()) for _ in range(20)) / 20
        assert 250 < active < 350

    def test_bernoulli_extremes(self):
        assert len(BernoulliTraffic(64, p=0.0, seed=1).active_inputs()) == 0
        assert len(BernoulliTraffic(64, p=1.0, seed=1).active_inputs()) == 64

    def test_fixed_k(self):
        gen = FixedKTraffic(64, k=10, seed=2)
        for _ in range(10):
            active = gen.active_inputs()
            assert len(active) == 10
            assert len(set(active.tolist())) == 10

    def test_hotspot_clusters(self):
        gen = HotSpotTraffic(256, hot_fraction=0.25, p_hot=1.0, p_cold=0.0, seed=3)
        active = gen.active_inputs()
        assert len(active) == 64  # the whole hot band

    def test_messages_have_payloads(self):
        gen = FixedKTraffic(8, k=3, payload_bits=4, seed=4)
        round_msgs = gen.next_round()
        assert sum(1 for m in round_msgs if m is not None) == 3
        for m in round_msgs:
            if m is not None:
                assert m.length == 4

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            BernoulliTraffic(8, p=1.5)
        with pytest.raises(ConfigurationError):
            FixedKTraffic(8, k=9)
        with pytest.raises(ConfigurationError):
            HotSpotTraffic(8, hot_fraction=0.0)
        with pytest.raises(ConfigurationError):
            BernoulliTraffic(0, p=0.5)


class TestSwitchSimulation:
    def test_light_load_no_loss(self):
        switch = RevsortSwitch(256, 224)
        cap = switch.spec.guaranteed_capacity
        traffic = FixedKTraffic(256, k=cap, seed=5)
        summary = SwitchSimulation(switch, traffic, DropPolicy()).run(rounds=20)
        assert summary.lost == 0
        assert summary.delivery_rate == 1.0

    def test_overload_with_drop_policy_loses(self):
        switch = PerfectConcentrator(64, 16)
        traffic = FixedKTraffic(64, k=32, seed=6)
        summary = SwitchSimulation(switch, traffic, DropPolicy()).run(rounds=10)
        assert summary.lost == 10 * 16
        assert summary.delivery_rate == pytest.approx(0.5)

    def test_buffer_policy_recovers_backlog(self):
        """With bursty overload and idle rounds, buffering delivers
        more than dropping."""
        switch = PerfectConcentrator(64, 16)

        class Bursty(FixedKTraffic):
            def __init__(self):
                super().__init__(64, k=0, seed=7)
                self._round = 0

            def active_inputs(self):
                self._round += 1
                k = 32 if self._round % 4 == 1 else 0
                return self.rng.choice(64, size=k, replace=False)

        drop = SwitchSimulation(switch, Bursty(), DropPolicy()).run(rounds=20)
        buffered = SwitchSimulation(switch, Bursty(), BufferPolicy()).run(rounds=20)
        assert buffered.delivered > drop.delivered
        assert buffered.lost < drop.lost

    def test_resend_policy_eventually_delivers(self):
        switch = PerfectConcentrator(32, 8)

        class OneBurst(FixedKTraffic):
            def __init__(self):
                super().__init__(32, k=0, seed=8)
                self._fired = False

            def active_inputs(self):
                if not self._fired:
                    self._fired = True
                    return np.arange(16)
                return np.array([], dtype=np.int64)

        policy = ResendPolicy(ack_timeout=1, max_retries=10)
        summary = SwitchSimulation(switch, OneBurst(), policy).run(rounds=6)
        assert summary.delivered == 16
        assert summary.lost == 0

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            SwitchSimulation(Hyperconcentrator(8), FixedKTraffic(16, 4))


class TestTwoLevelFunnel:
    """A bank of leaf switches feeding one root, as a two-level
    :class:`FunnelNetwork`."""

    def test_two_level_funnel(self, rng):
        leaves = [PerfectConcentrator(16, 8) for _ in range(4)]
        root = PerfectConcentrator(32, 16)
        tree = FunnelNetwork([leaves, [root]])
        assert tree.n == 64 and tree.m == 16

        messages: list[Message | None] = [None] * 64
        for i in rng.choice(64, size=12, replace=False):
            messages[int(i)] = Message.from_int(int(i) % 16, 4)
        outputs, levels = tree.route(messages)
        delivered = sum(1 for m in outputs if m is not None)
        assert delivered + sum(level.lost for level in levels) == 12

    def test_light_load_no_tree_loss(self, rng):
        """k messages ≤ every stage's capacity: nothing lost."""
        leaves = [PerfectConcentrator(16, 8) for _ in range(4)]
        root = PerfectConcentrator(32, 16)
        tree = FunnelNetwork([leaves, [root]])

        messages: list[Message | None] = [None] * 64
        # 2 messages per leaf: within every capacity.
        for leaf in range(4):
            for j in range(2):
                messages[leaf * 16 + j] = Message.from_int(j, 4)
        outputs, levels = tree.route(messages)
        assert sum(level.lost for level in levels) == 0
        assert sum(1 for m in outputs if m is not None) == 8

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            FunnelNetwork([[PerfectConcentrator(8, 4)], [PerfectConcentrator(8, 4)]])


class TestPartialVsPerfect:
    def test_section1_substitution(self):
        """An (n/α, m/α, α) partial concentrator routes ≥ min(k, m)
        messages wherever an n-by-m perfect concentrator is needed."""
        n, m = 128, 96
        perfect = PerfectConcentrator(n, m)
        partial = ColumnsortSwitch(64, 4, 105)  # n'=256 > n, m'=105, ε=9
        alpha_m = partial.spec.guaranteed_capacity
        assert alpha_m >= m  # substitution requirement: αm' ≥ m
        results = compare_partial_vs_perfect(
            perfect, partial, k_values=[8, 32, 64, 96], trials=10, seed=9
        )
        for k, row in results.items():
            assert row["perfect"] == pytest.approx(min(k, m))
            assert row["partial"] >= min(k, m) - 1e-9
