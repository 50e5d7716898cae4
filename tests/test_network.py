"""Tests for the traffic generators and network simulations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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

    def test_rejects_payloads_wider_than_an_int64_draw(self):
        # 1 << 64 is past the int64 bound of rng.integers: the width
        # must fail at construction, not on the first round.
        for make in (
            lambda bits: BernoulliTraffic(8, 0.9, payload_bits=bits, seed=1),
            lambda bits: FixedKTraffic(8, 4, payload_bits=bits, seed=1),
            lambda bits: HotSpotTraffic(8, payload_bits=bits, seed=1),
        ):
            with pytest.raises(ConfigurationError, match="payload_bits"):
                make(64)
            widest = make(63).next_round()
            assert all(m.length == 63 for m in widest if m is not None)


def _generator(kind: str, n: int, bits: int, seed: int):
    if kind == "bernoulli":
        return BernoulliTraffic(n, 0.6, payload_bits=bits, seed=seed)
    if kind == "fixedk":
        return FixedKTraffic(n, n // 2, payload_bits=bits, seed=seed)
    return HotSpotTraffic(n, 0.4, 0.9, 0.2, payload_bits=bits, seed=seed)


def _scalar_round(gen) -> tuple[list[int], list[int]]:
    """The reference draw: one scalar ``rng.integers`` per active input,
    after the occupancy draw (the per-message loop ``draw`` replaced)."""
    active = [int(i) for i in gen.active_inputs()]
    bits = gen.payload_bits
    values = [int(gen.rng.integers(0, 1 << bits)) if bits else 0 for _ in active]
    return active, values


@given(
    kind=st.sampled_from(["bernoulli", "fixedk", "hotspot"]),
    n=st.integers(1, 48),
    bits=st.integers(0, 63),
    seed=st.integers(0, 2**32 - 1),
)
def test_draw_next_round_and_scalar_loop_agree(kind, n, bits, seed):
    """``draw`` and ``next_round`` give the same occupancy and payloads
    as the scalar loop, round after round, and leave every RNG in the
    same state."""
    arrays, messages, scalar = (_generator(kind, n, bits, seed) for _ in range(3))
    for _ in range(3):
        active, values = arrays.draw()
        round_msgs = messages.next_round()
        ref_active, ref_values = _scalar_round(scalar)
        assert active.tolist() == ref_active
        assert (values.tolist() if values is not None else [0] * len(active)) == ref_values
        assert [i for i, m in enumerate(round_msgs) if m is not None] == sorted(ref_active)
        assert [round_msgs[i].to_int() for i in ref_active] == ref_values
        state = scalar.rng.bit_generator.state
        assert arrays.rng.bit_generator.state == state
        assert messages.rng.bit_generator.state == state


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
