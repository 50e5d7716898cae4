"""Tests for the fat-tree network with concentrator up-links."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util.rng import default_rng
from repro.errors import ConfigurationError
from repro.messages.message import Message
from repro.network.fattree import (
    FatTree,
    Routed,
    constant_capacity,
    lca_level,
    random_permutation_round,
    universal_capacity,
)
from repro.switches.columnsort_switch import ColumnsortSwitch


def send(tree: FatTree, pairs: list[tuple[int, int]]):
    msgs: list[Routed | None] = [None] * tree.leaves
    for src, dst in pairs:
        msgs[src] = Routed(message=Message.from_int(src % 16, 4), src=src, dst=dst)
    return tree.route_round(msgs)


class TestLcaLevel:
    def test_same_leaf(self):
        assert lca_level(5, 5) == 0

    def test_siblings(self):
        assert lca_level(0, 1) == 1
        assert lca_level(6, 7) == 1

    def test_cousins(self):
        assert lca_level(0, 2) == 2
        assert lca_level(0, 7) == 3

    def test_symmetric(self):
        for a, b in [(0, 5), (3, 12), (7, 8)]:
            assert lca_level(a, b) == lca_level(b, a)


class TestConstruction:
    def test_rejects_bad_height(self):
        with pytest.raises(ConfigurationError):
            FatTree(0, constant_capacity(1))

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            FatTree(3, constant_capacity(0))

    def test_capacity_profiles(self):
        cap = universal_capacity(4)
        assert cap(1) == 1 and cap(2) == 2 and cap(3) == 4
        assert constant_capacity(3)(2) == 3


class TestRouting:
    def test_local_traffic_never_contends(self):
        """Sibling exchanges turn at level 1 and need no up capacity."""
        tree = FatTree(3, constant_capacity(1))
        stats = send(tree, [(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4)])
        assert stats.delivered == 6
        assert stats.dropped == 0

    def test_thin_tree_drops_cross_traffic(self):
        """Capacity 1 up-links cannot carry two far messages from the
        same subtree."""
        tree = FatTree(3, constant_capacity(1))
        # Leaves 0 and 1 both send across the root (to 4, 5): their
        # shared level-1 and level-2 up-links admit only one.
        stats = send(tree, [(0, 4), (1, 5)])
        assert stats.offered == 2
        assert stats.delivered == 1
        assert stats.dropped == 1

    def test_capacity_profile_ordering(self):
        """Thin < half-bisection < full-bisection on root-crossing
        traffic; full bisection is lossless on permutations."""
        from repro.network.fattree import full_bisection_capacity

        pairs = [(i, i ^ 0b1000) for i in range(8)]  # all cross the root
        thin = send(FatTree(4, constant_capacity(1)), pairs)
        half = send(FatTree(4, universal_capacity(4)), pairs)
        full = send(FatTree(4, full_bisection_capacity()), pairs)
        assert thin.delivered <= half.delivered <= full.delivered
        assert thin.dropped > 0
        assert full.dropped == 0

    def test_offered_equals_delivered_plus_dropped(self):
        tree = FatTree(4, constant_capacity(2))
        rng = default_rng(1)
        for _ in range(20):
            msgs = random_permutation_round(tree, 0.8, rng)
            stats = tree.route_round(msgs)
            assert stats.offered == stats.delivered + stats.dropped

    def test_self_traffic_rejected_by_generator(self):
        tree = FatTree(3, constant_capacity(2))
        rng = default_rng(2)
        for _ in range(10):
            msgs = random_permutation_round(tree, 1.0, rng)
            for i, routed in enumerate(msgs):
                if routed is not None:
                    assert routed.dst != i

    def test_bad_slot_rejected(self):
        tree = FatTree(3, constant_capacity(1))
        msgs: list[Routed | None] = [None] * 8
        msgs[0] = Routed(message=Message.from_int(0, 4), src=3, dst=5)
        with pytest.raises(ConfigurationError):
            tree.route_round(msgs)

    def test_bad_destination_rejected(self):
        tree = FatTree(3, constant_capacity(1))
        for dst in (-1, 8):
            msgs: list[Routed | None] = [None] * 8
            msgs[2] = Routed(message=Message.from_int(0, 4), src=2, dst=dst)
            with pytest.raises(ConfigurationError):
                tree.route_round(msgs)
        for dst in (-2, 8):
            row = np.full(8, -1)
            row[2] = dst
            with pytest.raises(ConfigurationError):
                tree.route_round_detailed(row)

    def test_wrong_width_rejected(self):
        with pytest.raises(ConfigurationError):
            FatTree(3, constant_capacity(1)).route_round([None] * 4)


class TestConcentratorChoice:
    def test_partial_concentrator_uplinks(self):
        """The paper's switches as fat-tree up-links: a Columnsort
        partial concentrator with enough slack delivers like the
        perfect one."""
        def partial_factory(n, m):
            # Only (8 -> 4) switches arise at level 3 of this test.
            if (n, m) == (8, 4):
                return ColumnsortSwitch(4, 2, 4)
            from repro.switches.perfect import PerfectConcentrator

            return PerfectConcentrator(n, m)

        perfect_tree = FatTree(3, constant_capacity(4))
        partial_tree = FatTree(
            3, constant_capacity(4), concentrator_factory=partial_factory
        )
        rng_a, rng_b = default_rng(3), default_rng(3)
        delivered = [0, 0]
        for _ in range(30):
            ma = random_permutation_round(perfect_tree, 0.9, rng_a)
            mb = random_permutation_round(partial_tree, 0.9, rng_b)
            delivered[0] += perfect_tree.route_round(ma).delivered
            delivered[1] += partial_tree.route_round(mb).delivered
        # Identical traffic: the (8, 4, 3/4) switch may drop slightly
        # more under full contention but must stay within its alpha.
        assert delivered[1] >= delivered[0] * 0.9

    def test_per_level_drop_accounting(self):
        tree = FatTree(3, constant_capacity(1))
        stats = send(tree, [(0, 4), (1, 5), (2, 6), (3, 7)])
        assert sum(stats.dropped_per_level.values()) == stats.dropped
        assert all(d >= 1 for d in stats.dropped_per_level)
