"""A fat-tree routing network with concentrator up-links.

The paper's research context (the same MIT group and report) routes
messages on fat-trees built from constant-size switches; concentrators
are the natural up-link elements: at each internal node, the messages
ascending from a node's subtree contend for the node's limited up-link
*channel capacity*, and an n-to-m concentrator picks the winners.

This module implements a binary fat-tree of height h over
``2^h`` leaf processors:

* each level-d internal node (d = 1 at the leaves' parents) has an
  **up-link capacity** ``cap(d)`` given by a capacity profile;
* a message from leaf ``src`` to leaf ``dst`` ascends to the lowest
  common ancestor (concentrating at every hop) and then descends —
  descent is non-blocking in this model (the classic fat-tree
  bottleneck is the up path);
* at every ascent hop, the contending messages enter a concentrator
  switch built by a pluggable factory (perfect by default, or any of
  the paper's partial concentrators), and losers are dropped and
  counted.

The simulation routes one *round* (a batch of messages, at most one
per leaf) and reports per-level contention — enough to study how the
capacity profile and the concentrator quality shape delivery, which is
exactly the role Section 1 casts concentrators in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.messages.message import Message
from repro.switches.base import ConcentratorSwitch
from repro.switches.perfect import PerfectConcentrator


@dataclass(frozen=True)
class Routed:
    """A message with its fat-tree addressing."""

    message: Message
    src: int
    dst: int


@dataclass
class FatTreeStats:
    """Per-round accounting."""

    offered: int = 0
    delivered: int = 0
    dropped_per_level: dict[int, int] = field(default_factory=dict)

    @property
    def dropped(self) -> int:
        return sum(self.dropped_per_level.values())

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.offered if self.offered else 1.0


def lca_level(src: int, dst: int) -> int:
    """Height of the lowest common ancestor of two leaves (1 = their
    shared parent)."""
    if src == dst:
        return 0
    return (src ^ dst).bit_length()


class FatTree:
    """A binary fat-tree with concentrator up-links.

    Parameters
    ----------
    height:
        Tree height h; ``2^h`` leaves.
    capacity_profile:
        ``cap(d)`` = up-link channel capacity out of a level-d node
        (d = 1..h−1; the root has no up-link).  A *universal*-style
        profile grows toward the root; a thin tree keeps it constant.
    concentrator_factory:
        Builds the n-to-m concentrator used at each ascent hop.
    """

    def __init__(
        self,
        height: int,
        capacity_profile: Callable[[int], int],
        concentrator_factory: Callable[[int, int], ConcentratorSwitch] | None = None,
    ):
        if height < 1:
            raise ConfigurationError(f"height must be >= 1, got {height}")
        self.height = height
        self.leaves = 1 << height
        self.capacity = {
            d: int(capacity_profile(d)) for d in range(1, height)
        }
        for d, cap in self.capacity.items():
            if cap < 1:
                raise ConfigurationError(f"capacity at level {d} must be >= 1")
        self._factory = concentrator_factory or PerfectConcentrator
        self._switch_cache: dict[tuple[int, int], ConcentratorSwitch] = {}
        self._leaf_ids = np.arange(self.leaves, dtype=np.int64)
        # bit_length of every src ^ dst: the LCA level of any leaf pair.
        # An idle leaf (dst −1) gives src ^ −1 = −src − 1, which indexes
        # the −1 tail: it never rises and never survives.
        self._level_of = np.array(
            [x.bit_length() for x in range(self.leaves)] + [-1] * self.leaves,
            dtype=np.int64,
        )
        # (level, capacity, subtree width) of every level whose up-link
        # can be oversubscribed.
        self._ascent = [
            (d, cap, 1 << d) for d, cap in self.capacity.items() if cap < 1 << d
        ]

    def _switch(self, n: int, m: int) -> ConcentratorSwitch:
        key = (n, m)
        if key not in self._switch_cache:
            self._switch_cache[key] = self._factory(n, m)
        return self._switch_cache[key]

    def route_round(self, messages: list[Routed | None]) -> FatTreeStats:
        """Route one batch (``messages[i]`` leaves leaf i, or None).

        The message view of :meth:`route_round_detailed`: each slot's
        message must claim that slot as its ``src``.
        """
        if len(messages) != self.leaves:
            raise ConfigurationError(
                f"expected {self.leaves} slots, got {len(messages)}"
            )
        dst = np.full(self.leaves, -1, dtype=np.int64)
        for i, routed in enumerate(messages):
            if routed is None:
                continue
            if routed.src != i:
                raise ConfigurationError(f"message in slot {i} claims src {routed.src}")
            if not 0 <= routed.dst < self.leaves:
                raise ConfigurationError(f"bad destination {routed.dst}")
            dst[i] = routed.dst
        stats, _ = self.route_round_detailed(dst)
        return stats

    def route_round_detailed(
        self, dst: np.ndarray
    ) -> tuple[FatTreeStats, np.ndarray]:
        """Route one round given as an array: ``dst[i]`` is the
        destination of leaf i's message, or −1 when leaf i is idle.
        Returns the stats and a bool mask of the survivors (the
        messages actually delivered, indexed by source leaf).

        Ascent: at each level d, the messages that must rise *above*
        level d contend, per level-d subtree, for that subtree's
        up-link capacity through a concentrator.  The subtrees are the
        rows of the ascending mask reshaped to ``(leaves >> d, 2^d)``;
        every row over capacity goes through one ``setup_batch`` call
        per level.  Descent: lossless.
        """
        dst = np.asarray(dst)
        if dst.shape != (self.leaves,):
            raise ConfigurationError(
                f"expected {self.leaves} slots, got shape {dst.shape}"
            )
        live = dst >= 0
        bad = (dst < -1) | (dst >= self.leaves)
        if bad.any():
            raise ConfigurationError(
                f"bad destination {int(dst[bad.argmax()])}"
            )
        survivors, dropped = self.ascend(dst)
        return (
            FatTreeStats(
                offered=int(np.count_nonzero(live)),
                delivered=int(np.count_nonzero(survivors)),
                dropped_per_level=dropped,
            ),
            survivors,
        )

    def ascend(self, dst: np.ndarray) -> tuple[np.ndarray, dict[int, int]]:
        """The ascent of :meth:`route_round_detailed` for a ``dst`` the
        caller has already checked (shape ``(leaves,)``, values in
        [−1, leaves)): returns the survivor mask and the messages
        dropped per level (levels that dropped none are absent).

        Each message carries its LCA level (−1 once idle or dropped);
        at level d the messages above d rise, every level-d subtree
        with more of them than its capacity sends its rising row
        through the concentrator, and the row's losers drop to −1.
        """
        up = self._level_of[self._leaf_ids ^ dst]
        dropped: dict[int, int] = {}
        for d, cap, width in self._ascent:
            rising = (up > d).reshape(-1, width)
            counts = rising.sum(axis=1)
            if counts.max() <= cap:
                continue
            over = counts > cap
            rows = rising[over]
            routing = self._switch(width, cap).setup_batch(rows)
            lost = rows & (routing.input_to_output < 0)
            subtrees = up.reshape(-1, width)
            level = subtrees[over]
            level[lost] = -1
            subtrees[over] = level
            dropped[d] = int(np.count_nonzero(lost))
        return up >= 0, dropped


def universal_capacity(height: int, base: int = 2) -> Callable[[int], int]:
    """A capacity profile growing geometrically toward the root
    (area-universal-style): ``cap(d) = base^d / 2`` clamped to ≥ 1.
    Half-bisection: cheap, loses some worst-case permutations."""
    def cap(d: int) -> int:
        return max(1, (base**d) // 2)

    return cap


def full_bisection_capacity() -> Callable[[int], int]:
    """``cap(d) = 2^d``: every subtree can raise all its leaves'
    messages at once — permutation routing is lossless."""
    def cap(d: int) -> int:
        return 1 << d

    return cap


def constant_capacity(value: int) -> Callable[[int], int]:
    """A thin tree: the same up-link capacity at every level."""
    def cap(_d: int) -> int:
        return value

    return cap


def random_permutation_round(
    tree: FatTree, load: float, rng: np.random.Generator
) -> list[Routed | None]:
    """One round of permutation traffic: each leaf sends with
    probability ``load`` to a distinct random destination."""
    if not 0.0 <= load <= 1.0:
        raise ConfigurationError(f"load must be in [0, 1], got {load}")
    n = tree.leaves
    perm = rng.permutation(n)
    out: list[Routed | None] = [None] * n
    for src in range(n):
        if rng.random() < load and perm[src] != src:
            out[src] = Routed(
                message=Message.from_int(src % 256, 8), src=src, dst=int(perm[src])
            )
    return out
