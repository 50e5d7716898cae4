"""Arbitrary-depth concentration funnels.

Any number of levels: level l consists of switches whose outputs are
concatenated into level l+1's inputs.  Models the fan-in side of a
large routing network (e.g. many boards feeding a cabinet feeding a
spine link), with per-level loss and latency accounting.  The two-level
concentration tree — a bank of leaf switches feeding one root — is
``FunnelNetwork([leaves, [root]])``; the messages it loses are the sum
of the per-level ``lost`` counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.messages.message import Message
from repro.switches.base import ConcentratorSwitch


@dataclass(frozen=True)
class LevelStats:
    """Per-level accounting for one routed batch."""

    level: int
    switches: int
    offered: int
    delivered: int

    @property
    def lost(self) -> int:
        return self.offered - self.delivered


class FunnelNetwork:
    """A multi-level funnel of concentrator switches.

    ``levels[l]`` is the list of switches at level l; the concatenated
    outputs of level l must equal the concatenated inputs of level
    l+1.  All messages enter at level 0 and exit at the last level's
    outputs.
    """

    def __init__(self, levels: list[list[ConcentratorSwitch]]):
        if not levels or any(not level for level in levels):
            raise ConfigurationError("funnel needs at least one non-empty level")
        for upper, lower in zip(levels, levels[1:]):
            out_width = sum(sw.m for sw in upper)
            in_width = sum(sw.n for sw in lower)
            if out_width != in_width:
                raise ConfigurationError(
                    f"level width mismatch: {out_width} outputs feed "
                    f"{in_width} inputs"
                )
        self.levels = levels

    @classmethod
    def regular(
        cls,
        leaf_factory,
        merge_factory,
        leaf_count: int,
        fan_in: int,
        depth: int,
    ) -> "FunnelNetwork":
        """Build a regular funnel.

        Level 0 holds ``leaf_count`` switches from ``leaf_factory()``;
        each deeper level has ``fan_in``× fewer switches, each built by
        ``merge_factory(n)`` where ``n`` is ``fan_in`` × the previous
        level's per-switch output width.
        """
        if depth < 1 or fan_in < 1 or leaf_count < 1:
            raise ConfigurationError("depth, fan_in, leaf_count must be positive")
        if leaf_count % (fan_in ** (depth - 1)) != 0:
            raise ConfigurationError(
                f"leaf_count {leaf_count} not divisible by fan_in^{depth - 1}"
            )
        levels: list[list[ConcentratorSwitch]] = [
            [leaf_factory() for _ in range(leaf_count)]
        ]
        count = leaf_count
        for _ in range(1, depth):
            count //= fan_in
            width = levels[-1][0].m * fan_in
            levels.append([merge_factory(width) for _ in range(count)])
        return cls(levels)

    @property
    def n(self) -> int:
        return sum(sw.n for sw in self.levels[0])

    @property
    def m(self) -> int:
        return sum(sw.m for sw in self.levels[-1])

    @property
    def gate_delays(self) -> int:
        """End-to-end combinational delay: the sum over levels of the
        (uniform) per-switch delay."""
        total = 0
        for level in self.levels:
            delays = getattr(level[0], "gate_delays", None)
            if delays is None:
                raise ConfigurationError(
                    f"{type(level[0]).__name__} exposes no gate-delay model"
                )
            total += delays
        return total

    def route(
        self, messages: list[Message | None]
    ) -> tuple[list[Message | None], list[LevelStats]]:
        """Route one batch through every level; returns the final
        outputs and per-level statistics."""
        if len(messages) != self.n:
            raise ConfigurationError(
                f"expected {self.n} messages, got {len(messages)}"
            )
        stats: list[LevelStats] = []
        current = messages
        for index, level in enumerate(self.levels):
            offered = sum(1 for msg in current if msg is not None)
            nxt: list[Message | None] = []
            offset = 0
            for sw in level:
                chunk = current[offset : offset + sw.n]
                offset += sw.n
                nxt.extend(sw.route(chunk))
            delivered = sum(1 for msg in nxt if msg is not None)
            stats.append(
                LevelStats(
                    level=index,
                    switches=len(level),
                    offered=offered,
                    delivered=delivered,
                )
            )
            current = nxt
        return current, stats

    def capacity(self) -> int:
        """The load the funnel guarantees end to end: the minimum over
        levels of the per-level guaranteed capacities (messages spread
        worst-case still route when the total stays below every
        switch's αm along one path — conservative aggregate: sum of
        switch capacities at the tightest level)."""
        totals = []
        for level in self.levels:
            totals.append(sum(sw.spec.guaranteed_capacity for sw in level))
        return min(totals)
