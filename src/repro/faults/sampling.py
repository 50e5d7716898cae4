"""Reliability-driven fault sampling: MTBF numbers → concrete faults.

:mod:`repro.hardware.reliability` prices each part's field failure
rate — chips by ``chip_base · area^area_exponent`` and every bonded
pin/wire joint at ``pin_rate``.  This module turns those rates into a
weighted site table over a concrete switch and samples
:class:`~repro.faults.scenario.FaultScenario` objects from it, so a
fault campaign visits hardware in proportion to how often it actually
breaks.

Class presets
-------------
``"boundary"``
    Faults *after* all routing decisions: dead output pads, dead
    last-stage chips, severed wires at the last stage boundary.
    Killing at the boundary never re-ranks surviving messages, so the
    per-trial routed count is provably non-increasing as a boundary
    chain grows — these are the chains the degradation sweeps certify
    as monotone.
``"structural"``
    All kill-type faults anywhere: dead chips and severed wires at any
    stage, plus dead outputs.  An interior kill shifts the chip-local
    ranks of the messages behind it, and the following fixed wiring
    scatters that shift across different downstream chips — so
    monotone α is *not* guaranteed (only the parity of the three
    execution paths is), see ``docs/robustness.md``.
``"all"``
    Structural plus stuck-at-0/1 input pins.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.errors import FaultInjectionError
from repro.hardware.chip import HyperconcentratorChip
from repro.hardware.reliability import ReliabilityModel

from repro.faults.scenario import (
    DeadChipFault,
    DeadOutputFault,
    FaultScenario,
    FlakyPinFault,
    SeveredWireFault,
    StuckAtFault,
    chip_layers,
    plan_of,
)

CLASS_PRESETS = {
    "boundary": (frozenset({"dead_chip", "severed_wire", "dead_output"}), True),
    "structural": (
        frozenset({"dead_chip", "severed_wire", "dead_output"}),
        False,
    ),
    "all": (
        frozenset(
            {"dead_chip", "severed_wire", "dead_output", "stuck0", "stuck1"}
        ),
        False,
    ),
}


def _resolve_classes(classes) -> tuple[frozenset, bool]:
    """(fault kinds, boundary_only) from a preset name or an iterable
    of kind names."""
    if isinstance(classes, str):
        try:
            return CLASS_PRESETS[classes]
        except KeyError:
            raise FaultInjectionError(
                f"unknown fault class preset {classes!r}; "
                f"choose from {sorted(CLASS_PRESETS)}"
            ) from None
    return frozenset(classes), False


class SiteTable:
    """Every injectable fault site of one switch, without building a
    fault per site: ``weights[i]`` is site ``i``'s failure rate and
    :meth:`fault` decodes an index into its fault.  The sites come in
    ``(weight, size, fault)`` blocks of one kind each, ``fault(k)``
    building the block's ``k``-th fault."""

    def __init__(self, blocks: list[tuple[float, int, Callable[[int], object]]]):
        self._blocks = blocks
        self._starts = np.cumsum([0] + [size for _, size, _ in blocks])
        self.weights = np.concatenate(
            [np.full(size, weight, dtype=float) for weight, size, _ in blocks]
        )

    def fault(self, index: int) -> object:
        block = int(np.searchsorted(self._starts, index, side="right")) - 1
        return self._blocks[block][2](index - int(self._starts[block]))


def site_table(
    switch, model: ReliabilityModel | None = None, *, classes="structural"
) -> SiteTable:
    """Every injectable fault site of ``switch`` with its failure rate,
    as a :class:`SiteTable`; weights follow the reliability model (chip
    sites by :meth:`ReliabilityModel.chip_rate`, wire/pad sites by
    ``pin_rate``)."""
    model = model if model is not None else ReliabilityModel()
    kinds, boundary_only = _resolve_classes(classes)
    plan = plan_of(switch)
    layers = chip_layers(plan) if plan is not None else []
    last = len(layers) - 1
    blocks: list[tuple[float, int, Callable[[int], object]]] = []
    for stage, op in enumerate(layers):
        if boundary_only and stage != last:
            continue
        chip = HyperconcentratorChip(op.chip_width)
        if "dead_chip" in kinds:
            chip_w = model.chip_rate(chip.area, chip.pins)
            blocks.append((chip_w, op.n_chips, partial(DeadChipFault, stage)))
        if "severed_wire" in kinds:
            blocks.append((
                model.pin_rate,
                len(op.flat32),
                lambda k, s=stage, flat=op.flat32: SeveredWireFault(s, int(flat[k])),
            ))
    if "dead_output" in kinds:
        blocks.append((model.pin_rate, switch.m, DeadOutputFault))
    for value in (0, 1):
        if f"stuck{value}" in kinds:
            blocks.append((
                model.pin_rate, switch.n, lambda k, v=value: StuckAtFault(k, v)
            ))
    if not any(size for _, size, _ in blocks):
        raise FaultInjectionError(
            f"no fault sites on {type(switch).__name__} for classes {classes!r}"
        )
    return SiteTable(blocks)


def fault_sites(
    switch, model: ReliabilityModel | None = None, *, classes="structural"
) -> list[tuple[float, object]]:
    """Every injectable fault site of ``switch`` as ``(weight, fault)``
    pairs: :func:`site_table` materialised in full."""
    table = site_table(switch, model, classes=classes)
    return [
        (weight, table.fault(index))
        for index, weight in enumerate(table.weights.tolist())
    ]


def _weighted_draws(
    table: SiteTable, count: int, rng: np.random.Generator
) -> list[object]:
    """``count`` distinct sites, each drawn with probability proportional
    to its failure rate (without replacement).  Only the drawn faults
    are built."""
    weights = table.weights
    index = np.arange(len(weights))
    picked: list[object] = []
    for _ in range(min(count, len(index))):
        pick = int(rng.choice(len(weights), p=weights / weights.sum()))
        picked.append(table.fault(int(index[pick])))
        weights = np.delete(weights, pick)
        index = np.delete(index, pick)
    return picked


def sample_scenario(
    switch,
    model: ReliabilityModel | None = None,
    *,
    faults: int,
    rng: np.random.Generator,
    classes="structural",
    name: str = "sampled",
    seed: int = 0,
) -> FaultScenario:
    """One scenario of ``faults`` distinct reliability-weighted faults."""
    table = site_table(switch, model, classes=classes)
    return FaultScenario(
        name=name, faults=tuple(_weighted_draws(table, faults, rng)), seed=seed
    )


def sample_chain(
    switch,
    model: ReliabilityModel | None = None,
    *,
    length: int,
    rng: np.random.Generator,
    classes="boundary",
    name: str = "chain",
    seed: int = 0,
) -> list[FaultScenario]:
    """A nested scenario chain: ``length`` scenarios where scenario
    ``i`` holds the first ``i+1`` of one draw of distinct faults — the
    shape the degradation sweeps measure α against fault count on."""
    table = site_table(switch, model, classes=classes)
    draws = _weighted_draws(table, length, rng)
    return [
        FaultScenario(
            name=f"{name}-f{i + 1}", faults=tuple(draws[: i + 1]), seed=seed
        )
        for i in range(len(draws))
    ]


def sample_flaky_scenario(
    switch,
    *,
    pins: int,
    rng: np.random.Generator,
    p_range: tuple[float, float] = (0.05, 0.3),
    name: str = "flaky",
    seed: int = 0,
) -> FaultScenario:
    """``pins`` distinct flaky input pins with flip probabilities drawn
    uniformly from ``p_range`` (the resilient-routing test scenarios)."""
    count = min(pins, switch.n)
    positions = rng.choice(switch.n, size=count, replace=False)
    lo, hi = p_range
    faults = tuple(
        FlakyPinFault(int(pos), float(lo + (hi - lo) * rng.random()))
        for pos in positions
    )
    return FaultScenario(name=name, faults=faults, seed=seed)
