"""Fault scenarios: declarative hardware-failure models for switches.

The paper's multichip designs trade one huge die for ``Θ(√n)`` or
``Θ(n^{1−β})`` smaller chips — and :mod:`repro.hardware.reliability`
prices exactly how much more often a many-chip system fails in the
field.  This module gives those failures a concrete, injectable form:

* :class:`StuckAtFault` — an *input pin* whose valid bit reads a
  constant 0 or 1 regardless of what the sender drives;
* :class:`SeveredWireFault` — an inter-chip wire cut at a stage
  boundary: whatever message sits on that flat position after the
  stage's chips concentrate never arrives downstream;
* :class:`DeadChipFault` — a whole hyperconcentrator chip dark: every
  one of its output wires behaves as severed;
* :class:`DeadOutputFault` — an output pad of the switch that can no
  longer be read (recoverable by remapping onto spare wires, see
  :class:`repro.faults.injector.FaultySwitch`);
* :class:`FlakyPinFault` — an intermittent input pin that flips its
  valid bit with per-round Bernoulli probability ``p`` (consumed by the
  traffic simulators through :func:`repro.faults.injector.apply_scenario`).

A :class:`FaultScenario` bundles faults; :func:`compile_scenario`
validates it against a concrete switch and lowers it to the mask form
the three execution paths share (input masks, per-chip-layer kill
masks, dead-output masks).  Interior faults (severed wires, dead
chips) are *kill-type* only: a mid-flight wire stuck high would
fabricate a phantom message with no input behind it, which no
input→output routing can represent, so stuck-at-1 is modelled at input
pins only (see ``docs/robustness.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.engine.plan import ChipLayer, StagePlan
from repro.errors import FaultInjectionError


@dataclass(frozen=True)
class StuckAtFault:
    """Input pin ``position`` reads a constant ``value`` (0 or 1)."""

    position: int
    value: int

    def describe(self) -> str:
        return f"stuck-at-{self.value} input pin {self.position}"


@dataclass(frozen=True)
class SeveredWireFault:
    """The wire leaving flat position ``position`` at the boundary
    after chip layer ``stage`` is cut: the signal downstream reads
    invalid."""

    stage: int
    position: int

    def describe(self) -> str:
        return f"severed wire at stage {self.stage} position {self.position}"


@dataclass(frozen=True)
class DeadChipFault:
    """Chip ``chip`` of chip layer ``stage`` is dark: all of its
    output wires behave as severed."""

    stage: int
    chip: int

    def describe(self) -> str:
        return f"dead chip {self.chip} in stage {self.stage}"


@dataclass(frozen=True)
class DeadOutputFault:
    """Output pad ``output`` (< m) can no longer be read."""

    output: int

    def describe(self) -> str:
        return f"dead output pad {self.output}"


@dataclass(frozen=True)
class FlakyPinFault:
    """Input pin ``position`` flips its valid bit with probability
    ``p`` each round (intermittent contact)."""

    position: int
    p: float

    def describe(self) -> str:
        return f"flaky input pin {self.position} (p={self.p:g})"


Fault = Union[
    StuckAtFault, SeveredWireFault, DeadChipFault, DeadOutputFault, FlakyPinFault
]

#: Interior faults need a compiled stage plan to locate their wires.
INTERIOR_KINDS = (SeveredWireFault, DeadChipFault)


@dataclass(frozen=True)
class FaultScenario:
    """A named, reproducible set of simultaneous hardware faults."""

    name: str
    faults: tuple = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    @property
    def fault_count(self) -> int:
        return len(self.faults)

    def describe(self) -> list[str]:
        return [f.describe() for f in self.faults]

    def with_fault(self, fault: Fault, name: str | None = None) -> "FaultScenario":
        """A new scenario extending this one (used to grow chains)."""
        return FaultScenario(
            name=name or f"{self.name}+1",
            faults=self.faults + (fault,),
            seed=self.seed,
        )

    def structural(self) -> "FaultScenario":
        """The scenario without its flaky pins (the per-round Bernoulli
        faults live in the simulator, not the routing paths)."""
        kept = tuple(f for f in self.faults if not isinstance(f, FlakyPinFault))
        return FaultScenario(name=self.name, faults=kept, seed=self.seed)

    def flaky_pins(self) -> list[tuple[int, float]]:
        return [
            (f.position, f.p) for f in self.faults if isinstance(f, FlakyPinFault)
        ]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "faults": [fault_to_dict(f) for f in self.faults],
        }


def fault_to_dict(fault: Fault) -> dict:
    kind = {
        StuckAtFault: "stuck_at",
        SeveredWireFault: "severed_wire",
        DeadChipFault: "dead_chip",
        DeadOutputFault: "dead_output",
        FlakyPinFault: "flaky_pin",
    }[type(fault)]
    out = {"kind": kind}
    out.update(vars(fault))
    return out


def plan_of(switch) -> StagePlan | None:
    """The switch's compiled stage plan, or None when the design has no
    plan (or an instance-level override made the shared plan stale,
    e.g. the fault-ablation subclasses in the validator test suite)."""
    if getattr(switch, "_rotate_perm_cache", None) is not None:
        return None
    plan = getattr(switch, "_plan", None)
    return plan if isinstance(plan, StagePlan) else None


def chip_layers(plan: StagePlan) -> list[ChipLayer]:
    """The plan's chip layers in op order (stage ordinal = list index,
    matching the netlist's ``s{stage}c{chip}yv{wire}`` naming)."""
    return [op for op in plan.ops if isinstance(op, ChipLayer)]


@dataclass(frozen=True)
class CompiledFaults:
    """A scenario lowered to the mask form all execution paths share.

    ``stage_kills[s]`` is None or an ``(n,)`` bool mask of flat
    positions forced invalid right after chip layer ``s`` concentrates
    (chip output pins, before the following wiring).  ``dead_outputs``
    is an ``(m,)`` mask over output pads.  ``stuck0``/``stuck1`` mask
    input pins; ``flaky`` lists per-round Bernoulli pins.
    """

    n: int
    m: int
    stuck0: np.ndarray
    stuck1: np.ndarray
    stage_kills: tuple
    dead_outputs: np.ndarray
    flaky: tuple

    @property
    def has_interior(self) -> bool:
        return any(k is not None for k in self.stage_kills)


def compile_scenario(scenario: FaultScenario, switch) -> CompiledFaults:
    """Validate ``scenario`` against ``switch`` and lower it to masks.

    Raises :class:`FaultInjectionError` when a fault names hardware the
    switch does not have — an out-of-range pin, a stage beyond the
    design's chip layers, or any interior fault on a switch without a
    compiled stage plan — or a flaky pin twice.
    """
    n, m = switch.n, switch.m
    plan = plan_of(switch)
    layers = chip_layers(plan) if plan is not None else []
    stuck0 = np.zeros(n, dtype=bool)
    stuck1 = np.zeros(n, dtype=bool)
    kills: list[np.ndarray | None] = [None] * len(layers)
    dead_outputs = np.zeros(m, dtype=bool)
    flaky: list[tuple[int, float]] = []

    def _kill(stage: int, positions, fault: Fault) -> None:
        if plan is None:
            raise FaultInjectionError(
                f"{fault.describe()}: {type(switch).__name__} has no "
                f"compiled stage plan, so interior faults cannot be placed"
            )
        if not 0 <= stage < len(layers):
            raise FaultInjectionError(
                f"{fault.describe()}: switch has chip layers 0..{len(layers) - 1}"
            )
        if kills[stage] is None:
            kills[stage] = np.zeros(n, dtype=bool)
        kills[stage][positions] = True

    for fault in scenario.faults:
        if isinstance(fault, StuckAtFault):
            if not 0 <= fault.position < n:
                raise FaultInjectionError(
                    f"{fault.describe()}: switch has input pins 0..{n - 1}"
                )
            if fault.value not in (0, 1):
                raise FaultInjectionError(
                    f"stuck-at value must be 0 or 1, got {fault.value!r}"
                )
            (stuck1 if fault.value else stuck0)[fault.position] = True
        elif isinstance(fault, SeveredWireFault):
            if not 0 <= fault.position < n:
                raise FaultInjectionError(
                    f"{fault.describe()}: switch has wire positions 0..{n - 1}"
                )
            _kill(fault.stage, [fault.position], fault)
        elif isinstance(fault, DeadChipFault):
            if plan is not None and 0 <= fault.stage < len(layers):
                layer = layers[fault.stage]
                if not 0 <= fault.chip < layer.n_chips:
                    raise FaultInjectionError(
                        f"{fault.describe()}: stage {fault.stage} has chips "
                        f"0..{layer.n_chips - 1}"
                    )
                _kill(fault.stage, layer.groups[fault.chip], fault)
            else:
                _kill(fault.stage, [], fault)  # raises with the right message
        elif isinstance(fault, DeadOutputFault):
            if not 0 <= fault.output < m:
                raise FaultInjectionError(
                    f"{fault.describe()}: switch has output pads 0..{m - 1}"
                )
            dead_outputs[fault.output] = True
        elif isinstance(fault, FlakyPinFault):
            if not 0 <= fault.position < n:
                raise FaultInjectionError(
                    f"{fault.describe()}: switch has input pins 0..{n - 1}"
                )
            if not 0.0 <= fault.p <= 1.0:
                raise FaultInjectionError(
                    f"flaky pin probability must be in [0, 1], got {fault.p!r}"
                )
            if any(pin == fault.position for pin, _ in flaky):
                raise FaultInjectionError(
                    f"{fault.describe()}: pin {fault.position} is already flaky "
                    f"in scenario {scenario.name!r}"
                )
            flaky.append((fault.position, float(fault.p)))
        else:
            raise FaultInjectionError(f"unknown fault type {type(fault).__name__}")

    if (stuck0 & stuck1).any():
        bad = int(np.flatnonzero(stuck0 & stuck1)[0])
        raise FaultInjectionError(
            f"input pin {bad} is stuck at both 0 and 1 in scenario "
            f"{scenario.name!r}"
        )
    return CompiledFaults(
        n=n,
        m=m,
        stuck0=stuck0,
        stuck1=stuck1,
        stage_kills=tuple(kills),
        dead_outputs=dead_outputs,
        flaky=tuple(flaky),
    )
