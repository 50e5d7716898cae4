"""Combinational netlist representation.

A :class:`Circuit` is a DAG of single-output gates over boolean wires.
Wires are integer ids; names are optional labels used by the switch
builders to find crosspoint controls and I/O ports.  The representation
is deliberately simple — append-only, topologically ordered by
construction — because every builder in this package creates gates in
dependency order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import CircuitError


class Op(Enum):
    """Gate operations.  INPUT wires are driven externally; CONST0 and
    CONST1 are tied low/high (delay 0, like hardwired pins)."""

    INPUT = "input"
    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NAND = "nand"
    NOR = "nor"

    @property
    def delay(self) -> int:
        """Gate delays contributed by this element (inputs/constants
        and buffers are free; every logic gate costs one)."""
        return 0 if self in (Op.INPUT, Op.CONST0, Op.CONST1, Op.BUF) else 1


@dataclass(frozen=True)
class Gate:
    """One gate: ``op`` applied to ``inputs`` drives wire ``output``."""

    op: Op
    inputs: tuple[int, ...]
    output: int


_ARITY = {
    Op.INPUT: 0,
    Op.CONST0: 0,
    Op.CONST1: 0,
    Op.BUF: 1,
    Op.NOT: 1,
}


@dataclass
class Circuit:
    """An append-only combinational netlist.

    Gates must be added in topological order (inputs before use), which
    all builders here do naturally; :meth:`add_gate` enforces it.
    """

    gates: list[Gate] = field(default_factory=list)
    names: dict[str, int] = field(default_factory=dict)
    # Level table compiled by repro.gates.evaluate on first use.
    _levels: object = field(default=None, repr=False, compare=False)

    @property
    def n_wires(self) -> int:
        return len(self.gates)

    @property
    def n_logic_gates(self) -> int:
        """Component count: gates with nonzero delay."""
        return sum(1 for g in self.gates if g.op.delay > 0)

    def add_gate(self, op: Op, *inputs: int, name: str | None = None) -> int:
        """Append a gate; returns the id of its output wire."""
        if op in _ARITY and len(inputs) != _ARITY[op]:
            raise CircuitError(f"{op.value} expects {_ARITY[op]} inputs, got {len(inputs)}")
        if op not in _ARITY and len(inputs) < 2:
            raise CircuitError(f"{op.value} expects at least 2 inputs, got {len(inputs)}")
        wire = len(self.gates)
        for src in inputs:
            if not 0 <= src < wire:
                raise CircuitError(
                    f"gate on wire {wire} references undriven wire {src} "
                    "(gates must be appended in topological order)"
                )
        self.gates.append(Gate(op=op, inputs=tuple(inputs), output=wire))
        if name is not None:
            self.set_name(name, wire)
        return wire

    def input(self, name: str | None = None) -> int:
        return self.add_gate(Op.INPUT, name=name)

    def const(self, value: bool, name: str | None = None) -> int:
        return self.add_gate(Op.CONST1 if value else Op.CONST0, name=name)

    def set_name(self, name: str, wire: int) -> None:
        if name in self.names:
            raise CircuitError(f"duplicate wire name {name!r}")
        self.names[name] = wire

    def wire(self, name: str) -> int:
        try:
            return self.names[name]
        except KeyError:
            raise CircuitError(f"no wire named {name!r}") from None

    def input_wires(self) -> list[int]:
        return [g.output for g in self.gates if g.op is Op.INPUT]

    def __len__(self) -> int:  # pragma: no cover - trivial
        return len(self.gates)
