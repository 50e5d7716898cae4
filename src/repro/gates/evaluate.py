"""Levelized, bit-parallel evaluation of combinational netlists.

:func:`evaluate` packs the trial batch 64 trials per ``uint64`` lane
(trial ``b`` lives in bit ``b mod 64`` of word ``b // 64``), so one
bitwise machine op advances 64 trials at once — the classical 0/1-input
trick from the sorting-network literature.

The circuit is levelized once (cached on the circuit): every logic gate
gets the unit-weighted topological level ``1 + max(level of inputs)``
(not the :mod:`repro.gates.depth` delay, where a BUF costs 0 and would
share a level with its source), and the gates of one level are grouped
by op and fan-in.  One group is
one step: a gather of its input words, a bitwise reduce over the fan-in
axis, an optional complement, and a scatter.  An evaluation therefore
costs about depth × op-kinds numpy calls, not one call per gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CircuitError
from repro.gates.netlist import Circuit, Op

#: Trials per packed lane.
WORD_BITS = 64

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

# op -> (bitwise reduction over the fan-in axis, complement afterwards).
# The complements flip the padding bits of the last word too, which is
# harmless: unpacking discards them.
_RULES = {
    Op.BUF: (np.bitwise_or, False),
    Op.NOT: (np.bitwise_or, True),
    Op.AND: (np.bitwise_and, False),
    Op.NAND: (np.bitwise_and, True),
    Op.OR: (np.bitwise_or, False),
    Op.NOR: (np.bitwise_or, True),
    Op.XOR: (np.bitwise_xor, False),
}


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(B, w)`` bool array into ``(⌈B/64⌉, w)`` uint64 words.

    Trial ``b`` occupies bit ``b mod 64`` of word row ``b // 64``;
    padding bits in the last row are zero.
    """
    arr = np.asarray(bits, dtype=bool)
    if arr.ndim != 2:
        raise CircuitError(f"pack_bits expects a (B, w) array, got shape {arr.shape}")
    batch, width = arr.shape
    words = -(-batch // WORD_BITS)
    padded = np.zeros((words * WORD_BITS, width), dtype=bool)
    padded[:batch] = arr
    # Byte j of word r holds trials 64r + 8j .. 64r + 8j + 7, one per bit.
    octets = np.packbits(padded.reshape(words, 8, 8, width), axis=2, bitorder="little")
    octets = np.ascontiguousarray(octets.reshape(words, 8, width).transpose(0, 2, 1))
    return octets.view("<u8").reshape(words, width).astype(np.uint64, copy=False)


def unpack_bits(words: np.ndarray, batch: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: the first ``batch`` trials as a
    ``(batch, w)`` bool array."""
    arr = np.asarray(words, dtype=np.uint64)
    if arr.ndim != 2:
        raise CircuitError(f"unpack_bits expects a (W, w) array, got shape {arr.shape}")
    n_words, width = arr.shape
    if batch > n_words * WORD_BITS:
        raise CircuitError(f"batch {batch} exceeds packed capacity {n_words * WORD_BITS}")
    octets = np.ascontiguousarray(arr, dtype="<u8").view(np.uint8)
    octets = np.ascontiguousarray(octets.reshape(n_words, width, 8).transpose(0, 2, 1))
    bits = np.unpackbits(octets, axis=1, bitorder="little")
    return bits.reshape(n_words * WORD_BITS, width)[:batch].view(bool)


@dataclass(frozen=True)
class _Levels:
    """A circuit compiled for :func:`evaluate`.

    ``inputs`` are the INPUT wires in creation order and ``ones`` the
    CONST1 wires (CONST0 wires stay zero).  ``steps`` holds one
    ``(reduce, complement, outs, ins)`` group per (level, op, fan-in),
    in level order: ``outs`` has shape ``(k,)`` and ``ins`` shape
    ``(k, fan_in)``.
    """

    n_wires: int
    inputs: np.ndarray
    ones: np.ndarray
    steps: tuple[tuple[np.ufunc, bool, np.ndarray, np.ndarray], ...]


def _levelize(circuit: Circuit) -> _Levels:
    """The compiled level table of ``circuit``, built on first use.

    The table is cached on the circuit keyed on ``n_wires``: circuits
    are append-only, so a gate added after an evaluation triggers a
    rebuild instead of serving a stale table.
    """
    cached = circuit._levels
    if cached is not None and cached.n_wires == circuit.n_wires:
        return cached
    level = [0] * circuit.n_wires
    inputs: list[int] = []
    ones: list[int] = []
    groups: dict[tuple[int, Op, int], list] = {}
    for gate in circuit.gates:
        op = gate.op
        if op is Op.INPUT:
            inputs.append(gate.output)
        elif op is Op.CONST1:
            ones.append(gate.output)
        elif op is not Op.CONST0:
            lvl = level[gate.output] = 1 + max(level[src] for src in gate.inputs)
            groups.setdefault((lvl, op, len(gate.inputs)), []).append(gate)
    steps = tuple(
        (
            *_RULES[op],
            np.array([g.output for g in gates], dtype=np.intp),
            np.array([g.inputs for g in gates], dtype=np.intp),
        )
        for (_, op, _), gates in sorted(groups.items(), key=lambda kv: kv[0][0])
    )
    table = _Levels(
        n_wires=circuit.n_wires,
        inputs=np.array(inputs, dtype=np.intp),
        ones=np.array(ones, dtype=np.intp),
        steps=steps,
    )
    circuit._levels = table
    return table


def _force_words(circuit: Circuit, forces) -> tuple[np.ndarray, np.ndarray]:
    """Validate a wire→bool force map into (wires, packed words), both
    empty when nothing is forced.

    A *forced* wire models a stuck-at fault: whatever its driving gate
    computes, the wire presents the forced constant to every reader.
    """
    forces = forces or {}
    wires = np.array([int(w) for w in forces], dtype=np.intp)
    bad = wires[(wires < 0) | (wires >= circuit.n_wires)]
    if bad.size:
        raise CircuitError(f"forced wire {bad[0]} is not in the circuit")
    words = np.where([bool(v) for v in forces.values()], _ONES, np.uint64(0))
    return wires, words[:, None]


def evaluate(
    circuit: Circuit, inputs: np.ndarray, *, forces=None
) -> np.ndarray:
    """Evaluate every wire of ``circuit``.

    ``inputs`` is a bool array of shape ``(n_inputs,)`` or
    ``(batch, n_inputs)`` giving values for the INPUT wires in creation
    order.  Returns a bool array of shape ``(n_wires,)`` or
    ``(batch, n_wires)`` with the value of every wire.

    ``forces`` optionally maps wire ids to stuck-at values: each listed
    wire presents its forced constant to every downstream gate no
    matter what its driver computes (fault injection, see
    :mod:`repro.faults`).  A forced INPUT wire still consumes its input
    column.
    """
    arr = np.asarray(inputs, dtype=bool)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[None, :]
    table = _levelize(circuit)
    if arr.shape[1] != len(table.inputs):
        raise CircuitError(
            f"circuit has {len(table.inputs)} inputs, got {arr.shape[1]} values"
        )
    forced, forced_words = _force_words(circuit, forces)
    packed = pack_bits(arr)
    # Wire-major: each gather below pulls whole rows of words.
    values = np.zeros((circuit.n_wires, packed.shape[0]), dtype=np.uint64)
    values[table.inputs] = packed.T
    values[table.ones] = _ONES
    values[forced] = forced_words
    for reduce, complement, outs, ins in table.steps:
        acc = reduce.reduce(values[ins], axis=1)
        values[outs] = ~acc if complement else acc
        values[forced] = forced_words
    result = unpack_bits(values.T, arr.shape[0])
    return result[0] if squeeze else result
