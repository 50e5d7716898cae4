"""Differential oracles: three independent executions of one setup.

PR 2 left the library with three ways to route the same valid-bit
pattern — the scalar ``setup`` path, the vectorized ``setup_batch``
engine, and (for the switches with an elaborated netlist) the
gate-level simulation.  They were built independently from the paper's
text, so agreement between them is strong evidence of correctness and
any divergence is a bug by definition.  This module runs a ``(B, n)``
pattern batch through every available path and reports divergences.

The netlists are resolved by :func:`netlist_for` — deliberately via
``isinstance``, so a subclass that *mutates* routing behaviour is still
compared against the honest silicon of its base design and the mutation
is caught (see ``tests/test_verify_certify.py``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.gates.evaluate import evaluate
from repro.gates.netlist import Circuit

#: Largest n for which the gate-level oracle is elaborated (the flat
#: netlist grows like the chip crossbars, so this stays small).
MAX_GATE_N = 16

# (kind, shape) -> (Circuit, out_wires); netlists depend only on the
# design shape, never on per-setup state, so process-wide reuse is safe.
_NETLIST_CACHE: dict[tuple, tuple[Circuit, list[int]]] = {}


def netlist_for(switch) -> tuple[Circuit, list[int]] | None:
    """The gate-level netlist of ``switch``'s design, if one exists.

    Returns ``(circuit, out_wires)`` where ``out_wires[p]`` carries the
    final valid bit of flat position ``p``, or None for designs without
    an elaborated netlist (or above :data:`MAX_GATE_N`).
    """
    from repro.gates.hyperconc_gates import build_hyperconcentrator
    from repro.gates.multichip_gates import (
        build_columnsort_switch_gates,
        build_revsort_switch_gates,
    )
    from repro.switches.columnsort_switch import ColumnsortSwitch
    from repro.switches.hyperconcentrator import Hyperconcentrator
    from repro.switches.revsort_switch import RevsortSwitch

    if switch.n > MAX_GATE_N:
        return None
    key: tuple | None = None
    if isinstance(switch, RevsortSwitch):
        key = ("revsort", switch.n)
        build = lambda: build_revsort_switch_gates(switch.n)  # noqa: E731
    elif isinstance(switch, ColumnsortSwitch):
        key = ("columnsort", switch.r, switch.s)
        build = lambda: build_columnsort_switch_gates(switch.r, switch.s)  # noqa: E731
    elif isinstance(switch, Hyperconcentrator):
        key = ("hyper", switch.n)

        def build() -> tuple[Circuit, list[int]]:
            circuit = build_hyperconcentrator(switch.n, with_datapath=False)
            return circuit, [circuit.wire(f"yv{j}") for j in range(switch.n)]

    if key is None:
        return None
    cached = _NETLIST_CACHE.get(key)
    if cached is None:
        cached = _NETLIST_CACHE[key] = build()
    return cached


def output_occupancy(switch, batch) -> np.ndarray | None:
    """Final-position occupancy bits of a routed ``batch``, shape
    ``(B, n)``.

    ``out[b, p]`` is True iff some valid input of trial ``b`` ends on
    flat position ``p`` — the quantity both the ε measurements and the
    gate-level setup plane observe.  Reads the
    :attr:`~repro.engine.batch.BatchRouting.occupancy` of the walk that
    routed ``batch`` when it has one; otherwise re-derives the final
    positions from the switch's batched ``final_positions_batch``, or
    from the scalar ``final_positions`` row by row.  For full-width
    switches without position tracking (hyperconcentrators: every valid
    input is routed), the routing itself serves; otherwise returns None.
    """
    if batch.occupancy is not None:
        return batch.occupancy
    valid = batch.valid
    batched = getattr(switch, "final_positions_batch", None)
    if batched is not None:
        pos = np.asarray(batched(valid))
    elif hasattr(switch, "final_positions"):
        if valid.shape[0]:
            pos = np.stack([switch.final_positions(row) for row in valid])
        else:
            pos = np.empty(valid.shape, dtype=np.int64)
    elif switch.m == switch.n:
        pos = batch.input_to_output
        out = np.zeros(valid.shape, dtype=bool)
        rows, cols = np.nonzero(valid & (pos >= 0))
        out[rows, pos[rows, cols]] = True
        return out
    else:
        return None
    out = np.zeros(valid.shape, dtype=bool)
    rows, cols = np.nonzero(valid)
    out[rows, pos[rows, cols]] = True
    return out


def scalar_parity_failures(
    switch, valid: np.ndarray, batch_routing: np.ndarray, indices
) -> list[tuple[int, str]]:
    """Rows of ``valid`` (restricted to ``indices``) where the scalar
    ``setup`` oracle disagrees with the batched routing, or raises.

    The oracle runs once over all picked rows, through
    :meth:`~repro.switches.base.ConcentratorSwitch.scalar_routing`, whose
    row ``i`` is ``setup(valid[i]).input_to_output``.  The oracle rows
    are not wrapped in :class:`~repro.switches.base.Routing`; each is
    compared entry by entry with the batch routing, whose paths the
    contract check has already validated.  When the oracle raises, the
    rows are rerun one at a time, so every raising row is named and the
    others are still compared."""
    indices = np.asarray(indices, dtype=np.intp)
    got = np.asarray(batch_routing)[indices]
    try:
        expected = switch.scalar_routing(valid[indices])
    except ReproError:
        pass
    else:
        return _divergences(expected, got, indices)
    failures: list[tuple[int, str]] = []
    for row, index in enumerate(indices.tolist()):
        try:
            expected = switch.scalar_routing(valid[index : index + 1])
        except ReproError as exc:
            failures.append((index, f"scalar setup raised {exc!r}"))
        else:
            failures += _divergences(expected, got[row : row + 1], indices[row : row + 1])
    return failures


def _divergences(
    expected: np.ndarray, got: np.ndarray, indices: np.ndarray
) -> list[tuple[int, str]]:
    failures: list[tuple[int, str]] = []
    for row in np.flatnonzero((expected != got).any(axis=1)):
        bad = np.flatnonzero(expected[row] != got[row])
        failures.append(
            (
                int(indices[row]),
                f"setup_batch diverges from setup at inputs {bad.tolist()}"
                f" (scalar {expected[row, bad].tolist()},"
                f" batch {got[row, bad].tolist()})",
            )
        )
    return failures


def gate_parity_failures(
    circuit: Circuit,
    out_wires: list[int],
    valid: np.ndarray,
    expected_occupancy: np.ndarray,
) -> list[tuple[int, str]]:
    """Trials where the bit-parallel netlist simulation disagrees with
    the functional occupancy bits."""
    values = evaluate(circuit, np.asarray(valid, dtype=bool))
    gate_bits = values[:, out_wires]
    mismatch = gate_bits != expected_occupancy
    failures: list[tuple[int, str]] = []
    for i in np.flatnonzero(mismatch.any(axis=1)):
        bad = np.flatnonzero(mismatch[i])
        failures.append(
            (
                int(i),
                f"gate netlist diverges at positions {bad.tolist()}"
                f" (gates {gate_bits[i, bad].astype(int).tolist()},"
                f" functional {expected_occupancy[i, bad].astype(int).tolist()})",
            )
        )
    return failures


def differential_check(
    switch,
    valid: np.ndarray,
    *,
    scalar_rows: int = 64,
    use_gates: bool = True,
) -> list[str]:
    """Run one pattern batch through every available execution path and
    return human-readable divergence messages (empty = all paths agree).

    Standalone entry point for downstream users; the certifier performs
    the same comparisons incrementally with violation bookkeeping.
    """
    from repro.verify.patterns import pattern_hex

    valid2d = np.asarray(valid, dtype=bool)
    if valid2d.ndim == 1:
        valid2d = valid2d[None, :]
    messages: list[str] = []
    batch = switch.setup_batch(valid2d)
    stride = max(1, valid2d.shape[0] // max(1, scalar_rows))
    indices = range(0, valid2d.shape[0], stride)
    for row, msg in scalar_parity_failures(
        switch, valid2d, batch.input_to_output, indices
    ):
        messages.append(f"trial {row} [{pattern_hex(valid2d[row])}]: {msg}")
    if use_gates:
        netlist = netlist_for(switch)
        occupancy = output_occupancy(switch, batch)
        if netlist is not None and occupancy is not None:
            for row, msg in gate_parity_failures(*netlist, valid2d, occupancy):
                messages.append(f"trial {row} [{pattern_hex(valid2d[row])}]: {msg}")
    return messages
