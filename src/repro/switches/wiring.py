"""Stage machinery for multichip switches.

A multichip switch is a pipeline alternating two kinds of layers:

* **chip layers** — a bank of hyperconcentrator chips, each sorting the
  valid bits of one *group* of wire positions (a matrix row or column);
* **wiring layers** — fixed pin-to-pin permutations between stages
  (transpose, ``rev(i)`` rotation, ``RM⁻¹∘CM`` reshuffle).

Both are represented uniformly as permutations of the flat wire-position
space, so the whole switch composes into a single permutation per setup
(plus the fixed output restriction).  This module builds the group
index sets and applies the chip-layer concentration.

:func:`apply_chip_layer`, :func:`permute_bits` and :func:`compose` take
one setup as an ``(n,)`` array or ``B`` independent setups as a
``(B, n)`` array; a fixed wiring stays ``(n,)`` and broadcasts over the
rows.  The row axis only stacks setups: every row runs the same
algorithm as a 1-D call and equals it.  This is the scalar oracle the
certifier checks the plan walker against, so it shares no code with
:mod:`repro.engine.batch`.
"""

from __future__ import annotations

import numpy as np

from repro.engine.plan import OVERLAP_MESSAGE, ChipLayer, chip_layer
from repro.errors import ConfigurationError
from repro.switches.hyperconcentrator import concentrate_permutation


def column_groups(rows: int, cols: int, *, reverse_odd: bool = False) -> list[np.ndarray]:
    """Wire-position groups for a chip layer that sorts each *column*
    of an ``rows × cols`` matrix: group ``j`` lists flat positions
    ``cols·i + j`` for ``i = 0..rows−1`` (chip wire 0 = top of column).
    """
    _check_shape(rows, cols)
    groups = [np.arange(rows, dtype=np.int64) * cols + j for j in range(cols)]
    if reverse_odd:
        groups = [g[::-1] if j % 2 else g for j, g in enumerate(groups)]
    return groups


def row_groups(rows: int, cols: int, *, reverse_odd: bool = False) -> list[np.ndarray]:
    """Groups for a chip layer that sorts each *row*: group ``i`` lists
    flat positions ``cols·i + j`` for ``j = 0..cols−1`` (chip wire 0 =
    left end of the row).

    ``reverse_odd=True`` yields the snake orientation used by the
    Shearsort stacks of Section 6: odd rows are wired to their chips in
    reversed order, so the chip's leading outputs land at the row's
    *right* end.
    """
    _check_shape(rows, cols)
    groups = [np.arange(cols, dtype=np.int64) + cols * i for i in range(rows)]
    if reverse_odd:
        groups = [g[::-1] if i % 2 else g for i, g in enumerate(groups)]
    return groups


def apply_chip_layer(
    valid_by_pos: np.ndarray, layer: ChipLayer | list[np.ndarray]
) -> np.ndarray:
    """One bank of hyperconcentrator chips as a position permutation.

    ``valid_by_pos[..., p]`` is the valid bit currently on wire position
    ``p``, for one setup ``(n,)`` or a ``(B, n)`` batch.  Each group is
    fed to one chip; the chip moves its valid inputs to its leading
    wires (order-preserving).  Returns ``perm`` of the same shape with
    ``new_position = perm[..., old_position]``.  Positions not covered
    by any group stay put; groups must be disjoint.

    ``layer`` is normally a compiled :class:`~repro.engine.plan.ChipLayer`
    — the scalar setup path of every plan-based switch — whose groups
    were checked for overlap once, when the plan was built.  The whole
    bank is then ranked with one stable argsort per chip over *every*
    wire, valid or not, deliberately unlike the batch walker's running
    count over valid entries, so the scalar path stays an independent
    oracle.  A list of equal-width groups is compiled first; an
    irregular list is concentrated chip by chip.
    """
    if not isinstance(layer, ChipLayer):
        if len({g.size for g in layer}) == 1:
            layer = chip_layer(layer)
        elif valid_by_pos.ndim == 2:
            rows = [_apply_irregular(row, layer) for row in valid_by_pos]
            return np.stack(rows) if rows else np.empty(valid_by_pos.shape, np.int64)
        else:
            return _apply_irregular(valid_by_pos, layer)
    n = valid_by_pos.shape[-1]
    groups = layer.groups
    chips, width = groups.shape
    batch = valid_by_pos.ndim == 2
    bits = valid_by_pos[:, groups] if batch else valid_by_pos[groups]
    order = np.argsort(~bits, axis=-1, kind="stable")  # winners first
    order += np.arange(0, chips * width, width)[:, None]
    targets = groups.reshape(-1)[order]
    if not batch:
        perm = np.arange(n, dtype=np.int64)
        perm[targets] = groups
        return perm
    # Offset each row's targets into the flattened batch.
    rows = valid_by_pos.shape[0]
    perm = np.tile(np.arange(n, dtype=np.int64), (rows, 1))
    targets += (np.arange(rows) * n)[:, None, None]
    perm.reshape(-1)[targets] = groups
    return perm


def _apply_irregular(valid_by_pos: np.ndarray, groups: list[np.ndarray]) -> np.ndarray:
    perm = np.arange(valid_by_pos.size, dtype=np.int64)
    seen = np.zeros(valid_by_pos.size, dtype=bool)
    for group in groups:
        if seen[group].any():
            raise ConfigurationError(OVERLAP_MESSAGE)
        seen[group] = True
        local = concentrate_permutation(valid_by_pos[group])
        perm[group] = group[local]
    return perm


def permute_bits(bits: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Move the bit at position ``p`` to position ``perm[..., p]``.

    ``bits`` and ``perm`` are each ``(n,)`` or ``(B, n)``; a 1-D operand
    applies to every row of a 2-D one."""
    if perm.ndim == 2:
        out = np.empty(perm.shape, dtype=bits.dtype)
        np.put_along_axis(out, perm, bits, axis=-1)
    elif bits.ndim == 2:
        out = np.empty_like(bits)
        out[:, perm] = bits
    else:
        out = np.empty_like(bits)
        out[perm] = bits
    return out


def compose(perms: list[np.ndarray]) -> np.ndarray:
    """Compose position permutations applied left to right:
    ``result[..., p] = perms[-1][..., ...perms[0][..., p]...]``.

    Each permutation is ``(n,)`` or ``(B, n)``; the result is 2-D as
    soon as one of them is, a 1-D permutation acting on every row."""
    if not perms:
        raise ConfigurationError("cannot compose an empty permutation list")
    out = perms[0].copy()
    for perm in perms[1:]:
        if perm.ndim == 1:
            out = perm[out]
        else:
            if out.ndim == 1:
                out = np.broadcast_to(out, (perm.shape[0], out.size))
            out = np.take_along_axis(perm, out, axis=-1)
    return out


def _check_shape(rows: int, cols: int) -> None:
    if rows < 1 or cols < 1:
        raise ConfigurationError(f"matrix shape must be positive, got {rows}x{cols}")
