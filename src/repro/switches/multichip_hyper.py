"""Multichip hyperconcentrators from the *full* sorting algorithms
(Section 6 of the paper).

"Rather than simulating just the first steps of Revsort and Columnsort,
one could simulate the full algorithms to fully sort the valid bits and
thus build multichip hyperconcentrator switches."

* :class:`FullRevsortHyperconcentrator` — ``⌈lg lg √n⌉`` repetitions of
  stacks 1 and 2 (Algorithm 1, steps 1–3), the completing column sort,
  then three Shearsort iteration stacks (snake row sort + column sort;
  the snake orientation is fixed permutation wiring around ordinary
  hyperconcentrator chips), plus the standard final row stack that
  converts the last snake-sorted dirty row into row-major order.
  A signal passes through ``2⌈lg lg √n⌉ + O(1)`` chip pairs for
  ``4 lg n lg lg n + 8 lg n + O(lg lg n)`` gate delays, using
  ``Θ(√n lg lg n)`` chips in volume ``Θ(n^{3/2} lg lg n)``.

* :class:`FullColumnsortHyperconcentrator` — all eight Columnsort steps
  (requires ``r ≥ 2(s−1)²``).  Steps 6–8 are realised with sentinel
  wires: the vacated top half-column is hardwired valid and the
  trailing half column hardwired invalid, exactly like padding the
  matrix with ±∞ entries.  A signal passes through four chips for
  ``8β lg n + O(1)`` gate delays; chip count and volume match the
  Section 5 partial concentrator.  The fully sorted output is read in
  column-major order (Leighton's convention).
"""

from __future__ import annotations

import math

import numpy as np

from repro._util.bits import ilg
from repro.core.concentration import ConcentratorSpec
from repro.engine import (
    BatchRouting,
    ChipLayer,
    StagePlan,
    chip_layer,
    fixed_permutation,
    plan_cache,
    concentrate_plan_batch,
    run_plan,
)
from repro.errors import ConfigurationError, RoutingError
from repro.mesh.columnsort import validate_columnsort_shape
from repro.mesh.order import (
    cm_to_rm_permutation,
    rev_rotate_permutation,
    rm_to_cm_permutation,
)
from repro.mesh.revsort import revsort_repetitions
from repro.switches.base import FinalPositionSwitch
from repro.switches.hyperconcentrator import Hyperconcentrator
from repro.switches.wiring import (
    apply_chip_layer,
    column_groups,
    compose,
    permute_bits,
    row_groups,
)


def _build_full_revsort_plan(n: int, side: int, repetitions: int) -> StagePlan:
    """Compile the whole Section 6 pipeline: Revsort repetitions, the
    completing column sort, three Shearsort iterations, and the final
    row-major fixup stack."""
    cols = chip_layer(column_groups(side, side))
    rows = chip_layer(row_groups(side, side))
    rows_snake = chip_layer(row_groups(side, side, reverse_odd=True))
    rotate = fixed_permutation(rev_rotate_permutation(side))
    ops: list = []
    for _ in range(repetitions):
        ops += [cols, rows, rotate]
    ops.append(cols)
    for _ in range(3):
        ops += [rows_snake, cols]
    ops.append(rows)
    return StagePlan(key=("fullrevsort", n), n=n, ops=tuple(ops))


class FullRevsortHyperconcentrator(FinalPositionSwitch):
    """n-by-n multichip hyperconcentrator from the full Revsort
    (Section 6)."""

    def __init__(self, n: int):
        side = math.isqrt(n)
        if side * side != n:
            raise ConfigurationError(f"requires square n, got {n}")
        ilg(side)
        self.n = n
        self.m = n
        self.side = side
        self.repetitions = revsort_repetitions(side)
        self._chip = Hyperconcentrator(side)

    @property
    def _plan(self) -> StagePlan:
        return plan_cache().get_or_build(
            ("fullrevsort", self.n),
            lambda: _build_full_revsort_plan(self.n, self.side, self.repetitions),
        )

    @property
    def spec(self) -> ConcentratorSpec:
        return ConcentratorSpec(n=self.n, m=self.n, alpha=1.0)

    def final_positions(self, valid: np.ndarray) -> np.ndarray:
        """Row-major position of each input after the full pipeline,
        for one setup ``(n,)`` or a ``(B, n)`` batch."""
        valid = self._check_valid_rows(valid)
        ops = self._plan.ops
        cols, rows, rotate = ops[:3]
        # First Shearsort stage: after `repetitions` (cols, rows,
        # rotate) triples and the completing column sort.
        rows_snake = ops[3 * self.repetitions + 1]
        perms: list[np.ndarray] = []
        current = valid

        def sort(layer: ChipLayer) -> None:
            nonlocal current
            p = apply_chip_layer(current, layer)
            current = permute_bits(current, p)
            perms.append(p)

        for _ in range(self.repetitions):
            sort(cols)                      # sort columns
            sort(rows)                      # sort rows
            perms.append(rotate.perm)       # rev(i) rotation wiring
            current = permute_bits(current, rotate.perm)
        sort(cols)                          # completing column sort

        for _ in range(3):                  # three Shearsort iterations
            sort(rows_snake)
            sort(cols)
        sort(rows)                          # final row-major fixup

        return compose(perms)

    def final_positions_batch(self, valid: np.ndarray) -> np.ndarray:
        """Batched :meth:`final_positions` over ``(B, n)`` trials;
        entries for invalid inputs are unspecified."""
        return run_plan(self._plan, self._check_valid_batch(valid))

    def _setup_batch(self, valid: np.ndarray) -> BatchRouting:
        return concentrate_plan_batch(self._plan, valid, self.n)

    # -- resource model --------------------------------------------------

    @property
    def chips_on_signal_path(self) -> int:
        """Hyperconcentrator chips a signal traverses:
        2 per repetition + completing sort + 2×3 Shearsort + final row
        stack (the paper's ``2 lg lg n + O(1)``)."""
        return 2 * self.repetitions + 1 + 6 + 1

    @property
    def chip_count(self) -> int:
        """Total chips: √n per stack, one stack per chip layer —
        ``Θ(√n lg lg n)``."""
        return self.chips_on_signal_path * self.side

    @property
    def gate_delays(self) -> int:
        """``4 lg n lg lg n + 8 lg n + O(lg lg n)`` asymptotically; here
        computed exactly from the construction."""
        return self.chips_on_signal_path * self._chip.gate_delays

    @property
    def volume(self) -> int:
        """``Θ(n^{3/2} lg lg n)``: one Θ(n) board per chip."""
        return self.chip_count * self.side * self.side

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"FullRevsortHyperconcentrator(n={self.n})"


class FullColumnsortHyperconcentrator(FinalPositionSwitch):
    """n-by-n multichip hyperconcentrator from all eight Columnsort
    steps (Section 6); requires ``r ≥ 2(s−1)²``."""

    def __init__(self, r: int, s: int):
        validate_columnsort_shape(r, s, full=True)
        self.r = r
        self.s = s
        self.n = r * s
        self.m = self.n
        self.half = r // 2
        self._cols = chip_layer(column_groups(r, s))
        self._cols_ext = chip_layer(column_groups(r, s + 1))
        self._cm_to_rm = cm_to_rm_permutation(r, s)
        self._rm_to_cm = rm_to_cm_permutation(r, s)
        self._chip = Hyperconcentrator(r)

    @property
    def spec(self) -> ConcentratorSpec:
        return ConcentratorSpec(n=self.n, m=self.n, alpha=1.0)

    def final_positions(self, valid: np.ndarray) -> np.ndarray:
        """Column-major output index of each input after all 8 steps,
        for one setup ``(n,)`` or a ``(B, n)`` batch."""
        valid = self._check_valid_rows(valid)
        r, s, n, half = self.r, self.s, self.n, self.half

        # pos[..., i] = current flat row-major position of input i.
        pos = np.arange(n, dtype=np.int64)

        def sort(layer: ChipLayer) -> None:
            nonlocal pos
            bits = permute_bits(valid, pos)
            pos = compose([pos, apply_chip_layer(bits, layer)])

        sort(self._cols)                               # step 1
        pos = self._cm_to_rm[pos]                      # step 2
        sort(self._cols)                               # step 3
        pos = self._rm_to_cm[pos]                      # step 4
        sort(self._cols)                               # step 5

        # step 6: shift down half a column into the r x (s+1) space.
        i, j = pos // s, pos % s
        cm_ext = (r * j + i) + half
        pos_ext = (s + 1) * (cm_ext % r) + cm_ext // r

        # step 7: sort columns of the extended matrix, with sentinel
        # wires: top half-column of column 0 hardwired valid, trailing
        # half column of column s hardwired invalid.
        bits_ext = np.zeros(valid.shape[:-1] + (n + r,), dtype=bool)
        np.put_along_axis(bits_ext, pos_ext, valid, axis=-1)
        bits_ext[..., (s + 1) * np.arange(half)] = True  # valid sentinels
        perm_ext = apply_chip_layer(bits_ext, self._cols_ext)
        pos_ext = compose([pos_ext, perm_ext])

        # step 8: unshift — strip sentinels; the output index is the
        # real column-major position x = x' − half.
        i2, j2 = pos_ext // (s + 1), pos_ext % (s + 1)
        x = (r * j2 + i2) - half
        if x.size and ((x < 0) | (x >= n)).any():
            raise RoutingError(
                "a message landed in a sentinel slot during Columnsort step 8"
            )
        return x

    # -- resource model --------------------------------------------------

    @property
    def chips_on_signal_path(self) -> int:
        """Four chips per signal (steps 1, 3, 5, 7)."""
        return 4

    @property
    def chip_count(self) -> int:
        """``3s + (s+1)`` chips: stages for steps 1/3/5 have s chips,
        the extended step-7 stage has s+1 — still ``Θ(n^{1−β})``."""
        return 3 * self.s + (self.s + 1)

    @property
    def gate_delays(self) -> int:
        """``8β lg n + O(1)``: four chips at ``2⌈lg r⌉ + O(1)`` each."""
        return self.chips_on_signal_path * self._chip.gate_delays

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"FullColumnsortHyperconcentrator(r={self.r}, s={self.s})"
