"""The Revsort-based multichip partial concentrator switch (Section 4).

An ``(n, m, 1 − O(n^{3/4}/m))`` partial concentrator built from three
stages of ``√n`` hyperconcentrator chips each (``√n = 2^q``):

* **stage 1** — one ``√n``-by-``√n`` chip per matrix *column*; sorts
  the valid bits of each column (Algorithm 1, step 1);
* **transpose wiring** — output ``Y_{1,j,i}`` → input ``X_{2,i,j}``
  (chips switch from columns to rows; matrix entries do not move);
* **stage 2** — one chip per matrix *row* (step 2);
* **rotate+transpose wiring** — ``Y_{2,i,j}`` →
  ``X_{3,(rev(i)+j) mod √n, i}`` (step 3's ``rev(i)`` cyclic rotation
  composed with the transpose back to columns);
* **stage 3** — one chip per column (step 4).

The m output wires are the first m final matrix positions in row-major
order.  By Theorem 3 the valid bits end up with at most
``2⌈n^{1/4}⌉ − 1`` dirty rows, so the row-major reading is
``O(n^{3/4})``-nearsorted and Lemma 2 gives the load ratio.

Resource figures (reproduced by :mod:`repro.hardware`): 3√n chips with
``2√n`` data pins each (stage-2 boards add a barrel shifter with
``2√n + ⌈(lg n)/2⌉`` pins), 2-D area Θ(n²), 3-D volume Θ(n^{3/2}),
message delay ``3 lg n + O(1)`` gates.
"""

from __future__ import annotations

import math

import numpy as np

from repro._util.bits import bit_reverse, ceil_lg, ilg
from repro.core.concentration import ConcentratorSpec, lemma2_load_ratio
from repro.engine import (
    BatchRouting,
    StagePlan,
    chip_layer,
    fixed_permutation,
    plan_cache,
    concentrate_plan_batch,
    run_plan,
)
from repro.errors import ConfigurationError
from repro.mesh.order import rev_rotate_permutation
from repro.mesh.revsort import revsort_dirty_row_bound, revsort_epsilon_bound
from repro.switches.barrel import BarrelShifter
from repro.switches.base import FinalPositionSwitch, StageReport
from repro.switches.hyperconcentrator import Hyperconcentrator
from repro.switches.wiring import (
    apply_chip_layer,
    column_groups,
    compose,
    permute_bits,
    row_groups,
)


def _build_revsort_plan(n: int, side: int) -> StagePlan:
    """Compile the three chip stages and two wirings of Algorithm 1
    (the stage-1→2 transpose moves chips, not entries, so it is the
    identity on flat positions and needs no op)."""
    cols = chip_layer(column_groups(side, side))
    rows = chip_layer(row_groups(side, side))
    rotate = fixed_permutation(rev_rotate_permutation(side))
    return StagePlan(key=("revsort", n), n=n, ops=(cols, rows, rotate, cols))


class RevsortSwitch(FinalPositionSwitch):
    """Section 4's three-stage Revsort-based partial concentrator.

    Parameters
    ----------
    n:
        Number of input wires; must be an even power of two so that
        ``√n = 2^q`` (the Revsort rotation needs q-bit reversals).
    m:
        Number of output wires, ``1 ≤ m ≤ n``.
    """

    STAGES = 3

    def __init__(self, n: int, m: int):
        side = math.isqrt(n)
        if side * side != n:
            raise ConfigurationError(f"RevsortSwitch requires square n, got {n}")
        ilg(side)  # √n must be a power of two
        if not 1 <= m <= n:
            raise ConfigurationError(f"need 1 <= m <= n, got n={n}, m={m}")
        self.n = n
        self.m = m
        self.side = side
        self._chip = Hyperconcentrator(side)
        # Instance-level override of the rotate wiring (used by the
        # fault-injection suite to ablate the rev(i) rotation).  When
        # set, the shared compiled plan no longer describes this
        # instance and setup_batch falls back to the scalar loop.
        self._rotate_perm_cache = None

    @property
    def _plan(self) -> StagePlan:
        """The compiled stage plan, shared by every instance of this
        (n) shape via the process-wide plan cache.  Built lazily:
        resource-model queries on very large switches must not allocate
        the O(n) wire arrays."""
        return plan_cache().get_or_build(
            ("revsort", self.n), lambda: _build_revsort_plan(self.n, self.side)
        )

    # -- behaviour ------------------------------------------------------

    @property
    def epsilon_bound(self) -> int:
        """Theorem 3's nearsorting bound: the dirty window spans at most
        ``(2⌈n^{1/4}⌉ − 1)·√n`` row-major positions."""
        return revsort_epsilon_bound(self.n)

    @property
    def dirty_row_bound(self) -> int:
        """Theorem 3's bound on dirty rows after Algorithm 1."""
        return revsort_dirty_row_bound(self.n)

    @property
    def spec(self) -> ConcentratorSpec:
        """The guaranteed (n, m, 1 − ε/m) spec via Lemma 2 (α clamped to
        0 when the small-n bound is vacuous)."""
        return ConcentratorSpec(
            n=self.n, m=self.m, alpha=lemma2_load_ratio(self.m, self.epsilon_bound)
        )

    def stage_permutations(self, valid: np.ndarray) -> list[np.ndarray]:
        """The per-layer position permutations for one setup ``(n,)``
        or a ``(B, n)`` batch: stage-1 chips, stage-2 chips, the rotate
        wiring (always ``(n,)``), stage-3 chips.  (The stage-1→2
        transpose moves chips, not matrix entries, so it is the
        identity on flat positions.)"""
        valid = self._check_valid_rows(valid)
        cols, rows, rotate, _ = self._plan.ops
        rotate_perm = self._rotate_perm_cache
        if rotate_perm is None:
            rotate_perm = rotate.perm

        p1 = apply_chip_layer(valid, cols)
        current = permute_bits(valid, p1)
        p2 = apply_chip_layer(current, rows)
        current = permute_bits(permute_bits(current, p2), rotate_perm)
        p3 = apply_chip_layer(current, cols)
        return [p1, p2, rotate_perm, p3]

    def final_positions(self, valid: np.ndarray) -> np.ndarray:
        """Flat row-major matrix position of each input after all three
        stages (before the output restriction), shaped like ``valid``."""
        return compose(self.stage_permutations(valid))

    def final_positions_batch(self, valid: np.ndarray) -> np.ndarray:
        """Batched :meth:`final_positions` over ``(B, n)`` trials;
        entries for invalid inputs are unspecified (see
        :func:`repro.engine.run_plan`)."""
        valid2d = self._check_valid_batch(valid)
        if self._rotate_perm_cache is not None:  # plan no longer applies
            return self.final_positions(valid2d)
        return run_plan(self._plan, valid2d)

    def _setup_batch(self, valid: np.ndarray) -> BatchRouting:
        if self._rotate_perm_cache is not None:
            return super()._setup_batch(valid)  # plan no longer applies
        return concentrate_plan_batch(self._plan, valid, self.m)

    # -- resource model (Section 4 figures) -----------------------------

    @property
    def chip_count(self) -> int:
        """``3√n`` hyperconcentrator chips (plus √n barrel shifters in
        the 3-D packaging, reported separately)."""
        return self.STAGES * self.side

    @property
    def barrel_shifters(self) -> list[BarrelShifter]:
        """The √n hardwired barrel shifters of the stage-2 boards; board
        ``i`` is hardwired to rotate by ``rev(i)``."""
        q = ilg(self.side)
        return [
            BarrelShifter(self.side, bit_reverse(i, q)) for i in range(self.side)
        ]

    @property
    def data_pins_per_chip(self) -> int:
        """``2√n`` data pins on each hyperconcentrator chip."""
        return 2 * self.side

    @property
    def max_pins_per_chip(self) -> int:
        """``2√n + ⌈(lg n)/2⌉``: the barrel shifters' pin count
        dominates (data pins plus hardwired control bits)."""
        return 2 * self.side + ceil_lg(self.side)

    @property
    def gate_delays(self) -> int:
        """Message delay through the switch: three chips at
        ``2⌈lg √n⌉ + O(1)`` each, plus the constant-delay barrel
        shifter — ``3 lg n + O(1)`` total."""
        shifter = self.barrel_shifters[0].gate_delays
        return self.STAGES * self._chip.gate_delays + shifter

    def stage_reports(self) -> list[StageReport]:
        """Inventory of the three stages for the hardware model."""
        return [
            StageReport("stage1-columns", self.side, self.side, wiring="transpose"),
            StageReport(
                "stage2-rows",
                self.side,
                self.side,
                wiring="rev-rotate+transpose",
                extras={"barrel_shifters": self.side},
            ),
            StageReport("stage3-columns", self.side, self.side, wiring="output"),
        ]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RevsortSwitch(n={self.n}, m={self.m})"
