"""The Columnsort-based multichip partial concentrator switch (Section 5).

An ``(n, m, 1 − (s−1)²/m)`` partial concentrator built from two stages
of ``s`` hyperconcentrator chips, each ``r``-by-``r`` (``n = r·s``,
``s | r``):

* **stage 1** — one chip per matrix column; sorts the valid bits of
  each column (Algorithm 2, step 1);
* **reshuffle wiring** — output ``Y_{1,j,i}`` → input
  ``X_{2,(r·j+i) mod s, ⌊(r·j+i)/s⌋}`` (the ``RM⁻¹∘CM`` conversion of
  step 2);
* **stage 2** — one chip per column of the reshuffled matrix (step 3).

The m output wires are the first m final positions in row-major order.
By Theorem 4 the valid bits are ``(s−1)²``-nearsorted in row-major
order, so Lemma 2 gives load ratio ``1 − (s−1)²/m`` exactly.

β-parametrisation (Table 1): with ``r = Θ(n^β)`` and ``s = Θ(n^{1−β})``
for ``1/2 ≤ β ≤ 1``, the switch has ``Θ(n^β)`` data pins per chip,
``Θ(n^{1−β})`` chips, volume ``Θ(n^{1+β})``, delay ``4β lg n + O(1)``
gates, and load ratio ``1 − O(n^{2−2β}/m)``.
"""

from __future__ import annotations

import numpy as np

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
from repro.mesh.columnsort import (
    columnsort_epsilon_bound,
    columnsort_shape_for_beta,
    validate_columnsort_shape,
)
from repro.mesh.order import cm_to_rm_permutation
from repro.switches.base import FinalPositionSwitch, StageReport
from repro.switches.hyperconcentrator import Hyperconcentrator
from repro.switches.wiring import apply_chip_layer, column_groups, compose, permute_bits


def _build_columnsort_plan(r: int, s: int) -> StagePlan:
    """Compile Algorithm 2's two chip stages around the ``RM⁻¹∘CM``
    reshuffle wiring."""
    cols = chip_layer(column_groups(r, s))
    reshuffle = fixed_permutation(cm_to_rm_permutation(r, s))
    return StagePlan(key=("columnsort", r, s), n=r * s, ops=(cols, reshuffle, cols))


class ColumnsortSwitch(FinalPositionSwitch):
    """Section 5's two-stage Columnsort-based partial concentrator.

    Parameters
    ----------
    r, s:
        Matrix shape: ``r`` rows (chip size) and ``s`` columns (chips
        per stage); ``s`` must evenly divide ``r``.
    m:
        Number of output wires, ``1 ≤ m ≤ r·s``.
    """

    STAGES = 2

    def __init__(self, r: int, s: int, m: int):
        validate_columnsort_shape(r, s)
        n = r * s
        if not 1 <= m <= n:
            raise ConfigurationError(f"need 1 <= m <= n, got n={n}, m={m}")
        self.r = r
        self.s = s
        self.n = n
        self.m = m
        self._chip = Hyperconcentrator(r)

    @property
    def _plan(self) -> StagePlan:
        """The compiled stage plan, shared by every (r, s) instance via
        the process-wide plan cache.  Built lazily: resource-model
        queries on very large switches must not allocate the O(n) wire
        arrays."""
        return plan_cache().get_or_build(
            ("columnsort", self.r, self.s),
            lambda: _build_columnsort_plan(self.r, self.s),
        )

    @classmethod
    def from_beta(cls, n: int, beta: float, m: int) -> "ColumnsortSwitch":
        """Instantiate the β point of the Table 1 continuum for an
        n-input switch (n a power of two)."""
        r, s = columnsort_shape_for_beta(n, beta)
        return cls(r, s, m)

    # -- behaviour ------------------------------------------------------

    @property
    def epsilon_bound(self) -> int:
        """Theorem 4's exact nearsorting bound ``(s−1)²``."""
        return columnsort_epsilon_bound(self.s)

    @property
    def spec(self) -> ConcentratorSpec:
        """The guaranteed ``(n, m, 1 − (s−1)²/m)`` spec (α clamped to 0
        when vacuous at small sizes)."""
        return ConcentratorSpec(
            n=self.n, m=self.m, alpha=lemma2_load_ratio(self.m, self.epsilon_bound)
        )

    def stage_permutations(self, valid: np.ndarray) -> list[np.ndarray]:
        """Per-layer position permutations for one setup ``(n,)`` or a
        ``(B, n)`` batch: stage-1 chips, the ``RM⁻¹∘CM`` wiring (always
        ``(n,)``), stage-2 chips."""
        valid = self._check_valid_rows(valid)
        cols, reshuffle, _ = self._plan.ops

        p1 = apply_chip_layer(valid, cols)
        current = permute_bits(permute_bits(valid, p1), reshuffle.perm)
        p2 = apply_chip_layer(current, cols)
        return [p1, reshuffle.perm, p2]

    def final_positions(self, valid: np.ndarray) -> np.ndarray:
        """Flat row-major position of each input after both stages,
        shaped like ``valid``."""
        return compose(self.stage_permutations(valid))

    def final_positions_batch(self, valid: np.ndarray) -> np.ndarray:
        """Batched :meth:`final_positions` over ``(B, n)`` trials;
        entries for invalid inputs are unspecified."""
        return run_plan(self._plan, self._check_valid_batch(valid))

    def _setup_batch(self, valid: np.ndarray) -> BatchRouting:
        return concentrate_plan_batch(self._plan, valid, self.m)

    # -- resource model (Section 5 / Table 1 figures) --------------------

    @property
    def beta(self) -> float:
        """The effective β of this shape: ``lg r / lg n`` (matches the
        parametrisation ``r = n^β`` for power-of-two shapes)."""
        import math

        return math.log2(self.r) / math.log2(self.n) if self.n > 1 else 1.0

    @property
    def chip_count(self) -> int:
        """``2s = Θ(n^{1−β})`` hyperconcentrator chips."""
        return self.STAGES * self.s

    @property
    def data_pins_per_chip(self) -> int:
        """``2r = Θ(n^β)`` data pins per chip."""
        return 2 * self.r

    @property
    def gate_delays(self) -> int:
        """Message delay: two chips at ``2⌈lg r⌉ + O(1)`` each —
        ``4β lg n + O(1)`` total."""
        return self.STAGES * self._chip.gate_delays

    @property
    def interstack_connectors(self) -> int:
        """``s²`` wiring-only connectors in the 3-D packaging
        (Figure 7), each transposing ``r/s`` wires."""
        return self.s * self.s

    def stage_reports(self) -> list[StageReport]:
        return [
            StageReport("stage1-columns", self.s, self.r, wiring="cm-to-rm"),
            StageReport("stage2-columns", self.s, self.r, wiring="output"),
        ]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ColumnsortSwitch(r={self.r}, s={self.s}, m={self.m})"
