"""Multi-pass Columnsort switches — exploring Section 6's open question.

"Rather than wondering how fast a multichip hyperconcentrator switch we
can build, we might ask for what functions f(p) can we build an
(Ω(f(p)), m, 1 − o(p/m)) partial concentrator switch, given chips with
p pins and using only two stages of chips.  The Columnsort-based
construction, for example, gives us f(p) = p^{2−ε} for any 0 < ε ≤ 1.
Can we achieve f(p) = Ω(p²)?  In general, how large a function f(p)
can we achieve with k stages?"

:class:`IteratedColumnsortSwitch` generalises the Section 5 switch to
``k`` passes, alternating Columnsort's two reshuffles (pass 1 uses
CM→RM, pass 2 RM→CM, pass 3 CM→RM, …) with a column-sort chip stage
before each and one after — ``k+1`` chip stages total.  The outputs
are read in row-major order after an odd number of passes and
column-major order after an even number (following the last
reshuffle's orientation).  Each extra pass sharply reduces the
worst-case nearsortedness ε of the output (measured by
``bench_open_question.py``: e.g. r=64, s=8 gives ε = 41, 34, 7, 4 for
k = 1..4 against Theorem 4's 49), so for a fixed pin count p = 2r,
more stages buy a larger realisable n at the same load-ratio slack —
a concrete data point for the open question.

Repeating the *same* reshuffle instead of alternating does NOT
converge (ε oscillates); the regression test pins this down.

The ``k = 1`` instance is exactly the Section 5 two-stage switch.
"""

from __future__ import annotations

import numpy as np

from repro.core.concentration import ConcentratorSpec, lemma2_load_ratio
from repro.core.nearsort import nearsortedness
from repro.engine import (
    BatchRouting,
    StagePlan,
    chip_layer,
    concentrate_plan_batch,
    fixed_permutation,
    plan_cache,
    run_plan,
)
from repro.errors import ConfigurationError
from repro.mesh.columnsort import validate_columnsort_shape
from repro.mesh.grid import sort_columns
from repro.mesh.order import cm_to_rm_permutation
from repro.switches.base import FinalPositionSwitch
from repro.switches.hyperconcentrator import Hyperconcentrator
from repro.switches.wiring import apply_chip_layer, column_groups, compose, permute_bits


def _build_iterated_plan(r: int, s: int, passes: int) -> StagePlan:
    """Compile the k-pass pipeline: (chips, alternating reshuffle) × k
    plus the final chip stage.  After an even number of passes the
    output pads read the matrix column-major; that readout is a fixed
    relabelling of the row-major flat positions by the same formula as
    the CM→RM reshuffle, so it is appended as the plan's last wiring
    and the plan yields output-wire indices directly."""
    cols = chip_layer(column_groups(r, s))
    fwd = cm_to_rm_permutation(r, s)
    inv = np.empty_like(fwd)
    inv[fwd] = np.arange(fwd.size, dtype=np.int64)
    shuffles = (fixed_permutation(fwd), fixed_permutation(inv))
    ops: list = []
    for k in range(passes):
        ops += [cols, shuffles[k % 2]]
    ops.append(cols)
    if passes % 2 == 0:
        ops.append(shuffles[0])  # column-major readout
    return StagePlan(key=("iterated-columnsort", r, s, passes), n=r * s, ops=tuple(ops))


class IteratedColumnsortSwitch(FinalPositionSwitch):
    """A ``k``-pass Columnsort partial concentrator: ``k`` rounds of
    (column-sort stage, CM→RM wiring) followed by one final
    column-sort stage — ``k+1`` chip stages, ``k`` wiring layers.

    Parameters
    ----------
    r, s:
        Matrix shape, ``s | r``.
    m:
        Output wires.
    passes:
        ``k ≥ 1``; ``k = 1`` reproduces :class:`ColumnsortSwitch`.
    """

    def __init__(self, r: int, s: int, m: int, passes: int = 1):
        validate_columnsort_shape(r, s)
        if passes < 1:
            raise ConfigurationError(f"need at least one pass, got {passes}")
        n = r * s
        if not 1 <= m <= n:
            raise ConfigurationError(f"need 1 <= m <= n, got n={n}, m={m}")
        self.r = r
        self.s = s
        self.n = n
        self.m = m
        self.passes = passes
        self._chip = Hyperconcentrator(r)

    @property
    def _plan(self) -> StagePlan:
        return plan_cache().get_or_build(
            ("iterated-columnsort", self.r, self.s, self.passes),
            lambda: _build_iterated_plan(self.r, self.s, self.passes),
        )

    @property
    def readout(self) -> str:
        """Output ordering: ``"rm"`` after an odd number of passes
        (last reshuffle was CM→RM), ``"cm"`` after an even number."""
        return "rm" if self.passes % 2 == 1 else "cm"

    # -- behaviour ------------------------------------------------------

    def matrix_pipeline(self, matrix: np.ndarray) -> np.ndarray:
        """The algorithmic view: k × (sort columns; alternating
        reshuffle) + final column sort, on an ``r × s`` 0/1 matrix."""
        arr = np.asarray(matrix)
        r, s = self.r, self.s
        for k in range(self.passes):
            arr = sort_columns(arr)
            if k % 2 == 0:
                arr = arr.T.reshape(r, s)         # CM -> RM
            else:
                arr = arr.reshape(s, r).T.copy()  # RM -> CM
        return sort_columns(arr)

    def output_sequence(self, matrix: np.ndarray) -> np.ndarray:
        """The flat output-wire reading of the pipeline result (row- or
        column-major per :attr:`readout`)."""
        out = self.matrix_pipeline(matrix)
        return (out if self.readout == "rm" else out.T).reshape(-1)

    def stage_permutations(self, valid: np.ndarray) -> list[np.ndarray]:
        """Per-layer position permutations for one setup ``(n,)`` or a
        ``(B, n)`` batch; the reshuffles stay ``(n,)``."""
        valid = self._check_valid_rows(valid)
        ops = self._plan.ops
        cols = ops[0]
        # CM→RM after odd passes, RM→CM after even ones.
        shuffles = [op.perm for op in ops[1:4:2]]
        perms: list[np.ndarray] = []
        current = valid
        for k in range(self.passes):
            p = apply_chip_layer(current, cols)
            shuffle = shuffles[k % 2]
            current = permute_bits(permute_bits(current, p), shuffle)
            perms += [p, shuffle]
        perms.append(apply_chip_layer(current, cols))
        if self.readout == "cm":
            perms.append(ops[-1].perm)
        return perms

    def final_positions(self, valid: np.ndarray) -> np.ndarray:
        """Final *output-wire index* of each input, in the readout
        ordering, shaped like ``valid``."""
        return compose(self.stage_permutations(valid))

    def final_positions_batch(self, valid: np.ndarray) -> np.ndarray:
        """Batched :meth:`final_positions` over ``(B, n)`` trials, in
        the readout ordering; entries for invalid inputs are
        unspecified."""
        return run_plan(self._plan, self._check_valid_batch(valid))

    def _setup_batch(self, valid: np.ndarray) -> BatchRouting:
        return concentrate_plan_batch(self._plan, valid, self.m)

    def measured_epsilon(self, trials: int, rng: np.random.Generator) -> int:
        """Worst output-order nearsortedness over random inputs — the
        empirical ε this switch would plug into Lemma 2."""
        worst = 0
        for _ in range(trials):
            valid = rng.random(self.n) < rng.random()
            seq = self.output_sequence(valid.astype(np.int8).reshape(self.r, self.s))
            worst = max(worst, nearsortedness(seq))
        return worst

    @property
    def epsilon_bound(self) -> int:
        """Theorem 4's bound applies to the FIRST pass; further passes
        only improve it, so (s−1)² remains a safe bound."""
        return (self.s - 1) ** 2

    @property
    def spec(self) -> ConcentratorSpec:
        return ConcentratorSpec(
            n=self.n, m=self.m, alpha=lemma2_load_ratio(self.m, self.epsilon_bound)
        )

    # -- resource model ---------------------------------------------------

    @property
    def chip_stages(self) -> int:
        return self.passes + 1

    @property
    def chip_count(self) -> int:
        return self.chip_stages * self.s

    @property
    def data_pins_per_chip(self) -> int:
        return 2 * self.r

    @property
    def gate_delays(self) -> int:
        return self.chip_stages * self._chip.gate_delays

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"IteratedColumnsortSwitch(r={self.r}, s={self.s}, m={self.m}, "
            f"passes={self.passes})"
        )
