"""Bitonic comparator networks as concentrators — the paper's last
open question.

"There may be ε-nearsorters based on networks other than the
two-dimensional mesh to which we can apply Lemma 2.  What types of
partial concentrator switches can we build by applying Lemma 2 to
other ε-nearsorters?" (Section 6.)

This module explores one concrete family: Batcher's bitonic sorting
network over the valid bits.

* :class:`BitonicHyperconcentrator` — the full network: a 0-nearsorter,
  hence an n-by-n hyperconcentrator.  Its depth is ``lg n (lg n + 1)/2``
  comparator stages — *quadratically* worse in lg n than the
  Cormen–Leiserson chip's 2 lg n, which is exactly why the paper
  builds a dedicated hyperconcentrator instead of dropping a sorting
  network in (the ablation bench quantifies this).
* :class:`TruncatedBitonicSwitch` — only the first ``stages`` comparator
  stages: an ε-nearsorter for a measured ε, pluggable into Lemma 2 as
  a partial concentrator.  The bench maps the stages → ε tradeoff,
  giving a non-mesh data point for the open question.

Comparators operate on (valid bit, message) pairs with 1 > 0 and no
exchange on ties, so routing is deterministic and every path is
physical (each comparator is a 2×2 switch).
"""

from __future__ import annotations

import numpy as np

from repro._util.bits import ilg
from repro.core.concentration import ConcentratorSpec, lemma2_load_ratio
from repro.engine import (
    BatchRouting,
    ComparatorPlan,
    comparator_stages,
    plan_cache,
    run_comparator_plan,
)
from repro.errors import ConfigurationError
from repro.switches.base import ConcentratorSwitch, Routing

Comparator = tuple[int, int]  # (i, j): wire i should carry the larger bit


def _bitonic_plan(n: int) -> ComparatorPlan:
    """The full bitonic network compiled to index arrays, cached per n.
    Truncated switches slice a prefix of the same cached stages."""
    return plan_cache().get_or_build(
        ("bitonic", n),
        lambda: comparator_stages(("bitonic", n), n, bitonic_stages(n) if n > 1 else []),
    )


def bitonic_stages(n: int) -> list[list[Comparator]]:
    """The comparator stages of Batcher's bitonic sorter for ``n = 2^q``
    wires, sorting into *nonincreasing* order.

    Stage list follows the standard k/j double loop: ``q(q+1)/2``
    stages of ``n/2`` parallel comparators each.
    """
    q = ilg(n)
    stages: list[list[Comparator]] = []
    for k_exp in range(1, q + 1):
        k = 1 << k_exp
        j = k >> 1
        while j >= 1:
            stage: list[Comparator] = []
            for i in range(n):
                partner = i ^ j
                if partner > i:
                    # Direction: blocks of size k alternate; for a
                    # nonincreasing overall sort the first block keeps
                    # larger values on the lower index.
                    descending = (i & k) == 0
                    if descending:
                        stage.append((i, partner))
                    else:
                        stage.append((partner, i))
            stages.append(stage)
            j >>= 1
    return stages


def apply_comparator_stages(
    valid: np.ndarray, stages: list[list[Comparator]]
) -> np.ndarray:
    """Run the comparator network on the valid bits, tracking where
    each input wire's message ends up.  Returns ``position_of`` with
    ``position_of[i]`` = final wire of input i.

    A comparator (hi, lo) puts the larger bit on ``hi``; ties do not
    exchange, so messages never swap gratuitously.
    """
    bits = np.asarray(valid, dtype=np.int8).copy()
    position_of = np.arange(bits.size, dtype=np.int64)
    wire_holds = np.arange(bits.size, dtype=np.int64)  # wire -> input index
    for stage in stages:
        for hi, lo in stage:
            if bits[hi] < bits[lo]:
                bits[hi], bits[lo] = bits[lo], bits[hi]
                a, b = wire_holds[hi], wire_holds[lo]
                wire_holds[hi], wire_holds[lo] = b, a
                position_of[a], position_of[b] = lo, hi
    return position_of


class BitonicHyperconcentrator(ConcentratorSwitch):
    """An n-by-n hyperconcentrator realised as a full bitonic sorting
    network over the valid bits (n a power of two)."""

    def __init__(self, n: int):
        if n < 1:
            raise ConfigurationError(f"size must be positive, got {n}")
        if n > 1:
            ilg(n)
        self.n = n
        self.m = n
        self._stages = bitonic_stages(n) if n > 1 else []

    @property
    def spec(self) -> ConcentratorSpec:
        return ConcentratorSpec(n=self.n, m=self.n, alpha=1.0)

    @property
    def comparator_stages(self) -> int:
        """Depth: ``lg n (lg n + 1)/2`` stages."""
        return len(self._stages)

    @property
    def comparator_count(self) -> int:
        return sum(len(stage) for stage in self._stages)

    @property
    def gate_delays(self) -> int:
        """Two gate levels per comparator stage (compare + exchange)."""
        return 2 * self.comparator_stages

    def setup(self, valid: np.ndarray) -> Routing:
        valid = self._check_valid(valid)
        final = apply_comparator_stages(valid, self._stages)
        routing = np.where(valid, final, -1)
        return Routing(
            n_inputs=self.n, n_outputs=self.n, valid=valid, input_to_output=routing
        )

    def _setup_batch(self, valid: np.ndarray) -> BatchRouting:
        final = run_comparator_plan(_bitonic_plan(self.n), valid)
        routing = np.where(valid, final, -1)
        return BatchRouting(
            n_inputs=self.n, n_outputs=self.n, valid=valid, input_to_output=routing
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"BitonicHyperconcentrator(n={self.n})"


class TruncatedBitonicSwitch(ConcentratorSwitch):
    """The first ``stages`` comparator stages of the bitonic network,
    restricted to m outputs: an ε-nearsorter → Lemma 2 partial
    concentrator with an *empirically calibrated* ε.

    ``epsilon`` must be supplied (e.g. from
    :meth:`calibrate_epsilon`); the switch then carries the Lemma 2
    spec ``(n, m, 1 − ε/m)``, and the validators check it like any
    other switch in the library.
    """

    def __init__(self, n: int, m: int, stages: int, epsilon: int):
        if n < 1:
            raise ConfigurationError(f"size must be positive, got {n}")
        if n > 1:
            ilg(n)
        full = bitonic_stages(n) if n > 1 else []
        if not 0 <= stages <= len(full):
            raise ConfigurationError(
                f"stages must be in [0, {len(full)}], got {stages}"
            )
        if not 1 <= m <= n:
            raise ConfigurationError(f"need 1 <= m <= n, got n={n}, m={m}")
        if epsilon < 0:
            raise ConfigurationError(f"epsilon must be non-negative, got {epsilon}")
        self.n = n
        self.m = m
        self.stages = stages
        self.epsilon = epsilon
        self._stages = full[:stages]

    @classmethod
    def calibrate_epsilon(
        cls, n: int, stages: int, trials: int, rng: np.random.Generator
    ) -> int:
        """Measured worst-case ε of the truncated network over random
        valid bits (callers should add safety margin or use the
        adversarial search for design sign-off)."""
        from repro.core.nearsort import nearsortedness

        full = bitonic_stages(n) if n > 1 else []
        prefix = full[:stages]
        worst = 0
        for _ in range(trials):
            valid = rng.random(n) < rng.random()
            final = apply_comparator_stages(valid, prefix)
            out = np.zeros(n, dtype=np.int8)
            out[final] = valid.astype(np.int8)
            worst = max(worst, nearsortedness(out))
        return worst

    @property
    def spec(self) -> ConcentratorSpec:
        return ConcentratorSpec(
            n=self.n, m=self.m, alpha=lemma2_load_ratio(self.m, self.epsilon)
        )

    @property
    def gate_delays(self) -> int:
        return 2 * self.stages

    def final_positions(self, valid: np.ndarray) -> np.ndarray:
        valid = self._check_valid(valid)
        return apply_comparator_stages(valid, self._stages)

    def _prefix_plan(self) -> ComparatorPlan:
        """The first :attr:`stages` stages of the cached full network."""
        full = _bitonic_plan(self.n)
        return ComparatorPlan(
            key=full.key, n=full.n, stages=full.stages[: self.stages]
        )

    def final_positions_batch(self, valid: np.ndarray) -> np.ndarray:
        """Batched :meth:`final_positions` over ``(B, n)`` trials."""
        return run_comparator_plan(
            self._prefix_plan(), self._check_valid_batch(valid)
        )

    @property
    def epsilon_bound(self) -> int:
        """The calibrated ε (plays the role Theorems 3/4 play for the
        mesh switches)."""
        return self.epsilon

    def setup(self, valid: np.ndarray) -> Routing:
        valid = self._check_valid(valid)
        final = self.final_positions(valid)
        routing = np.where(valid & (final < self.m), final, -1)
        return Routing(
            n_inputs=self.n, n_outputs=self.m, valid=valid, input_to_output=routing
        )

    def _setup_batch(self, valid: np.ndarray) -> BatchRouting:
        final = run_comparator_plan(self._prefix_plan(), valid)
        routing = np.where(valid & (final < self.m), final, -1)
        rows, cols = np.nonzero(valid)
        return BatchRouting(
            n_inputs=self.n,
            n_outputs=self.m,
            valid=valid,
            input_to_output=routing,
            carried=(rows, final[rows, cols]),
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"TruncatedBitonicSwitch(n={self.n}, m={self.m}, "
            f"stages={self.stages}, eps={self.epsilon})"
        )
