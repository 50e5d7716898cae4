"""Concentrator switch specifications and behavioural validators.

Section 1 of the paper defines three switch families:

* an **n-by-m perfect concentrator switch** establishes m disjoint
  paths from any set of m of its n inputs to its m outputs; with k
  valid messages it routes all of them when k ≤ m and fills every
  output when k > m;
* an **n-by-n hyperconcentrator switch** routes any k valid inputs to
  its *first* k outputs;
* an **(n, m, α) partial concentrator switch** routes any k ≤ αm valid
  inputs fully, and at least αm of them when k > αm.  α is the *load
  ratio*.

This module carries the spec objects and validators used by every
switch implementation and test, plus the two theory constructions of
Section 3: **Lemma 2** (ε-nearsorter ⇒ partial concentrator) and the
**Figure 2** counterexample (partial concentrator ⇏ ε-nearsorter).

Routing representation: ``routing`` is an int array of length n where
``routing[i]`` is the output wire carrying input i's message, or −1
when input i has no path.  Disjointness = no output index repeated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConcentrationError, ConfigurationError, ReproError


@dataclass(frozen=True)
class ConcentratorSpec:
    """An (n, m, α) partial concentrator specification.

    ``alpha = 1.0`` with ``m == n`` describes a hyperconcentrator;
    ``alpha = 1.0`` with ``m ≤ n`` a perfect concentrator.

    ``alpha = 0.0`` is permitted and marks a *vacuous* guarantee: the
    asymptotic load-ratio formulas of Theorems 3–4 can dip to (or below)
    zero at small n even though the switches behave well empirically
    (the paper's own Figure 3 instance, n=64 and m=28, is in this
    regime).  Negative formula values are clamped to 0 at construction
    time by the switches.
    """

    n: int
    m: int
    alpha: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"n must be positive, got {self.n}")
        if not 1 <= self.m <= self.n:
            raise ConfigurationError(f"m={self.m} must satisfy 1 <= m <= n={self.n}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError(f"load ratio must be in [0, 1], got {self.alpha}")

    @property
    def is_vacuous(self) -> bool:
        """True when the guarantee admits no load at all (α·m < 1)."""
        return self.guaranteed_capacity == 0

    @property
    def guaranteed_capacity(self) -> int:
        """``⌊αm⌋``: the largest k for which full routing is guaranteed."""
        return math.floor(self.alpha * self.m + 1e-9)

    def scaled_for_perfect(self) -> "ConcentratorSpec":
        """The Section 1 substitution: an (n/α, m/α, α) partial
        concentrator can replace an n-by-m perfect concentrator.  Given
        *this* spec for the perfect switch's (n, m), return the partial
        spec that substitutes for it (sizes rounded up)."""
        if self.alpha <= 0.0:
            raise ConfigurationError("cannot scale a vacuous spec (alpha = 0)")
        return ConcentratorSpec(
            n=math.ceil(self.n / self.alpha),
            m=math.ceil(self.m / self.alpha),
            alpha=self.alpha,
        )


def validate_routing_disjoint(routing: np.ndarray, n_outputs: int) -> None:
    """Check that the electrical paths are disjoint and in range."""
    routing = np.asarray(routing)
    used = routing[routing >= 0]
    if not used.size:
        return
    top = used.max()
    if top >= n_outputs:
        raise ConcentrationError(
            f"routing targets output {top} but the switch has {n_outputs} outputs"
        )
    if np.bincount(used).max() > 1:
        raise ConcentrationError("routing paths are not disjoint (output reused)")


def outputs_to_inputs(routing: np.ndarray, n_outputs: int) -> np.ndarray:
    """Inverse maps of a ``(B, n)`` batch of routings: ``[b, j]`` is the
    input that output ``j`` carries in row ``b`` (−1 when idle).

    Checks every row as :func:`validate_routing_disjoint` does, and
    raises its error for the first row whose paths are out of range or
    not disjoint.  Reuse shows as an output that does not read back the
    input last written to it."""
    routing = np.asarray(routing)
    rows, inputs = np.nonzero(routing >= 0)
    targets = routing[rows, inputs]
    inverse = np.full((routing.shape[0], n_outputs), -1, dtype=np.int64)
    fits = targets < n_outputs
    rows_in, inputs = rows[fits], inputs[fits]
    flat = rows_in * n_outputs + targets[fits]
    inverse.reshape(-1)[flat] = inputs
    bad = np.concatenate(
        [rows[~fits], rows_in[inverse.reshape(-1)[flat] != inputs]]
    )
    if bad.size:
        validate_routing_disjoint(routing[bad.min()], n_outputs)
    return inverse


def validate_partial_concentration(
    spec: ConcentratorSpec, valid: np.ndarray, routing: np.ndarray
) -> None:
    """Assert the (n, m, α) contract of Section 1 for one setup.

    * paths disjoint, and only valid inputs may hold paths;
    * k ≤ αm ⇒ every valid input routed;
    * k > αm ⇒ at least ⌊αm⌋ valid inputs routed.
    """
    valid = np.asarray(valid, dtype=bool)
    routing = np.asarray(routing)
    if valid.size != spec.n or routing.size != spec.n:
        raise ConfigurationError(
            f"expected arrays of length n={spec.n}, got {valid.size}/{routing.size}"
        )
    validate_routing_disjoint(routing, spec.m)
    if (routing[~valid] >= 0).any():
        raise ConcentrationError("an invalid message was routed to an output")
    k = int(valid.sum())
    routed = int((routing[valid] >= 0).sum())
    cap = spec.guaranteed_capacity
    if k <= cap and routed < k:
        raise ConcentrationError(
            f"lightly loaded switch (k={k} <= alpha*m={cap}) dropped {k - routed} messages"
        )
    if k > cap and routed < cap:
        raise ConcentrationError(
            f"congested switch (k={k}) routed only {routed} < alpha*m={cap} messages"
        )


def partial_concentration_failures(
    spec: ConcentratorSpec, valid: np.ndarray, routing: np.ndarray
) -> list[tuple[int, str]]:
    """Row-level :func:`validate_partial_concentration` over a ``(B, n)``
    batch: ``(row, message)`` for every violating row, in row order —
    what pinpoints the offenders once a batched check has failed."""
    failures: list[tuple[int, str]] = []
    for i in range(len(valid)):
        try:
            validate_partial_concentration(spec, valid[i], routing[i])
        except ReproError as exc:
            failures.append((i, str(exc)))
    return failures


def validate_perfect_concentration(
    n: int, m: int, valid: np.ndarray, routing: np.ndarray
) -> None:
    """Assert the perfect concentrator contract: k ≤ m ⇒ all routed,
    k > m ⇒ every output busy."""
    spec = ConcentratorSpec(n=n, m=m, alpha=1.0)
    validate_partial_concentration(spec, valid, routing)
    k = int(np.asarray(valid, dtype=bool).sum())
    routed = int((np.asarray(routing) >= 0).sum())
    if k > m and routed < m:
        raise ConcentrationError(
            f"congested perfect concentrator left outputs idle ({routed} < m={m})"
        )


def validate_hyperconcentration(n: int, valid: np.ndarray, routing: np.ndarray) -> None:
    """Assert the hyperconcentrator contract: the k valid inputs occupy
    exactly outputs 0..k−1."""
    valid = np.asarray(valid, dtype=bool)
    routing = np.asarray(routing)
    if valid.size != n or routing.size != n:
        raise ConfigurationError(f"expected arrays of length n={n}")
    validate_routing_disjoint(routing, n)
    k = int(valid.sum())
    targets = np.sort(routing[valid])
    if (routing[valid] < 0).any():
        raise ConcentrationError("hyperconcentrator dropped a valid message")
    if not np.array_equal(targets, np.arange(k)):
        raise ConcentrationError(
            f"hyperconcentrator outputs for k={k} valid messages are {targets}, "
            f"expected 0..{k - 1}"
        )


# ---------------------------------------------------------------------------
# Lemma 2 and the Figure 2 converse counterexample
# ---------------------------------------------------------------------------


def lemma2_load_ratio(m: int, epsilon: int) -> float:
    """Lemma 2's load ratio ``α = 1 − ε/m`` for an ε-nearsorter
    restricted to its first m outputs, clamped to 0 when the bound is
    vacuous (ε ≥ m, possible at small n; see :class:`ConcentratorSpec`)."""
    if m < 1:
        raise ConfigurationError(f"m must be positive, got {m}")
    if epsilon < 0:
        raise ConfigurationError(f"epsilon must be non-negative, got {epsilon}")
    return max(0.0, 1.0 - epsilon / m)


def lemma2_spec(n: int, m: int, epsilon: int) -> ConcentratorSpec:
    """The (n, m, 1 − ε/m) partial concentrator spec Lemma 2 yields for
    an n-input ε-nearsorter with outputs restricted to the first m."""
    return ConcentratorSpec(n=n, m=m, alpha=lemma2_load_ratio(m, epsilon))


def figure2_counterexample(n: int, m: int, epsilon: int) -> tuple[int, np.ndarray]:
    """Construct the Figure 2 witness that the converse of Lemma 2
    fails: output valid bits of a legitimate (n, m, 1 − ε/m) partial
    concentrator that are *not* ε-nearsorted.

    The switch routes m − ε of k > m − ε messages to the first m
    outputs and parks the remaining k − m + ε at the *last* outputs.
    Whenever ``k + ε < (n + m)/2`` the straggler 1s sit more than ε
    positions past the sorted boundary.  Returns ``(k, output_bits)``.
    """
    if not 1 <= m <= n:
        raise ConfigurationError(f"need 1 <= m <= n, got m={m}, n={n}")
    if epsilon < 1 or epsilon >= m:
        raise ConfigurationError(f"need 1 <= epsilon < m, got epsilon={epsilon}")
    # Pick the smallest congesting k, then check Figure 2's condition.
    k = m - epsilon + 1
    if not k + epsilon < (n + m) / 2:
        raise ConfigurationError(
            f"Figure 2 requires k + eps < (n+m)/2; infeasible for n={n}, m={m}, "
            f"eps={epsilon} (try a larger n)"
        )
    bits = np.zeros(n, dtype=np.int8)
    bits[: m - epsilon] = 1          # the m − ε routed messages
    bits[n - (k - m + epsilon):] = 1  # the stragglers at the far end
    return k, bits
