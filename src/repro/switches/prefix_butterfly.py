"""The prefix + butterfly hyperconcentrator (Section 1's alternative).

"A different hyperconcentrator switch, comprised of a parallel prefix
circuit and a butterfly network, can be built in volume Θ(n^{3/2})
with O(n lg n) chips and as few as four data pins per chip, but this
switch is not combinational.  Although its sequential control is not
very complex, it is not as simple as that of a combinational circuit."

This module implements that switch faithfully at the functional level:

* a **parallel prefix circuit** computes each valid input's rank
  (``rank_i`` = number of valid bits among inputs 0..i);
* a **reverse butterfly network** of lg n stages of 2×2 switches routes
  input i to output ``rank_i − 1``.  Because the destination sequence
  of the active inputs is monotone increasing and contiguous from 0,
  this *concentration* pattern is routable with no conflicts — the
  classical reverse-banyan concentrator result, which
  :func:`butterfly_route` realises stage by stage and the tests verify
  exhaustively for small n.

The sequential control the paper alludes to is the per-setup
computation of the switch settings (one bit per 2×2 switch per setup);
:class:`PrefixButterflyHyperconcentrator` exposes those settings so the
cost of control state can be accounted (``n/2 · lg n`` bits).
"""

from __future__ import annotations

import numpy as np

from repro._util.bits import ceil_lg, ilg
from repro.core.concentration import ConcentratorSpec
from repro.engine.batch import BatchRouting, hyperconcentrate_batch
from repro.errors import ConfigurationError, RoutingError
from repro.switches.base import ConcentratorSwitch, Routing


def prefix_ranks(valid: np.ndarray) -> np.ndarray:
    """The parallel prefix circuit: inclusive popcount prefix.  Rank of
    input i (1-based among valid inputs); 0 where invalid.  ``valid``
    is one setup ``(n,)`` or a ``(B, n)`` batch, ranked row by row."""
    valid = np.asarray(valid, dtype=bool)
    return np.cumsum(valid, axis=-1, dtype=np.int64) * valid


def butterfly_route(
    destinations: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Route packets through a reverse butterfly by destination address.

    ``destinations[i]`` is input i's target output (−1 = no packet);
    a ``(B, n)`` array routes B independent setups at once.  Stage t
    (t = 0..lg n −1) pairs positions differing in bit t and sets each
    2×2 switch so every packet moves to the member of its pair that
    agrees with its destination in bit t; after stage t a packet agrees
    with its destination in bits 0..t.  Each stage moves every packet
    of every row at once.  Returns the final positions (shaped like
    ``destinations``) and the per-stage switch settings (True =
    crossed): one ``(n/2,)`` array per stage, or ``(B, n/2)`` for a
    batch, indexed by the pair's low position.

    Raises :class:`RoutingError` on a conflict (two packets needing the
    same port of one pair) or when a packet ends off its destination —
    neither happens for monotone concentration patterns; the tests
    assert this exhaustively.  The message names the first conflicting
    stage and pair (and, for a batch, the row).
    """
    dest = np.asarray(destinations, dtype=np.int64)
    if dest.ndim not in (1, 2):
        raise ConfigurationError(
            f"expected (n,) or (B, n) destinations, got shape {dest.shape}"
        )
    n = dest.shape[-1]
    q = ilg(n)
    dest2d = dest.reshape(-1, n)
    batch = dest2d.shape[0]
    in_row = "" if dest.ndim == 1 else " in row {}"
    idx = np.int32 if batch * n < 2**31 else np.int64
    # One entry per packet, in flat positions row·n + p: ``at`` starts
    # on the packet's own input, ``want`` is its row's destination.
    present = dest2d >= 0
    start = np.flatnonzero(present)
    at = start.astype(idx)
    want = dest2d.reshape(-1)[start].astype(idx)
    want &= n - 1
    want |= at & ~idx(n - 1)
    holder = np.empty(batch * n, dtype=idx)
    packet = np.arange(at.size, dtype=idx)
    settings: list[np.ndarray] = []

    for t in range(q):
        bit = idx(1 << t)
        crossed = (at ^ want) & bit
        at ^= crossed  # to the pair member that agrees in bit t
        holder[at] = packet
        clash = holder[at] != packet  # two packets on one member
        if clash.any():
            row, lo = divmod(int((at[clash] & ~bit).min()), n)
            raise RoutingError(
                f"butterfly conflict at stage {t}, pair ({lo},{lo | int(bit)})"
                + in_row.format(row)
            )
        # A pair is crossed when a packet changed member in it.
        moved = np.zeros(batch * n, dtype=bool)
        moved[at[crossed != 0] & ~bit] = True
        stage = moved.reshape(batch, n >> (t + 1), 2, 1 << t)[:, :, 0]
        settings.append(stage.reshape(dest.shape[:-1] + (n // 2,)))

    final = np.full(batch * n, -1, dtype=np.int64)
    final[start] = at & (n - 1)
    final = final.reshape(batch, n)
    astray = present & (final != dest2d)
    if astray.any():
        row, i = np.argwhere(astray)[0].tolist()
        raise RoutingError(
            f"packet {i} ended at {final[row, i]}, wanted {dest2d[row, i]}"
            + in_row.format(row)
        )
    return final.reshape(dest.shape), settings


def _destinations(valid: np.ndarray) -> np.ndarray:
    """Butterfly destination of every input: its rank − 1, or −1 when
    it is invalid (rows of a batch independently)."""
    return np.where(valid, prefix_ranks(valid) - 1, -1)


class PrefixButterflyHyperconcentrator(ConcentratorSwitch):
    """Section 1's non-combinational hyperconcentrator: parallel prefix
    rank computation + reverse butterfly routing.

    Functionally identical to
    :class:`repro.switches.hyperconcentrator.Hyperconcentrator`; the
    difference is the implementation technology and its cost profile
    (few pins, many small chips, sequential control).
    """

    #: Data pins per chip in the minimal packaging the paper cites.
    MIN_DATA_PINS = 4

    def __init__(self, n: int):
        if n < 1:
            raise ConfigurationError(f"size must be positive, got {n}")
        if n > 1:
            ilg(n)  # butterfly needs a power of two
        self.n = n
        self.m = n
        self._last_settings: list[np.ndarray] | None = None

    @property
    def spec(self) -> ConcentratorSpec:
        return ConcentratorSpec(n=self.n, m=self.n, alpha=1.0)

    def setup(self, valid: np.ndarray) -> Routing:
        valid = self._check_valid(valid)
        routing, self._last_settings = butterfly_route(_destinations(valid))
        return Routing(
            n_inputs=self.n, n_outputs=self.n, valid=valid, input_to_output=routing
        )

    def scalar_routing(self, valid: np.ndarray) -> np.ndarray:
        """The butterfly oracle over a ``(B, n)`` batch: one
        :func:`butterfly_route` call simulates every row's stages, so
        row ``i`` equals ``setup(valid[i]).input_to_output``.  It ranks
        with its own :func:`prefix_ranks`, never the engine's
        :func:`~repro.engine.batch.hyperconcentrate_batch`, so it stays
        an independent check of :meth:`_setup_batch`."""
        return butterfly_route(_destinations(self._check_valid_batch(valid)))[0]

    def _setup_batch(self, valid: np.ndarray) -> BatchRouting:
        """Vectorized setup: destinations of a concentration pattern are
        monotone, so the butterfly always realises ``rank − 1`` exactly
        (the butterfly simulation proves it per trial and stays the
        oracle).  Batch setups do not record per-trial switch settings;
        call :meth:`setup` when :meth:`switch_settings` is needed."""
        return BatchRouting(
            n_inputs=self.n,
            n_outputs=self.n,
            valid=valid,
            input_to_output=hyperconcentrate_batch(valid),
        )

    def switch_settings(self) -> list[np.ndarray]:
        """Per-stage 2×2 switch settings of the last setup — the
        sequential control state the paper mentions (``(n/2)·lg n``
        bits)."""
        if self._last_settings is None:
            raise RoutingError("no setup has been performed yet")
        return self._last_settings

    # -- cost model (the Section 1 figures for this alternative) --------

    @property
    def stages(self) -> int:
        return ceil_lg(self.n) if self.n > 1 else 0

    @property
    def switch_count(self) -> int:
        """2×2 switches in the butterfly: (n/2)·lg n."""
        return (self.n // 2) * self.stages

    @property
    def control_bits(self) -> int:
        """Sequential control state: one bit per 2×2 switch."""
        return self.switch_count

    @property
    def chip_count(self) -> int:
        """O(n lg n) chips in the minimal 4-data-pin packaging: one
        2×2 switch per chip, plus n prefix nodes."""
        return self.switch_count + self.n

    @property
    def data_pins_per_chip(self) -> int:
        """As few as four data pins per chip (one 2×2 switch: 2 in +
        2 out)."""
        return self.MIN_DATA_PINS

    @property
    def volume(self) -> int:
        """Θ(n^{3/2}): the paper's cited packaging volume."""
        import math

        return int(self.n * math.isqrt(self.n))

    @property
    def is_combinational(self) -> bool:
        """False: settings must be computed and latched each setup."""
        return False

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"PrefixButterflyHyperconcentrator(n={self.n})"
