"""Vectorized multi-trial routing: batch results and the plan executor.

One Monte-Carlo trial is one valid-bit vector; the engine runs a whole
``(B, n)`` array of trials through a compiled :class:`~repro.engine.plan.StagePlan`
at once, with every stage operating on 2-D arrays (one row per trial).
``setup_batch`` on :class:`repro.switches.base.ConcentratorSwitch`
returns a :class:`BatchRouting`; indexing it yields ordinary
:class:`~repro.switches.base.Routing` objects, and the scalar ``setup``
path remains the correctness oracle (the parity tests assert
``switch.setup_batch(V)[i] == switch.setup(V[i])`` for every registered
design).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.engine import plan as plan_mod
from repro.engine.plan import ComparatorPlan, FixedPermutation, StagePlan
from repro.errors import ConcentrationError, ConfigurationError


@dataclass(frozen=True)
class BatchRouting:
    """The electrical paths of ``B`` independent setup cycles.

    ``input_to_output[b, i]`` is the output wire carrying input ``i``'s
    message in trial ``b`` (−1 when it has no path) — one
    :class:`~repro.switches.base.Routing` row per trial.  Its signed
    integer dtype is the producer's: int32 from the plan walker
    (:func:`concentrate_plan_batch`), int64 from most other switches.

    ``carried`` is the ``(rows, positions)`` pair of the walk that
    produced the routing: the trial row and final flat position of
    every message that reached the last stage.  Switches that do not
    track final positions leave it None.
    """

    n_inputs: int
    n_outputs: int
    valid: np.ndarray  # (B, n) bool
    input_to_output: np.ndarray  # (B, n) signed integers
    carried: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.valid.ndim != 2 or self.valid.shape[1] != self.n_inputs:
            raise ConfigurationError(
                f"batch valid bits must be (B, {self.n_inputs}), "
                f"got {self.valid.shape}"
            )
        if self.input_to_output.shape != self.valid.shape:
            raise ConfigurationError("batch routing shape mismatch")

    def __len__(self) -> int:
        return int(self.valid.shape[0])

    @property
    def batch_size(self) -> int:
        return len(self)

    def __getitem__(self, index: int):
        """Trial ``index`` as a validated scalar :class:`Routing`."""
        from repro.switches.base import Routing

        return Routing(
            n_inputs=self.n_inputs,
            n_outputs=self.n_outputs,
            valid=self.valid[index],
            input_to_output=self.input_to_output[index],
        )

    @property
    def routed_counts(self) -> np.ndarray:
        """Per-trial number of valid messages with a path, shape (B,)."""
        return ((self.input_to_output >= 0) & self.valid).sum(axis=1)

    @property
    def dropped_counts(self) -> np.ndarray:
        """Per-trial number of valid messages without a path."""
        return ((self.input_to_output < 0) & self.valid).sum(axis=1)

    @cached_property
    def occupancy(self) -> np.ndarray | None:
        """Final-position occupancy, ``(B, n)`` bool: ``[b, p]`` is True
        iff a message of trial ``b`` ends on flat position ``p`` (the
        quantity the ε measurements and the gate netlist observe); None
        without :attr:`carried`.  Built on first read, so callers that
        only route pay nothing for it."""
        if self.carried is None:
            return None
        rows, positions = self.carried
        batch, n = len(self), self.n_inputs
        if batch * n < 2**31:
            flat = rows.astype(np.int32, copy=False) * np.int32(n)
        else:
            flat = rows.astype(np.int64) * n
        flat += positions
        out = np.zeros(batch * n, dtype=bool)
        out[flat] = True
        return out.reshape(batch, n)

    def output_valid_bits(self) -> np.ndarray:
        """The valid bits as seen on the output wires, shape (B, m)."""
        out = np.zeros((len(self), self.n_outputs), dtype=bool)
        targets = np.where(self.valid, self.input_to_output, -1)
        rows, cols = np.nonzero(targets >= 0)
        out[rows, targets[rows, cols]] = True
        return out


def _rank_dtype(width: int) -> np.dtype:
    """Smallest unsigned/signed dtype holding an inclusive rank ≤ width."""
    if width <= 255:
        return np.dtype(np.uint8)
    if width <= 2**15 - 1:
        return np.dtype(np.int16)
    return np.dtype(np.int32)


def _rank_word(width: int) -> np.dtype | None:
    """The machine word that ranks a ``width``-wide chip byte-parallel
    (:func:`_word_ranks`), or None where the walker keeps ``cumsum``:
    chips that are not whole uint64 words or one uint32 word, ranks
    above 255 (a byte lane would overflow), and big-endian hosts (a
    carry must run from a word's first byte to its last)."""
    if sys.byteorder != "little" or width > 255:
        return None
    if width % 8 == 0:
        return np.dtype(np.uint64)
    if width == 4:
        return np.dtype(np.uint32)
    return None


#: ``0x01…01`` in each rank word: times a word of 0/1 bytes, it puts
#: the running byte sum in every byte (see :func:`_word_ranks`).
_ONES = {
    np.dtype(word): word(int.from_bytes(b"\x01" * np.dtype(word).itemsize, "little"))
    for word in (np.uint32, np.uint64)
}


def _word_ranks(grp: np.ndarray, n_chips: int, width: int, word: np.dtype) -> np.ndarray:
    """Inclusive per-chip popcount prefix of ``grp``'s rows, in place.

    ``grp`` is a C-contiguous ``(B, n_chips · width)`` bool array; on
    return its bytes, read as uint8, equal ``np.cumsum(grp.reshape(B,
    n_chips, width), axis=2, dtype=np.uint8)``.  Each word of
    ``word.itemsize`` bytes (0 or 1 each) times ``0x01…01`` holds in
    byte k the sum of bytes 0..k on a little-endian host.  A chip
    spanning several words then adds, word by word, the previous
    word's last byte (its running total) to every byte.  No byte lane
    carries into the next, because a rank is at most width ≤ 255.
    """
    ones = _ONES[word]
    words = grp.view(word).reshape(grp.shape[0], n_chips, width // word.itemsize)
    words *= ones
    if words.shape[2] > 1:
        top = word.type(8 * word.itemsize - 8)
        carry = np.empty(words.shape[:2], dtype=word)
        for j in range(1, words.shape[2]):
            np.right_shift(words[:, :, j - 1], top, out=carry)
            carry *= ones
            words[:, :, j] += carry
    return grp.view(np.uint8)


# Per-plan compiled executor steps, keyed by plan.key: (steps, finish).
# Built once per plan; plain dict mutation is atomic under the GIL and
# recomputation on a race is harmless.  PlanCache.clear() flushes this
# too (see the hook registration below) so stale tables can't outlive
# their plans.
_STEPS_CACHE: dict[tuple, tuple] = {}
plan_mod._CLEAR_HOOKS.append(_STEPS_CACHE.clear)


def _compile_steps(plan: StagePlan) -> tuple[tuple, np.ndarray | None]:
    """Fuse a plan's op list into per-layer static lookup tables.

    The executor tracks each valid input as a coordinate in the
    *chip-major slot space* of the layer it just left (never converting
    back to flat positions between layers).  For each chip layer the
    compiled ``entry`` table maps the previous coordinate space straight
    to this layer's slot — all interleaving fixed permutations and the
    previous layer's slot→position map are folded in at compile time,
    so the runtime does one gather per layer where the naive walk does
    three.  Each step also keeps the layer's ``flat32`` (slot → flat
    position on the chip output pins, where kill masks apply).
    ``finish`` maps the last layer's slot space to final flat positions.

    Every chip layer must cover all ``plan.n`` positions; a partial
    layer raises :class:`ConfigurationError`.
    """
    cached = _STEPS_CACHE.get(plan.key)
    if cached is not None:
        return cached
    pending = None  # current-coordinate → flat-position table (None = identity)
    steps = []
    for layer, op in enumerate(plan.ops):
        if isinstance(op, FixedPermutation):
            pending = op.perm32 if pending is None else op.perm32[pending]
            continue
        if op.total_upto < plan.n:
            raise ConfigurationError(
                f"plan {plan.key}: chip layer at op {layer} covers only "
                f"positions 0..{op.total_upto - 1} of {plan.n}; every chip "
                f"layer must be total"
            )
        entry = op.cm_of if pending is None else op.cm_of[pending]
        width = op.chip_width
        if width & (width - 1) == 0:
            mask = np.int32(~(width - 1))  # chip_start = slot & mask
        else:
            mask = None
        steps.append(
            (entry, op.n_chips, width, _rank_dtype(width), _rank_word(width),
             mask, op.flat32)
        )
        pending = op.flat32
    compiled = (tuple(steps), pending)
    _STEPS_CACHE[plan.key] = compiled
    return compiled


class _WalkTimers(NamedTuple):
    plan: object  # engine.run_plan.seconds histogram (or a null one)
    stage: object  # engine.stage.seconds histogram (or a null one)


def _walk_timers(reg) -> _WalkTimers:
    """How one plan walk reports its time to ``reg``: one
    ``engine.run_plan.seconds`` observation per call and one
    ``engine.stage.seconds`` observation per layer.  The walkers open no
    spans: a span costs tens of microseconds with a journal attached, a
    histogram observation about one.  The null registry's histograms
    discard."""
    return _WalkTimers(
        reg.histogram("engine.run_plan.seconds"),
        reg.histogram("engine.stage.seconds"),
    )


def run_plan_sparse(
    plan: StagePlan, valid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Execute a compiled stage plan, tracking only the valid inputs.

    Returns ``(rows, cols, pos)``: flat arrays over every valid bit of
    the batch (``valid[rows[t], cols[t]]`` is True) with ``pos[t]`` its
    final flat position.  Only valid inputs matter to a concentrator's
    routing — invalid inputs never get an output — so the executor
    skips the other half of the position bookkeeping entirely.

    A chip layer sends the j-th valid input of each chip (in wire
    order) to the chip's j-th wire.  The rank is a running popcount of
    the chip's current valid bits, computed chip-major over the whole
    batch.  This path is memory-bandwidth-bound, so everything stays in
    the smallest dtype that fits (int32 coordinates, uint8/int16 ranks)
    and every plan runs through per-plan fused lookup tables
    (:func:`_compile_steps`) — one gather per chip layer.
    """
    flat_idx, rows, pos = _run_plan_sparse_flat(plan, valid)
    return rows, flat_idx % valid.shape[1], pos


def _run_plan_sparse_flat(
    plan: StagePlan, valid: np.ndarray, stage_kills=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """As :func:`run_plan_sparse`, but returns ``(flat_idx, rows, pos)``:
    the flat index of each tracked entry into ``valid.ravel()`` (for
    scatter reuse) in place of its column.  Flat indices are int32 when
    the batch allows, and each layer updates its coordinates in place,
    so a tracked entry costs about 25 bytes at the walk's peak.

    ``stage_kills`` (one entry per chip layer, see
    :func:`run_plan_with_faults`) drops the entries whose message sits
    on a killed chip output pin; only survivors are returned.  The
    next layer's popcount re-ranks the messages behind a dropped one,
    because a chip concentrates whatever is still valid.
    """
    batch, n = valid.shape
    flat_idx = np.flatnonzero(valid)
    if batch * n < 2**31:
        flat_idx = flat_idx.astype(np.int32)
    rows, coord = np.divmod(flat_idx, n)
    rows = rows.astype(np.int32, copy=False)
    coord = coord.astype(np.int32, copy=False)  # slot in the current space

    def flat_slots(slots: int) -> np.ndarray:
        """Flat (trial, slot) index of every tracked entry."""
        if batch * slots < 2**31:
            gf = rows * np.int32(slots)
        else:  # flat indices exceed int32 — fall back to int64
            gf = rows.astype(np.int64) * slots
        gf += coord
        return gf

    steps, finish = _compile_steps(plan)
    grp = np.zeros((batch, 0), dtype=bool)
    timers = _walk_timers(obs.get_registry())
    started = perf_counter()
    for layer, (entry, n_chips, width, rank_dt, word, mask, flat) in enumerate(steps):
        layer_started = perf_counter()
        slots = n_chips * width
        if grp.shape[1] != slots:
            grp = np.zeros((batch, slots), dtype=bool)
        else:
            grp[:] = False
        coord = entry[coord]  # this layer's chip-major slot
        gf = flat_slots(slots)
        grp.reshape(-1)[gf] = True
        if word is not None:
            cs = _word_ranks(grp, n_chips, width, word)
        else:
            cs = np.cumsum(grp.reshape(batch, n_chips, width), axis=2,
                           dtype=rank_dt)
        rank = cs.reshape(-1)[gf]  # 1-based rank among chip's valid
        del gf
        # The chip's first slot, then rank − 1 on from it (coord is this
        # layer's own gather, so it is updated in place).
        if mask is not None:
            coord &= mask
        else:
            coord //= np.int32(width)
            coord *= np.int32(width)
        coord -= np.int32(1)
        coord += rank
        kill = None if stage_kills is None else stage_kills[layer]
        if kill is not None:
            keep = ~kill[flat][coord]
            flat_idx, rows, coord = flat_idx[keep], rows[keep], coord[keep]
        timers.stage.observe(perf_counter() - layer_started)
    pos = coord if finish is None else finish[coord]
    timers.plan.observe(perf_counter() - started)
    return flat_idx, rows, pos


def run_plan(plan: StagePlan, valid: np.ndarray) -> np.ndarray:
    """Execute a compiled stage plan on a ``(B, n)`` trial batch.

    Returns ``final`` with ``final[b, i]`` = the flat position input
    ``i`` occupies after the whole pipeline in trial ``b`` — the batched
    equivalent of ``compose(stage_permutations(valid))`` — for the
    *valid* inputs; entries for invalid inputs are unspecified (callers
    always mask them with ``np.where(valid & ..., final, -1)``).
    """
    batch, n = valid.shape
    flat_idx, _, pos = _run_plan_sparse_flat(plan, valid)
    final = np.zeros((batch, n), dtype=np.int64)
    final.reshape(-1)[flat_idx] = pos
    return final


def _walk_row(plan: StagePlan, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_run_plan_sparse_flat` for one ``(n,)`` row, without the
    batch bookkeeping: returns ``(inputs, pos)``, the valid inputs in
    wire order and each one's final flat position.

    The same compiled tables drive the same steps — gather through the
    layer's ``entry``, mark the occupied slots, rank each message
    among its chip's valid wires, move it to the chip's first slot plus
    rank − 1 — on plain ``(n,)`` arrays: no row index, no flat (trial,
    slot) offsets and no int32/int64 choice, which at one row cost more
    than the walk.  The ``engine.run_plan.seconds`` and
    ``engine.stage.seconds`` histograms get the batch walker's
    observations, one per call and one per layer.
    """
    steps, finish = _compile_steps(plan)
    reg = obs.get_registry()
    timers = _walk_timers(reg) if reg.enabled else None
    started = perf_counter()
    inputs = row.nonzero()[0]
    coord = inputs
    slots = np.zeros(row.shape[0], dtype=np.uint8)
    for entry, n_chips, width, rank_dt, word, mask, _flat in steps:
        layer_started = perf_counter()
        coord = entry[coord]  # int32: this layer's chip-major slot
        slots[:] = 0
        slots[coord] = 1
        if word is not None and width == word.itemsize:
            words = slots.view(word)  # one word per chip
            words *= _ONES[word]
            rank = slots[coord]
        elif word is not None:
            rank = _word_ranks(slots[None], n_chips, width, word)[0][coord]
        else:
            ranks = np.cumsum(slots.reshape(n_chips, width), axis=1, dtype=rank_dt)
            rank = ranks.reshape(-1)[coord]
        if mask is not None:
            coord &= mask
        else:
            coord //= np.int32(width)
            coord *= np.int32(width)
        coord -= np.int32(1)
        coord += rank
        if timers is not None:
            timers.stage.observe(perf_counter() - layer_started)
    pos = coord if finish is None else finish[coord]
    if timers is not None:
        timers.plan.observe(perf_counter() - started)
    return inputs, pos


def concentrate_plan_batch(
    plan: StagePlan, valid: np.ndarray, m: int
) -> BatchRouting:
    """Batch routing of a plan-based partial concentrator: each valid
    input's final position if it lands on one of the first ``m`` wires,
    else −1 (and −1 for every invalid input) — the fused batched form of
    ``np.where(valid & (final < m), final, -1)``.  The routing is int32
    (every value is in [−1, m)).  The same walk's final positions become
    the result's :attr:`BatchRouting.occupancy`.

    A single row (``B == 1``, as a flow simulator's cycle sends) takes
    :func:`_walk_row`; every other batch the sparse batch walker."""
    if valid.shape[0] == 1:
        inputs, pos = _walk_row(plan, valid[0])
        routing = np.full(valid.shape, -1, dtype=np.int32)
        routing[0, inputs] = np.where(pos < m, pos, np.int32(-1))
        return BatchRouting(
            n_inputs=valid.shape[1],
            n_outputs=m,
            valid=valid,
            input_to_output=routing,
            carried=(np.zeros(inputs.size, dtype=np.int32), pos),
        )
    flat_idx, rows, pos = _run_plan_sparse_flat(plan, valid)
    routing = np.full(valid.shape, -1, dtype=np.int32)
    routing.reshape(-1)[flat_idx] = np.where(pos < m, pos, np.int32(-1))
    return BatchRouting(
        n_inputs=valid.shape[1],
        n_outputs=m,
        valid=valid,
        input_to_output=routing,
        carried=(rows, pos),
    )


def run_plan_with_faults(
    plan: StagePlan,
    valid: np.ndarray,
    stage_kills,
) -> np.ndarray:
    """Execute a stage plan with kill masks at chip-layer boundaries.

    ``stage_kills`` has one entry per chip layer, in op order: ``None``
    or an ``(n,)`` bool mask of flat positions whose signal is forced
    invalid immediately after that layer's chips concentrate (i.e. on
    the chip output pins, before the following fixed permutation) —
    the functional model of a severed inter-chip wire or a dead chip.
    Any other entry raises :class:`ConfigurationError`.

    Returns ``pos`` with ``pos[b, i]`` = the final flat position of
    input ``i``'s message in trial ``b``, or −1 when the input is
    invalid or its message was killed mid-flight.  Unlike
    :func:`run_plan`, invalid entries are already masked.
    """
    kills = list(stage_kills)
    n_layers = sum(1 for op in plan.ops if not isinstance(op, FixedPermutation))
    if len(kills) != n_layers:
        raise ConfigurationError(
            f"plan {plan.key} has {n_layers} chip layers but "
            f"{len(kills)} kill masks were supplied"
        )
    for layer, kill in enumerate(kills):
        is_array = isinstance(kill, np.ndarray)
        if kill is None or (
            is_array and kill.dtype == np.bool_ and kill.shape == (plan.n,)
        ):
            continue
        got = f"{kill.dtype} {kill.shape}" if is_array else type(kill).__name__
        raise ConfigurationError(
            f"kill mask for chip layer {layer} must be None or an "
            f"({plan.n},) bool array, got {got}"
        )
    flat_idx, _, final = _run_plan_sparse_flat(plan, valid, kills)
    pos = np.full(valid.shape, -1, dtype=np.int64)
    pos.reshape(-1)[flat_idx] = final
    return pos


def run_comparator_plan(plan: ComparatorPlan, valid: np.ndarray) -> np.ndarray:
    """Run a compiled comparator network on a ``(B, n)`` batch.

    Returns ``position_of[b, i]`` = the final wire of input ``i`` in
    trial ``b`` (batched :func:`repro.switches.bitonic.apply_comparator_stages`).
    """
    batch, n = valid.shape
    bits = valid.astype(np.int8)
    # wire_holds[b, w] = the input whose message is on wire w.
    wire_holds = np.broadcast_to(np.arange(n, dtype=np.int64), (batch, n)).copy()
    timers = _walk_timers(obs.get_registry())
    started = perf_counter()
    for hi, lo in plan.stages:
        layer_started = perf_counter()
        bhi, blo = bits[:, hi], bits[:, lo]
        swap = bhi < blo
        bits[:, hi] = np.where(swap, blo, bhi)
        bits[:, lo] = np.where(swap, bhi, blo)
        whi, wlo = wire_holds[:, hi], wire_holds[:, lo]
        wire_holds[:, hi] = np.where(swap, wlo, whi)
        wire_holds[:, lo] = np.where(swap, whi, wlo)
        timers.stage.observe(perf_counter() - layer_started)
    timers.plan.observe(perf_counter() - started)
    position_of = np.empty((batch, n), dtype=np.int64)
    np.put_along_axis(
        position_of,
        wire_holds,
        np.broadcast_to(np.arange(n, dtype=np.int64), (batch, n)).copy(),
        axis=1,
    )
    return position_of


def prefix_ranks_batch(valid: np.ndarray) -> np.ndarray:
    """Batched inclusive popcount prefix: rank (1-based among valid
    inputs) per trial; 0 where invalid."""
    ranks = np.cumsum(valid, axis=1, dtype=np.int64)
    return ranks * valid


def hyperconcentrate_batch(valid: np.ndarray) -> np.ndarray:
    """Batched hyperconcentrator routing: in each trial the t-th valid
    input gets output t; invalid inputs get −1."""
    return perfect_concentrate_batch(valid, valid.shape[1])


def perfect_concentrate_batch(valid: np.ndarray, m: int) -> np.ndarray:
    """Batched perfect n-to-m routing of a ``(B, n)`` bool batch: in
    each trial the t-th valid input gets output t − 1 while t ≤ ``m``;
    every other input gets −1 (int64).  Rows up to 255 wide rank in
    uint8, a plain running sum of the bool bytes (no cast in the
    accumulate); the routing is ``rank · kept − 1``."""
    valid = np.asarray(valid, dtype=bool)
    if valid.shape[1] <= 255:
        ranks = np.add.accumulate(valid.view(np.uint8), axis=1)
    else:
        ranks = np.cumsum(valid, axis=1, dtype=np.int64)
    kept = ranks <= m
    kept &= valid
    routing = np.multiply(ranks, kept, dtype=np.int64)
    routing -= 1
    return routing


def nearsortedness_batch(bits: np.ndarray) -> np.ndarray:
    """Per-row ε of a ``(B, n)`` 0/1 array — the vectorized form of
    :func:`repro.core.nearsort.nearsortedness` (the property tests pin
    the two equal row-for-row).

    Returns the exact smallest ε for which each row is ε-nearsorted
    under the paper's per-value notion: ``max(last 1 position − (k−1),
    k − first 0 position, 0)``.
    """
    arr = np.asarray(bits)
    if arr.ndim != 2:
        raise ConfigurationError(
            f"expected a (B, n) bit array, got shape {arr.shape}"
        )
    if arr.dtype != np.bool_ and arr.size and not ((arr == 0) | (arr == 1)).all():
        raise ConfigurationError("sequence must contain only 0/1 values")
    rows = arr.astype(bool)
    n = rows.shape[1]
    k = rows.sum(axis=1).astype(np.int64)
    # argmax of a bool row is its first True: no (B, n) index arrays.
    last_one = n - 1 - rows[:, ::-1].argmax(axis=1)
    first_zero = (~rows).argmax(axis=1)
    eps_one = np.where(k > 0, last_one - (k - 1), 0)
    eps_zero = np.where(k < n, k - first_zero, 0)
    return np.maximum(np.maximum(eps_one, eps_zero), 0)


def validate_batch_partial_concentration(spec, batch: BatchRouting) -> None:
    """Vectorized form of
    :func:`repro.core.concentration.validate_partial_concentration`:
    asserts the (n, m, α) contract for every trial row at once."""
    if batch.n_inputs != spec.n or batch.n_outputs != spec.m:
        raise ConfigurationError(
            f"batch is {batch.n_inputs}->{batch.n_outputs}, "
            f"spec expects {spec.n}->{spec.m}"
        )
    routing = batch.input_to_output
    m = spec.m
    if routing.size and routing.max() >= m:
        raise ConcentrationError(
            f"routing targets output {int(routing.max())} but the switch "
            f"has {m} outputs"
        )
    has_path = routing >= 0
    if (has_path & ~batch.valid).any():
        raise ConcentrationError("an invalid message was routed to an output")
    k = batch.valid.sum(axis=1)
    routed = has_path.sum(axis=1)  # every path belongs to a valid input
    del has_path
    # Disjointness per row: sort each row's targets in a narrow dtype; an
    # output is reused iff two equal targets (not −1) end up adjacent.
    ordered = np.empty(routing.shape, np.int16 if m < 2**15 else np.int32)
    np.maximum(routing, -1, out=ordered, casting="unsafe")
    ordered.sort(axis=1)
    reused = ordered[:, 1:] == ordered[:, :-1]
    reused &= ordered[:, 1:] >= 0
    reused = reused.any(axis=1)
    if reused.any():
        bad = int(np.argmax(reused))
        raise ConcentrationError(
            f"routing paths are not disjoint in trial {bad} (output reused)"
        )
    cap = spec.guaranteed_capacity
    light = (k <= cap) & (routed < k)
    if light.any():
        bad = int(np.nonzero(light)[0][0])
        raise ConcentrationError(
            f"lightly loaded switch (trial {bad}, k={int(k[bad])} <= "
            f"alpha*m={cap}) dropped {int(k[bad] - routed[bad])} messages"
        )
    heavy = (k > cap) & (routed < cap)
    if heavy.any():
        bad = int(np.nonzero(heavy)[0][0])
        raise ConcentrationError(
            f"congested switch (trial {bad}, k={int(k[bad])}) routed only "
            f"{int(routed[bad])} < alpha*m={cap} messages"
        )
