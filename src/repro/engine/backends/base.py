"""The deterministic trial-stream contract of the sharded backend.

* :class:`StreamSpec` — a stream of random trials, split into shards
  whose bounds depend only on the trial count;
* :func:`shard_blocks` — the shard trial generator: each shard draws
  its rows from its own ``SeedSequence(seed).spawn(n_shards)`` child,
  keyed by shard position, and yields them in row blocks of about
  :data:`BLOCK_CELLS` cells, so no ``(shard_trials, n)`` array is built;
* :func:`summarize_batch` / :class:`StreamSummary` — the O(1) per-block
  reduction and its associative, commutative fold.

Together these make a stream's ε/α results identical for any worker
count: :class:`~repro.engine.backends.sharded.ShardedBackend` runs the
same shard plan inline at ``workers == 1`` and over the process pool
otherwise.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.core.concentration import partial_concentration_failures
from repro.errors import ConfigurationError, ReproError

#: Trials per shard when a stream spec does not say otherwise.  Small
#: enough that peak memory stays flat at 10^7+ trials, large enough
#: that the per-shard numpy dispatch overhead is noise.
DEFAULT_SHARD_TRIALS = 4096

#: Cells (rows × n) per row block of a stream shard: a block's float64
#: draw is 2 MB, so a shard's working set stays cache-sized and flat in
#: n (256 rows at n=1024, 64 at n=4096, one row past n=2^17).
BLOCK_CELLS = 2**18


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``--workers`` value: ``0`` (or None) means "one per
    core", negatives are configuration errors (CLI exit code 2)."""
    if workers is None:
        workers = 0
    workers = int(workers)
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


@dataclass(frozen=True)
class StreamSpec:
    """A deterministic stream of random trials.

    ``load="mixed"`` draws a per-trial validity threshold first (the
    ``repro verify`` distribution); ``load="half"`` is the flat p=0.5
    throughput workload of the engine benches.
    """

    trials: int
    seed: int = 0
    load: str = "mixed"
    shard_trials: int = DEFAULT_SHARD_TRIALS
    #: Validate the (n, m, alpha) contract on every shard.
    check_contract: bool = True
    #: Measure worst-case ε-nearsortedness where the switch tracks it.
    measure_epsilon: bool = True

    def shards(self) -> list[tuple[int, int]]:
        """``(start, stop)`` trial bounds per shard.  The split depends
        only on ``trials`` and ``shard_trials`` — never on the worker
        count — which is what makes stream results worker-invariant."""
        if self.trials < 0:
            raise ConfigurationError(f"trials must be >= 0, got {self.trials}")
        if self.shard_trials < 1:
            raise ConfigurationError(
                f"shard_trials must be >= 1, got {self.shard_trials}"
            )
        return [
            (start, min(start + self.shard_trials, self.trials))
            for start in range(0, self.trials, self.shard_trials)
        ]


def shard_blocks(
    n: int, count: int, entropy: np.random.SeedSequence, load: str
) -> Iterator[tuple[int, np.ndarray]]:
    """The shard trial generator: ``count`` rows of valid bits drawn
    from a generator seeded by the shard's own SeedSequence child,
    yielded as ``(offset, block)`` pairs of at most
    ``max(1, BLOCK_CELLS // n)`` rows each.

    ``mixed`` draws the whole shard's per-trial thresholds first, then
    the rows block by block.  Consecutive ``rng.random`` calls return
    the same doubles as one call, so the blocks concatenate to the
    one-shot ``rng.random((count, n)) < thresholds`` bit for bit.
    """
    rng = np.random.default_rng(entropy)
    if load == "half":
        thresholds = np.full((count, 1), 0.5)
    elif load == "mixed":
        thresholds = rng.random((count, 1))
    else:
        raise ConfigurationError(f"unknown stream load model {load!r}")
    rows = max(1, BLOCK_CELLS // n)
    for offset in range(0, count, rows):
        stop = min(offset + rows, count)
        yield offset, rng.random((stop - offset, n)) < thresholds[offset:stop]


@dataclass(frozen=True)
class StreamSummary:
    """The streaming reduction's fold state: everything ``repro
    verify`` needs, at O(1) memory per shard."""

    trials: int = 0
    shards: int = 0
    routed_total: int = 0
    min_routed: int | None = None
    worst_epsilon: int | None = None
    violations: int = 0
    #: First few violation messages (the fold caps this).
    messages: tuple[str, ...] = field(default=())

    MAX_MESSAGES = 8

    def fold(self, other: "StreamSummary") -> "StreamSummary":
        """Merge two shard summaries (associative and commutative, so
        as-completed folding is safe)."""

        def _opt(a, b, op):
            if a is None:
                return b
            if b is None:
                return a
            return op(a, b)

        return StreamSummary(
            trials=self.trials + other.trials,
            shards=self.shards + other.shards,
            routed_total=self.routed_total + other.routed_total,
            min_routed=_opt(self.min_routed, other.min_routed, min),
            worst_epsilon=_opt(self.worst_epsilon, other.worst_epsilon, max),
            violations=self.violations + other.violations,
            messages=(self.messages + other.messages)[: self.MAX_MESSAGES],
        )


def summarize_batch(
    switch,
    batch,
    *,
    start: int = 0,
    check_contract: bool = True,
    measure_epsilon: bool = True,
) -> StreamSummary:
    """Reduce one block's :class:`~repro.engine.batch.BatchRouting` to a
    :class:`StreamSummary`; ``start`` is the block's first trial index
    in the stream.

    Contract violations are *counted*, never raised — the caller decides
    whether a violated stream is an exit code or a recorded finding.
    The whole block is checked at once; only a block that fails is
    re-checked row by row, for messages that name the stream trial and
    its pattern.
    """
    from repro.engine.batch import (
        nearsortedness_batch,
        validate_batch_partial_concentration,
    )
    from repro.verify.differential import output_occupancy
    from repro.verify.patterns import pattern_hex

    routed = batch.routed_counts
    failures: list[tuple[int, str]] = []
    if check_contract:
        spec = switch.spec
        try:
            validate_batch_partial_concentration(spec, batch)
        except ReproError:
            failures = partial_concentration_failures(
                spec, batch.valid, batch.input_to_output
            )
    worst_eps: int | None = None
    if measure_epsilon and hasattr(switch, "final_positions"):
        occupancy = output_occupancy(switch, batch)
        if occupancy is not None:
            worst_eps = int(nearsortedness_batch(occupancy).max(initial=0))
    return StreamSummary(
        trials=len(batch),
        shards=1,
        routed_total=int(routed.sum()),
        min_routed=int(routed.min()) if routed.size else None,
        worst_epsilon=worst_eps,
        violations=len(failures),
        messages=tuple(
            f"trial {start + i} [{pattern_hex(batch.valid[i])}]: {msg}"
            for i, msg in failures[: StreamSummary.MAX_MESSAGES]
        ),
    )


__all__ = [
    "BLOCK_CELLS",
    "DEFAULT_SHARD_TRIALS",
    "StreamSpec",
    "StreamSummary",
    "resolve_workers",
    "shard_blocks",
    "summarize_batch",
]
