"""Valid-bit pattern enumeration for the certification tiers.

The certifier proves the paper's combinatorial contracts by running a
switch over *every* valid-bit pattern when that is feasible, and over a
deterministic stratified cover otherwise:

* **full enumeration** — all ``2^n`` patterns for ``n ≤ ~16``, emitted
  as ``(B, n)`` bool chunks for the batch engine;
* **per-k enumeration** — all ``C(n, k)`` patterns with exactly ``k``
  valid bits when that count fits a budget (the contract of Section 1
  is stated per k, so this is the natural stratification);
* **stratified sampling** — when ``C(n, k)`` exceeds the budget, a
  deterministic sample seeded by ``(n, k)`` plus the structural corner
  patterns (leading block, trailing block, even spread) that the
  nearsorting proofs treat as extremal.

Everything here is deterministic: the same call always yields the same
patterns, so a certificate names exactly the evidence it checked.
"""

from __future__ import annotations

import math
from itertools import combinations, islice
from typing import Iterator

import numpy as np

from repro._util.rng import default_rng
from repro.errors import ConfigurationError

#: Patterns-per-chunk fed to ``setup_batch`` by the iterators below.
DEFAULT_CHUNK = 4096

#: Seed domain for the stratified samplers (mixed with (n, k)).
_SAMPLE_SEED = 0xCE27


def pattern_count(n: int, k: int) -> int:
    """``C(n, k)``: the number of valid-bit patterns with exactly k 1s."""
    if not 0 <= k <= n:
        raise ConfigurationError(f"k={k} out of range for n={n}")
    return math.comb(n, k)


def all_patterns(n: int, *, chunk: int = DEFAULT_CHUNK) -> Iterator[np.ndarray]:
    """Every one of the ``2^n`` valid-bit patterns, in numeric order,
    as ``(B, n)`` bool chunks (bit i of the pattern index = input i)."""
    if n < 0:
        raise ConfigurationError(f"n must be non-negative, got {n}")
    if n > 24:
        raise ConfigurationError(
            f"refusing to enumerate 2^{n} patterns; use per-k enumeration"
        )
    total = 1 << n
    shifts = np.arange(n, dtype=np.uint32)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        yield ((idx[:, None] >> shifts) & 1).astype(bool)


def _corner_patterns(n: int, k: int) -> np.ndarray:
    """The structural corners for load k: leading block, trailing
    block, and an evenly spread pattern (extremal for nearsorting)."""
    corners = np.zeros((3, n), dtype=bool)
    corners[0, :k] = True
    corners[1, n - k :] = True
    if k:
        corners[2, np.linspace(0, n - 1, num=k).round().astype(np.int64)] = True
    # Distinct rows in ``np.unique(axis=0)`` order: sorted by row bytes.
    distinct = {row.tobytes(): row for row in corners}
    return np.stack([distinct[key] for key in sorted(distinct)])


def patterns_with_k(
    n: int,
    k: int,
    *,
    limit: int | None = None,
    chunk: int = DEFAULT_CHUNK,
) -> tuple[bool, Iterator[np.ndarray]]:
    """Patterns with exactly ``k`` valid bits.

    Returns ``(exhaustive, chunks)``.  When ``C(n, k) ≤ limit`` (or no
    limit is given) every pattern is enumerated and ``exhaustive`` is
    True; otherwise a deterministic stratified sample of ``limit``
    patterns (corners first) is produced.
    """
    total = pattern_count(n, k)
    if limit is None or total <= limit:
        return True, _exact_k_chunks(n, k, chunk)
    return False, _sampled_k_chunks(n, k, limit, chunk)


def _exact_k_chunks(n: int, k: int, chunk: int) -> Iterator[np.ndarray]:
    combos = combinations(range(n), k)
    while True:
        block = list(islice(combos, chunk))
        if not block:
            return
        out = np.zeros((len(block), n), dtype=bool)
        if k:
            rows = np.repeat(np.arange(len(block)), k)
            out[rows, np.array(block, dtype=np.int64).reshape(-1)] = True
        yield out


def _sampled_k_chunks(n: int, k: int, limit: int, chunk: int) -> Iterator[np.ndarray]:
    corners = _corner_patterns(n, k)
    rng = default_rng((_SAMPLE_SEED << 20) ^ (n << 8) ^ k)
    remaining = max(0, limit - corners.shape[0])
    random = np.zeros((remaining, n), dtype=bool)
    if remaining and k:
        # Row-wise k-subsets: the first k slots of a random argsort.
        picks = rng.random((remaining, n)).argsort(axis=1)[:, :k]
        random[np.repeat(np.arange(remaining), k), picks.reshape(-1)] = True
    sample = np.concatenate([corners, random], axis=0)[:limit]
    for start in range(0, sample.shape[0], chunk):
        yield sample[start : start + chunk]


def pattern_hex(valid: np.ndarray) -> str:
    """Compact reproducible encoding of one valid-bit pattern: the hex
    of its big-endian packed bits (decode with :func:`pattern_from_hex`)."""
    bits = np.asarray(valid).astype(np.uint8).reshape(-1)
    return np.packbits(bits).tobytes().hex()


def pattern_from_hex(encoded: str, n: int) -> np.ndarray:
    """Inverse of :func:`pattern_hex`: the length-``n`` bool pattern."""
    packed = np.frombuffer(bytes.fromhex(encoded), dtype=np.uint8)
    bits = np.unpackbits(packed)
    if bits.size < n:
        raise ConfigurationError(f"encoded pattern too short for n={n}")
    return bits[:n].astype(bool)
