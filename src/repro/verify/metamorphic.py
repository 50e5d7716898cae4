"""Metamorphic relations between setups of one switch.

These check *relations between runs* rather than absolute answers, so
they need no oracle and hold for every (n, m, α) design:

* **load permutation** — the routed count depends on the valid bits
  only through combinatorics: any permutation of a pattern with
  ``k ≤ αm`` valid bits still routes all k, and a congested pattern
  still routes at least ``⌊αm⌋`` (the contract, reached through a
  second independent input);
* **monotone growth** — turning one more input valid never decreases
  the routed count (adding a message cannot un-route others);
* **payload independence** — ``route()`` fills the same output slots
  whatever the message payloads are: routing is a function of the
  valid bits alone, and permuting or replacing the *invalid* entries
  (all ``None``) changes nothing.

Every relation runs as batch rows.  The first two send every permuted
and grown variant of a block of patterns through one ``setup_batch``.
Payload independence routes the block's rows twice, once per payload
family (the names ``"a{j}"`` and the numbers ``j``), each time in one
``route_rows`` call: the scalar oracle routes every row at once, and
the payloads still travel row by row as Python objects.
"""

from __future__ import annotations

import numpy as np


def metamorphic_failures(
    switch,
    valid: np.ndarray,
    rng: np.random.Generator,
    routed: np.ndarray | None = None,
) -> list:
    """Run every metamorphic relation on one pattern, returning its
    failure messages, or on each row of a ``(B, n)`` batch, returning
    one message list per row.

    ``routed`` holds the rows' routed counts when the caller has set
    them up already (the certifier passes its chunk's batch); otherwise
    one ``setup_batch`` computes them.  ``rng`` draws one
    ``permutation(n)`` per row, in row order.
    """
    valid = np.asarray(valid, dtype=bool)
    if valid.ndim == 1:
        return metamorphic_failures(switch, valid[None, :], rng, routed)[0]
    rows, n = valid.shape
    failures: list[list[str]] = [[] for _ in range(rows)]
    if not rows:
        return failures
    if routed is None:
        routed = switch.setup_batch(valid).routed_counts
    shuffled = np.stack([row[rng.permutation(n)] for row in valid])
    growable = np.flatnonzero(~valid.all(axis=1))
    grown = valid[growable]
    first_idle = (~grown).argmax(axis=1)
    grown[np.arange(growable.size), first_idle] = True
    counts = switch.setup_batch(np.concatenate([shuffled, grown])).routed_counts
    cap = switch.spec.guaranteed_capacity

    # -- load permutation ----------------------------------------------
    for i, (k, base, permuted) in enumerate(
        zip(valid.sum(axis=1).tolist(), np.asarray(routed).tolist(),
            counts[:rows].tolist())
    ):
        if k <= cap and permuted != base:
            failures[i].append(
                f"routed count changed under permutation at k={k} <= cap={cap}: "
                f"{base} -> {permuted}"
            )
        if k > cap and (base < cap or permuted < cap):
            failures[i].append(
                f"congested routed count fell below cap={cap} "
                f"(original {base}, permuted {permuted})"
            )

    # -- monotone growth: one more valid bit, at the first idle input --
    for i, idle, after in zip(
        growable.tolist(), first_idle.tolist(), counts[rows:].tolist()
    ):
        before = int(routed[i])
        if after < before:
            failures[i].append(
                f"routed count decreased when input {idle} became valid: "
                f"{before} -> {after}"
            )

    # -- payload independence: one route_rows call per payload family --
    names = np.array([f"a{j}" for j in range(n)], dtype=object)
    numbers = np.arange(n).astype(object)
    # One byte per output slot, so each family's routed payload lists
    # are freed before the next family is routed.
    filled = [
        [bytes(slot is not None for slot in out)
         for out in switch.route_rows(np.where(valid, payload, None).tolist())]
        for payload in (names, numbers)
    ]
    for i, (a, b) in enumerate(zip(*filled)):
        if a != b:
            failures[i].append(
                "route() filled different output slots for different payloads"
            )
    return failures
