"""Exhaustive and stratified certification of concentrator switches.

Where :func:`repro.testing.check_concentrator` samples random trials,
:func:`certify_switch` *enumerates*: for small n every one of the
``2^n`` valid-bit patterns goes through the batch engine and the full
contract — (n, m, α) routing, path disjointness, the ε-nearsortedness
bound, scalar/batch/gate differential parity, and the metamorphic
relations.  The result is a :class:`~repro.verify.certificate.Certificate`
that states exactly what was proven and on how much evidence.

Two tiers (see ``docs/verification.md``):

* ``exhaustive`` — ``2^n ≤ max_total``: every pattern, every k;
* ``stratified`` — larger plan-based switches: every load level
  ``k ∈ [0, n]`` is covered, exhaustively when ``C(n, k)`` fits the
  per-k budget and by a deterministic corner+random sample otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from repro import obs
from repro.core.concentration import partial_concentration_failures
from repro.engine import nearsortedness_batch, validate_batch_partial_concentration
from repro.errors import ConfigurationError, ReproError
from repro.verify.certificate import Certificate, KSlice, Violation
from repro.verify.differential import (
    gate_parity_failures,
    netlist_for,
    output_occupancy,
    scalar_parity_failures,
)
from repro.verify.metamorphic import metamorphic_failures
from repro.verify.patterns import (
    DEFAULT_CHUNK,
    all_patterns,
    pattern_count,
    pattern_hex,
    patterns_with_k,
)


@dataclass(frozen=True)
class CertifyOptions:
    """Budgets and toggles for one certification run."""

    #: Enumerate all ``2^n`` patterns when that total fits here.
    max_total: int = 1 << 16
    #: Stratified tier: per-k pattern budget.
    max_per_k: int = 512
    #: Patterns per ``setup_batch`` call.
    chunk: int = DEFAULT_CHUNK
    #: Scalar-oracle parity checks spread across the run (0 disables).
    scalar_rows: int = 256
    #: Metamorphic relation checks spread across the run (0 disables).
    metamorphic_rows: int = 48
    #: Compare against the gate-level netlist where one exists.
    check_gates: bool = True
    #: Stop after recording this many violations.
    max_violations: int = 20
    #: Seed for the metamorphic permutations (patterns are deterministic).
    seed: int = 0x5EED


def _iter_tiers(
    n: int, options: CertifyOptions
) -> tuple[str, Iterator[tuple[int | None, bool, Iterator[np.ndarray]]]]:
    """The pattern source: ``(tier, slices)`` where each slice is
    ``(k, exhaustive, chunks)`` (k None = mixed loads, full tier)."""
    if (1 << n) <= options.max_total:
        return "exhaustive", iter([(None, True, all_patterns(n, chunk=options.chunk))])
    return "stratified", (
        (k, *patterns_with_k(n, k, limit=options.max_per_k, chunk=options.chunk))
        for k in range(n + 1)
    )


def _rechunk(parts: Iterator[np.ndarray], size: int) -> Iterator[np.ndarray]:
    """Regroup a stream of row blocks into ``size``-row chunks, in
    order, across block boundaries (only the last chunk may be short)."""
    held: list[np.ndarray] = []
    for part in parts:
        held.append(part)
        while sum(block.shape[0] for block in held) >= size:
            rows = np.concatenate(held)
            yield rows[:size]
            held = [rows[size:]]
    if sum(block.shape[0] for block in held):
        yield np.concatenate(held)


def _planned_total(n: int, options: CertifyOptions) -> int:
    if (1 << n) <= options.max_total:
        return 1 << n
    return sum(min(pattern_count(n, k), options.max_per_k) for k in range(n + 1))


def _picked(offset: int, size: int, stride: int) -> np.ndarray:
    """Chunk rows whose global pattern offset is a multiple of stride."""
    rows = np.arange(size)
    return rows[(offset + rows) % stride == 0]


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    """Chunk-local metamorphic generator, derived from the run seed and
    the chunk's position — never from a shared sequential stream — so
    serial and sharded certification draw identical permutations."""
    return np.random.default_rng(np.random.SeedSequence(entropy=[seed, index]))


def _examine_chunk(switch, chunk: np.ndarray, config: dict) -> dict:
    """Run every check of one pattern chunk and return a pure-data
    report (pickle-safe: this is the unit of work the multiprocess
    certifier ships to pool workers).

    ``sections`` lists ``(check, break_on_cap, events)`` in the
    canonical check order, each event being ``(k, pattern_hex,
    message)`` — exactly what :func:`certify_switch`'s fold turns into
    :class:`Violation` records, so serial and parallel certification
    produce identical certificates.
    """
    spec = switch.spec
    offset = config["offset"]
    batch_size = chunk.shape[0]
    ks = chunk.sum(axis=1).astype(np.int64)
    k_counts: dict[int, int] = {}
    for k, count in zip(*np.unique(ks, return_counts=True)):
        k_counts[int(k)] = k_counts.get(int(k), 0) + int(count)
    checks = {"contract": 0, "epsilon": 0, "scalar_parity": 0, "gate_parity": 0,
              "metamorphic": 0}
    sections: list[tuple[str, bool, list[tuple[int, str, str]]]] = []
    report = {
        "index": config["index"],
        "batch_size": batch_size,
        "k_counts": k_counts,
        "checks": checks,
        "worst_eps": None,
        "sections": sections,
    }

    def event(k: int, row: np.ndarray, message: str) -> tuple[int, str, str]:
        return int(k), pattern_hex(row), message

    # -- batch contract ------------------------------------------------
    try:
        batch = switch.setup_batch(chunk)
    except ReproError as exc:
        # Name a pattern that raises on its own, so the record replays;
        # a chunk spans many loads, and its first row may route fine.
        bad = 0
        for i in range(batch_size):
            try:
                switch.setup_batch(chunk[i : i + 1])
            except ReproError as row_exc:
                bad, exc = i, row_exc
                break
        sections.append(
            ("contract", True,
             [event(ks[bad], chunk[bad], f"setup_batch raised {exc!r}")])
        )
        return report
    checks["contract"] += batch_size
    contract_events: list[tuple[int, str, str]] = []
    try:
        validate_batch_partial_concentration(spec, batch)
    except ReproError:
        for i, msg in partial_concentration_failures(
            spec, chunk, batch.input_to_output
        ):
            contract_events.append(event(ks[i], chunk[i], msg))
    sections.append(("contract", True, contract_events))

    # -- ε-nearsortedness against the theorem bound --------------------
    occupancy = output_occupancy(switch, batch)
    epsilon_bound = config["epsilon_bound"]
    if config["has_nearsort"] and occupancy is not None:
        eps = nearsortedness_batch(occupancy)
        checks["epsilon"] += batch_size
        report["worst_eps"] = int(eps.max(initial=0))
        sections.append(
            ("epsilon", True,
             [event(ks[i], chunk[i],
                    f"measured epsilon {int(eps[i])} exceeds bound "
                    f"{epsilon_bound}")
              for i in np.flatnonzero(eps > epsilon_bound)])
        )

    # -- differential: scalar oracle -----------------------------------
    scalar_stride = config["scalar_stride"]
    if scalar_stride:
        picked = _picked(offset, batch_size, scalar_stride)
        checks["scalar_parity"] += picked.size
        sections.append(
            ("scalar-parity", True,
             [event(ks[i], chunk[i], msg)
              for i, msg in scalar_parity_failures(
                  switch, chunk, batch.input_to_output, picked)])
        )

    # -- differential: gate-level netlist ------------------------------
    netlist = netlist_for(switch) if config["check_gates"] else None
    if netlist is not None and occupancy is not None:
        checks["gate_parity"] += batch_size
        sections.append(
            ("gate-parity", True,
             [event(ks[i], chunk[i], msg)
              for i, msg in gate_parity_failures(*netlist, chunk, occupancy)])
        )

    # -- metamorphic relations -----------------------------------------
    meta_stride = config["meta_stride"]
    if meta_stride:
        rng = _chunk_rng(config["seed"], config["index"])
        picked = _picked(offset, batch_size, meta_stride)
        checks["metamorphic"] += picked.size
        found = metamorphic_failures(
            switch, chunk[picked], rng, batch.routed_counts[picked]
        )
        # The cap never stops the metamorphic scan (matching the
        # historical recording semantics), hence break_on_cap=False.
        sections.append(
            ("metamorphic", False,
             [event(ks[i], chunk[i], msg)
              for i, messages in zip(picked, found) for msg in messages])
        )
    return report


def _certify_chunk_job(job: dict) -> dict:
    """Pool-worker entry point: examine one shipped chunk."""
    return _examine_chunk(job["switch"], job["chunk"], job["config"])


def certify_switch(
    switch,
    *,
    design: str = "custom",
    params: dict | None = None,
    options: CertifyOptions | None = None,
    workers: int = 1,
    checkpoint: str | None = None,
    supervisor_policy=None,
) -> Certificate:
    """Certify one switch instance; never raises on contract failures —
    every violation is recorded in the returned certificate.

    ``workers > 1`` fans the pattern chunks over the persistent
    process pool (:mod:`repro.engine.backends.pool`), supervised
    (:mod:`repro.engine.backends.supervisor`): a worker death or shard
    deadline costs a retry, never the run.  Chunk boundaries, check
    strides, and the per-chunk metamorphic generators depend only on
    the options, and the chunk reports are folded strictly in chunk
    order, so the certificate JSON is byte-identical for every worker
    count — and for any schedule of retries.

    ``checkpoint`` names a JSONL journal
    (:mod:`repro.verify.checkpoint`): each completed chunk report is
    persisted as it lands, finished chunks are skipped on resume, and
    the stored reports fold into the same positions a clean run would
    have put them — identical certificate, only unfinished work redone.
    """
    options = options or CertifyOptions()
    if options.chunk < 1:
        raise ConfigurationError(f"chunk must be at least 1, got {options.chunk}")
    spec = switch.spec
    has_nearsort = hasattr(switch, "final_positions") and hasattr(
        switch, "epsilon_bound"
    )
    tier, slices = _iter_tiers(switch.n, options)
    total_planned = _planned_total(switch.n, options)
    scalar_stride = (
        max(1, total_planned // options.scalar_rows) if options.scalar_rows else 0
    )
    meta_stride = (
        max(1, total_planned // options.metamorphic_rows)
        if options.metamorphic_rows
        else 0
    )
    netlist = netlist_for(switch) if options.check_gates else None

    cert = Certificate(
        design=design,
        params=dict(params or {}),
        switch=repr(switch),
        n=switch.n,
        m=switch.m,
        alpha=float(spec.alpha),
        guaranteed_capacity=int(spec.guaranteed_capacity),
        tier=tier,
        paths=["batch"]
        + (["scalar"] if scalar_stride else [])
        + (["gates"] if netlist is not None else []),
        epsilon_bound=int(switch.epsilon_bound) if has_nearsort else None,
        worst_epsilon=0 if has_nearsort else None,
    )
    checks = {"contract": 0, "epsilon": 0, "scalar_parity": 0, "gate_parity": 0,
              "metamorphic": 0}
    k_counts: dict[int, int] = {}
    k_exhaustive: dict[int, bool] = {}
    seen = 0

    base_config = {
        "has_nearsort": has_nearsort,
        "epsilon_bound": cert.epsilon_bound,
        "scalar_stride": scalar_stride,
        "meta_stride": meta_stride,
        "check_gates": netlist is not None,
        "seed": options.seed,
    }

    def rows() -> Iterator[np.ndarray]:
        for k_slice, exhaustive, chunks in slices:
            if k_slice is not None:
                k_exhaustive[k_slice] = exhaustive
            yield from chunks

    def tasks() -> Iterator[tuple[dict, np.ndarray]]:
        """(config, chunk) pairs in enumeration order: each chunk holds
        up to ``options.chunk`` rows, filled across k slices, and knows
        the pattern offset it starts at."""
        offset = 0
        for index, chunk in enumerate(_rechunk(rows(), options.chunk)):
            yield dict(base_config, index=index, offset=offset), chunk
            offset += chunk.shape[0]

    def record(check: str, k: int, hexpat: str, message: str) -> bool:
        """Add one violation; returns False once the cap is hit."""
        obs.counter("verify.violations", design=design, check=check).inc()
        if len(cert.violations) >= options.max_violations:
            cert.violations_truncated = True
            return False
        cert.violations.append(
            Violation(check=check, k=k, pattern=hexpat, message=message)
        )
        return True

    def fold(report: dict) -> None:
        nonlocal seen
        batch_size = report["batch_size"]
        for k, count in report["k_counts"].items():
            k_counts[k] = k_counts.get(k, 0) + count
        obs.counter("verify.patterns", design=design).inc(batch_size)
        for name, delta in report["checks"].items():
            checks[name] += delta
        if report["worst_eps"] is not None:
            cert.worst_epsilon = max(
                int(cert.worst_epsilon or 0), report["worst_eps"]
            )
        for check, break_on_cap, events in report["sections"]:
            for k, hexpat, message in events:
                if not record(check, k, hexpat, message) and break_on_cap:
                    break
        seen += batch_size

    ckpt = None
    if checkpoint is not None:
        from repro.verify.checkpoint import CertifyCheckpoint, certify_fingerprint

        ckpt = CertifyCheckpoint(
            checkpoint,
            certify_fingerprint(design, params or {}, switch.n, switch.m, options),
        )

    try:
        with obs.span("verify.certify", design=design, n=switch.n, m=switch.m):
            if workers > 1:
                _certify_parallel(
                    switch, list(tasks()), fold, cert, workers,
                    policy=supervisor_policy, checkpoint=ckpt,
                )
            else:
                for config, chunk in tasks():
                    if cert.violations_truncated:
                        break
                    if ckpt is not None and ckpt.has(config["index"]):
                        fold(ckpt.report(config["index"]))
                        continue
                    report = _examine_chunk(switch, chunk, config)
                    if ckpt is not None:
                        ckpt.record(config["index"], report)
                    fold(report)
    finally:
        if ckpt is not None:
            ckpt.close()

    cert.checks = checks
    cert.total_patterns = seen
    cert.per_k = [
        # Every k of the full tier is exhaustive; stratified slices
        # record their own flag as they start.
        KSlice(k=k, count=k_counts[k],
               exhaustive=k_exhaustive.get(k, tier == "exhaustive"))
        for k in sorted(k_counts)
    ]
    return cert


def _certify_parallel(
    switch, tasks, fold, cert, workers: int, *, policy=None, checkpoint=None
) -> None:
    """Fan chunk tasks out over the supervised worker pool and fold the
    reports in chunk order, stopping at violation truncation like the
    serial loop.  Worker metric snapshots merge as their chunks fold,
    with ``certify-<chunk>`` provenance, so chunks past the truncation
    point merge nothing.

    A ``checkpoint`` journal shifts work two ways: chunks it already
    holds are never dispatched (their stored reports fold in place), and
    every fresh report is persisted the moment its shard completes —
    *completion* order, because that is what survives a kill; the fold
    below still runs in chunk order.
    """
    from repro.engine.backends.supervisor import fan_out
    from repro.engine.plan import plan_key

    todo = [
        (config, chunk)
        for config, chunk in tasks
        if checkpoint is None or not checkpoint.has(config["index"])
    ]
    dispatched = {config["index"] for config, _ in todo}

    def persist(position: int, outcome) -> None:
        if checkpoint is not None:
            checkpoint.record(todo[position][0]["index"], outcome[0])

    fresh = fan_out(
        _certify_chunk_job,
        [
            {"switch": switch, "chunk": chunk, "config": config,
             "shard": config["index"]}
            for config, chunk in todo
        ],
        label="certify",
        workers=workers,
        plan_keys=[plan_key(switch)],
        policy=policy,
        on_result=persist,
    )
    for config, _ in tasks:
        if cert.violations_truncated:
            break
        index = config["index"]
        fold(next(fresh) if index in dispatched else checkpoint.report(index))


def _checkpoint_path(checkpoint_dir, name: str, switch) -> str | None:
    """One journal per certified instance: the (design, n, m) triple is
    in the filename for operators, the full options fingerprint is in
    the header for safety."""
    if checkpoint_dir is None:
        return None
    from pathlib import Path

    return str(
        Path(checkpoint_dir) / f"{name}-n{switch.n}-m{switch.m}.jsonl"
    )


def certify_design(
    name: str,
    params: dict,
    *,
    options: CertifyOptions | None = None,
    workers: int = 1,
    checkpoint_dir: str | None = None,
) -> Certificate:
    """Build a registered design and certify it."""
    from repro.switches.registry import build_switch

    switch = build_switch(name, **params)
    return certify_switch(
        switch,
        design=name,
        params=params,
        options=options,
        workers=workers,
        checkpoint=_checkpoint_path(checkpoint_dir, name, switch),
    )


def certify_registry(
    *,
    designs: list[str] | None = None,
    options: CertifyOptions | None = None,
    workers: int = 1,
    checkpoint_dir: str | None = None,
) -> list[Certificate]:
    """Certify every registered design at its declared certification
    configs (see :func:`repro.switches.registry.certify_configs`)."""
    from repro.switches.registry import certify_configs

    certificates = []
    for name, params in certify_configs(designs):
        certificates.append(
            certify_design(
                name,
                params,
                options=options,
                workers=workers,
                checkpoint_dir=checkpoint_dir,
            )
        )
    return certificates


def quick_options() -> CertifyOptions:
    """A cheap profile for tests and smoke runs: full enumeration only
    up to 2^12, small per-k budgets."""
    return replace(
        CertifyOptions(),
        max_total=1 << 12,
        max_per_k=64,
        scalar_rows=32,
        metamorphic_rows=8,
    )
