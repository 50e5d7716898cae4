"""Parameter-sweep driver for the benches.

:func:`sweep` runs a measurement across parameter values, optionally
over the persistent worker-process pool.  **Worker determinism
contract:** when ``seed`` is given, each parameter value gets its own
child of ``np.random.SeedSequence(seed).spawn(...)``, assigned by
*position in the parameter list* — never by worker or completion order
— so the results are identical for any ``workers`` count (including
serial).

``workers > 1`` fans the calls out through
:func:`repro.engine.backends.supervisor.fan_out`, so ``measure`` must be
picklable (a module-level function): a dead worker costs a retry, not
the sweep, and each call's metrics come back as a portable
``repro.obs/worker@1`` snapshot merged into the parent registry *in
parameter order* with ``worker=sweep-<index>`` provenance labels.
Counter and histogram totals land in their original keys, so journal
replay parity holds across parallel runs.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

import numpy as np


def _sweep_job(job: dict) -> dict[str, object]:
    """Body of one parameter measurement (inline or in a pool worker)."""
    value, extra = job["call"]
    row: dict[str, object] = {"param": value}
    row.update(job["measure"](value, *extra))
    return row


def sweep(
    parameters: Iterable[object],
    measure: Callable[..., Mapping[str, object]],
    *,
    workers: int = 0,
    seed: int | None = None,
) -> list[dict[str, object]]:
    """Run ``measure`` across ``parameters`` and collect dict rows,
    tagging each with its parameter value under the key ``param``.

    ``measure`` is called as ``measure(value)``; when ``seed`` is given
    it is called as ``measure(value, rng)`` with a per-parameter
    deterministic generator (see module docstring).  ``workers > 1``
    fans the calls out over the supervised process pool (``measure``
    must then be picklable); rows always come back in parameter order,
    and any metrics the calls emit merge back into the caller's
    registry in that same order (see module docstring).
    """
    params = list(parameters)
    if seed is not None:
        children = np.random.SeedSequence(seed).spawn(len(params))
        calls = [
            (value, (np.random.default_rng(child),))
            for value, child in zip(params, children)
        ]
    else:
        calls = [(value, ()) for value in params]
    jobs = [{"call": call, "measure": measure} for call in calls]
    if workers <= 1 or len(jobs) <= 1:
        return [_sweep_job(job) for job in jobs]

    from repro.engine.backends.supervisor import fan_out

    return list(fan_out(_sweep_job, jobs, label="sweep", workers=workers))
