"""Self-describing run metadata records.

The benchmark harness attaches one of these records to every bench so
a BENCH_*.json trajectory carries its own provenance: which commit
produced it (and whether the tree was dirty), which seed drove it, how
long it took, which interpreter/numpy built the numbers, and the
metric snapshot the instrumented code emitted while it ran.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from functools import lru_cache
from pathlib import Path

from repro.obs.registry import NullRegistry, Registry

#: Bumped when the record layout changes.  Version 2 added
#: ``git_dirty`` and ``numpy`` (version 1 records carried only the SHA
#: and Python-level metadata); version 3 added ``cpu_count``, making
#: the 1-core caveat in docs/performance.md machine-checkable.
RECORD_VERSION = 3


def _git(args: list[str], cwd: str | None) -> str | None:
    where = cwd if cwd is not None else str(Path(__file__).resolve().parent)
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=where,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


@lru_cache(maxsize=None)
def git_sha(cwd: str | None = None) -> str | None:
    """HEAD commit of the repo containing ``cwd`` (or this file), or
    None outside a git checkout / without git."""
    out = _git(["rev-parse", "HEAD"], cwd)
    sha = out.strip() if out is not None else ""
    return sha or None


def git_dirty(cwd: str | None = None) -> bool | None:
    """Whether the working tree has uncommitted changes, or None
    outside a git checkout / without git.  Deliberately uncached: the
    tree can become dirty between two records of the same process."""
    out = _git(["status", "--porcelain"], cwd)
    if out is None:
        return None
    return bool(out.strip())


def numpy_version() -> str:
    import numpy

    return numpy.__version__


def environment() -> dict:
    """The provenance block shared by run records and bench-trajectory
    records: commit, dirty-tree flag, and toolchain versions."""
    return {
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "platform": platform.platform(),
        # Scaling benches mean nothing without knowing how many cores
        # the host actually had (the docs/performance.md 1-core caveat).
        "cpu_count": os.cpu_count(),
    }


def run_metadata(
    *,
    run_id: str,
    seed: int | None,
    wall_s: float,
    registry: Registry | NullRegistry | None = None,
    started_at: float | None = None,
    extra: dict | None = None,
) -> dict:
    """Build one JSON-serialisable run record.

    ``run_id`` names the run (a pytest node id for benches), ``seed``
    is the RNG seed that drove it, ``wall_s`` the measured wall time,
    ``registry`` the metrics collected during the run (span events are
    summarised to a count — the full trace stays in the event journal,
    not in run records).
    """
    snapshot = registry.snapshot() if registry is not None else None
    if snapshot is not None:
        spans = snapshot.pop("spans", {"events": [], "dropped": 0})
        snapshot["span_events"] = len(spans.get("events", [])) + spans.get(
            "dropped", 0
        )
    when = started_at if started_at is not None else time.time()
    return {
        "version": RECORD_VERSION,
        "run_id": run_id,
        "seed": seed,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(when)),
        "wall_s": wall_s,
        "metrics": snapshot,
        **environment(),
        **(extra or {}),
    }
