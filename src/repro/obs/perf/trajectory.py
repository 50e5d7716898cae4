"""The append-only bench trajectory: ``BENCH_TRAJECTORY.jsonl``.

One line per bench execution, schema-tagged so mixed-version files
stay readable.  A record is keyed by ``(bench, env.git_sha)`` — the
same bench re-run at a new commit appends a new line, never rewrites
an old one — which is what lets :mod:`repro.obs.perf.regression` diff
a candidate against the trailing window of history.

Record layout (``schema="repro.obs/bench"``, ``version=1``)::

    {
      "schema": "repro.obs/bench", "version": 1,
      "bench": "engine.columnsort-n256",   # suite-registry spec id
      "suite": "smoke", "unit": "trials",
      "repeats": 3, "wall_s": [...],       # every repeat, seconds
      "median_wall_s": ..., "best_wall_s": ...,
      "work": 64, "throughput": ...,       # work / median_wall_s
      "rss_peak_kb": ..., "alloc_peak_kb": ..., "alloc_blocks": ...,
      "plan_cache": {"hits": .., "misses": .., "hit_rate": ..},
      "span_seconds": {"engine.stage.seconds": {"count": .., "sum": ..}},
      "host_ref_s": ...,                   # reference-loop time, seconds
      "meta": {...},                       # spec-specific (n, m, delays)
      "env": {"git_sha": .., "git_dirty": .., "python": ..,
              "numpy": .., "platform": ..},
      "seed": 6535, "started_at": "2026-..."
    }
"""

from __future__ import annotations

import json
from pathlib import Path

from repro._util.persisted import NUMBER, read_jsonl
from repro.errors import ConfigurationError

TRAJECTORY_SCHEMA = "repro.obs/bench"
TRAJECTORY_VERSION = 1


def new_record(**fields: object) -> dict:
    """A schema-tagged trajectory record with ``fields`` merged in."""
    return {"schema": TRAJECTORY_SCHEMA, "version": TRAJECTORY_VERSION, **fields}


def append_records(path: str | Path, records: list[dict]) -> Path:
    """Append ``records`` (one JSON line each) to ``path``; creates the
    file on first use.  Existing lines are never touched."""
    target = Path(path)
    if target.exists() and target.is_dir():
        raise ConfigurationError(f"{target} is a directory")
    with target.open("a", encoding="utf-8") as fh:
        for record in records:
            if record.get("schema") != TRAJECTORY_SCHEMA:
                raise ConfigurationError(
                    f"refusing to append a non-trajectory record "
                    f"(schema={record.get('schema')!r})"
                )
            fh.write(json.dumps(record, sort_keys=False) + "\n")
    return target


#: What every reader of a record indexes without a default.
_RECORD_FIELDS = {"bench": str, "median_wall_s": NUMBER}


def read_trajectory(path: str | Path) -> list[dict]:
    """Read every record of a trajectory file, in file (= append)
    order.  Blank lines are skipped; a line that is not a
    ``repro.obs/bench`` record raises."""
    return read_jsonl(
        path, what="trajectory", schema=TRAJECTORY_SCHEMA, fields=lambda _: _RECORD_FIELDS
    )


def latest_per_bench(records: list[dict]) -> dict[str, dict]:
    """The newest record of every bench id, in append order."""
    latest: dict[str, dict] = {}
    for record in records:
        latest[str(record.get("bench"))] = record
    return latest


def split_latest(records: list[dict]) -> tuple[dict[str, dict], list[dict]]:
    """Split a trajectory into ``(candidates, history)``: the newest
    record per bench (the run under test) and everything before it (the
    baseline pool).  This is what ``repro bench compare`` does when the
    candidate and the baseline live in the same file."""
    candidates = latest_per_bench(records)
    picked = {id(record) for record in candidates.values()}
    history = [record for record in records if id(record) not in picked]
    return candidates, history
