"""repro.obs.live — streaming telemetry for in-flight runs.

Everything in :mod:`repro.obs` is post-hoc: metrics surface after a
run exits cleanly.  This package streams them while the run is in
flight, into the one persisted telemetry artifact, the journal:

* :mod:`.journal` — the schema-tagged append-only event journal
  (``repro.obs/journal@1`` JSONL) plus delta-flush sinks and exact
  replay;
* :mod:`.merge` — the cross-process aggregation protocol
  (``repro.obs/worker@1`` portable snapshots, deterministic merge);
* :mod:`.resource` — the background RSS/CPU/GC sampler and heartbeats;
* :mod:`.flight` — the bounded flight recorder and
  ``repro.obs/crash@1`` crash reports.

See the "Live telemetry" section of ``docs/observability.md``.
"""

from repro.obs.live.flight import (
    CRASH_SCHEMA,
    FlightRecorder,
    failing_span,
    read_crash_report,
)
from repro.obs.live.journal import (
    JOURNAL_SCHEMA,
    EventJournal,
    JournalSink,
    read_journal,
    replay_journal,
)
from repro.obs.live.merge import (
    WORKER_SCHEMA,
    merge_portable,
    portable_snapshot,
    roundtrip,
)
from repro.obs.live.resource import ResourceSampler, sample_process

__all__ = [
    "CRASH_SCHEMA",
    "EventJournal",
    "FlightRecorder",
    "JOURNAL_SCHEMA",
    "JournalSink",
    "ResourceSampler",
    "WORKER_SCHEMA",
    "failing_span",
    "merge_portable",
    "portable_snapshot",
    "read_crash_report",
    "read_journal",
    "replay_journal",
    "roundtrip",
    "sample_process",
]
