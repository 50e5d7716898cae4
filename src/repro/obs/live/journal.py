"""The live event journal: schema-tagged, append-only JSONL telemetry.

Post-hoc snapshots (:mod:`repro.obs.export`) only become visible after
a run exits cleanly; the journal streams the same information *during*
the run, one JSON object per line, so a hung certify or a crashed
sweep still leaves a forensic trail and a tail-reader can render live
progress.

Line format (``schema="repro.obs/journal@1"`` on the ``start`` line)::

    {"seq": 0, "t": ..., "type": "start", "schema": "repro.obs/journal@1",
     "command": "faults-sweep"}
    {"seq": 1, "t": ..., "type": "phase", "name": "sweep", "total": 3}
    {"seq": 2, "t": ..., "type": "counter", "key": "sim.delivered", "delta": 640}
    {"seq": 3, "t": ..., "type": "gauge", "key": "proc.rss_kb", "value": 81234}
    {"seq": 4, "t": ..., "type": "hist", "key": "sim.round.seconds",
     "count": 20, "sum": 0.08, "min": ..., "max": ..., "buckets": {...}}
    {"seq": 5, "t": ..., "type": "span", "name": "sim.run", "path": ...,
     "depth": 0, "start": ..., "duration_s": ..., "meta": {...}}
    {"seq": 6, "t": ..., "type": "series", "key": "flows.queue_depth{...}",
     "budget": 256, "stride": 1, "count": ..., "points": [[t, v], ...]}
    {"seq": 7, "t": ..., "type": "heartbeat", "rss_kb": ..., "cpu_s": ...}
    {"seq": 8, "t": ..., "type": "end", "spans_dropped": 0}

Frames reach the file in two classes.  *Boundary* frames (``start``,
``env``, ``phase``, ``progress``, ``heartbeat``, supervision events
such as ``worker_death``, and ``end``) flush the file at
once, so a tail-reader sees every phase change and a killed run still
names its last phase.  *Bulk* frames (``span`` and the metric frames
``counter``, ``gauge``, ``hist`` and ``series``) are only buffered:
they reach the file with the next boundary frame or at close.  The
resource sampler's heartbeat is a boundary frame, so a killed run loses
at most one heartbeat interval of bulk frames.  The in-memory sinks see
every frame at once either way.

Metric events are **deltas since the previous flush**, so replaying a
journal (:func:`replay_journal`) reduces to exactly the live
registry's final totals — including metrics merged in from worker
registries, because the merge lands in the parent before the next
flush.  Gauges carry absolute values (last write wins on replay), and
``series`` frames carry the series' full decimated point buffer (also
last-write-wins, so replay reproduces the registry's series exactly —
the buffer is bounded, see :mod:`repro.obs.timeseries`).  Spans carry
``span_id``/``parent_id`` when a trace context is active
(:mod:`repro.obs.tracectx`), which is what ``repro obs analyze``
reconstructs the causal tree from.

The journal is the event *bus* as well as the file: in-memory sinks
(the flight recorder's ring buffer) subscribe with
:meth:`EventJournal.subscribe` and see every event, with or without a
backing file.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Callable, Iterable

from repro._util.persisted import NUMBER, read_jsonl
from repro.errors import ConfigurationError
from repro.obs.registry import Registry
from repro.obs.tracing import SpanRecord

JOURNAL_SCHEMA = "repro.obs/journal@1"

#: Spans journaled per run before further spans are counted, not
#: written, so no command grows its journal without bound.  The
#: engine's plan walkers, the hottest loop, observe histograms instead
#: of opening spans.
DEFAULT_SPAN_LIMIT = 10_000

#: Frame types written without flushing the file; every other type is
#: a boundary frame and flushes (see the module docstring).
BULK_FRAMES = frozenset({"span", "counter", "gauge", "hist", "series"})


class EventJournal:
    """Append-only event stream with optional JSONL persistence.

    ``path=None`` keeps the journal purely in-memory (events still
    reach subscribed sinks) — what ``--crash-dir`` without
    ``--journal`` uses: the flight recorder still fills.  Thread-safe: the resource sampler emits heartbeats from its
    own thread.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        clock: Callable[[], float] = time.time,
        command: str | None = None,
        span_limit: int = DEFAULT_SPAN_LIMIT,
    ):
        self.path = Path(path) if path is not None else None
        self.clock = clock
        self.command = command
        self.span_limit = span_limit
        self.spans_written = 0
        self.spans_dropped = 0
        self.seq = 0
        self.closed = False
        self._sinks: list[Callable[[dict], None]] = []
        self._lock = threading.Lock()
        self._fh = None
        if self.path is not None:
            if self.path.exists() and self.path.is_dir():
                raise ConfigurationError(f"{self.path} is a directory")
            self._fh = self.path.open("w", encoding="utf-8")
        start: dict = {"schema": JOURNAL_SCHEMA}
        if command is not None:
            start["command"] = command
        self.emit("start", **start)

    # -- core -----------------------------------------------------------
    def subscribe(self, sink: Callable[[dict], None]) -> None:
        """Register an in-memory consumer called with every event."""
        self._sinks.append(sink)

    def emit(self, type: str, **fields: object) -> dict:
        """Append one event; returns the event dict."""
        with self._lock:
            event = {"seq": self.seq, "t": self.clock(), "type": type, **fields}
            self.seq += 1
            if self._fh is not None and not self._fh.closed:
                self._fh.write(json.dumps(event) + "\n")
                if type not in BULK_FRAMES:
                    self._fh.flush()
        for sink in self._sinks:
            try:
                sink(event)
            except Exception:
                # A broken consumer must not take the journal down.
                pass
        return event

    def emit_span(self, record: SpanRecord) -> None:
        """Tracer sink: stream one completed span (budgeted)."""
        if self.spans_written < self.span_limit:
            self.spans_written += 1
            self.emit("span", **record.as_dict())
        else:
            self.spans_dropped += 1

    def close(self) -> None:
        if self.closed:
            return
        self.emit("end", spans_dropped=self.spans_dropped)
        self.closed = True
        if self._fh is not None:
            self._fh.close()

    def __enter__(self) -> EventJournal:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class JournalSink:
    """Connects a :class:`~repro.obs.registry.Registry` to a journal.

    Spans stream as they complete (the tracer's ``sink`` hook);
    counters/gauges/histograms are flushed as *deltas* whenever
    :meth:`flush` is called — long-running commands flush at every
    phase and progress step, so a tail-reader sees totals grow
    monotonically.  Both are bulk frames: they reach the file with the
    next boundary frame, so a killed run loses at most one heartbeat
    interval of them.
    """

    def __init__(self, registry: Registry, journal: EventJournal):
        self.registry = registry
        self.journal = journal
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, dict] = {}
        self._series: dict[str, int] = {}
        self._previous_sink = registry.tracer.sink
        registry.tracer.sink = journal.emit_span

    def flush(self) -> int:
        """Emit deltas vs the previous flush; returns events emitted."""
        emitted = 0
        reg = self.registry
        for key, counter in list(reg._counters.items()):
            delta = counter.value - self._counters.get(key, 0.0)
            # A counter's first frame goes out even at zero, so replay
            # holds every key the registry does.
            if delta or key not in self._counters:
                self.journal.emit("counter", key=key, delta=delta)
                self._counters[key] = counter.value
                emitted += 1
        for key, gauge in list(reg._gauges.items()):
            if self._gauges.get(key) != gauge.value:
                self.journal.emit("gauge", key=key, value=gauge.value)
                self._gauges[key] = gauge.value
                emitted += 1
        for key, hist in list(reg._histograms.items()):
            last = self._hists.get(key, {"count": 0, "sum": 0.0})
            if hist.count != last["count"]:
                delta_buckets = {
                    b: n - last.get("buckets", {}).get(b, 0)
                    for b, n in hist.buckets.items()
                    if n - last.get("buckets", {}).get(b, 0)
                }
                self.journal.emit(
                    "hist",
                    key=key,
                    count=hist.count - last["count"],
                    sum=hist.total - last["sum"],
                    min=hist.min if hist.count else None,
                    max=hist.max if hist.count else None,
                    buckets=delta_buckets,
                )
                self._hists[key] = {
                    "count": hist.count,
                    "sum": hist.total,
                    "buckets": dict(hist.buckets),
                }
                emitted += 1
        for key, series in list(reg._series.items()):
            # Series frames are snapshots, not deltas (the buffer is
            # bounded, so re-emitting the whole thing stays cheap and
            # replay is trivially last-write-wins).
            if series.count != self._series.get(key):
                self.journal.emit("series", key=key, **series.as_dict())
                self._series[key] = series.count
                emitted += 1
        return emitted

    def close(self) -> None:
        """Final flush and detach from the tracer."""
        self.flush()
        self.registry.tracer.sink = self._previous_sink


# -- reading and replaying ----------------------------------------------
#: Per frame type, the fields replay and analysis index without a default.
_FRAME_FIELDS = {
    "counter": {"key": str, "delta": NUMBER},
    "gauge": {"key": str, "value": NUMBER},
    "hist": {"key": str, "count": NUMBER, "sum": NUMBER},
    "series": {"key": str},
    "span": {"name": str, "duration_s": NUMBER},
    "phase": {"t": NUMBER},
}


def read_journal(source: str | Path | Iterable[dict]) -> list[dict]:
    """Load journal events from a path (JSONL) or pass an event list
    through, validating the ``start`` line's schema tag."""
    if isinstance(source, (str, Path)):
        events = read_jsonl(
            source, what="journal", fields=lambda e: _FRAME_FIELDS.get(e.get("type"), {})
        )
        name = str(source)
    else:
        events = list(source)
        name = "event list"
    if not events:
        raise ConfigurationError(f"{name} is an empty journal")
    head = events[0]
    if head.get("type") != "start" or head.get("schema") != JOURNAL_SCHEMA:
        raise ConfigurationError(
            f"{name} is not a {JOURNAL_SCHEMA} journal "
            f"(first event: {head.get('type')!r}/{head.get('schema')!r})"
        )
    return events


def replay_journal(source: str | Path | Iterable[dict]) -> dict:
    """Reduce a journal back to a registry-snapshot-shaped dict.

    Counter/histogram deltas accumulate, gauges take their last value,
    spans collect in order — so for any journaled run,
    ``replay_journal(path)["counters"] == registry.snapshot()["counters"]``
    exactly (the parity the tier-1 suite pins).
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    hists: dict[str, dict] = {}
    series: dict[str, dict] = {}
    spans: list[dict] = []
    dropped = 0
    for event in read_journal(source):
        kind = event.get("type")
        if kind == "counter":
            counters[event["key"]] = counters.get(event["key"], 0.0) + event["delta"]
        elif kind == "gauge":
            gauges[event["key"]] = event["value"]
        elif kind == "series":
            # Frames carry the full decimated buffer: last write wins.
            series[event["key"]] = {
                key: event[key]
                for key in ("budget", "stride", "count", "points")
                if key in event
            }
        elif kind == "hist":
            h = hists.setdefault(
                event["key"],
                {"count": 0, "sum": 0.0, "min": None, "max": None, "buckets": {}},
            )
            h["count"] += event["count"]
            h["sum"] += event["sum"]
            for bound, op in (("min", min), ("max", max)):
                value = event.get(bound)
                if value is not None:
                    h[bound] = value if h[bound] is None else op(h[bound], value)
            for bucket, n in (event.get("buckets") or {}).items():
                h["buckets"][bucket] = h["buckets"].get(bucket, 0) + n
        elif kind == "span":
            spans.append(
                {
                    key: event[key]
                    for key in (
                        "name",
                        "path",
                        "depth",
                        "start",
                        "duration_s",
                        "meta",
                        "span_id",
                        "parent_id",
                    )
                    if key in event
                }
            )
        elif kind == "end":
            dropped = int(event.get("spans_dropped", 0))
    for h in hists.values():
        h["mean"] = (h["sum"] / h["count"]) if h["count"] else 0.0
        h["buckets"] = dict(sorted(h["buckets"].items()))
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": {k: hists[k] for k in sorted(hists)},
        "series": {k: series[k] for k in sorted(series)},
        "spans": {"events": spans, "dropped": dropped},
    }
