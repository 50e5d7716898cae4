"""The failure flight recorder: a ring buffer dumped on crash.

Subscribed to the event journal, the recorder keeps the most recent
``capacity`` events in a bounded deque.  When a run dies — an
unhandled exception, a contract violation (CLI exit 1), or a
regression-gate trip — the CLI exit paths call :func:`crash_report`
and write a ``repro.obs/crash@1`` JSON: the exception, the last N
events (so the heartbeats, counters, and spans leading up to death
are preserved), the failing span, the open-span path at the moment of
the dump, and the final counter totals.

The recorder costs one deque append per journal event; it is always
on when any live telemetry is active.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from pathlib import Path

from repro._util.persisted import load_document
from repro.errors import ConfigurationError, exit_code_for

CRASH_SCHEMA = "repro.obs/crash@1"

#: Recent-event window kept for the crash report.
DEFAULT_CAPACITY = 256


def failing_span(events) -> dict | None:
    """The innermost span an exception escaped from: the *first*
    error-tagged span event in ``events`` (spans complete innermost-
    first while an exception unwinds), else None.

    A shard whose worker was SIGKILLed never completes its span — the
    process that owned it is gone — so when no error-tagged span
    exists, the most recent supervisor ``worker_death`` frame stands in
    for it: the crash report still names the shard that took its worker
    down."""
    events = list(events)  # callers pass reversed() iterators
    for event in events:
        if event.get("type") == "span" and "error" in (event.get("meta") or {}):
            return {
                "name": event.get("name"),
                "path": event.get("path"),
                "error": event["meta"].get("error"),
                "duration_s": event.get("duration_s"),
            }
    for event in events:
        if event.get("type") == "worker_death":
            return {
                "name": "engine.shard",
                "path": None,
                "error": f"worker-death (shard {event.get('shard')})",
                "duration_s": None,
            }
    return None


class FlightRecorder:
    """Bounded ring buffer of recent journal events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ConfigurationError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.events: deque[dict] = deque(maxlen=capacity)
        self.total_seen = 0

    def record(self, event: dict) -> None:
        """Journal sink: remember this event (oldest falls out)."""
        self.events.append(event)
        self.total_seen += 1

    def crash_report(
        self,
        *,
        reason: str,
        command: str | None = None,
        exc: BaseException | None = None,
        registry=None,
        detail: dict | None = None,
    ) -> dict:
        """Assemble the crash document (JSON-ready)."""
        events = list(self.events)
        report: dict = {
            "schema": CRASH_SCHEMA,
            "reason": reason,
            "command": command,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "events_seen": self.total_seen,
            "events": events,
            "failing_span": failing_span(reversed(events)),
        }
        if exc is not None:
            report["exception"] = {
                "type": type(exc).__name__,
                "message": str(exc),
                "exit_code": exit_code_for(exc),
                "traceback": traceback.format_exception(
                    type(exc), exc, exc.__traceback__
                ),
            }
        if registry is not None:
            snapshot = registry.snapshot()
            report["open_spans"] = registry.tracer.active_path
            report["counters"] = snapshot["counters"]
            report["gauges"] = snapshot["gauges"]
        if detail:
            report["detail"] = detail
        return report

    def write(self, path: str | Path, **kwargs) -> Path:
        """Write :meth:`crash_report` to ``path`` (parents created)."""
        import json

        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.crash_report(**kwargs), indent=2, default=str) + "\n",
            encoding="utf-8",
        )
        return target


def read_crash_report(path: str | Path) -> dict:
    """Load and schema-check a crash report."""
    document = load_document(path, what="crash report")
    if document.get("schema") != CRASH_SCHEMA:
        raise ConfigurationError(f"{path} is not a {CRASH_SCHEMA} crash report")
    return document
