"""Live telemetry around a command: ``--journal`` and ``--crash-dir``
(see the "Live telemetry" section of ``docs/observability.md``)."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

from repro import obs
from repro.errors import ConcentrationError, ExecutionError, ReproError


class _NullTelemetry:
    """No-op stand-in when no telemetry flag was given: commands call
    ``tele.phase(...)`` etc. unconditionally."""

    registry = None

    def phase(self, name: str, total=None) -> None:
        pass

    def advance(self, phase: str, done, total=None) -> None:
        pass

    def crash(self, reason: str, *, exc=None, detail=None):
        return None


_NULL_TELEMETRY = _NullTelemetry()


@dataclasses.dataclass
class Telemetry:
    """The live-telemetry facade a command sees inside
    :func:`telemetry_scope`: one registry, one journal, one flight
    recorder — plus the phase/progress helpers that emit journal events
    and flush metric deltas."""

    registry: object
    journal: object
    sink: object
    recorder: object
    command: str
    crash_path: object = None

    def phase(self, name: str, total=None) -> None:
        self.journal.emit("phase", name=name, total=total)
        self.flush()

    def advance(self, phase: str, done, total=None) -> None:
        self.journal.emit("progress", phase=phase, done=done, total=total)
        self.flush()

    def flush(self) -> None:
        self.sink.flush()

    def crash(self, reason: str, *, exc=None, detail=None):
        """Dump the flight recorder; returns the report path or None."""
        if self.crash_path is None:
            return None
        self.flush()
        path = self.recorder.write(
            self.crash_path,
            reason=reason,
            command=self.command,
            exc=exc,
            registry=self.registry,
            detail=detail,
        )
        print(f"crash report written to {path}", file=sys.stderr)
        return path


def _command_name(args: argparse.Namespace) -> str:
    sub = (
        getattr(args, "faults_command", None)
        or getattr(args, "bench_command", None)
        or getattr(args, "obs_command", None)
        or getattr(args, "flows_command", None)
    )
    return f"{args.command} {sub}" if sub else str(args.command)


def _crash_path(args: argparse.Namespace, command: str):
    """Where a crash report would land: ``--crash-dir`` wins, else next
    to the ``--journal`` file, else nowhere (no dump target)."""
    from pathlib import Path

    crash_dir = getattr(args, "crash_dir", None)
    if crash_dir:
        return Path(crash_dir) / f"{command.replace(' ', '-')}-crash.json"
    journal_path = getattr(args, "journal", None)
    if journal_path:
        journal = Path(journal_path)
        return journal.with_name(f"{journal.stem}-crash.json")
    return None


@contextlib.contextmanager
def telemetry_scope(args: argparse.Namespace):
    """Wire up collection around a command.

    ``--journal`` or ``--crash-dir`` activates the live pipeline: an
    :class:`~repro.obs.live.EventJournal` (in memory without
    ``--journal``) fed by a delta-flush
    :class:`~repro.obs.live.JournalSink` and the tracer's span sink, a
    :class:`~repro.obs.live.FlightRecorder` ring buffer (dumped to a
    crash report on unhandled exceptions — including a mid-flight
    KeyboardInterrupt — and contract violations), and a background
    :class:`~repro.obs.live.ResourceSampler`.  Without either flag the
    null registry stays installed and a no-op telemetry object is
    yielded.
    """
    if not (getattr(args, "journal", None) or getattr(args, "crash_dir", None)):
        yield _NULL_TELEMETRY
        return

    from repro.obs.live import (
        EventJournal,
        FlightRecorder,
        JournalSink,
        ResourceSampler,
    )

    command = _command_name(args)
    with contextlib.ExitStack() as stack:
        registry = stack.enter_context(obs.collecting())
        # Every collected command is one causal trace: the context
        # stamps span_id/parent_id on spans here and (shipped with each
        # shard job) in workers, so `repro obs analyze` can stitch one
        # tree back out of the journal.
        trace_id = getattr(args, "trace_id", None) or obs.new_trace_id(command)
        registry.tracer.context = obs.TraceContext(trace_id=trace_id)
        journal = stack.enter_context(
            EventJournal(getattr(args, "journal", None), command=command)
        )
        journal.emit("env", pid=os.getpid(), trace_id=trace_id, **obs.environment())
        sink = JournalSink(registry, journal)
        stack.callback(sink.close)
        recorder = FlightRecorder()
        journal.subscribe(recorder.record)
        # Supervision events (worker_death / shard_timeout /
        # pool_respawn / degraded) become journal frames, with the
        # counter deltas they ticked flushed alongside, so retries are
        # visible live and in replay — and the flight recorder (a
        # journal subscriber) can name the fatal shard.
        from repro.engine.backends.supervisor import (
            add_event_sink,
            remove_event_sink,
        )

        def _supervision_frame(kind: str, **fields: object) -> None:
            journal.emit(kind, **fields)
            sink.flush()

        add_event_sink(_supervision_frame)
        stack.callback(remove_event_sink, _supervision_frame)
        tele = Telemetry(
            registry=registry,
            journal=journal,
            sink=sink,
            recorder=recorder,
            command=command,
            crash_path=_crash_path(args, command),
        )
        sampler = ResourceSampler(registry, journal)
        sampler.start()
        stack.callback(sampler.stop)
        try:
            yield tele
        except ConcentrationError as exc:
            tele.crash("contract-violation", exc=exc)
            raise
        except ExecutionError as exc:
            # The execution stack failed (retry budget exhausted): dump
            # the ring buffer — its worker_death frames say which shard.
            tele.crash("execution-failure", exc=exc)
            raise
        except ReproError:
            raise
        except BrokenPipeError:
            raise
        except BaseException as exc:
            tele.crash("unhandled-exception", exc=exc)
            raise
