"""Checkpoint/resume for long certification runs.

``certify --checkpoint DIR`` persists every completed chunk report —
the pure-data unit of work :func:`~repro.verify.exhaustive._examine_chunk`
produces — to an append-only JSONL journal as it folds.  A killed run
resumes by loading the journal, skipping finished chunks, and folding
the stored reports in their original chunk order, so the resumed
certificate is byte-identical to an uninterrupted run's: the task list
regenerates deterministically from the options, and a report's JSON
round trip is lossless (reports are built from ``int()``/``str`` data
precisely so they can cross process and now filesystem boundaries).

File format (``repro.verify/checkpoint@2``): a header line naming the
schema and the run fingerprint — a SHA-256 over the design, params,
switch dimensions, and every certify option — followed by one
``{"index": i, "crc": c, "report": {...}}`` line per completed chunk,
``c`` being the CRC-32 of the index and the report's JSON.  The
fingerprint is checked on resume: a checkpoint taken under different
options describes different chunks, so reusing it would silently
corrupt the certificate; that's a :class:`~repro.errors.ConfigurationError`.
``@2`` chunks fill to ``options.chunk`` rows across load levels, so the
same options cut a different chunk sequence than under ``@1``, whose
journals are refused by the schema check.  A line that is not UTF-8
JSON or whose CRC does not match (the run died mid-write, or the bytes
were damaged) is discarded — that chunk simply re-runs.  A line that
decodes but is not a header or a chunk record is a
:class:`~repro.errors.ConfigurationError` naming the file and the line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import zlib
from pathlib import Path

from repro.errors import ConfigurationError

SCHEMA = "repro.verify/checkpoint@2"


def certify_fingerprint(design: str, params: dict, n: int, m: int, options) -> str:
    """The identity of one certification run: same fingerprint ⇔ same
    deterministic chunk sequence, so stored reports are interchangeable
    with fresh ones."""
    payload = {
        "design": design,
        "params": {str(k): params[k] for k in sorted(params or {})},
        "n": int(n),
        "m": int(m),
        "options": dataclasses.asdict(options),
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _crc(index: int, report_json: str) -> int:
    return zlib.crc32(f"{index}:{report_json}".encode("utf-8"))


def _decode_report(report: dict) -> dict:
    """Undo the lossy bits of a JSON round trip: dict keys back to int,
    section/event tuples back to tuples (fold treats reports as opaque
    data, but tests compare them structurally)."""
    report = dict(report)
    report["k_counts"] = {int(k): int(v) for k, v in report["k_counts"].items()}
    report["sections"] = [
        (check, bool(cap), [(int(k), hexpat, msg) for k, hexpat, msg in events])
        for check, cap, events in report["sections"]
    ]
    return report


class CertifyCheckpoint:
    """One run's append-only chunk-report journal.

    ``record`` appends and flushes immediately — a SIGKILL between two
    chunks loses at most the in-flight chunk.  ``has``/``report`` serve
    the resume path.  Close explicitly (or via context manager); the
    file stays on disk for the operator to delete once the certificate
    is in hand.
    """

    def __init__(self, path: str | Path, fingerprint: str) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._reports: dict[int, dict] = {}
        self._load()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self._header_seen
        self._fh = open(self.path, "a", encoding="utf-8")
        if self._torn_tail:
            self._fh.write("\n")
        if fresh:
            self._write_line({"schema": SCHEMA, "fingerprint": fingerprint})

    def _load(self) -> None:
        self._header_seen = False
        self._torn_tail = False
        if not self.path.exists():
            return
        with open(self.path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                self._torn_tail = not line.endswith(b"\n")
                try:
                    frame = json.loads(line.decode("utf-8"))
                except ValueError:
                    # Not UTF-8 JSON: the previous run died mid-write,
                    # or the bytes are damaged.  That chunk re-runs.
                    continue
                where = f"{self.path}:{lineno}"
                if not isinstance(frame, dict):
                    raise ConfigurationError(
                        f"{where} is not a checkpoint record "
                        f"(expected an object, got {type(frame).__name__})"
                    )
                if not self._header_seen:
                    if frame.get("schema") != SCHEMA:
                        raise ConfigurationError(
                            f"{self.path} is not a {SCHEMA} checkpoint "
                            f"(schema: {frame.get('schema')!r})"
                        )
                    if frame.get("fingerprint") != self.fingerprint:
                        raise ConfigurationError(
                            f"checkpoint {self.path} was taken for a different "
                            "certification run (design/params/options changed); "
                            "delete it or point --checkpoint elsewhere"
                        )
                    self._header_seen = True
                    continue
                try:
                    index = int(frame["index"])
                    report = _decode_report(frame["report"])
                except (KeyError, TypeError, ValueError, AttributeError,
                        OverflowError) as exc:
                    raise ConfigurationError(
                        f"{where} is not a valid checkpoint record "
                        f"({type(exc).__name__}: {exc})"
                    ) from None
                report_json = json.dumps(frame["report"], separators=(",", ":"))
                if frame.get("crc") == _crc(index, report_json):
                    self._reports[index] = report

    def _write_line(self, frame: dict) -> None:
        self._fh.write(json.dumps(frame, separators=(",", ":")) + "\n")
        self._fh.flush()

    def has(self, index: int) -> bool:
        return index in self._reports

    def report(self, index: int) -> dict:
        return self._reports[index]

    def record(self, index: int, report: dict) -> None:
        if index in self._reports:
            return
        report_json = json.dumps(report, separators=(",", ":"))
        self._write_line(
            {"index": int(index), "crc": _crc(index, report_json), "report": report}
        )
        self._reports[index] = _decode_report(json.loads(report_json))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> CertifyCheckpoint:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["SCHEMA", "CertifyCheckpoint", "certify_fingerprint"]
