"""Readers for persisted files (journals, trajectories, SLO specs, crash
reports) that turn missing, corrupt or mis-shaped input into a
:class:`~repro.errors.ConfigurationError` naming the file — and, for
JSONL, the line — instead of a decoder traceback."""

from __future__ import annotations

import json
from collections.abc import Mapping
from pathlib import Path
from typing import Callable

from repro.errors import ConfigurationError

#: The JSON number types, for :func:`read_jsonl`'s ``fields``.
NUMBER = (int, float)


def load_document(
    path: str | Path, *, what: str, parse: Callable[[str], object] = json.loads
) -> dict:
    """Parse a whole-file document (JSON unless ``parse`` says otherwise,
    e.g. ``tomllib.loads``) that must be an object."""
    source = Path(path)
    if not source.exists():
        raise ConfigurationError(f"no {what} at {source}")
    try:
        # JSONDecodeError, TOMLDecodeError and UnicodeDecodeError are
        # all ValueErrors.
        document = parse(source.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigurationError(f"{source} is not a valid {what}: {exc}") from None
    if not isinstance(document, dict):
        raise ConfigurationError(
            f"{source} is not a {what}: expected an object, "
            f"got {type(document).__name__}"
        )
    return document


def read_jsonl(
    path: str | Path,
    *,
    what: str,
    schema: str | None = None,
    fields: Callable[[dict], Mapping[str, type | tuple]] | None = None,
) -> list[dict]:
    """Every non-blank line of a JSONL file, each of which must be a
    JSON object (carrying ``"schema": schema`` when one is given, and
    every key ``fields(record)`` names, holding a value of its type)."""
    source = Path(path)
    if not source.exists():
        raise ConfigurationError(f"no {what} at {source}")
    try:
        lines = source.read_text(encoding="utf-8").splitlines()
    except ValueError as exc:
        raise ConfigurationError(f"{source} is not a valid {what}: {exc}") from None
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ConfigurationError(
                f"{source}:{lineno} is not valid JSON: {exc}"
            ) from None
        if not isinstance(record, dict):
            raise ConfigurationError(
                f"{source}:{lineno} is not a {what} record "
                f"(expected a JSON object, got {type(record).__name__})"
            )
        if schema is not None and record.get("schema") != schema:
            raise ConfigurationError(
                f"{source}:{lineno} is not a {schema} record "
                f"(schema={record.get('schema')!r})"
            )
        for key, kinds in (fields(record) if fields else {}).items():
            if not isinstance(record.get(key), kinds):
                raise ConfigurationError(
                    f"{source}:{lineno} is not a {what} record "
                    f"(missing or mistyped {key!r})"
                )
        records.append(record)
    return records
