"""Consumer lint: every telemetry feature names what reads it.

``docs/observability.md`` keeps one table, "Features and what reads
them", with a row per telemetry feature and its consumer: a CI step, a
perfbench metric, an SLO rule, an ``obs analyze`` section or an open
ROADMAP item.  The parser golden (``tests/golden/cli_parser.json``)
says which features exist, and this lint fails when

* a ``repro obs`` subcommand has no row;
* a shared telemetry flag (an option every journaled command carries
  with the same help text, like ``--journal``) has no row;
* a row's consumer cell is empty.

So an exporter or a telemetry flag cannot come back without naming
what reads it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOC = ROOT / "docs" / "observability.md"
GOLDEN = ROOT / "tests" / "golden" / "cli_parser.json"
HEADING = "## Features and what reads them"


def _table_rows() -> list[list[str]]:
    """The cells of every body row of the consumer table."""
    text = DOC.read_text(encoding="utf-8")
    assert HEADING in text, f"docs/observability.md lost its {HEADING!r} section"
    section = text.split(HEADING, 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("|"):
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if cells[0] == "feature" or not cells[0].strip("-"):
            continue  # header or separator
        rows.append(cells)
    assert rows, "the consumer table has no rows"
    return rows


def _documented() -> set[str]:
    """Every backticked name in the table's feature column."""
    names: set[str] = set()
    for cells in _table_rows():
        names.update(re.findall(r"`([^`]+)`", cells[0]))
    return names


def _options(node: dict) -> dict[str, str | None]:
    """Long option -> help text of one parser in the golden."""
    return {
        option: action["help"]
        for action in node["actions"]
        for option in action["option_strings"]
        if option.startswith("--")
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def telemetry_flags(golden: dict) -> set[str]:
    """Options that every journaled command (one taking ``--journal``,
    outside ``repro obs``) carries with the same help text."""
    journaled = [
        set(_options(node).items())
        for path, node in golden.items()
        if "--journal" in _options(node) and not path.startswith("repro obs")
    ]
    assert journaled, "no command takes --journal"
    shared = set.intersection(*journaled)
    return {option for option, _help in shared} - {"--help"}


def test_every_row_names_a_consumer():
    for cells in _table_rows():
        assert len(cells) == 3, f"row {cells[0]!r} does not have 3 cells"
        assert cells[2], f"row {cells[0]!r} names no consumer"


def test_every_obs_subcommand_has_a_consumer_row():
    golden = _golden()
    commands = ["repro obs"] + [
        f"repro obs {name}" for name in golden["repro obs"]["subcommands"]
    ]
    missing = sorted(set(commands) - _documented())
    assert not missing, (
        "repro obs subcommands without a row in docs/observability.md's "
        f"consumer table: {', '.join(missing)}"
    )


def test_every_shared_telemetry_flag_has_a_consumer_row():
    flags = telemetry_flags(_golden())
    assert "--journal" in flags
    missing = sorted(flags - _documented())
    assert not missing, (
        "shared telemetry flags without a row in docs/observability.md's "
        f"consumer table: {', '.join(missing)}"
    )
