"""Structural golden of the ``repro`` argument parser.

``tests/golden/cli_parser.json`` maps every (sub)parser path, such as
``"repro"`` or ``"repro faults sweep"``, to its subcommands (name and
help) and its actions: option strings, dest, nargs, default, choices
(lazy choices expanded), required, metavar, help, type and action
class.  It pins the command surface, not rendered ``--help`` text,
because argparse formats help differently across Python versions.

Regenerate (only for an intended change to a flag) with
``PYTHONPATH=src python -m tests.test_cli_parser``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "cli_parser.json"


def _action(action: argparse.Action) -> dict:
    choices = action.choices
    if isinstance(choices, dict):
        choices = sorted(choices)
    elif choices is not None:
        choices = list(choices)
    return {
        "option_strings": action.option_strings,
        "dest": action.dest,
        "action": type(action).__name__,
        "nargs": action.nargs,
        "default": action.default,
        "choices": choices,
        "required": action.required,
        "metavar": action.metavar,
        "help": action.help,
        "type": getattr(action.type, "__name__", None),
    }


def parser_structure(parser: argparse.ArgumentParser, path: str = "repro") -> dict:
    """``{path: {"actions": [...], "subcommands": {name: help}}}`` for
    ``parser`` and every subparser below it."""
    out: dict[str, dict] = {}
    node: dict = {"actions": [_action(a) for a in parser._actions]}
    out[path] = node
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {c.dest: c.help for c in action._choices_actions}
            node["subcommands"] = {name: helps.get(name) for name in action.choices}
            for name, sub in action.choices.items():
                out.update(parser_structure(sub, f"{path} {name}"))
    return out


def render() -> str:
    from repro.cli import build_parser

    return json.dumps(parser_structure(build_parser()), indent=2, sort_keys=True) + "\n"


def test_parser_structure_matches_golden(monkeypatch):
    # --log-level's default follows $REPRO_LOG.
    monkeypatch.delenv("REPRO_LOG", raising=False)
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    import os

    os.environ.pop("REPRO_LOG", None)
    GOLDEN.write_text(render())
    print(f"wrote {GOLDEN}")
