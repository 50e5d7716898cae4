"""Flags, switch construction and output shared by the command families."""

from __future__ import annotations

import argparse
from collections.abc import Callable

TABLE_JSON = ("table", "json")


class LazyChoices:
    """An argparse ``choices`` list that ``module.function()`` returns,
    looked up only when an argument is checked or help is printed, so
    building the parser imports neither module.  Set it on the action
    after ``add_argument``, which would otherwise iterate it at once."""

    def __init__(self, module: str, function: str) -> None:
        self._source = (module, function)

    def _names(self) -> list[str]:
        import importlib

        module, function = self._source
        return getattr(importlib.import_module(module), function)()

    def __contains__(self, value: object) -> bool:
        return value in self._names()

    def __iter__(self):
        return iter(self._names())


def add_flags(
    p: argparse.ArgumentParser,
    *,
    seed: int | None = None,
    workers: tuple[int, str] | None = None,
    formats: tuple[str, ...] = (),
    telemetry: bool = False,
) -> None:
    """Add the shared flags a command asks for, in this order: ``--seed``
    (default ``seed``), ``--workers`` (``(default, help)``), ``--format``
    (``formats``, the first is the default) and the live-telemetry
    flags ``--journal``/``--crash-dir``.  A
    command whose own flags sit between these calls this more than once,
    so its ``--help`` keeps its order."""
    if seed is not None:
        p.add_argument("--seed", type=int, default=seed)
    if workers is not None:
        default, help_text = workers
        p.add_argument("--workers", type=int, default=default, help=help_text)
    if formats:
        p.add_argument("--format", choices=list(formats), default=formats[0])
    if telemetry:
        p.add_argument(
            "--journal",
            default=None,
            metavar="PATH",
            help="stream a repro.obs/journal@1 JSONL event journal here "
            "(replayable with 'repro obs export --journal')",
        )
        p.add_argument(
            "--crash-dir",
            default=None,
            metavar="DIR",
            help="write flight-recorder crash reports here on failure "
            "(default: next to --journal)",
        )


def add_geometry(
    p: argparse.ArgumentParser,
    *,
    switch: str | None = "revsort",
    n: int = 256,
    m: int = 192,
    positional: str | None = None,
    switch_help: str | None = None,
) -> None:
    """The switch-geometry flags ``--switch/--n/--m/--r/--s/--beta``,
    after an optional positional ``SWITCH`` when ``positional`` gives
    its help (see :func:`build_switch`)."""
    from repro.switches.registry import available

    if positional is not None:
        p.add_argument(
            "switch_name",
            nargs="?",
            choices=available(),
            default=None,
            metavar="SWITCH",
            help=positional,
        )
    p.add_argument("--switch", choices=available(), default=switch, help=switch_help)
    p.add_argument("--n", type=int, default=n)
    p.add_argument("--m", type=int, default=m)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--beta", type=float, default=0.75)


def build_switch(args: argparse.Namespace):
    """The switch :func:`add_geometry`'s flags name; the positional
    ``SWITCH`` wins over ``--switch``."""
    from repro.switches.registry import build_switch as build

    name = getattr(args, "switch_name", None) or args.switch
    return build(name, n=args.n, m=args.m, r=args.r, s=args.s, beta=args.beta)


def emit(args: argparse.Namespace, doc: object, show: Callable[[], object]) -> None:
    """Print ``doc`` as indented JSON under ``--format json``; otherwise
    call ``show``, which prints the human-readable form."""
    if args.format == "json":
        import json

        print(json.dumps(doc, indent=2))
    else:
        show()


def json_safe(obj, digits: int = 6):
    """Round floats and map NaN to None so the JSON output is both
    valid and byte-stable for golden snapshots."""
    import math

    if isinstance(obj, float):
        return None if math.isnan(obj) else round(obj, digits)
    if isinstance(obj, dict):
        return {k: json_safe(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v, digits) for v in obj]
    return obj
