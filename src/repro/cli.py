"""The ``repro`` command line.

Twelve subcommands, one family module each under :mod:`repro.commands`
(which says what every command does)::

    python -m repro table1  --n 4096 --m 3072
    python -m repro design  --n 1024 --m 768 --pin-budget 150
    python -m repro reproduce
    python -m repro verify  --switch columnsort --r 64 --s 8 --m 384 --workers 2
    python -m repro certify revsort --out certificates/
    python -m repro compare --switch revsort --n 256 --m 192 --workers 4
    python -m repro faults inject --switch revsort --n 64 --m 48 --fault chip:0:1
    python -m repro faults sweep --smoke --out fault-certificates/
    python -m repro faults report fault-certificates/
    python -m repro simulate --switch revsort --n 256 --m 192 --load 0.5
    python -m repro knockout --ports 16 --load 0.9
    python -m repro flows compare --n 16 --duration 60 --seed 3
    python -m repro obs export --journal out.jsonl --out metrics.json
    python -m repro obs analyze out.jsonl --trace-out trace.json
    python -m repro bench run --suite smoke
    python -m repro bench compare --baseline BENCH_TRAJECTORY.jsonl

Long-running commands (``simulate``, ``knockout``, ``reproduce``,
``certify``, ``faults sweep``, ``compare``, ``flows``, ``bench run``,
``bench compare``) also take
``--journal`` (stream a ``repro.obs/journal@1`` JSONL event journal,
the one persisted telemetry artifact) and ``--crash-dir``
(flight-recorder crash reports on failure) — see the "Live telemetry"
section of ``docs/observability.md``.  :func:`main` maps the library's
errors to exit codes: 1 for a violated contract, 2 for a usage or
configuration error, 3 for an execution failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from repro.commands import bench, faults, obs, paper, traffic, verify
# Re-exported: wrappers run a command inside the CLI's telemetry scope.
from repro.commands.telemetry import telemetry_scope as _telemetry_scope  # noqa: F401
from repro.errors import ReproError, exit_code_for

_LOG_LEVELS = ("debug", "info", "warning", "error")


def _setup_logging(level_name: str) -> None:
    """Attach one stream handler to the ``repro`` logger (the library
    itself only ever adds a NullHandler)."""
    logger = logging.getLogger("repro")
    logger.setLevel(getattr(logging, level_name.upper()))
    if not any(isinstance(h, logging.StreamHandler) for h in logger.handlers):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        logger.addHandler(handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multichip partial concentrator switches (Cormen 1987)",
    )
    env_level = os.environ.get("REPRO_LOG", "warning").lower()
    parser.add_argument(
        "--log-level",
        choices=_LOG_LEVELS,
        default=env_level if env_level in _LOG_LEVELS else "warning",
        help="logging threshold for the 'repro' logger "
        "(default: $REPRO_LOG or warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for family in (paper, verify, faults, traffic, obs, bench):
        family.register(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _setup_logging(args.log_level)
    try:
        return args.func(args)
    except ReproError as exc:
        # A violated contract is a finding (1), a failed run
        # infrastructure is "rerun me" (3), anything else is a usage or
        # configuration error (2, argparse's convention).
        code = exit_code_for(exc)
        label = {1: "contract violation", 3: "execution failure"}.get(code, "error")
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    except BrokenPipeError:
        # stdout's reader (e.g. `| head`) went away — exit quietly
        # instead of spewing a traceback.  Redirect stdout to devnull
        # so the interpreter's shutdown flush doesn't raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
