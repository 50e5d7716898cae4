"""Run a ``repro`` command with its event journal on.

``repro verify`` has no ``--journal`` flag, so the benchmark's
journal-on variant of the verify workload runs through here: the command
executes inside the same telemetry scope the CLI opens for ``--journal``
on every other command (registry, journal, flight recorder, resource
sampler).  A command that does accept ``--journal`` just gets the flag.

Usage: python perfbench/journal_launch.py JOURNAL REPRO-ARGS...
"""

from __future__ import annotations

import argparse
import sys


def main() -> int:
    journal, argv = sys.argv[1], sys.argv[2:]
    from repro import cli

    _, unknown = cli.build_parser().parse_known_args(argv + ["--journal", journal])
    if "--journal" not in unknown:
        return cli.main(argv + ["--journal", journal])
    scope = argparse.Namespace(
        command=argv[0], journal=journal, live=False, crash_dir=None, metrics_out=None
    )
    with cli._telemetry_scope(scope):
        return cli.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
