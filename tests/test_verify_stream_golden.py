"""Golden snapshots of the sharded trial stream.

``repro verify --backend process`` folds per-shard summaries from
trials each shard generates from its own ``SeedSequence`` child, so its
stdout must be byte-identical for any worker count.  These snapshots
pin that stdout and the inline (``workers=1``) :class:`StreamSummary`
for every registry certify config, so a change to how a shard is
routed, checked or measured cannot move the stream's results unnoticed.

Regenerate the CLI snapshots with the commands in
:data:`VERIFY_COMMANDS` (``PYTHONPATH=src python -m repro ...``, either
worker count) and the summaries with :func:`_summaries`.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine import StreamSpec, get_backend
from repro.switches import registry

GOLDEN_DIR = Path(__file__).parent / "golden"

#: golden file -> ``repro`` arguments (``--workers`` is appended).
VERIFY_COMMANDS = {
    "verify_process_revsort_n256.json": [
        "verify", "revsort", "--n", "256", "--m", "192", "--trials", "8192",
        "--seed", "1", "--backend", "process", "--format", "json",
    ],
    "verify_process_columnsort_r16s4.json": [
        "verify", "columnsort", "--r", "16", "--s", "4", "--m", "48",
        "--trials", "8192", "--seed", "1", "--backend", "process",
        "--format", "json",
    ],
}

SUMMARY_GOLDEN = GOLDEN_DIR / "stream_summaries_batch.json"
SUMMARY_SPEC = StreamSpec(trials=4096, seed=1, shard_trials=1024)
SUMMARY_FIELDS = ("routed_total", "min_routed", "worst_epsilon", "violations")


def _summaries() -> list[dict]:
    """The inline stream fold for every registry certify config."""
    backend = get_backend("process", workers=1)
    rows = []
    for name, params in registry.certify_configs():
        switch = registry.build_switch(name, **params)
        summary = backend.run_stream(switch, SUMMARY_SPEC)
        rows.append(
            {"design": name, "params": params}
            | {key: getattr(summary, key) for key in SUMMARY_FIELDS}
        )
    return rows


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("golden", sorted(VERIFY_COMMANDS))
def test_process_verify_stdout_is_byte_identical(golden, workers, capsys):
    args = VERIFY_COMMANDS[golden] + ["--workers", str(workers)]
    assert main(args) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / golden).read_text()


def test_batch_stream_summaries_match_golden():
    assert _summaries() == json.loads(SUMMARY_GOLDEN.read_text())
