"""Golden snapshots for ``repro faults sweep``.

The ``--format json`` documents are pinned byte for byte under
``tests/golden/``: any drift in scenario sampling, the batched or
scalar fault paths, gate parity or float rounding trips these tests.
Regenerate with the exact command recorded on each case if the change
is intentional.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    # PYTHONPATH=src python -m repro faults sweep --smoke --seed 0 \
    #   --format json
    # Three small geometries at n=16 with live gate-netlist parity.
    "faults_sweep_smoke_seed0.json": [
        "faults", "sweep", "--smoke", "--seed", "0", "--format", "json",
    ],
    # PYTHONPATH=src python -m repro faults sweep --seed 1 --trials 8 \
    #   --rounds 2 --format json
    # The flagship revsort and columnsort designs at n=4096, with
    # interior kills (dead chips, severed wires) in both.
    "faults_sweep_flagship_seed1.json": [
        "faults", "sweep", "--seed", "1", "--trials", "8", "--rounds", "2",
        "--format", "json",
    ],
}


@pytest.mark.parametrize("name", list(CASES))
def test_sweep_json_is_byte_identical(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / name).read_text()
