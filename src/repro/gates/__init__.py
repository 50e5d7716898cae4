"""Gate-level combinational circuit substrate.

The paper's switches are combinational: the valid bits establish
routing paths during the setup cycle and message bits then flow through
pure gate logic.  This package provides

* a small netlist representation and evaluator
  (:mod:`repro.gates.netlist`, :mod:`repro.gates.evaluate`),
* gate-delay (critical path) analysis (:mod:`repro.gates.depth`),
* reusable combinational builders — OR/AND trees, ripple and prefix
  population counters, equality decoders (:mod:`repro.gates.builders`),
* a gate-level hyperconcentrator netlist
  (:mod:`repro.gates.hyperconc_gates`) that is functionally identical
  to the fast model in :mod:`repro.switches.hyperconcentrator` (the
  tests check this exhaustively for small n) with Θ(n²) crosspoint
  components and an O(lg n)-depth data path, matching the Section 1
  figures for the Cormen–Leiserson chip.
"""

from repro.gates.depth import critical_path_length, wire_depths
from repro.gates.evaluate import evaluate, pack_bits, unpack_bits
from repro.gates.hyperconc_gates import GateHyperconcentrator, build_hyperconcentrator
from repro.gates.netlist import Circuit, Op

__all__ = [
    "Circuit",
    "GateHyperconcentrator",
    "Op",
    "build_hyperconcentrator",
    "critical_path_length",
    "evaluate",
    "pack_bits",
    "unpack_bits",
    "wire_depths",
]
