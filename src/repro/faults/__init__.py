"""repro.faults — fault injection and degraded-mode certification.

The reliability model (:mod:`repro.hardware.reliability`) says a
multichip concentrator *will* lose chips, wires, pins, and pads in the
field; this package answers what the switch still delivers when it
does:

* **fault model** (:mod:`repro.faults.scenario`) — declarative
  :class:`FaultScenario` objects (stuck-at pins, severed wires, dead
  chips, dead output pads, flaky pins) compiled to shared mask form;
* **injection** (:mod:`repro.faults.injector`) — :class:`FaultySwitch`
  threads one scenario through all three execution paths: the scalar
  setup (its own plan walker, kept as an oracle), the batched engine
  (:func:`repro.engine.run_plan_with_faults`, the healthy sparse
  walker with kill masks), and the gate netlists (forced wires);
* **sampling** (:mod:`repro.faults.sampling`) — reliability-weighted
  scenario draws, so MTBF figures become concrete fault distributions;
* **certification** (:mod:`repro.faults.certify`) — re-measured
  empirical α / worst ε per scenario plus cross-path parity, emitted
  as schema-tagged degradation certificates;
* **campaigns** (:mod:`repro.faults.sweep`) — the chains + parity +
  flaky-resilience bundle behind ``repro faults sweep`` and the CI
  chaos-smoke job.

See ``docs/robustness.md`` for the taxonomy and the certificate schema.
"""

from repro.faults.certify import (
    DEGRADATION_SCHEMA,
    DegradationCertificate,
    ScenarioReport,
    certify_chain,
    certify_scenarios,
    flaky_resilience,
    measure_scenario,
    probe_patterns,
    read_degradation_certificate,
    write_degradation_certificate,
)
from repro.faults.injector import FaultySwitch, gate_occupancy, netlist_forces
from repro.faults.sampling import (
    fault_sites,
    sample_chain,
    sample_flaky_scenario,
    sample_scenario,
)
from repro.faults.scenario import (
    CompiledFaults,
    DeadChipFault,
    DeadOutputFault,
    FaultScenario,
    FlakyPinFault,
    SeveredWireFault,
    StuckAtFault,
    compile_scenario,
    plan_of,
)
from repro.faults.sweep import SweepResult, sweep_switch

__all__ = [
    "DEGRADATION_SCHEMA",
    "CompiledFaults",
    "DeadChipFault",
    "DeadOutputFault",
    "DegradationCertificate",
    "FaultScenario",
    "FaultySwitch",
    "FlakyPinFault",
    "ScenarioReport",
    "SeveredWireFault",
    "StuckAtFault",
    "SweepResult",
    "certify_chain",
    "certify_scenarios",
    "compile_scenario",
    "fault_sites",
    "flaky_resilience",
    "gate_occupancy",
    "measure_scenario",
    "netlist_forces",
    "plan_of",
    "probe_patterns",
    "read_degradation_certificate",
    "sample_chain",
    "sample_flaky_scenario",
    "sample_scenario",
    "sweep_switch",
    "write_degradation_certificate",
]
