"""Degraded-mode certification: what does a broken switch still deliver?

A healthy ``(n, m, α)`` partial concentrator certificate
(:mod:`repro.verify`) proves the nominal contract.  This module
measures what survives a :class:`~repro.faults.scenario.FaultScenario`:

* **empirical α** — the worst per-trial fraction ``routed real
  messages / m`` over a seeded batch of capacity probes (each trial
  offers exactly ``k = m`` messages, the load level where Lemma 2's
  ``α = 1 − ε/m`` guarantee binds);
* **worst ε** — the largest measured nearsortedness of the surviving
  occupancy across the probe batch (plan-based designs only);
* **parity** — the scalar, batched, and (at gate-netlist sizes)
  gate-level fault-injected executions must agree exactly; any
  divergence is recorded as a violation, never silently dropped.

Chains of nested scenarios (see
:func:`repro.faults.sampling.sample_chain`) additionally get a
``monotone_alpha`` verdict: the same seeded probe patterns run against
every prefix, so for boundary-class chains the per-trial routed counts
— and hence empirical α — must be non-increasing in fault count.

Results serialize as schema-tagged **degradation certificates**
(``repro.faults/degradation@1``), mirroring the healthy certificates
of :mod:`repro.verify.certificate`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.engine.batch import nearsortedness_batch
from repro.errors import ConfigurationError
from repro.faults.injector import FaultySwitch, gate_occupancy
from repro.faults.scenario import FaultScenario

DEGRADATION_SCHEMA = "repro.faults/degradation@1"


def probe_patterns(
    n: int, m: int, trials: int, seed: int
) -> np.ndarray:
    """``(trials, n)`` capacity probes: each row offers exactly
    ``min(m, n)`` messages on uniformly random pins.  Seeded, so every
    prefix of a scenario chain measures the *same* workload."""
    rng = np.random.default_rng(seed)
    k = min(m, n)
    order = np.argsort(rng.random((trials, n)), axis=1)
    patterns = np.zeros((trials, n), dtype=bool)
    patterns[np.arange(trials)[:, None], order[:, :k]] = True
    return patterns


@dataclass
class ScenarioReport:
    """Measured degradation of one scenario."""

    name: str
    fault_count: int
    faults: list[str]
    trials: int
    empirical_alpha: float
    min_routed: int
    mean_routed: float
    live_outputs: int
    worst_epsilon: int | None
    scalar_checked: int
    gates_checked: bool
    parity_failures: list[str] = field(default_factory=list)

    @property
    def parity_ok(self) -> bool:
        return not self.parity_failures

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "fault_count": self.fault_count,
            "faults": self.faults,
            "trials": self.trials,
            "empirical_alpha": self.empirical_alpha,
            "min_routed": self.min_routed,
            "mean_routed": self.mean_routed,
            "live_outputs": self.live_outputs,
            "worst_epsilon": self.worst_epsilon,
            "scalar_checked": self.scalar_checked,
            "gates_checked": self.gates_checked,
            "parity_ok": self.parity_ok,
            "parity_failures": self.parity_failures,
        }


@dataclass
class DegradationCertificate:
    """Schema-tagged record of one degradation measurement campaign."""

    design: str
    switch: str
    n: int
    m: int
    nominal_alpha: float
    epsilon_bound: int | None
    kind: str  # "chain" | "scenarios"
    classes: str
    seed: int
    trials: int
    remap_outputs: bool
    steps: list[ScenarioReport] = field(default_factory=list)
    monotone_alpha: bool | None = None
    resilience: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        if any(not step.parity_ok for step in self.steps):
            return False
        if self.monotone_alpha is False:
            return False
        return all(r.get("recovered", True) for r in self.resilience)

    def as_dict(self) -> dict:
        return {
            "schema": DEGRADATION_SCHEMA,
            "design": self.design,
            "switch": self.switch,
            "n": self.n,
            "m": self.m,
            "nominal_alpha": self.nominal_alpha,
            "epsilon_bound": self.epsilon_bound,
            "kind": self.kind,
            "classes": self.classes,
            "seed": self.seed,
            "trials": self.trials,
            "remap_outputs": self.remap_outputs,
            "monotone_alpha": self.monotone_alpha,
            "ok": self.ok,
            "steps": [step.as_dict() for step in self.steps],
            "resilience": self.resilience,
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)


def write_degradation_certificate(
    certificate: DegradationCertificate, path: str | Path
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(certificate.to_json() + "\n")
    return path


def read_degradation_certificate(path: str | Path) -> dict:
    """Load a degradation certificate, checking its schema and the
    fields ``repro faults report`` reads; raises
    :class:`ConfigurationError` naming ``path`` otherwise."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ConfigurationError(
            f"{path} is not a {DEGRADATION_SCHEMA} document "
            f"(a JSON {type(doc).__name__}, not an object)"
        )
    if doc.get("schema") != DEGRADATION_SCHEMA:
        raise ConfigurationError(
            f"{path} is not a {DEGRADATION_SCHEMA} document "
            f"(schema={doc.get('schema')!r})"
        )
    missing = [
        key for key in ("design", "kind", "steps", "ok", "monotone_alpha")
        if key not in doc
    ]
    if missing:
        raise ConfigurationError(
            f"{path} is missing certificate field(s): {', '.join(missing)}"
        )
    return doc


def measure_scenario(
    switch,
    scenario: FaultScenario,
    *,
    trials: int = 32,
    seed: int = 0,
    remap_outputs: bool = False,
    scalar_rows: int = 3,
    use_gates: bool = True,
) -> ScenarioReport:
    """Measure one scenario's degradation and cross-path parity."""
    fsw = FaultySwitch(switch, scenario.structural(), remap_outputs=remap_outputs)
    patterns = probe_patterns(switch.n, switch.m, trials, seed)
    with obs.span(
        "faults.measure",
        scenario=scenario.name, faults=scenario.fault_count, trials=trials,
    ):
        batch = fsw.setup_batch(patterns)
        routing = batch.input_to_output
        real_routed = ((routing >= 0) & patterns).sum(axis=1)
        denom = min(switch.m, switch.n)
        failures: list[str] = []

        # Scalar parity on a spread of probe rows.
        checked = min(scalar_rows, trials)
        stride = max(1, trials // max(1, checked))
        rows = list(range(0, trials, stride))[:checked]
        for row in rows:
            scalar = fsw.setup(patterns[row])
            if not np.array_equal(scalar.input_to_output, routing[row]):
                bad = np.flatnonzero(scalar.input_to_output != routing[row])
                failures.append(
                    f"trial {row}: scalar/batch divergence at inputs "
                    f"{bad.tolist()[:8]}"
                )

        # ε of the surviving occupancy (plan-based designs only).
        worst_eps: int | None = None
        occupancy = batch.occupancy
        if occupancy is not None:
            worst_eps = int(nearsortedness_batch(occupancy).max(initial=0))
            if use_gates:
                gates = gate_occupancy(fsw, patterns)
                gates_checked = gates is not None
                if gates_checked and not np.array_equal(gates, occupancy):
                    mism = np.nonzero((gates != occupancy).any(axis=1))[0]
                    failures.append(
                        f"gate/functional occupancy divergence in trials "
                        f"{mism.tolist()[:8]}"
                    )
            else:
                gates_checked = False
        else:
            gates_checked = False
        obs.counter("faults.scenarios").inc()
    min_routed = int(real_routed.min()) if trials else 0
    return ScenarioReport(
        name=scenario.name,
        fault_count=scenario.fault_count,
        faults=scenario.describe(),
        trials=trials,
        empirical_alpha=min_routed / denom,
        min_routed=min_routed,
        mean_routed=float(real_routed.mean()) if trials else 0.0,
        live_outputs=fsw.live_outputs,
        worst_epsilon=worst_eps,
        scalar_checked=len(rows),
        gates_checked=gates_checked,
        parity_failures=failures,
    )


def certify_chain(
    switch,
    chain: list[FaultScenario],
    *,
    design: str,
    classes: str = "boundary",
    trials: int = 32,
    seed: int = 0,
    remap_outputs: bool = False,
    scalar_rows: int = 3,
    use_gates: bool = True,
) -> DegradationCertificate:
    """Measure a nested scenario chain (healthy baseline prepended) and
    render the monotone-α verdict."""
    healthy = FaultScenario(name="healthy", faults=(), seed=seed)
    steps = [
        measure_scenario(
            switch,
            scenario,
            trials=trials,
            seed=seed,
            remap_outputs=remap_outputs,
            scalar_rows=scalar_rows,
            use_gates=use_gates,
        )
        for scenario in [healthy, *chain]
    ]
    alphas = [step.empirical_alpha for step in steps]
    monotone = all(b <= a + 1e-12 for a, b in zip(alphas, alphas[1:]))
    return DegradationCertificate(
        design=design,
        switch=repr(switch),
        n=switch.n,
        m=switch.m,
        nominal_alpha=float(switch.spec.alpha),
        epsilon_bound=int(getattr(switch, "epsilon_bound", 0) or 0)
        if hasattr(switch, "epsilon_bound")
        else None,
        kind="chain",
        classes=classes,
        seed=seed,
        trials=trials,
        remap_outputs=remap_outputs,
        steps=steps,
        monotone_alpha=monotone,
    )


def certify_scenarios(
    switch,
    scenarios: list[FaultScenario],
    *,
    design: str,
    classes: str = "structural",
    trials: int = 32,
    seed: int = 0,
    remap_outputs: bool = False,
    scalar_rows: int = 3,
    use_gates: bool = True,
) -> DegradationCertificate:
    """Measure independent scenarios (no monotone verdict — interior
    kills legitimately re-rank survivors, see ``docs/robustness.md``)."""
    steps = [
        measure_scenario(
            switch,
            scenario,
            trials=trials,
            seed=seed,
            remap_outputs=remap_outputs,
            scalar_rows=scalar_rows,
            use_gates=use_gates,
        )
        for scenario in scenarios
    ]
    return DegradationCertificate(
        design=design,
        switch=repr(switch),
        n=switch.n,
        m=switch.m,
        nominal_alpha=float(switch.spec.alpha),
        epsilon_bound=int(getattr(switch, "epsilon_bound", 0) or 0)
        if hasattr(switch, "epsilon_bound")
        else None,
        kind="scenarios",
        classes=classes,
        seed=seed,
        trials=trials,
        remap_outputs=remap_outputs,
        steps=steps,
        monotone_alpha=None,
    )


def flaky_resilience(
    switch,
    scenario: FaultScenario,
    *,
    rounds: int = 40,
    load: float = 0.35,
    seed: int = 0,
    max_retries: int = 8,
    ttl: int | None = 64,
) -> dict:
    """Run one flaky-pin scenario under no-retry vs retry/backoff.

    Both runs see identical traffic and identical per-round pin flips
    (the flip stream is seeded by the scenario, not the policy), so the
    retry simulator's delivery rate is directly comparable — and must
    recover at least the no-retry rate.
    """
    from repro.messages.congestion import DropPolicy, RetryPolicy
    from repro.network.simulate import SwitchSimulation
    from repro.network.traffic import BernoulliTraffic

    def _run(policy):
        traffic = BernoulliTraffic(switch.n, load, payload_bits=0, seed=seed)
        sim = SwitchSimulation(
            switch, traffic, policy, seed=seed, scenario=scenario
        )
        return sim.run(rounds)

    drop = _run(DropPolicy())
    retry = _run(
        RetryPolicy(max_retries=max_retries, ttl=ttl, seed=seed)
    )
    return {
        "scenario": scenario.name,
        "faults": scenario.describe(),
        "rounds": rounds,
        "load": load,
        "drop_delivery_rate": drop.delivery_rate,
        "retry_delivery_rate": retry.delivery_rate,
        "drop_faulted": drop.faulted,
        "retry_faulted": retry.faulted,
        "retry_expired": retry.expired,
        "recovered": retry.delivery_rate >= drop.delivery_rate - 1e-12,
    }
