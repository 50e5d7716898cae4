"""Fault injection into the three execution paths of a switch.

:class:`FaultySwitch` wraps any :class:`~repro.switches.base.ConcentratorSwitch`
and applies a compiled :class:`~repro.faults.scenario.FaultScenario` to
its routing:

* **scalar** — for input/output faults the inner switch's own scalar
  ``setup``/``final_positions`` runs on the stuck-adjusted valid bits;
  interior kills walk the stage plan with the library's scalar
  chip-layer machinery (:func:`repro.switches.wiring.apply_chip_layer`),
  zeroing killed wires between stages;
* **batched** — :func:`repro.engine.batch.run_plan_with_faults` runs
  the engine's sparse plan walker with the same kill masks, dropping
  killed messages between layers (all-``None`` masks for a healthy
  plan);
* **gate level** — :func:`netlist_forces` lowers interior kills to
  stuck-at-0 forces on the named chip-output wires
  (``s{stage}c{chip}yv{wire}``) of the design's elaborated netlist.

The three paths are deliberately independent implementations of one
fault semantics; ``repro.faults.certify`` asserts their parity on every
sampled scenario.

Dead outputs support *graceful degradation*: with
``remap_outputs=True`` on a plan-based design, the switch's m logical
outputs are re-bonded to the first m *live* final wires (the positions
``m..n-1`` act as spares), so a dead pad costs capacity only when no
spare is left.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro._util.rng import default_rng
from repro.engine.batch import BatchRouting, run_plan_with_faults
from repro.engine.plan import FixedPermutation
from repro.switches.base import ConcentratorSwitch, Routing
from repro.switches.wiring import apply_chip_layer, permute_bits

from repro.faults.scenario import (
    CompiledFaults,
    FaultScenario,
    chip_layers,
    compile_scenario,
    fault_to_dict,
    plan_of,
)


class FaultySwitch(ConcentratorSwitch):
    """A switch with a fault scenario injected into its routing."""

    def __init__(
        self,
        inner: ConcentratorSwitch,
        scenario: FaultScenario,
        *,
        remap_outputs: bool = False,
    ):
        self.inner = inner
        self.scenario = scenario
        self.n = inner.n
        self.m = inner.m
        self.remap_outputs = bool(remap_outputs)
        self.compiled: CompiledFaults = compile_scenario(scenario, inner)
        self._plan = plan_of(inner)
        self._out = self._build_out_index()
        reg = obs.get_registry()
        if reg.enabled:
            for fault in scenario.faults:
                reg.counter(
                    "faults.injected", kind=fault_to_dict(fault)["kind"]
                ).inc()

    # -- output mapping --------------------------------------------------

    @property
    def _pos_space(self) -> int:
        """Size of the final-position space: all n wires for plan-based
        designs (positions ≥ m are the spares), the m output indices
        otherwise."""
        return self.n if self._plan is not None else self.m

    def _build_out_index(self) -> np.ndarray:
        """``out[p]`` = logical output for final position ``p`` (−1 =
        not an output / dead pad)."""
        space = self._pos_space
        dead = np.zeros(space, dtype=bool)
        dead[: self.m] = self.compiled.dead_outputs[: space]
        out = np.full(space, -1, dtype=np.int64)
        if self.remap_outputs:
            live = np.flatnonzero(~dead)
            window = live[: self.m]
            out[window] = np.arange(window.size, dtype=np.int64)
        else:
            pads = np.arange(self.m)
            keep = ~dead[: self.m]
            out[pads[keep]] = pads[keep]
        return out

    @property
    def live_outputs(self) -> int:
        """How many logical outputs remain readable under this scenario."""
        return int((self._out >= 0).sum())

    # -- contract --------------------------------------------------------

    @property
    def spec(self):
        """The *nominal* contract of the healthy design; the whole point
        of :mod:`repro.faults.certify` is re-measuring what actually
        survives the scenario."""
        return self.inner.spec

    def effective_valid(self, valid: np.ndarray) -> np.ndarray:
        """Valid bits as the first chip stage sees them: stuck-at-0
        pins read invalid, stuck-at-1 pins read valid (a phantom that
        consumes routing capacity)."""
        return (valid & ~self.compiled.stuck0) | self.compiled.stuck1

    # -- position tracking ----------------------------------------------

    def _pos_batch(self, eff: np.ndarray) -> np.ndarray:
        """Final position of every input's message, ``(B, n)``; −1 for
        invalid inputs and messages killed mid-flight.  For non-plan
        designs "position" is the output index the inner switch chose."""
        if self._plan is not None:
            return run_plan_with_faults(self._plan, eff, self.compiled.stage_kills)
        base = self.inner.setup_batch(eff)
        return np.where(eff, base.input_to_output, -1)

    def _pos_scalar(self, eff: np.ndarray) -> np.ndarray:
        """Scalar oracle for :meth:`_pos_batch` on one trial row."""
        if self._plan is None:
            routing = self.inner.setup(eff).input_to_output
            return np.where(eff, routing, -1)
        if not self.compiled.has_interior:
            pos = self.inner.final_positions(eff)
            return np.where(eff, pos, -1)
        # Walk the plan with the scalar chip-layer machinery, killing
        # masked wires at each stage boundary.
        n = self.n
        bits = eff.copy()
        posn = np.arange(n, dtype=np.int64)  # current position of input i
        alive = eff.copy()
        layer_i = 0
        for op in self._plan.ops:
            if isinstance(op, FixedPermutation):
                posn = op.perm[posn]
                bits = permute_bits(bits, op.perm)
                continue
            perm = apply_chip_layer(bits, op)
            posn = perm[posn]
            bits = permute_bits(bits, perm)
            kmask = self.compiled.stage_kills[layer_i]
            layer_i += 1
            if kmask is not None and kmask.any():
                bits[kmask] = False
                alive &= ~kmask[posn]
        return np.where(alive, posn, -1)

    def final_positions_batch(self, valid: np.ndarray) -> np.ndarray:
        """Batched faulty final positions (−1 already masked, unlike the
        healthy switches' ``final_positions_batch``)."""
        valid2d = self._check_valid_batch(valid)
        return self._pos_batch(self.effective_valid(valid2d))

    def occupancy_batch(self, valid: np.ndarray) -> np.ndarray | None:
        """``(B, n)`` bool: which final wires carry a surviving message
        — the quantity the ε measurements and the gate-level setup
        plane both observe (the :attr:`BatchRouting.occupancy` of
        :meth:`setup_batch`); None for designs without a plan."""
        return self.setup_batch(valid).occupancy

    # -- routing ---------------------------------------------------------

    def _routing_from_pos(self, pos: np.ndarray) -> np.ndarray:
        routing = np.full(pos.shape, -1, dtype=np.int64)
        ok = pos >= 0
        routing[ok] = self._out[pos[ok]]
        return routing

    def setup(self, valid: np.ndarray) -> Routing:
        valid1 = self._check_valid(valid)
        eff = self.effective_valid(valid1)
        routing = self._routing_from_pos(self._pos_scalar(eff))
        return Routing(
            n_inputs=self.n, n_outputs=self.m, valid=eff, input_to_output=routing
        )

    def _setup_batch(self, valid: np.ndarray) -> BatchRouting:
        eff = self.effective_valid(valid)
        pos = self._pos_batch(eff)
        rows, cols = np.nonzero(pos >= 0)
        positions = pos[rows, cols]
        routing = np.full(pos.shape, -1, dtype=np.int64)
        routing[rows, cols] = self._out[positions]
        return BatchRouting(
            n_inputs=self.n,
            n_outputs=self.m,
            valid=eff,
            input_to_output=routing,
            carried=None if self._plan is None else (rows, positions),
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"FaultySwitch({self.inner!r}, scenario={self.scenario.name!r}, "
            f"faults={self.scenario.fault_count})"
        )


class FlakyPins:
    """Per-round Bernoulli flips of a scenario's flaky input pins: one
    ``random()`` per pin per round, in scenario order, from a stream
    seeded by the scenario alone (not by the policy or simulator)."""

    def __init__(self, pins: tuple, seed: int):
        self.pins = pins
        self._rng = default_rng(seed)

    def flip(self, occupied: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """One round: a flip on an occupied pin garbles its message
        before the switch sees it, a flip on an idle pin raises a ghost
        that takes switch capacity but delivers nothing.  Returns the
        valid bits the switch sees and the garbled pins, in order."""
        effective = occupied.copy()
        garbled: list[int] = []
        for pin, p in self.pins:
            if self._rng.random() < p:
                if occupied[pin]:
                    garbled.append(pin)
                effective[pin] = not occupied[pin]
        return effective, garbled


def apply_scenario(switch, scenario: FaultScenario, remap_outputs: bool):
    """The scenario hook of both traffic simulators: validate every
    fault against ``switch``, then return the switch to route through
    (a :class:`FaultySwitch` if any fault is structural) and the
    :class:`FlakyPins` flipper, or None without flaky pins."""
    compiled = compile_scenario(scenario, switch)
    structural = scenario.structural()
    if structural.fault_count:
        switch = FaultySwitch(switch, structural, remap_outputs=remap_outputs)
    flaky = FlakyPins(compiled.flaky, scenario.seed) if compiled.flaky else None
    return switch, flaky


def netlist_forces(fswitch: FaultySwitch, circuit) -> dict[int, bool] | None:
    """Lower a scenario's interior kills to netlist wire forces.

    Returns a wire-id → stuck-value map for
    :func:`repro.gates.evaluate.evaluate`, or None when the design has
    no stage plan.  Every chip layer is total, so each killed position
    is a named chip-output wire.  Input stucks are applied to the input
    vector instead (equivalent to forcing the ``v{i}`` wires); dead
    outputs are pad failures and do not exist at the netlist level.
    """
    if fswitch._plan is None:
        return None
    forces: dict[int, bool] = {}
    layers = chip_layers(fswitch._plan)
    for stage, (op, kmask) in enumerate(
        zip(layers, fswitch.compiled.stage_kills)
    ):
        if kmask is None:
            continue
        width = op.chip_width
        for p in np.flatnonzero(kmask):
            chip, wire = divmod(int(op.cm_of[p]), width)
            forces[circuit.wire(f"s{stage}c{chip}yv{wire}")] = False
    return forces


def gate_occupancy(
    fswitch: FaultySwitch, valid: np.ndarray
) -> np.ndarray | None:
    """Final-wire occupancy per the design's gate netlist with the
    scenario's faults forced in, shape ``(B, n)``; None when the design
    has no elaborated netlist (or n > MAX_GATE_N)."""
    from repro.gates.evaluate import evaluate
    from repro.verify.differential import netlist_for

    netlist = netlist_for(fswitch.inner)
    if netlist is None or fswitch._plan is None:
        return None
    circuit, outs = netlist
    forces = netlist_forces(fswitch, circuit)
    valid2d = fswitch._check_valid_batch(valid)
    eff = fswitch.effective_valid(valid2d)
    values = evaluate(circuit, eff, forces=forces)
    return values[:, outs]
