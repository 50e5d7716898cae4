"""Reusable Hypothesis strategies for switch and circuit properties.

Downstream switch authors get property-based coverage for free::

    from hypothesis import given
    from repro.verify import strategies as vst

    @given(valid=vst.valid_bits(64))
    def test_my_switch(valid):
        check(MySwitch(64, 48).setup(valid))

Importing this module requires ``hypothesis`` (a test-only dependency);
the rest of :mod:`repro.verify` stays importable without it, which is
why ``repro.verify.__init__`` does not re-export these names.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.gates.netlist import Circuit, Op

#: Gate operations a random netlist may draw (INPUT handled separately).
_LOGIC_OPS = (Op.BUF, Op.NOT, Op.AND, Op.OR, Op.XOR, Op.NAND, Op.NOR)
_VARIADIC_OPS = (Op.AND, Op.OR, Op.XOR, Op.NAND, Op.NOR)


def valid_bits(n: int) -> st.SearchStrategy[np.ndarray]:
    """A length-``n`` boolean valid-bit vector, any load."""
    return st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda xs: np.array(xs, dtype=bool)
    )


def valid_bits_with_k(n: int) -> st.SearchStrategy[tuple[int, np.ndarray]]:
    """``(k, pattern)`` with exactly k valid bits, k drawn 0..n."""

    def build(args: tuple[int, int]) -> tuple[int, np.ndarray]:
        k, seed = args
        out = np.zeros(n, dtype=bool)
        if k:
            rng = np.random.default_rng(seed)
            out[rng.choice(n, size=k, replace=False)] = True
        return k, out

    return st.tuples(
        st.integers(min_value=0, max_value=n),
        st.integers(min_value=0, max_value=2**31 - 1),
    ).map(build)


def bit_batches(
    n: int, *, min_batch: int = 1, max_batch: int = 130
) -> st.SearchStrategy[np.ndarray]:
    """A ``(B, n)`` boolean batch; the default max crosses the packed
    evaluator's 64-trial word boundary twice."""
    return st.integers(min_value=min_batch, max_value=max_batch).flatmap(
        lambda b: st.lists(
            st.lists(st.booleans(), min_size=n, max_size=n),
            min_size=b,
            max_size=b,
        ).map(lambda rows: np.array(rows, dtype=bool))
    )


@st.composite
def circuits(
    draw: st.DrawFn,
    *,
    max_inputs: int = 6,
    max_gates: int = 40,
    max_fan_in: int = 4,
) -> Circuit:
    """A random topologically ordered combinational netlist: random
    gate types, fan-ins, wiring depth and input placement (the first
    wire is an input, the rest interleave with the logic gates)."""
    n_inputs = draw(st.integers(min_value=1, max_value=max_inputs))
    n_gates = draw(st.integers(min_value=1, max_value=max_gates))
    circuit = Circuit()
    circuit.input(name="v0")
    for is_input in draw(st.permutations([True] * (n_inputs - 1) + [False] * n_gates)):
        if is_input:
            circuit.input(name=f"v{circuit.n_wires}")
            continue
        op = draw(st.sampled_from(_LOGIC_OPS + (Op.CONST0, Op.CONST1)))
        wires = st.integers(min_value=0, max_value=circuit.n_wires - 1)
        if op in (Op.CONST0, Op.CONST1):
            circuit.add_gate(op)
        elif op in (Op.BUF, Op.NOT):
            circuit.add_gate(op, draw(wires))
        else:
            fan_in = draw(st.integers(min_value=2, max_value=max_fan_in))
            circuit.add_gate(op, *(draw(wires) for _ in range(fan_in)))
    return circuit


def switch_configs(
    *, designs: list[str] | None = None
) -> st.SearchStrategy[tuple[str, dict]]:
    """Registry-driven ``(name, params)`` pairs from the designs'
    declared certification configs — the same configurations ``repro
    certify`` proves exhaustively."""
    from repro.switches.registry import certify_configs

    configs = certify_configs(designs)
    return st.sampled_from(configs)


@st.composite
def fault_scenarios(
    draw: st.DrawFn,
    switch,
    *,
    max_faults: int = 3,
    classes: str = "structural",
    flaky: bool = False,
) -> "FaultScenario":
    """A random :class:`repro.faults.FaultScenario` drawn from the
    injectable fault sites of ``switch`` (class presets as in
    :mod:`repro.faults.sampling`), optionally with flaky pins.

    The draw picks distinct sites, so compiled scenarios never conflict
    (e.g. a pin stuck both at 0 and 1).
    """
    from repro.faults import FlakyPinFault, fault_sites
    from repro.faults.scenario import FaultScenario

    sites = [fault for _, fault in fault_sites(switch, classes=classes)]
    count = draw(st.integers(min_value=1, max_value=max_faults))
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(sites) - 1),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    faults = [sites[i] for i in indices]
    if flaky:
        n_flaky = draw(st.integers(min_value=0, max_value=2))
        pins = draw(
            st.lists(
                st.integers(min_value=0, max_value=switch.n - 1),
                min_size=n_flaky,
                max_size=n_flaky,
                unique=True,
            )
        )
        for pin in pins:
            p = draw(st.floats(min_value=0.05, max_value=0.5))
            faults.append(FlakyPinFault(pin, p))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return FaultScenario(name="hypothesis", faults=tuple(faults), seed=seed)


def workload_specs(
    *, ports: tuple[int, ...] = (4, 8, 16), max_duration: float = 25.0
) -> st.SearchStrategy["WorkloadSpec"]:
    """A random :class:`repro.network.flows.WorkloadSpec` — port count,
    offered load (including overload), arrival horizon, size mix, and
    seed — sized for property tests, not paper-scale studies."""
    from repro.network.flows import WorkloadSpec, size_distribution_names

    return st.builds(
        WorkloadSpec,
        n=st.sampled_from(ports),
        load=st.floats(min_value=0.1, max_value=1.2),
        duration=st.floats(min_value=2.0, max_value=max_duration),
        sizes=st.sampled_from(size_distribution_names()),
        fixed_size=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )


@st.composite
def fabric_topologies(draw: st.DrawFn, n: int = 16) -> "FabricStage":
    """A random fabric stage of width ``n`` for the event-driven flow
    simulator: any of the four head-to-head models with its knobs
    (concentrator width, knockout lanes/FIFO depth, rotor hold time)
    drawn too.  ``n`` should be a power of four so every fabric is
    constructible (revsort needs a square, the fat-tree a power of
    two)."""
    from repro.network.flows import build_fabric, fabric_names

    name = draw(st.sampled_from(fabric_names()))
    params: dict[str, object] = {}
    if name == "concentrator":
        params["m"] = draw(st.sampled_from([max(1, n // 2), max(1, (3 * n) // 4)]))
    elif name == "knockout":
        params["lanes"] = draw(st.integers(min_value=1, max_value=4))
        params["fifo_depth"] = draw(st.integers(min_value=1, max_value=8))
    elif name == "rotor":
        params["slot_cycles"] = draw(st.integers(min_value=1, max_value=3))
    return build_fabric(name, n, **params)


def mesh_orderings(side: int) -> st.SearchStrategy[np.ndarray]:
    """A random permutation of the ``side × side`` flat positions —
    candidate mesh readout orderings for the analysis helpers."""
    return st.permutations(list(range(side * side))).map(
        lambda p: np.array(p, dtype=np.int64)
    )
