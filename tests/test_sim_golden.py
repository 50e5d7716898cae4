"""Golden snapshots for the knockout switch and the round simulator.

Pins, byte for byte, what :func:`knockout_loss_curve`,
:class:`KnockoutSwitch` and :class:`SwitchSimulation` compute, so a
change to either model's internals must leave every loss rate, stats
field and per-round record as it was:

* ``knockout_loss_curves.txt`` — loss curves (float ``repr``) for the
  perfect picker and for a Columnsort partial picker;
* ``knockout_stats_depth2.txt`` — the full :class:`KnockoutStats` and
  every emitted packet of one run whose depth-2 FIFOs overflow;
* ``simulation_per_round.txt`` — ``per_round`` of every congestion
  policy on revsort n=64, m=48 under a sampled flaky-only scenario
  (pins in sampling order, not sorted) and under structural + flaky
  faults with ``remap_outputs=True``;
* ``traffic_payload_rounds.txt`` — the traffic generators at
  ``payload_bits=8``, where payload draws interleave with occupancy
  draws on one RNG: the first rounds' ``(input, payload)`` pairs of
  each generator, then ``per_round`` of each generator under every
  policy (and under a flaky scenario for one generator), then one
  :class:`WavePipeline` summary whose backlog crosses waves;
* ``simulate_cli.txt`` — the stdout of ``repro simulate`` under every
  ``--policy`` at an overloading ``--load``;
* ``fault_samples.txt`` — ``repr`` of :func:`sample_chain` and
  :func:`sample_scenario` draws for every class preset, so the
  weighted draw over the fault sites (``stuck0``/``stuck1`` included)
  is pinned pick by pick.

Regenerate (only for an intended change) with
``PYTHONPATH=src python -m tests.test_sim_golden``.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from repro._util.rng import default_rng
from repro.cli import main
from repro.faults import sample_chain, sample_flaky_scenario, sample_scenario
from repro.faults.sampling import CLASS_PRESETS
from repro.faults.scenario import (
    DeadChipFault,
    DeadOutputFault,
    FaultScenario,
    FlakyPinFault,
    SeveredWireFault,
    StuckAtFault,
)
from repro.messages.congestion import (
    BufferPolicy,
    DropPolicy,
    ResendPolicy,
    RetryPolicy,
)
from repro.network.knockout import (
    KnockoutSwitch,
    knockout_loss_curve,
    uniform_packet_traffic,
)
from repro.messages.clock import WavePipeline
from repro.network import simulate
from repro.network.simulate import SwitchSimulation
from repro.network.traffic import BernoulliTraffic, FixedKTraffic, HotSpotTraffic
from repro.switches.columnsort_switch import ColumnsortSwitch
from repro.switches.registry import build_switch

GOLDEN_DIR = Path(__file__).parent / "golden"


def _curve_lines(label: str, curve: dict) -> list[str]:
    return [f"{label} {p!r} {L} {loss!r}" for (p, L), loss in curve.items()]


def render_loss_curves() -> str:
    perfect = knockout_loss_curve(
        16, loads=[0.3, 0.6, 0.9], l_values=[1, 2, 4, 8], slots=150, seed=2
    )
    partial = knockout_loss_curve(
        16,
        loads=[0.7, 0.8, 0.9],
        l_values=[8],
        slots=200,
        seed=23,
        concentrator_factory=lambda n, m: ColumnsortSwitch(8, 2, 8),
    )
    lines = _curve_lines("perfect", perfect) + _curve_lines("columnsort", partial)
    return "\n".join(lines) + "\n"


def render_knockout_stats() -> str:
    switch = KnockoutSwitch(8, 4, buffer_depth=2)
    lines = []
    for slot, packets in enumerate(uniform_packet_traffic(8, 0.9, 40, seed=5)):
        for out, pkt in enumerate(switch.step(packets)):
            if pkt is not None:
                lines.append(f"slot {slot} out {out} {pkt!r}")
        lines.append(f"queues {switch.queue_lengths()!r}")
    for pkt in switch.drain():
        lines.append(f"drain {pkt!r}")
    lines.append(repr(switch.stats))
    return "\n".join(lines) + "\n"


def _policies() -> dict:
    return {
        "drop": DropPolicy(),
        "buffer": BufferPolicy(capacity=32),
        "resend": ResendPolicy(ack_timeout=1, max_retries=4),
        "retry": RetryPolicy(max_retries=4, ttl=16, seed=3),
    }


def _scenarios(switch) -> dict:
    flaky = sample_flaky_scenario(
        switch, pins=6, rng=default_rng(11), name="flaky", seed=5
    )
    mixed = FaultScenario(
        name="mixed",
        faults=(
            DeadOutputFault(3),
            FlakyPinFault(40, 0.3),
            DeadChipFault(0, 1),
            FlakyPinFault(7, 0.2),
            SeveredWireFault(1, 10),
            StuckAtFault(5, 1),
            FlakyPinFault(22, 0.25),
        ),
        seed=9,
    )
    return {"flaky": (flaky, False), "mixed-remap": (mixed, True)}


def render_simulation_rounds() -> str:
    lines = []
    switch = build_switch("revsort", n=64, m=48)
    for label, (scenario, remap) in _scenarios(switch).items():
        for name, policy in _policies().items():
            sim = SwitchSimulation(
                build_switch("revsort", n=64, m=48),
                BernoulliTraffic(64, 0.5, payload_bits=0, seed=4),
                policy,
                seed=6,
                scenario=scenario,
                remap_outputs=remap,
            )
            summary = sim.run(30)
            lines.append(f"[{label} {name}]")
            lines.extend(repr(r) for r in summary.per_round)
    return "\n".join(lines) + "\n"


def _generators(seed: int) -> dict:
    return {
        "bernoulli": BernoulliTraffic(64, 0.8, payload_bits=8, seed=seed),
        "fixedk": FixedKTraffic(64, 56, payload_bits=8, seed=seed),
        "hotspot": HotSpotTraffic(
            64, hot_fraction=0.5, p_hot=0.95, p_cold=0.45, payload_bits=8,
            seed=seed,
        ),
    }


def render_traffic_payload_rounds() -> str:
    lines = []
    for label, traffic in _generators(21).items():
        for round_index in range(3):
            pairs = [
                (i, msg.to_int())
                for i, msg in enumerate(traffic.next_round())
                if msg is not None
            ]
            lines.append(f"[{label} round {round_index}] {pairs!r}")
    switch = build_switch("revsort", n=64, m=48)
    flaky = sample_flaky_scenario(
        switch, pins=6, rng=default_rng(17), name="flaky", seed=8
    )
    runs = [(label, None) for label in _generators(0)] + [("fixedk", flaky)]
    for label, scenario in runs:
        for name, policy in _policies().items():
            sim = SwitchSimulation(
                build_switch("revsort", n=64, m=48),
                _generators(31)[label],
                policy,
                seed=12,
                scenario=scenario,
            )
            summary = sim.run(20)
            tag = f"{label} {name}" + (" flaky" if scenario else "")
            lines.append(f"[{tag}]")
            lines.extend(repr(r) for r in summary.per_round)
    pipe = WavePipeline(
        build_switch("revsort", n=64, m=48),
        payload_bits=8,
        policy=BufferPolicy(capacity=24),
        seed=13,
    )
    summary = pipe.run(_generators(41)["fixedk"], waves=12)
    lines.append(f"[pipeline fixedk buffer] {summary!r}")
    return "\n".join(lines) + "\n"


def render_simulate_cli() -> str:
    out = io.StringIO()
    for policy in ("drop", "buffer", "resend", "retry"):
        with contextlib.redirect_stdout(out):
            code = main([
                "simulate", "--policy", policy, "--load", "0.9",
                "--rounds", "30", "--seed", "2",
            ])
        assert code == 0
    return out.getvalue()


def render_fault_samples() -> str:
    lines = []
    for design, params in (
        ("revsort", {"n": 64, "m": 48}),
        ("columnsort", {"r": 16, "s": 4, "m": 48}),
    ):
        switch = build_switch(design, **params)
        for preset in CLASS_PRESETS:
            rng = default_rng(7)
            chain = sample_chain(
                switch, length=6, rng=rng, classes=preset, name=preset
            )
            lines.append(f"[{design} chain {preset}] {chain!r}")
            scenarios = [
                sample_scenario(
                    switch, faults=16, rng=rng, classes=preset,
                    name=f"{preset}{index}", seed=index,
                )
                for index in range(3)
            ]
            lines.append(f"[{design} scenarios {preset}] {scenarios!r}")
    return "\n".join(lines) + "\n"


CASES = {
    "knockout_loss_curves.txt": render_loss_curves,
    "knockout_stats_depth2.txt": render_knockout_stats,
    "simulation_per_round.txt": render_simulation_rounds,
    "traffic_payload_rounds.txt": render_traffic_payload_rounds,
    "simulate_cli.txt": render_simulate_cli,
    "fault_samples.txt": render_fault_samples,
}


def test_knockout_loss_curves_are_byte_identical():
    golden = (GOLDEN_DIR / "knockout_loss_curves.txt").read_text()
    assert render_loss_curves() == golden


def test_knockout_stats_are_byte_identical():
    golden = (GOLDEN_DIR / "knockout_stats_depth2.txt").read_text()
    assert "buffer_overflow=0," not in golden
    assert render_knockout_stats() == golden


def test_simulation_rounds_are_byte_identical():
    switch = build_switch("revsort", n=64, m=48)
    flaky, _ = _scenarios(switch)["flaky"]
    pins = [pin for pin, _ in flaky.flaky_pins()]
    assert pins != sorted(pins)
    golden = (GOLDEN_DIR / "simulation_per_round.txt").read_text()
    assert render_simulation_rounds() == golden


class _ReversedShuffle:
    """An RNG stand-in whose ``shuffle`` consumes the same draws but
    leaves the idle slots in reverse order."""

    def __init__(self, rng):
        self._rng = rng

    def shuffle(self, slots) -> None:
        self._rng.shuffle(slots)
        slots[:] = slots[::-1]


def test_goldens_catch_a_different_idle_slot_order(monkeypatch):
    """The backlog placement order is pinned: filling the idle slots in
    any other order than the one ``rng.shuffle`` gives must move a
    golden."""
    place = simulate.place_backlog
    monkeypatch.setattr(
        simulate,
        "place_backlog",
        lambda *args: place(*args[:-1], _ReversedShuffle(args[-1])),
    )
    golden = (GOLDEN_DIR / "simulation_per_round.txt").read_text()
    assert render_simulation_rounds() != golden
    golden = (GOLDEN_DIR / "traffic_payload_rounds.txt").read_text()
    assert render_traffic_payload_rounds() != golden


def test_traffic_payload_rounds_are_byte_identical():
    golden = (GOLDEN_DIR / "traffic_payload_rounds.txt").read_text()
    assert render_traffic_payload_rounds() == golden


def test_simulate_cli_stdout_is_byte_identical():
    golden = (GOLDEN_DIR / "simulate_cli.txt").read_text()
    assert render_simulate_cli() == golden


def test_fault_samples_are_byte_identical():
    golden = (GOLDEN_DIR / "fault_samples.txt").read_text()
    assert "StuckAtFault(position=" in golden
    assert ", value=0)" in golden and ", value=1)" in golden
    assert render_fault_samples() == golden


if __name__ == "__main__":
    for name, render in CASES.items():
        (GOLDEN_DIR / name).write_text(render())
        print(f"wrote {GOLDEN_DIR / name}")
