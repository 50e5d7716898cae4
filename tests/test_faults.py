"""Tests for repro.faults: scenarios, injection, certification, sweeps,
and the resilient-routing simulator extensions."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, FaultInjectionError
from repro.faults import (
    DEGRADATION_SCHEMA,
    DeadChipFault,
    DeadOutputFault,
    FaultScenario,
    FaultySwitch,
    FlakyPinFault,
    SeveredWireFault,
    StuckAtFault,
    certify_chain,
    certify_scenarios,
    compile_scenario,
    fault_sites,
    flaky_resilience,
    gate_occupancy,
    measure_scenario,
    read_degradation_certificate,
    sample_chain,
    sample_flaky_scenario,
    sample_scenario,
    sweep_switch,
    write_degradation_certificate,
)
from repro.faults.sampling import CLASS_PRESETS, _weighted_draws, site_table
from repro.faults.scenario import chip_layers, plan_of
from repro.hardware.chip import HyperconcentratorChip
from repro.hardware.reliability import ReliabilityModel
from repro.messages.congestion import DropPolicy, RetryPolicy
from repro.network.simulate import SimulationSummary, SwitchSimulation
from repro.network.traffic import BernoulliTraffic
from repro.switches.columnsort_switch import ColumnsortSwitch
from repro.switches.hyperconcentrator import Hyperconcentrator
from repro.switches.revsort_switch import RevsortSwitch
from tests.conftest import random_bits


class TestScenarioModel:
    def test_structural_strips_flaky(self):
        scenario = FaultScenario(
            name="s",
            faults=(DeadOutputFault(1), FlakyPinFault(3, 0.2)),
        )
        assert scenario.fault_count == 2
        assert scenario.structural().fault_count == 1
        assert scenario.flaky_pins() == [(3, 0.2)]

    def test_with_fault_extends(self):
        scenario = FaultScenario(name="s").with_fault(DeadOutputFault(0))
        assert scenario.fault_count == 1

    def test_as_dict_round_trips_kinds(self):
        scenario = FaultScenario(
            name="s",
            faults=(
                StuckAtFault(0, 1),
                SeveredWireFault(1, 2),
                DeadChipFault(0, 0),
                DeadOutputFault(3),
                FlakyPinFault(4, 0.1),
            ),
        )
        kinds = [f["kind"] for f in scenario.as_dict()["faults"]]
        assert kinds == [
            "stuck_at", "severed_wire", "dead_chip", "dead_output", "flaky_pin",
        ]


class TestCompileScenario:
    def test_rejects_out_of_range_pin(self):
        sw = RevsortSwitch(16, 12)
        with pytest.raises(FaultInjectionError):
            compile_scenario(
                FaultScenario(name="bad", faults=(StuckAtFault(99, 0),)), sw
            )

    def test_rejects_conflicting_stuck_values(self):
        sw = RevsortSwitch(16, 12)
        scenario = FaultScenario(
            name="bad", faults=(StuckAtFault(3, 0), StuckAtFault(3, 1))
        )
        with pytest.raises(FaultInjectionError):
            compile_scenario(scenario, sw)

    def test_rejects_interior_fault_without_plan(self):
        sw = Hyperconcentrator(16)
        scenario = FaultScenario(name="bad", faults=(DeadChipFault(0, 0),))
        with pytest.raises(FaultInjectionError):
            compile_scenario(scenario, sw)

    def test_rejects_bad_stage(self):
        sw = RevsortSwitch(16, 12)
        scenario = FaultScenario(name="bad", faults=(DeadChipFault(9, 0),))
        with pytest.raises(FaultInjectionError):
            compile_scenario(scenario, sw)

    def test_rejects_duplicate_flaky_pin(self):
        sw = RevsortSwitch(16, 12)
        scenario = FaultScenario(
            name="bad", faults=(FlakyPinFault(3, 0.2), FlakyPinFault(3, 0.5))
        )
        with pytest.raises(FaultInjectionError, match="already flaky"):
            compile_scenario(scenario, sw)


#: Flaky-only scenarios a 16-input switch cannot hold.
BAD_FLAKY = {
    "negative-pin": (FlakyPinFault(-1, 0.5),),
    "pin-beyond-n": (FlakyPinFault(99, 0.5),),
    "p-above-one": (FlakyPinFault(2, 2.5),),
    "duplicate-pin": (FlakyPinFault(4, 1.0), FlakyPinFault(4, 1.0)),
}


def _round_simulator(switch, scenario):
    traffic = BernoulliTraffic(switch.n, 1.0, payload_bits=0, seed=0)
    SwitchSimulation(
        switch, traffic, RetryPolicy(seed=0), scenario=scenario
    ).run(3)


def _flow_fabric(switch, scenario):
    from repro.network.flows import ConcentratorFabric

    stage = ConcentratorFabric(switch, scenario=scenario)
    stage.step(np.arange(16), np.zeros(16, dtype=np.int64))


@pytest.mark.parametrize("simulate", [_round_simulator, _flow_fabric])
@pytest.mark.parametrize("name", list(BAD_FLAKY))
def test_bad_flaky_only_scenario_rejected(simulate, name):
    """A scenario of flaky pins alone is validated like any other, in
    both simulators: no silent wrap of pin -1 onto pin n-1, no bare
    IndexError, no probability above 1, no pin flipped twice."""
    scenario = FaultScenario(name=name, faults=BAD_FLAKY[name], seed=1)
    with pytest.raises(FaultInjectionError):
        simulate(RevsortSwitch(16, 12), scenario)


class TestFaultySwitch:
    def test_empty_scenario_matches_healthy(self, rng):
        sw = RevsortSwitch(64, 48)
        fsw = FaultySwitch(sw, FaultScenario(name="empty"))
        for _ in range(5):
            valid = random_bits(rng, 64)
            assert np.array_equal(
                fsw.setup(valid).input_to_output,
                sw.setup(valid).input_to_output,
            )

    def test_stuck_at_zero_silences_pin(self, rng):
        sw = RevsortSwitch(64, 48)
        fsw = FaultySwitch(
            sw, FaultScenario(name="s0", faults=(StuckAtFault(5, 0),))
        )
        valid = np.zeros(64, dtype=bool)
        valid[5] = True
        assert fsw.setup(valid).routed_count == 0

    def test_stuck_at_one_raises_ghost(self):
        sw = RevsortSwitch(64, 48)
        fsw = FaultySwitch(
            sw, FaultScenario(name="s1", faults=(StuckAtFault(5, 1),))
        )
        routing = fsw.setup(np.zeros(64, dtype=bool))
        assert routing.input_to_output[5] >= 0
        assert routing.routed_count == 1

    def test_dead_output_never_receives(self, rng):
        sw = RevsortSwitch(64, 48)
        fsw = FaultySwitch(
            sw, FaultScenario(name="do", faults=(DeadOutputFault(7),))
        )
        for _ in range(5):
            routing = fsw.setup(random_bits(rng, 64))
            assert 7 not in routing.input_to_output.tolist()

    def test_remap_outputs_recovers_capacity(self):
        sw = RevsortSwitch(64, 48)
        scenario = FaultScenario(name="do", faults=(DeadOutputFault(0),))
        plain = FaultySwitch(sw, scenario)
        remapped = FaultySwitch(sw, scenario, remap_outputs=True)
        assert plain.live_outputs == 47
        assert remapped.live_outputs == 48
        valid = np.ones(64, dtype=bool)
        assert remapped.setup(valid).routed_count > plain.setup(valid).routed_count

    def test_scalar_batch_parity_interior_faults(self, rng):
        sw = RevsortSwitch(64, 48)
        scenario = FaultScenario(
            name="mix",
            faults=(
                DeadChipFault(0, 1),
                SeveredWireFault(1, 10),
                StuckAtFault(3, 0),
                DeadOutputFault(2),
            ),
        )
        fsw = FaultySwitch(sw, scenario)
        batch = np.stack([random_bits(rng, 64) for _ in range(8)])
        routed = fsw.setup_batch(batch).input_to_output
        for row in range(8):
            assert np.array_equal(
                fsw.setup(batch[row]).input_to_output, routed[row]
            )

    def test_columnsort_parity(self, rng):
        sw = ColumnsortSwitch(16, 4, 48)
        scenario = FaultScenario(
            name="cs", faults=(DeadChipFault(1, 0), SeveredWireFault(0, 5))
        )
        fsw = FaultySwitch(sw, scenario)
        batch = np.stack([random_bits(rng, 64) for _ in range(6)])
        routed = fsw.setup_batch(batch).input_to_output
        for row in range(6):
            assert np.array_equal(
                fsw.setup(batch[row]).input_to_output, routed[row]
            )

    def test_gate_parity_at_netlist_size(self, rng):
        sw = RevsortSwitch(16, 12)
        scenario = FaultScenario(name="g", faults=(DeadChipFault(1, 0),))
        fsw = FaultySwitch(sw, scenario)
        batch = np.stack([random_bits(rng, 16) for _ in range(8)])
        gates = gate_occupancy(fsw, batch)
        assert gates is not None
        assert np.array_equal(gates, fsw.occupancy_batch(batch))

    def test_gate_occupancy_none_above_netlist_limit(self, rng):
        sw = RevsortSwitch(64, 48)
        fsw = FaultySwitch(
            sw, FaultScenario(name="big", faults=(DeadChipFault(0, 0),))
        )
        assert gate_occupancy(fsw, random_bits(rng, 64)[None, :]) is None

    def test_dead_chip_kills_exactly_its_messages(self):
        from repro.faults.scenario import chip_layers, plan_of

        sw = RevsortSwitch(64, 48)
        fsw = FaultySwitch(
            sw, FaultScenario(name="dc", faults=(DeadChipFault(0, 0),))
        )
        group = np.asarray(chip_layers(plan_of(sw))[0].groups[0])
        valid = np.zeros(64, dtype=bool)
        valid[group] = True  # offer exactly the dead chip's inputs
        assert sw.setup(valid).routed_count == group.size
        assert fsw.setup(valid).routed_count == 0
        # Full load minus one chip still saturates the outputs.
        assert fsw.setup(np.ones(64, dtype=bool)).routed_count == 48


def _reference_sites(switch, classes: str) -> list[tuple[float, object]]:
    """The ``(weight, fault)`` list built one fault per site — what the
    weight table replaced, kept as its oracle."""
    model = ReliabilityModel()
    kinds, boundary_only = CLASS_PRESETS[classes]
    plan = plan_of(switch)
    layers = chip_layers(plan) if plan is not None else []
    sites: list[tuple[float, object]] = []
    for stage, op in enumerate(layers):
        if boundary_only and stage != len(layers) - 1:
            continue
        chip = HyperconcentratorChip(op.chip_width)
        chip_w = model.chip_rate(chip.area, chip.pins)
        if "dead_chip" in kinds:
            sites.extend((chip_w, DeadChipFault(stage, c)) for c in range(op.n_chips))
        if "severed_wire" in kinds:
            sites.extend(
                (model.pin_rate, SeveredWireFault(stage, int(p))) for p in op.flat32
            )
    if "dead_output" in kinds:
        sites.extend((model.pin_rate, DeadOutputFault(j)) for j in range(switch.m))
    for value in (0, 1):
        if f"stuck{value}" in kinds:
            sites.extend(
                (model.pin_rate, StuckAtFault(i, value)) for i in range(switch.n)
            )
    return sites


def _reference_draws(sites, count: int, rng) -> list[object]:
    """The list-based weighted draw the table replaced: rebuild the
    weight array from the remaining pairs on every pick."""
    pool = list(sites)
    picked = []
    for _ in range(min(count, len(pool))):
        weights = np.array([w for w, _ in pool], dtype=float)
        index = int(rng.choice(len(pool), p=weights / weights.sum()))
        picked.append(pool.pop(index)[1])
    return picked


_SAMPLED_SWITCHES = [
    RevsortSwitch(64, 48),
    ColumnsortSwitch(8, 2, 12),
    Hyperconcentrator(16),
]


class TestSiteTable:
    @pytest.mark.parametrize("preset", sorted(CLASS_PRESETS))
    @pytest.mark.parametrize("switch", _SAMPLED_SWITCHES, ids=repr)
    def test_fault_sites_is_the_table_in_full(self, switch, preset):
        reference = _reference_sites(switch, preset)
        table = site_table(switch, classes=preset)
        assert table.weights.tolist() == [w for w, _ in reference]
        assert [table.fault(i) for i in range(len(table.weights))] == [
            f for _, f in reference
        ]
        assert fault_sites(switch, classes=preset) == reference

    @pytest.mark.parametrize("preset", sorted(CLASS_PRESETS))
    @pytest.mark.parametrize("switch", _SAMPLED_SWITCHES, ids=repr)
    def test_table_draws_pick_what_the_list_draw_picks(self, switch, preset):
        table = site_table(switch, classes=preset)
        reference = _reference_sites(switch, preset)
        for seed, count in ((0, 1), (1, 7), (2, 40), (3, len(reference) + 2)):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _weighted_draws(table, count, rng) == _reference_draws(
                reference, count, ref_rng
            )
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestSampling:
    def test_boundary_sites_only_last_stage(self):
        sw = RevsortSwitch(64, 48)
        sites = fault_sites(sw, classes="boundary")
        layers = max(
            f.stage for _, f in sites if isinstance(f, DeadChipFault)
        )
        assert all(
            f.stage == layers
            for _, f in sites
            if isinstance(f, (DeadChipFault, SeveredWireFault))
        )

    def test_sample_chain_is_nested(self):
        sw = RevsortSwitch(64, 48)
        chain = sample_chain(
            sw, length=4, rng=np.random.default_rng(0), name="c"
        )
        assert [s.fault_count for s in chain] == [1, 2, 3, 4]
        for shorter, longer in zip(chain, chain[1:]):
            assert set(shorter.faults) <= set(longer.faults)

    def test_sample_scenario_distinct_faults(self):
        sw = RevsortSwitch(64, 48)
        scenario = sample_scenario(
            sw, faults=5, rng=np.random.default_rng(1), name="s"
        )
        assert len(set(scenario.faults)) == 5

    def test_sample_flaky_probabilities_in_range(self):
        sw = RevsortSwitch(64, 48)
        scenario = sample_flaky_scenario(
            sw, pins=3, rng=np.random.default_rng(2), name="f"
        )
        for _, p in scenario.flaky_pins():
            assert 0.05 <= p <= 0.3

    def test_unknown_class_preset_rejected(self):
        sw = RevsortSwitch(64, 48)
        with pytest.raises(FaultInjectionError):
            fault_sites(sw, classes="bogus")


class TestCertification:
    def test_measure_scenario_parity_and_alpha(self):
        sw = RevsortSwitch(64, 48)
        scenario = FaultScenario(name="dc", faults=(DeadChipFault(0, 1),))
        report = measure_scenario(sw, scenario, trials=8, seed=1)
        assert report.parity_ok
        assert 0.0 < report.empirical_alpha <= 1.0
        assert report.worst_epsilon is not None

    def test_chain_certificate_monotone(self):
        sw = RevsortSwitch(64, 48)
        chain = sample_chain(
            sw, length=3, rng=np.random.default_rng(3), name="c"
        )
        cert = certify_chain(sw, chain, design="revsort-64", trials=8, seed=1)
        assert cert.kind == "chain"
        assert cert.monotone_alpha is True
        assert cert.ok
        alphas = [s.empirical_alpha for s in cert.steps]
        assert alphas == sorted(alphas, reverse=True)
        # Healthy baseline is prepended.
        assert cert.steps[0].fault_count == 0

    def test_certificate_round_trip(self, tmp_path):
        sw = RevsortSwitch(16, 12)
        cert = certify_scenarios(
            sw,
            [FaultScenario(name="do", faults=(DeadOutputFault(1),))],
            design="revsort-16",
            trials=4,
            seed=0,
        )
        path = write_degradation_certificate(cert, tmp_path / "cert.json")
        doc = read_degradation_certificate(path)
        assert doc["schema"] == DEGRADATION_SCHEMA
        assert doc["design"] == "revsort-16"
        assert doc["ok"] is True

    def test_read_rejects_foreign_schema(self, tmp_path, capsys):
        # A foreign schema, a non-object document and a certificate
        # missing its fields: each is a usage error naming the file,
        # and `repro faults report` exits 2 instead of crashing.
        from repro.cli import main

        for doc in (
            {"schema": "something/else@1"},
            [1, 2],
            {"schema": DEGRADATION_SCHEMA},
        ):
            path = tmp_path / "other.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(ConfigurationError, match="other.json"):
                read_degradation_certificate(path)
            assert main(["faults", "report", str(path)]) == 2
            assert "other.json" in capsys.readouterr().err

    def test_flaky_resilience_retry_recovers(self):
        sw = RevsortSwitch(64, 48)
        scenario = FaultScenario(
            name="fl",
            faults=(FlakyPinFault(2, 0.4), FlakyPinFault(9, 0.25)),
            seed=7,
        )
        result = flaky_resilience(sw, scenario, rounds=30, seed=5)
        assert result["recovered"]
        # Policy-independent flip stream: both runs saw the same faults.
        assert result["drop_faulted"] == result["retry_faulted"]

    def test_sweep_smoke(self):
        sw = RevsortSwitch(64, 48)
        result = sweep_switch(
            sw,
            design="revsort-64",
            chains=1,
            chain_length=2,
            parity_scenarios=1,
            parity_faults=2,
            flaky_scenarios=1,
            trials=6,
            rounds=15,
            seed=0,
        )
        assert result.ok
        assert result.parity_violations == 0
        assert result.non_monotone_chains == 0
        assert result.unrecovered_flaky == 0
        kinds = [c.kind for c in result.certificates]
        assert kinds == ["chain", "scenarios"]


class TestRetryPolicy:
    def test_backoff_schedule(self):
        policy = RetryPolicy(base_delay=1, backoff_factor=2.0, max_delay=8)
        assert [policy.delay_for(a) for a in (1, 2, 3, 4, 5)] == [1, 2, 4, 8, 8]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(ttl=0)

    def test_ttl_expiry_counted(self):
        from repro.messages.message import Message

        policy = RetryPolicy(max_retries=100, ttl=2, jitter=0, seed=0)
        msg = Message(payload=(), tag=1)
        policy.on_unrouted([msg], 0)
        assert policy.stats.retried == 1
        policy.on_unrouted([msg], 5)  # past ttl
        assert policy.stats.expired == 1
        assert policy.stats.dropped == 1

    def test_backlog_due_releases_by_round(self):
        from repro.messages.message import Message

        policy = RetryPolicy(base_delay=2, jitter=0, seed=0)
        policy.on_unrouted([Message(payload=(), tag=1)], 0)
        assert policy.backlog_due(0) == []
        assert policy.in_flight == 1
        assert len(policy.backlog_due(2)) == 1
        assert policy.in_flight == 0


class TestSimulationFaults:
    def test_zero_offered_delivery_rate_is_zero(self):
        # Regression: an empty run delivered nothing, not everything.
        summary = SimulationSummary()
        assert summary.offered == 0
        assert summary.delivery_rate == 0.0
        assert summary.loss_rate == 0.0

    def test_per_round_lost_retried_accounting(self):
        # Backfill: every round satisfies unrouted == lost + retried and
        # the summary totals equal the per-round sums.
        sw = RevsortSwitch(64, 48)
        traffic = BernoulliTraffic(64, 0.9, payload_bits=0, seed=3)
        sim = SwitchSimulation(
            sw, traffic, RetryPolicy(max_retries=2, jitter=0, seed=0), seed=1
        )
        summary = sim.run(25)
        assert summary.lost > 0 or summary.retried > 0
        for r in summary.per_round:
            assert r.unrouted == r.lost + r.retried
        assert summary.lost == sum(r.lost for r in summary.per_round)
        assert summary.retried == sum(r.retried for r in summary.per_round)
        assert summary.expired == sum(r.expired for r in summary.per_round)

    def test_structural_scenario_wraps_switch(self):
        sw = RevsortSwitch(64, 48)
        scenario = FaultScenario(name="do", faults=(DeadOutputFault(0),))
        sim = SwitchSimulation(
            sw,
            BernoulliTraffic(64, 0.2, payload_bits=0, seed=0),
            scenario=scenario,
        )
        assert isinstance(sim.switch, FaultySwitch)

    def test_flaky_faulted_accounting(self):
        sw = RevsortSwitch(64, 48)
        scenario = FaultScenario(
            name="fl", faults=(FlakyPinFault(0, 1.0),), seed=1
        )
        traffic = BernoulliTraffic(64, 1.0, payload_bits=0, seed=0)
        sim = SwitchSimulation(sw, traffic, DropPolicy(), scenario=scenario)
        summary = sim.run(10)
        # p=1.0 flaky pin under full load kills one message per round.
        assert summary.faulted == 10
        assert all(r.faulted == 1 for r in summary.per_round)

    def test_fault_stream_independent_of_policy(self):
        sw = RevsortSwitch(64, 48)
        scenario = FaultScenario(
            name="fl",
            faults=(FlakyPinFault(3, 0.5), FlakyPinFault(11, 0.5)),
            seed=9,
        )

        def run(policy):
            traffic = BernoulliTraffic(64, 0.4, payload_bits=0, seed=2)
            return SwitchSimulation(
                sw, traffic, policy, seed=2, scenario=scenario
            ).run(20)

        drop = run(DropPolicy())
        retry = run(RetryPolicy(seed=2))
        assert drop.faulted == retry.faulted
        assert retry.delivery_rate >= drop.delivery_rate


class TestFaultsCli:
    def test_inject_with_specs(self, capsys):
        from repro.cli import main

        code = main([
            "faults", "inject", "--switch", "revsort", "--n", "64",
            "--m", "48", "--fault", "chip:0:1", "--trials", "8",
        ])
        assert code == 0
        assert "dead chip 1 in stage 0" in capsys.readouterr().out

    def test_inject_bad_spec_exits_2(self, capsys):
        from repro.cli import main

        assert main([
            "faults", "inject", "--switch", "revsort", "--n", "64",
            "--m", "48", "--fault", "gremlin:1",
        ]) == 2

    def test_sweep_smoke_writes_certificates(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "certs"
        code = main([
            "faults", "sweep", "--switch", "revsort", "--n", "64",
            "--m", "48", "--chains", "1", "--chain-length", "2",
            "--parity-scenarios", "1", "--flaky-scenarios", "1",
            "--trials", "6", "--rounds", "15", "--out", str(out),
        ])
        assert code == 0
        files = sorted(out.glob("*.json"))
        assert files
        assert main(["faults", "report", str(out)]) == 0

    def test_contract_violation_exit_code(self, monkeypatch, capsys):
        import argparse

        from repro import cli
        from repro.errors import ConcentrationError

        def raising_func(args):
            raise ConcentrationError("deliberately broken")

        monkeypatch.setattr(
            argparse.ArgumentParser,
            "parse_args",
            lambda self, argv=None: argparse.Namespace(
                func=raising_func, log_level="warning"
            ),
        )
        assert cli.main([]) == 1
        assert "contract violation" in capsys.readouterr().err

    def test_configuration_error_exit_code(self, capsys):
        from repro.cli import main

        # FaultInjectionError is a ConfigurationError → usage exit 2.
        assert main([
            "faults", "inject", "--switch", "revsort", "--n", "64",
            "--m", "48", "--fault", "chip:9:0",
        ]) == 2
        assert "error:" in capsys.readouterr().err
