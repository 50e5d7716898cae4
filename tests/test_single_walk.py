"""One plan walk per batch: routing and occupancy from the same walk.

``setup_batch`` returns a :class:`BatchRouting` whose ``occupancy`` is
built from the final positions of the walk that produced the routing.
The oracle here is a *second* walk — ``final_positions_batch`` — which
is what the checked paths used to run; keeping it in the tests is what
proves the single walk drops nothing.  The vectorised contract check of
the stream fold is tested against the per-row validator the same way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.concentration import validate_partial_concentration
from repro.engine import StreamSpec, get_backend
from repro.engine.backends import summarize_batch
from repro.engine.batch import BatchRouting, validate_batch_partial_concentration
from repro.errors import ConcentrationError, ReproError
from repro.faults import FaultySwitch
from repro.faults.scenario import plan_of
from repro.switches import registry
from repro.switches.base import Routing
from repro.switches.bitonic import TruncatedBitonicSwitch
from repro.switches.hyperconcentrator import Hyperconcentrator
from repro.switches.iterated_columnsort import IteratedColumnsortSwitch
from repro.switches.revsort_switch import RevsortSwitch
from repro.verify import strategies as vst
from repro.verify.differential import output_occupancy
from repro.verify.patterns import pattern_hex
from tests.conftest import oneshot_valid, serial_stream
from tests.test_fault_injection import BrokenRotationSwitch

REGISTRY_SWITCHES = [
    registry.build_switch(name, **params)
    for name, params in registry.certify_configs()
]
PLAN_SWITCHES = [sw for sw in REGISTRY_SWITCHES if plan_of(sw) is not None] + [
    IteratedColumnsortSwitch(8, 2, 12, passes=2)
]

POSITION_SWITCHES = PLAN_SWITCHES + [TruncatedBitonicSwitch(16, 12, 6, 4)]


def _scatter(valid: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Occupancy of the messages at ``pos`` (−1 or an invalid input
    marks no message)."""
    out = np.zeros(valid.shape, dtype=bool)
    rows, cols = np.nonzero(valid & (pos >= 0))
    out[rows, pos[rows, cols]] = True
    return out


def test_plan_switches_cover_every_plan_family():
    families = {type(sw).__name__ for sw in PLAN_SWITCHES}
    assert families == {
        "RevsortSwitch",
        "ColumnsortSwitch",
        "FullRevsortHyperconcentrator",
        "IteratedColumnsortSwitch",
    }


class TestHealthyOccupancy:
    @pytest.mark.parametrize("switch", POSITION_SWITCHES, ids=repr)
    @settings(max_examples=15)
    @given(data=st.data())
    def test_occupancy_equals_second_walk(self, switch, data):
        valid = data.draw(vst.bit_batches(switch.n, max_batch=8))
        batch = switch.setup_batch(valid)
        expected = _scatter(valid, switch.final_positions_batch(valid))
        assert batch.occupancy is not None
        assert np.array_equal(batch.occupancy, expected)
        assert output_occupancy(switch, batch) is batch.occupancy

    def test_overloaded_rows_occupy_positions_past_m(self):
        """A revsort switch at full load parks messages on positions
        m..n-1: occupancy built from the routing alone would miss
        them, so the tests above can tell the two apart."""
        switch = RevsortSwitch(16, 12)
        batch = switch.setup_batch(np.ones((1, 16), dtype=bool))
        assert batch.routed_counts[0] == 12
        assert batch.occupancy[0].all()

    def test_routing_only_switches_carry_nothing(self):
        batch = Hyperconcentrator(8).setup_batch(np.eye(8, dtype=bool))
        assert batch.carried is None and batch.occupancy is None

    def test_occupancy_is_built_once_on_first_read(self):
        batch = RevsortSwitch(16, 12).setup_batch(np.eye(16, dtype=bool))
        assert "occupancy" not in batch.__dict__
        assert batch.occupancy is batch.occupancy

    def test_stale_plan_measures_through_the_fallback(self, rng):
        """BrokenRotationSwitch's rewired instance no longer matches the
        shared plan, so its batch carries no positions and the occupancy
        comes from its own (scalar) final positions."""
        switch = BrokenRotationSwitch(64, 48)
        valid = rng.random((6, 64)) < 0.6
        batch = switch.setup_batch(valid)
        assert batch.occupancy is None
        expected = np.stack([
            _scatter(row[None, :], switch.final_positions(row)[None, :])[0]
            for row in valid
        ])
        assert np.array_equal(output_occupancy(switch, batch), expected)


class TestFaultyOccupancy:
    @pytest.mark.parametrize("remap", [False, True])
    @pytest.mark.parametrize(
        "inner",
        [RevsortSwitch(16, 12), RevsortSwitch(64, 48)],
        ids=repr,
    )
    @settings(max_examples=20)
    @given(data=st.data())
    def test_occupancy_equals_second_walk(self, inner, remap, data):
        scenario = data.draw(vst.fault_scenarios(inner, max_faults=3))
        fsw = FaultySwitch(inner, scenario, remap_outputs=remap)
        valid = data.draw(vst.bit_batches(inner.n, max_batch=6))
        expected = _scatter(
            np.ones_like(valid), fsw.final_positions_batch(valid)
        )
        batch = fsw.setup_batch(valid)
        assert np.array_equal(batch.occupancy, expected)
        assert np.array_equal(fsw.occupancy_batch(valid), expected)

    @settings(max_examples=10)
    @given(data=st.data())
    def test_columnsort_occupancy_equals_second_walk(self, data):
        inner = registry.build_switch("columnsort", r=16, s=4, m=48)
        scenario = data.draw(vst.fault_scenarios(inner, max_faults=3))
        fsw = FaultySwitch(inner, scenario)
        valid = data.draw(vst.bit_batches(inner.n, max_batch=6))
        expected = _scatter(
            np.ones_like(valid), fsw.final_positions_batch(valid)
        )
        assert np.array_equal(fsw.setup_batch(valid).occupancy, expected)

    @settings(max_examples=10)
    @given(data=st.data())
    def test_non_plan_inner_switch_has_no_occupancy(self, data):
        inner = Hyperconcentrator(16)
        scenario = data.draw(vst.fault_scenarios(inner, max_faults=2))
        fsw = FaultySwitch(inner, scenario)
        valid = data.draw(vst.bit_batches(16, max_batch=4))
        assert fsw.setup_batch(valid).occupancy is None
        assert fsw.occupancy_batch(valid) is None


# -- the vectorised contract check -----------------------------------------

CONTRACT_SWITCH = RevsortSwitch(16, 12)


@st.composite
def damaged_batches(draw: st.DrawFn) -> BatchRouting:
    """A real batch routing with random damage injected into some rows:
    a reused output, a routed invalid input, an out-of-range target, or
    dropped messages."""
    switch = CONTRACT_SWITCH
    valid = draw(vst.bit_batches(switch.n, max_batch=6))
    routing = switch.setup_batch(valid).input_to_output.copy()
    for b in range(valid.shape[0]):
        kind = draw(st.sampled_from(["none", "reuse", "invalid", "range", "drop"]))
        row = routing[b]
        routed = np.flatnonzero(row >= 0)
        idle = np.flatnonzero(~valid[b])
        if kind == "reuse" and routed.size >= 2:
            i, j = draw(st.permutations(routed.tolist()))[:2]
            row[i] = row[j]
        elif kind == "invalid" and idle.size:
            row[draw(st.sampled_from(idle.tolist()))] = draw(
                st.integers(min_value=0, max_value=switch.m - 1)
            )
        elif kind == "range" and routed.size:
            row[draw(st.sampled_from(routed.tolist()))] = draw(
                st.integers(min_value=switch.m, max_value=2 * switch.m)
            )
        elif kind == "drop" and routed.size:
            lost = draw(st.integers(min_value=1, max_value=routed.size))
            row[routed[:lost]] = draw(st.sampled_from([-1, -2, -7]))
    return BatchRouting(
        n_inputs=switch.n,
        n_outputs=switch.m,
        valid=valid,
        input_to_output=routing,
    )


def _row_failures(spec, batch: BatchRouting, start: int = 0) -> list[str]:
    """Per-row reference: one message per violating row."""
    failures = []
    for i, (valid, routing) in enumerate(zip(batch.valid, batch.input_to_output)):
        try:
            validate_partial_concentration(spec, valid, routing)
        except ReproError as exc:
            failures.append(f"trial {start + i} [{pattern_hex(valid)}]: {exc}")
    return failures


class TestVectorisedContract:
    @settings(max_examples=200)
    @given(batch=damaged_batches())
    def test_raises_iff_some_row_raises(self, batch):
        spec = CONTRACT_SWITCH.spec
        failures = _row_failures(spec, batch)
        try:
            validate_batch_partial_concentration(spec, batch)
        except ConcentrationError:
            assert failures
        else:
            assert not failures

    @settings(max_examples=100)
    @given(batch=damaged_batches(), start=st.integers(min_value=0, max_value=10**6))
    def test_fold_matches_per_row_reference(self, batch, start):
        failures = _row_failures(CONTRACT_SWITCH.spec, batch, start)
        summary = summarize_batch(CONTRACT_SWITCH, batch, start=start)
        assert summary.violations == len(failures)
        assert list(summary.messages) == failures[: summary.MAX_MESSAGES]

    def test_reused_output_names_the_first_offending_trial(self):
        valid = np.zeros((3, 16), dtype=bool)
        valid[:, :2] = True
        routing = np.full((3, 16), -1, dtype=np.int64)
        routing[:, :2] = [[0, 1], [4, 4], [5, 5]]
        batch = BatchRouting(16, 12, valid, routing)
        with pytest.raises(ConcentrationError, match="trial 1 "):
            validate_batch_partial_concentration(CONTRACT_SWITCH.spec, batch)


# -- stream messages name the stream trial ---------------------------------


class DroppingRevsortSwitch(RevsortSwitch):
    """Drops every message in both execution paths, so every trial with
    a valid input violates the contract."""

    def setup(self, valid: np.ndarray) -> Routing:
        valid = self._check_valid(valid)
        return Routing(self.n, self.m, valid, np.full(self.n, -1, dtype=np.int64))

    def _setup_batch(self, valid: np.ndarray) -> BatchRouting:
        routing = np.full(valid.shape, -1, dtype=np.int64)
        return BatchRouting(self.n, self.m, valid, routing)


class TestStreamViolationMessages:
    SPEC = StreamSpec(trials=8, seed=3, shard_trials=4)

    def _messages(self, backend) -> tuple[str, ...]:
        summary = backend.run_stream(DroppingRevsortSwitch(1024, 768), self.SPEC)
        assert summary.violations == 8
        return summary.messages

    def _reference_messages(self) -> tuple[str, ...]:
        summary = serial_stream(DroppingRevsortSwitch(1024, 768), self.SPEC)
        assert summary.violations == 8
        return summary.messages

    def test_messages_name_distinct_stream_trials(self):
        messages = self._messages(get_backend("process", workers=1))
        trials = [int(msg.split()[1]) for msg in messages]
        assert trials == list(range(8))

    def test_messages_carry_the_trial_pattern(self):
        children = np.random.SeedSequence(self.SPEC.seed).spawn(2)
        valid = oneshot_valid(1024, 4, children[1], self.SPEC.load)
        messages = self._messages(get_backend("process", workers=1))
        assert messages[5].startswith(f"trial 5 [{pattern_hex(valid[1])}]: ")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_process_backend_reports_the_same_messages(self, workers):
        expected = self._reference_messages()
        got = self._messages(get_backend("process", workers=workers))
        assert got == expected
