"""Row forms of the scalar paths: ``route_rows``, the batched butterfly
oracle and the plan walker's word-parallel chip ranks, and the
certifier's guards against mutants of each."""

from __future__ import annotations

import inspect
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.engine import batch as batch_mod
from repro.engine.plan import FixedPermutation
from repro.errors import ConcentrationError, RoutingError
from repro.faults.injector import FaultySwitch
from repro.faults.scenario import (
    FaultScenario,
    SeveredWireFault,
    StuckAtFault,
    plan_of,
)
from repro.switches.base import ConcentratorSwitch
from repro.switches.columnsort_switch import ColumnsortSwitch
from repro.switches.prefix_butterfly import (
    PrefixButterflyHyperconcentrator,
    butterfly_route,
    prefix_ranks,
)
from repro.switches.registry import build_switch, certify_configs
from repro.switches.revsort_switch import RevsortSwitch
from repro.verify import certify_switch, quick_options


def _switches():
    cases = [
        (f"{name}-{'-'.join(f'{k}{v}' for k, v in params.items())}",
         lambda name=name, params=params: build_switch(name, **params))
        for name, params in certify_configs()
    ]
    cases.append(("faulty-revsort-16", lambda: FaultySwitch(
        RevsortSwitch(16, 12),
        FaultScenario(
            name="mixed", faults=(StuckAtFault(3, 1), SeveredWireFault(1, 5))
        ),
    )))
    return [pytest.param(build, id=name) for name, build in cases]


def _messages(rng, rows: int, n: int) -> list[list[object | None]]:
    valid = rng.random((rows, n)) < rng.random((rows, 1))
    return [
        [(f"m{b}.{j}" if j % 2 else (b, j)) if v else None for j, v in enumerate(row)]
        for b, row in enumerate(valid.tolist())
    ]


class TestRouteRows:
    @pytest.mark.parametrize("build", _switches())
    @pytest.mark.parametrize("rows", [0, 1, 300])
    def test_equals_route_per_row_with_the_same_counters(self, rng, build, rows):
        switch = build()
        messages = _messages(rng, rows, switch.n)
        with obs.collecting() as registry:
            got = switch.route_rows(messages)
            by_rows = registry.snapshot()["counters"]
        with obs.collecting() as registry:
            expected = [switch.route(row) for row in messages]
            one_by_one = registry.snapshot()["counters"]
        assert got == expected
        route_counters = {k: v for k, v in by_rows.items() if k.startswith("switch.")}
        assert route_counters == {
            k: v for k, v in one_by_one.items() if k.startswith("switch.")
        }
        if rows:
            label = type(switch).__name__
            assert by_rows[f"switch.route_calls{{switch={label}}}"] == rows

    def test_wrong_length_row_raises(self):
        switch = RevsortSwitch(16, 12)
        rows = [[None] * 16, ["x"] * 15]
        with pytest.raises(RoutingError, match="expected 16 input messages, got 15"):
            switch.route_rows(rows)

    def test_reused_output_raises_as_routing_does(self):
        """The batched path check raises the error the one-row
        :class:`~repro.switches.base.Routing` raises."""

        class Overlapping(RevsortSwitch):
            def scalar_routing(self, valid):
                routing = super().scalar_routing(valid)
                routing[-1] = np.where(valid[-1], 0, -1)
                return routing

        switch = Overlapping(16, 12)
        rows = [[None] * 16, ["a", "b"] + [None] * 14]
        with pytest.raises(ConcentrationError, match="not disjoint"):
            switch.route_rows(rows)


def _butterfly_loop(dest: np.ndarray):
    """Reference: the pair-by-pair loop ``butterfly_route`` replaced.
    Returns ``(final, settings)`` or the ``RoutingError`` message."""
    n = dest.size
    position_of = np.arange(n)
    settings = []
    for t in range(n.bit_length() - 1):
        bit = 1 << t
        occupant = np.full(n, -1)
        for i in np.flatnonzero(dest >= 0):
            occupant[position_of[i]] = i
        new_position = position_of.copy()
        stage = []
        for lo in (p for p in range(n) if not p & bit):
            packets = [int(i) for i in occupant[[lo, lo | bit]] if i >= 0]
            up = [i for i in packets if dest[i] & bit]
            down = [i for i in packets if not dest[i] & bit]
            if len(up) > 1 or len(down) > 1:
                return f"butterfly conflict at stage {t}, pair ({lo},{lo | bit})"
            stage.append(any(position_of[i] == lo for i in up)
                         or any(position_of[i] != lo for i in down))
            for i in up:
                new_position[i] = lo | bit
            for i in down:
                new_position[i] = lo
        position_of = new_position
        settings.append(stage)
    for i in np.flatnonzero(dest >= 0):
        if position_of[i] != dest[i]:
            return f"packet {i} ended at {position_of[i]}, wanted {dest[i]}"
    return np.where(dest >= 0, position_of, -1).tolist(), settings


class TestButterflyRows:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
    def test_equals_the_pair_loop(self, rng, n):
        """Random permutations, concentration patterns and arbitrary
        destinations (most of them conflict) route, set and fail as the
        pair-by-pair loop does."""
        for trial in range(300):
            kind = trial % 3
            if kind == 0:
                dest = rng.permutation(n)
            elif kind == 1:
                valid = rng.random(n) < rng.random()
                dest = np.where(valid, np.cumsum(valid) - 1, -1)
            else:
                dest = rng.integers(-2, 2 * n, n)
            expected = _butterfly_loop(dest)
            if isinstance(expected, str):
                with pytest.raises(RoutingError) as info:
                    butterfly_route(dest)
                assert str(info.value) == expected
            else:
                final, settings = butterfly_route(dest)
                assert (final.tolist(), [s.tolist() for s in settings]) == expected

    def test_all_rows_at_n16_equal_the_one_row_calls(self):
        n = 16
        valid = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
        dest = np.where(valid, prefix_ranks(valid) - 1, -1)
        final, settings = butterfly_route(dest)
        assert final.shape == (1 << n, n)
        assert [s.shape for s in settings] == [(1 << n, n // 2)] * 4
        assert np.array_equal(final, dest)
        for row in range(0, 1 << n, 997):
            one, one_settings = butterfly_route(dest[row])
            assert np.array_equal(final[row], one)
            for stage, one_stage in zip(settings, one_settings):
                assert np.array_equal(stage[row], one_stage)

    def test_non_monotone_row_raises_naming_its_row(self):
        dest = np.array([[0, 1, -1, -1], [3, 3, -1, -1]])
        with pytest.raises(RoutingError, match=r"stage \d, pair \(\d,\d\) in row 1"):
            butterfly_route(dest)
        with pytest.raises(RoutingError, match="conflict"):
            butterfly_route(dest[1])

    def test_setup_and_scalar_routing_read_the_oracle(self, rng):
        switch = PrefixButterflyHyperconcentrator(32)
        valid = rng.random((40, 32)) < 0.5
        rows = switch.scalar_routing(valid)
        for b in range(40):
            assert np.array_equal(rows[b], switch.setup(valid[b]).input_to_output)
            _, settings = butterfly_route(np.where(valid[b], prefix_ranks(valid[b]) - 1, -1))
            assert all(np.array_equal(a, b) for a, b in
                       zip(switch.switch_settings(), settings))


class TestWordRanks:
    @pytest.mark.parametrize("width", range(1, 65))
    def test_equals_cumsum(self, rng, width):
        word = batch_mod._rank_word(width)
        assert (word is None) == (width not in (4, 8, 16, 24, 32, 40, 48, 56, 64))
        if word is None:
            return
        for rows, chips in ((0, 3), (1, 1), (4097, 3)):
            grp = rng.random((rows, chips * width)) < rng.random((rows, 1))
            expected = np.cumsum(
                grp.reshape(rows, chips, width), axis=2,
                dtype=batch_mod._rank_dtype(width),
            ).reshape(rows, chips * width)
            got = batch_mod._word_ranks(grp.copy(), chips, width, word)
            assert np.array_equal(got.reshape(rows, chips * width), expected)

    def test_full_chips_reach_the_widest_rank(self):
        grp = np.ones((2, 3 * 248), dtype=bool)
        ranks = batch_mod._word_ranks(grp, 3, 248, batch_mod._rank_word(248))
        assert ranks.reshape(2, 3, 248)[:, :, -1].tolist() == [[248] * 3] * 2

    @pytest.mark.parametrize("n, m, kind", [(64, 48, "revsort"), (256, 192, "revsort"),
                                            (64, 48, "columnsort")])
    def test_walker_with_kill_masks_equals_the_cumsum_walker(self, rng, monkeypatch,
                                                              n, m, kind):
        switch = RevsortSwitch(n, m) if kind == "revsort" else ColumnsortSwitch(16, 4, m)
        plan = plan_of(switch)
        layers = sum(1 for op in plan.ops if not isinstance(op, FixedPermutation))
        kills = [None] * layers
        kills[0] = rng.random(n) < 0.1
        valid = rng.random((300, n)) < rng.random((300, 1))
        words = batch_mod.run_plan_with_faults(plan, valid, kills)
        monkeypatch.setattr(batch_mod, "_rank_word", lambda width: None)
        batch_mod._STEPS_CACHE.clear()
        try:
            dense = batch_mod.run_plan_with_faults(plan, valid, kills)
        finally:
            batch_mod._STEPS_CACHE.clear()
        assert np.array_equal(words, dense)


# -- mutation guards: certify_switch must catch each mutant ---------------


def _mutant(func, old: str, new: str):
    """``func`` recompiled from its source with ``old`` replaced by
    ``new``, in its own module's namespace."""
    source = inspect.getsource(func)
    assert source.count(old) == 1, f"{old!r} not found once in {func.__name__}"
    namespace = dict(vars(inspect.getmodule(func)))
    exec(source.replace(old, new), namespace)
    return namespace[func.__name__]


class _PayloadRouter(RevsortSwitch):
    """Rows whose payloads are strings leave one output slot later."""

    def route_rows(self, rows):
        out = super().route_rows(rows)
        return [
            [None] + slots[:-1] if any(isinstance(m, str) for m in row) else slots
            for row, slots in zip(rows, out)
        ]


_inverted_stage = _mutant(
    butterfly_route,
    "crossed = (at ^ want) & bit",
    "crossed = (at ^ want ^ (bit if t == 1 else 0)) & bit",
)


class _InvertedStageOracle(PrefixButterflyHyperconcentrator):
    """The row oracle inverts stage 1's bit test."""

    def scalar_routing(self, valid):
        valid = self._check_valid_batch(valid)
        return _inverted_stage(np.where(valid, prefix_ranks(valid) - 1, -1))[0]


class TestCertifierCatchesRowMutants:
    OPTIONS = replace(quick_options(), scalar_rows=1 << 12)

    def _violations(self, switch: ConcentratorSwitch, options=OPTIONS) -> set[str]:
        cert = certify_switch(switch, design="mutant", options=options)
        assert not cert.ok
        return {v.check for v in cert.violations}

    def test_payload_dependent_route(self):
        assert "metamorphic" in self._violations(_PayloadRouter(16, 12))
        assert certify_switch(RevsortSwitch(16, 12), options=self.OPTIONS).ok

    def test_butterfly_oracle_with_an_inverted_stage(self):
        options = replace(self.OPTIONS, metamorphic_rows=0)
        assert "scalar-parity" in self._violations(_InvertedStageOracle(16), options)
        assert certify_switch(PrefixButterflyHyperconcentrator(16), options=options).ok

    def test_carry_off_by_one_word(self, monkeypatch):
        switch = ColumnsortSwitch(16, 4, 48)
        assert certify_switch(switch, options=self.OPTIONS).ok
        monkeypatch.setattr(batch_mod, "_word_ranks", _mutant(
            batch_mod._word_ranks,
            "words[:, :, j] += carry",
            "words[:, :, j - 1] += carry",
        ))
        assert self._violations(switch) & {"contract", "scalar-parity"}
