"""The plan walker's one-row path against its batch path.

``concentrate_plan_batch`` walks a single row (``B == 1``, what the
flow simulator's concentrator fabric sends every cycle) with
``_walk_row`` and any other batch with the sparse batch walker.  Both
run the same compiled step tables; here they must agree row for row —
routing, final positions and occupancy — on every plan-based design
and every load k, including the three ways a chip ranks its messages
(one machine word per chip, several words with carries, ``cumsum``).
The full Columnsort hyperconcentrator has no stage plan (its step 7
uses sentinel wires), so it never reaches either walker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.engine import batch as batch_mod
from repro.engine.batch import _compile_steps, concentrate_plan_batch
from repro.faults.scenario import plan_of
from repro.switches.columnsort_switch import ColumnsortSwitch
from repro.switches.iterated_columnsort import IteratedColumnsortSwitch
from repro.switches.multichip_hyper import FullRevsortHyperconcentrator
from repro.switches.registry import build_switch, certify_configs
from repro.switches.revsort_switch import RevsortSwitch


def _plan_switches():
    cases = [
        (f"{name}-{'-'.join(f'{k}{v}' for k, v in params.items())}",
         lambda name=name, params=params: build_switch(name, **params))
        for name, params in certify_configs()
    ]
    cases += [
        ("revsort-n4-width2-cumsum", lambda: RevsortSwitch(4, 3)),
        ("columnsort-r12-width12-cumsum", lambda: ColumnsortSwitch(12, 2, 18)),
        ("revsort-n256", lambda: RevsortSwitch(256, 192)),
        ("columnsort-r256-wide-cumsum", lambda: ColumnsortSwitch(256, 2, 384)),
        ("iterated-columnsort-k2", lambda: IteratedColumnsortSwitch(16, 4, 36, passes=2)),
        ("iterated-columnsort-k3", lambda: IteratedColumnsortSwitch(16, 4, 48, passes=3)),
        ("fullrevsort-n256", lambda: FullRevsortHyperconcentrator(256)),
    ]
    return [
        pytest.param(make, id=case)
        for case, make in cases
        if plan_of(make()) is not None
    ]


PLAN_SWITCHES = _plan_switches()


def test_every_plan_family_and_rank_kind_is_covered():
    kinds, families = set(), set()
    for param in PLAN_SWITCHES:
        switch = param.values[0]()
        families.add(type(switch).__name__)
        for _, _, width, _, word, _, _ in _compile_steps(plan_of(switch))[0]:
            if word is None:
                kinds.add("cumsum")
            else:
                kinds.add("word" if width == word.itemsize else "words")
    assert families == {
        "RevsortSwitch", "ColumnsortSwitch", "IteratedColumnsortSwitch",
        "FullRevsortHyperconcentrator",
    }
    assert kinds == {"cumsum", "word", "words"}


@pytest.mark.parametrize("make", PLAN_SWITCHES)
def test_one_row_walk_equals_the_batch_walker(make, rng):
    switch = make()
    plan, n, m = plan_of(switch), switch.n, switch.m
    loads = range(n + 1) if n <= 64 else sorted({0, 1, 2, n // 4, n // 2, n - 1, n})
    rows = []
    for k in loads:
        for _ in range(3):
            row = np.zeros(n, dtype=bool)
            row[rng.permutation(n)[:k]] = True
            rows.append(row)
    valid = np.array(rows)
    batch = concentrate_plan_batch(plan, valid, m)
    for b, row in enumerate(valid):
        one = concentrate_plan_batch(plan, row[None], m)
        assert one.input_to_output.dtype == batch.input_to_output.dtype
        assert np.array_equal(one.input_to_output[0], batch.input_to_output[b])
        assert np.array_equal(one.occupancy[0], batch.occupancy[b])
        inputs, pos = batch_mod._walk_row(plan, row)
        flat_idx, _, final = batch_mod._run_plan_sparse_flat(plan, row[None])
        assert np.array_equal(inputs, flat_idx)
        assert np.array_equal(pos, final)


def test_setup_batch_of_one_row_equals_setup(rng):
    switch = RevsortSwitch(64, 48)
    for _ in range(50):
        row = rng.random(64) < rng.random()
        assert np.array_equal(
            switch.setup_batch(row[None]).input_to_output[0],
            switch.setup(row).input_to_output,
        )


def test_one_row_takes_the_row_walk(monkeypatch, rng):
    plan = plan_of(RevsortSwitch(64, 48))
    row = rng.random((1, 64)) < 0.5

    def refuse(*args, **kwargs):
        raise AssertionError("the batch walker ran a one-row batch")

    monkeypatch.setattr(batch_mod, "_run_plan_sparse_flat", refuse)
    concentrate_plan_batch(plan, row, 48)
    with pytest.raises(AssertionError):
        concentrate_plan_batch(plan, np.repeat(row, 2, axis=0), 48)


def test_one_row_observes_the_walk_histograms(rng):
    """One ``engine.run_plan.seconds`` observation per call and one
    ``engine.stage.seconds`` per chip layer, as the batch walker makes,
    and no spans."""
    switch = ColumnsortSwitch(16, 4, 48)
    plan = plan_of(switch)
    layers = len(_compile_steps(plan)[0])
    row = rng.random((1, 64)) < 0.5
    with obs.collecting() as registry:
        for _ in range(3):
            switch.setup_batch(row)
    snapshot = registry.snapshot()
    hists = snapshot["histograms"]
    assert hists["engine.run_plan.seconds"]["count"] == 3
    assert hists["engine.stage.seconds"]["count"] == 3 * layers
    assert snapshot["spans"]["events"] == []
