"""Property test: the fat-tree's array round against a scalar oracle.

:meth:`FatTree.route_round_detailed` routes each level with one
``setup_batch`` call over every over-capacity subtree.  The oracle
below is the per-subtree algorithm it replaced — group the ascending
messages by subtree, one scalar ``setup`` per contended subtree — kept
here as an independent check.  Hypothesis draws occupancy and
destinations at heights 1–6 over three capacity profiles, with the
perfect concentrator and with the paper's partial concentrators as
up-links.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fattree import (
    FatTree,
    constant_capacity,
    full_bisection_capacity,
    lca_level,
    universal_capacity,
)
from repro.switches.perfect import PerfectConcentrator
from repro.switches.registry import build_switch

_PARTIALS: dict[tuple[int, int], object] = {}


def registry_partial(n: int, m: int):
    """Registry partial concentrators for every power-of-two width:
    Revsort where n is a square, Columnsort (s = 2, or s = 1 at n = 2)
    elsewhere."""
    key = (n, m)
    if key not in _PARTIALS:
        if n in (4, 16):
            _PARTIALS[key] = build_switch("revsort", n=n, m=m)
        else:
            s = 2 if n >= 4 else 1
            _PARTIALS[key] = build_switch("columnsort", m=m, r=n // s, s=s)
    return _PARTIALS[key]


FACTORIES = {"perfect": PerfectConcentrator, "partial": registry_partial}


def oracle_round(
    tree: FatTree, factory, dst: np.ndarray
) -> tuple[set[int], dict[int, int]]:
    """Survivor sources and per-level drops, one scalar ``setup`` of a
    ``factory`` switch per contended subtree."""
    live = [src for src in range(tree.leaves) if dst[src] >= 0]
    dropped_per_level: dict[int, int] = {}
    for d in range(1, tree.height):
        cap, width = tree.capacity[d], 1 << d
        survivors, groups = [], {}
        for src in live:
            if lca_level(src, int(dst[src])) > d:
                groups.setdefault(src >> d, []).append(src)
            else:
                survivors.append(src)
        dropped = 0
        for subtree, contenders in groups.items():
            if len(contenders) <= cap or cap >= width:
                survivors.extend(contenders)
                continue
            valid = np.zeros(width, dtype=bool)
            valid[[src - (subtree << d) for src in contenders]] = True
            io = factory(width, cap).setup(valid).input_to_output
            for src in contenders:
                if io[src - (subtree << d)] >= 0:
                    survivors.append(src)
                else:
                    dropped += 1
        if dropped:
            dropped_per_level[d] = dropped
        live = survivors
    return set(live), dropped_per_level


@st.composite
def rounds(draw):
    height = draw(st.integers(min_value=1, max_value=6))
    leaves = 1 << height
    profile = draw(st.sampled_from(["universal", "constant", "full"]))
    if profile == "universal":
        capacity = universal_capacity(height)
    elif profile == "constant":
        capacity = constant_capacity(draw(st.integers(min_value=1, max_value=4)))
    else:
        capacity = full_bisection_capacity()
    factory = FACTORIES[draw(st.sampled_from(sorted(FACTORIES)))]
    # Occupancy from a drawn load: list-of-booleans strategies shrink
    # toward idle trees and would rarely reach contention.
    load = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    busy = rng.random(leaves) < load
    dst = np.where(busy, rng.integers(0, leaves, size=leaves), -1)
    return FatTree(height, capacity, factory), factory, dst


@settings(max_examples=80, deadline=None)
@given(case=rounds())
def test_array_round_matches_scalar_oracle(case):
    tree, factory, dst = case
    stats, survivors = tree.route_round_detailed(dst)
    expected, dropped_per_level = oracle_round(tree, factory, dst)
    assert set(np.flatnonzero(survivors).tolist()) == expected
    assert stats.dropped_per_level == dropped_per_level
    assert stats.offered == int(np.count_nonzero(dst >= 0))
    assert stats.delivered == len(expected)
