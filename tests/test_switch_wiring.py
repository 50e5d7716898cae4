"""Tests for the stage machinery (groups, chip layers, composition)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.plan import chip_layer
from repro.errors import ConfigurationError
from repro.switches.wiring import (
    apply_chip_layer,
    column_groups,
    compose,
    row_groups,
)


class TestGroups:
    def test_column_groups_cover_all_positions(self):
        groups = column_groups(4, 3)
        assert len(groups) == 3
        allpos = np.sort(np.concatenate(groups))
        assert np.array_equal(allpos, np.arange(12))

    def test_column_group_contents(self):
        groups = column_groups(3, 2)
        assert list(groups[0]) == [0, 2, 4]
        assert list(groups[1]) == [1, 3, 5]

    def test_row_group_contents(self):
        groups = row_groups(2, 3)
        assert list(groups[0]) == [0, 1, 2]
        assert list(groups[1]) == [3, 4, 5]

    def test_row_groups_reverse_odd(self):
        groups = row_groups(2, 3, reverse_odd=True)
        assert list(groups[0]) == [0, 1, 2]
        assert list(groups[1]) == [5, 4, 3]

    def test_column_groups_reverse_odd(self):
        groups = column_groups(3, 2, reverse_odd=True)
        assert list(groups[0]) == [0, 2, 4]
        assert list(groups[1]) == [5, 3, 1]

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            column_groups(0, 3)


class TestApplyChipLayer:
    def test_sorts_columns(self):
        # 2x2 matrix, valid bits: [[0,1],[1,0]] -> columns sorted.
        valid = np.array([False, True, True, False])
        perm = apply_chip_layer(valid, column_groups(2, 2))
        out = np.empty(4, dtype=bool)
        out[perm] = valid
        assert list(out) == [True, True, False, False]

    def test_snake_rows(self):
        # One row reversed: valid goes to the right.
        valid = np.array([True, False, False])
        perm = apply_chip_layer(valid, [np.array([2, 1, 0])])
        out = np.empty(3, dtype=bool)
        out[perm] = valid
        assert list(out) == [False, False, True]

    def test_is_permutation(self, rng):
        valid = rng.random(24) < 0.5
        perm = apply_chip_layer(valid, column_groups(6, 4))
        assert sorted(perm) == list(range(24))

    def test_uncovered_positions_stay(self):
        valid = np.array([True, False, True])
        perm = apply_chip_layer(valid, [np.array([0, 1])])
        assert perm[2] == 2

    def test_rejects_overlapping_groups(self):
        valid = np.zeros(4, dtype=bool)
        with pytest.raises(ConfigurationError):
            apply_chip_layer(valid, [np.array([0, 1]), np.array([1, 2])])


class TestBatchedFastPath:
    """The vectorised rectangular-bank path, fed a group list or a
    compiled :class:`~repro.engine.plan.ChipLayer`, must match the
    general per-group reference exactly."""

    def _reference(self, valid, groups):
        from repro.switches.hyperconcentrator import concentrate_permutation

        perm = np.arange(valid.size, dtype=np.int64)
        for g in groups:
            local = concentrate_permutation(valid[g])
            perm[g] = g[local]
        return perm

    @pytest.mark.parametrize(
        "rows,cols,maker,kwargs",
        [
            (8, 8, column_groups, {}),
            (8, 8, row_groups, {}),
            (16, 4, column_groups, {}),
            (4, 16, row_groups, {}),
            (6, 9, row_groups, {"reverse_odd": True}),
            (9, 6, column_groups, {"reverse_odd": True}),
        ],
    )
    def test_matches_reference(self, rng, rows, cols, maker, kwargs):
        groups = maker(rows, cols, **kwargs)
        layer = chip_layer(groups)
        for _ in range(30):
            valid = rng.random(rows * cols) < rng.random()
            expected = self._reference(valid, groups)
            assert np.array_equal(apply_chip_layer(valid, groups), expected)
            assert np.array_equal(apply_chip_layer(valid, layer), expected)

    def test_irregular_groups_use_general_path(self, rng):
        valid = rng.random(7) < 0.5
        groups = [np.array([0, 3, 5]), np.array([1, 2])]
        assert np.array_equal(
            apply_chip_layer(valid, groups), self._reference(valid, groups)
        )

    def test_batched_overlap_detected(self):
        valid = np.zeros(6, dtype=bool)
        groups = [np.array([0, 1, 2]), np.array([2, 3, 4])]  # equal sizes
        with pytest.raises(ConfigurationError):
            apply_chip_layer(valid, groups)


class TestCompose:
    def test_order(self):
        p1 = np.array([1, 2, 0])  # pos p -> p1[p]
        p2 = np.array([0, 2, 1])
        combined = compose([p1, p2])
        # input at 0 -> 1 -> 2
        assert combined[0] == 2

    def test_identity(self):
        p = np.arange(5)
        assert np.array_equal(compose([p, p]), p)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            compose([])
