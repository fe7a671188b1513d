"""Tests of the Q-table storage and bounded eligibility traces."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.artifact import read_table, write_table
from repro.rl.qtable import QTable
from repro.rl.traces import EligibilityTraces


class TestQTable:
    def test_dimensions(self):
        q = QTable(10, 4)
        assert q.num_states == 10
        assert q.num_actions == 4

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            QTable(0, 4)

    def test_initial_value(self):
        q = QTable(3, 3, initial_value=-5.0)
        assert np.all(q.values == -5.0)

    def test_jittered_init_breaks_ties(self):
        rng = np.random.default_rng(0)
        q = QTable(4, 4, rng=rng)
        assert len(np.unique(q.values)) > 1

    def test_best_value_and_action(self):
        q = QTable(2, 3)
        q.values[0] = [1.0, 5.0, 3.0]
        assert q.best_value(0) == 5.0
        assert q.best_action(0) == 1

    def test_best_action_respects_mask(self):
        q = QTable(1, 3)
        q.values[0] = [1.0, 5.0, 3.0]
        mask = np.array([True, False, True])
        assert q.best_action(0, mask) == 2

    def test_best_action_empty_mask_falls_back(self):
        q = QTable(1, 3)
        q.values[0] = [1.0, 5.0, 3.0]
        assert q.best_action(0, np.zeros(3, dtype=bool)) == 1

    def test_row_is_view(self):
        q = QTable(2, 2)
        q.row(1)[0] = 9.0
        assert q.values[1, 0] == 9.0

    def test_save_load_roundtrip(self, tmp_path):
        # A table persists through the one container format.
        q = QTable(5, 3, rng=np.random.default_rng(1))
        q.values[2, 1] = 42.0
        path = tmp_path / "q.rpa"
        write_table(path, q.values, {})
        header, loaded = read_table(path)
        assert header["shape"] == [5, 3]
        assert np.array_equal(loaded, q.values)

    def test_visited_fraction(self):
        q = QTable(4, 4)
        assert q.visited_fraction() == 0.0
        q.values[0, 0] = 1.0
        assert q.visited_fraction() == pytest.approx(1 / 16)


class TestEligibilityTraces:
    def test_visit_accumulates(self):
        t = EligibilityTraces(decay=0.5)
        t.visit(1, 2)
        t.visit(1, 2)
        assert t.get(1, 2) == pytest.approx(2.0)

    def test_decay_multiplies(self):
        t = EligibilityTraces(decay=0.5)
        t.visit(1, 2)
        t.decay()
        assert t.get(1, 2) == pytest.approx(0.5)

    def test_zero_decay_clears(self):
        t = EligibilityTraces(decay=0.0)
        t.visit(0, 0)
        t.decay()
        assert len(t) == 0

    def test_bounded_to_m_most_recent(self):
        t = EligibilityTraces(decay=0.9, max_entries=3)
        for s in range(5):
            t.visit(s, 0)
        assert len(t) == 3
        assert t.get(0, 0) == 0.0  # oldest dropped
        assert t.get(4, 0) == 1.0

    def test_revisit_moves_to_recent(self):
        t = EligibilityTraces(decay=0.9, max_entries=2)
        t.visit(0, 0)
        t.visit(1, 0)
        t.visit(0, 0)  # 0 becomes most recent again
        t.visit(2, 0)  # evicts 1, not 0
        assert t.get(0, 0) > 0.0
        assert t.get(1, 0) == 0.0

    def test_iteration_oldest_first(self):
        t = EligibilityTraces(decay=0.9)
        t.visit(0, 0)
        t.visit(1, 1)
        keys = [k for k, _ in t]
        assert keys == [(0, 0), (1, 1)]

    def test_clear(self):
        t = EligibilityTraces(decay=0.9)
        t.visit(0, 0)
        t.clear()
        assert len(t) == 0

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            EligibilityTraces(decay=1.0)
        with pytest.raises(ValueError):
            EligibilityTraces(decay=-0.1)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            EligibilityTraces(decay=0.5, max_entries=0)

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3)),
                    min_size=1, max_size=100))
    def test_eligibility_never_negative_and_bounded(self, visits):
        t = EligibilityTraces(decay=0.8, max_entries=16)
        for s, a in visits:
            t.visit(s, a)
            t.decay()
        for _, e in t:
            assert 0.0 <= e <= 1.0 / (1.0 - 0.8) + 1e-9
