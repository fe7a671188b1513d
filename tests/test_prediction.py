"""Tests of the driving-profile predictors (paper Section 4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.prediction import (
    ExponentialPredictor,
    MarkovPredictor,
    MLPPredictor,
    PredictionQuantizer,
)


class TestExponentialPredictor:
    def test_eq12_recurrence(self):
        # pre_i = (1 - alpha) pre_{i-1} + alpha meas_{i-1}, exactly.
        p = ExponentialPredictor(learning_rate=0.4, initial=1000.0)
        p.update(2000.0)
        assert p.predict() == pytest.approx(0.6 * 1000.0 + 0.4 * 2000.0)

    def test_initial_prediction(self):
        p = ExponentialPredictor(initial=500.0)
        assert p.predict() == 500.0

    def test_converges_to_constant_signal(self):
        p = ExponentialPredictor(learning_rate=0.3)
        for _ in range(200):
            p.update(4200.0)
        assert p.predict() == pytest.approx(4200.0, rel=1e-6)

    def test_alpha_one_tracks_exactly(self):
        p = ExponentialPredictor(learning_rate=1.0)
        p.update(123.0)
        assert p.predict() == 123.0

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ExponentialPredictor(learning_rate=0.0)
        with pytest.raises(ValueError):
            ExponentialPredictor(learning_rate=1.5)

    def test_reset_restores_initial(self):
        p = ExponentialPredictor(initial=7.0)
        p.update(100.0)
        p.reset()
        assert p.predict() == 7.0

    @given(st.floats(min_value=0.01, max_value=1.0),
           st.lists(st.floats(min_value=-1e5, max_value=1e5), min_size=1,
                    max_size=50))
    def test_prediction_bounded_by_history_extremes(self, alpha, values):
        p = ExponentialPredictor(learning_rate=alpha, initial=values[0])
        for v in values:
            p.update(v)
        lo, hi = min(values), max(values)
        assert lo - 1e-6 <= p.predict() <= hi + 1e-6

    def test_smooths_oscillation(self):
        # A small alpha must damp an alternating signal toward its mean.
        p = ExponentialPredictor(learning_rate=0.1, initial=0.0)
        for k in range(500):
            p.update(1000.0 if k % 2 == 0 else -1000.0)
        assert abs(p.predict()) < 300.0


class TestMarkovPredictor:
    def test_learns_deterministic_chain(self):
        p = MarkovPredictor(power_min=0.0, power_max=100.0, num_bins=4,
                            prior_count=0.0)
        # Feed a fixed repeating pattern; prediction should land near the
        # successor bin's centre.
        pattern = [10.0, 40.0, 60.0, 90.0]
        for _ in range(50):
            for v in pattern:
                p.update(v)
        p.update(10.0)  # chain now in bin of 10 -> next should be ~40
        assert p.predict() == pytest.approx(37.5, abs=15.0)

    def test_reset_keeps_statistics(self):
        p = MarkovPredictor(num_bins=4)
        for v in [0.0, 10_000.0] * 20:
            p.update(v)
        before = p.predict()
        p.reset()
        p.update(0.0)
        # Transitions survived the reset.
        assert p.predict() != 0.0 or before != 0.0

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            MarkovPredictor(power_min=10.0, power_max=0.0)
        with pytest.raises(ValueError):
            MarkovPredictor(num_bins=1)
        with pytest.raises(ValueError):
            MarkovPredictor(prior_count=-1.0)

    def test_out_of_range_clipped(self):
        p = MarkovPredictor(power_min=-10.0, power_max=10.0, num_bins=4)
        p.update(1e9)  # must not crash; lands in the top bin
        assert np.isfinite(p.predict())


class TestMLPPredictor:
    def test_learns_constant_signal(self):
        p = MLPPredictor(window=4, hidden=8, learning_rate=0.05)
        for _ in range(800):
            p.update(9000.0)
        assert p.predict() == pytest.approx(9000.0, rel=0.15)

    def test_prediction_zero_before_history(self):
        assert MLPPredictor().predict() == 0.0

    def test_reset_clears_history_keeps_weights(self):
        p = MLPPredictor(window=4)
        for _ in range(400):
            p.update(5000.0)
        trained = p.predict()
        p.reset()
        assert p.predict() == 0.0
        for _ in range(4):
            p.update(5000.0)
        assert p.predict() == pytest.approx(trained, rel=0.2)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            MLPPredictor(window=0)
        with pytest.raises(ValueError):
            MLPPredictor(learning_rate=0.0)
        with pytest.raises(ValueError):
            MLPPredictor(power_scale=0.0)

    def test_deterministic_given_seed(self):
        a, b = MLPPredictor(seed=3), MLPPredictor(seed=3)
        for v in [100.0, 5000.0, -2000.0] * 30:
            a.update(v)
            b.update(v)
        assert a.predict() == pytest.approx(b.predict())


class TestPredictionQuantizer:
    def test_default_three_levels(self):
        q = PredictionQuantizer()
        assert q.num_levels == 3
        assert q(-5000.0) == 0
        assert q(3000.0) == 1
        assert q(20_000.0) == 2

    def test_boundary_goes_up(self):
        q = PredictionQuantizer(thresholds=(0.0,))
        assert q(0.0) == 1

    def test_rejects_unsorted_thresholds(self):
        with pytest.raises(ValueError):
            PredictionQuantizer(thresholds=(5.0, 1.0))

    def test_rejects_nan_threshold(self):
        # (0, NaN, 5) passed the pairwise order test and quantised -1 W
        # to level 2.
        with pytest.raises(ValueError):
            PredictionQuantizer(thresholds=(0.0, float("nan"), 5.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PredictionQuantizer(thresholds=())

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_level_always_valid(self, x):
        q = PredictionQuantizer()
        assert 0 <= q(x) < q.num_levels

    @given(st.data())
    def test_level_matches_searchsorted(self, data):
        thresholds = sorted(set(data.draw(st.lists(
            st.floats(allow_nan=False, width=64), min_size=1,
            max_size=6))))
        q = PredictionQuantizer(thresholds)
        # Predictions on the thresholds, signed zeros,
        # infinities, NaN, and numpy scalars of both widths.
        x = data.draw(st.one_of(
            st.sampled_from(thresholds),
            st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
            st.floats()))
        x32 = np.float32(data.draw(st.floats(width=32)))
        for value in (x, np.float64(x), x32):
            assert q(value) == int(np.searchsorted(
                np.asarray(thresholds), value, side="right"))
