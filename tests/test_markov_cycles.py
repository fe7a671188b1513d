"""Tests of the Markov-chain trip generator in :mod:`repro.cycles.markov`."""

import numpy as np
import pytest

from repro.cycles import standard_cycle
from repro.cycles.markov import ChainModel, fit_chain, generate_trip
from repro.cycles.stats import compute_stats


@pytest.fixture(scope="module")
def model():
    return fit_chain(standard_cycle("UDDS"))


class TestFitChain:
    def test_counts_shape(self, model):
        assert model.transition_counts.shape[0] == len(model.speed_edges) + 1

    def test_rejects_few_bins(self):
        with pytest.raises(ValueError):
            fit_chain(standard_cycle("SC03"), speed_bins=1)

    def test_rejects_negative_smoothing(self):
        with pytest.raises(ValueError):
            fit_chain(standard_cycle("SC03"), smoothing=-1.0)

    def test_max_speed_from_cycle(self, model):
        assert model.max_speed == pytest.approx(
            standard_cycle("UDDS").max_speed)


class TestGenerateTrip:
    def test_valid_cycle(self, model):
        trip = generate_trip(model, duration=300, seed=1)
        assert np.all(trip.speeds >= 0.0)
        assert trip.max_speed <= model.max_speed + 1e-9
        assert trip.speeds[0] == 0.0
        assert trip.speeds[-1] == 0.0

    def test_deterministic_per_seed(self, model):
        a = generate_trip(model, duration=200, seed=7)
        b = generate_trip(model, duration=200, seed=7)
        assert np.array_equal(a.speeds, b.speeds)

    def test_seeds_differ(self, model):
        a = generate_trip(model, duration=200, seed=1)
        b = generate_trip(model, duration=200, seed=2)
        assert not np.array_equal(a.speeds, b.speeds)

    def test_rejects_tiny_duration(self, model):
        with pytest.raises(ValueError):
            generate_trip(model, duration=10, seed=0)

    def test_accelerations_bounded(self, model):
        trip = generate_trip(model, duration=400, seed=3)
        acc = np.diff(trip.speeds)
        assert np.max(np.abs(acc)) <= 2.0

    def test_statistics_resemble_source(self, model):
        # A UDDS-fitted chain should generate urban-ish trips: mean speed
        # within a factor-2 band of UDDS and some stops.
        source = compute_stats(standard_cycle("UDDS"))
        trips = [generate_trip(model, duration=600, seed=s)
                 for s in range(4)]
        means = [compute_stats(t).mean_speed_kmh for t in trips]
        assert 0.4 * source.mean_speed_kmh < np.mean(means) \
            < 2.2 * source.mean_speed_kmh

    def test_trip_is_drivable(self, model):
        # The default vehicle must be able to follow a generated trip.
        from repro.control import RuleBasedController
        from repro.powertrain import PowertrainSolver
        from repro.sim import Simulator, evaluate
        from repro.vehicle import default_vehicle
        solver = PowertrainSolver(default_vehicle())
        trip = generate_trip(model, duration=200, seed=11)
        result = evaluate(Simulator(solver), RuleBasedController(solver),
                          trip)
        assert result.fallback_steps <= 0.05 * len(result.fuel_rate)
