"""Tests of the quasi-static ICE model (paper Eq. 1-2)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.vehicle.engine import Engine
from repro.vehicle.params import EngineParams


@pytest.fixture
def engine():
    return Engine(EngineParams())


def speeds_in_band():
    p = EngineParams()
    return st.floats(min_value=p.min_speed, max_value=p.max_speed)


class TestTorqueEnvelope:
    def test_zero_outside_speed_band(self, engine):
        p = engine.params
        assert engine.max_torque(p.min_speed - 1.0) == 0.0
        assert engine.max_torque(p.max_speed + 1.0) == 0.0

    def test_peak_at_peak_torque_speed(self, engine):
        p = engine.params
        t_peak = float(engine.max_torque(p.peak_torque_speed))
        assert t_peak == pytest.approx(p.max_torque, rel=1e-6)

    def test_power_limit_respected(self, engine):
        p = engine.params
        speeds = np.linspace(p.min_speed, p.max_speed, 50)
        power = np.asarray(engine.max_torque(speeds)) * speeds
        assert np.all(power <= p.max_power * 1.001)

    def test_concave_shape(self, engine):
        p = engine.params
        t_lo = float(engine.max_torque(p.min_speed))
        t_peak = float(engine.max_torque(p.peak_torque_speed))
        t_hi = float(engine.max_torque(p.max_speed))
        assert t_peak > t_lo
        assert t_peak > t_hi


class TestEfficiency:
    def test_peak_at_sweet_spot(self, engine):
        p = engine.params
        t_opt = p.optimal_torque_fraction * float(
            engine.max_torque(p.optimal_speed))
        eta = float(engine.efficiency(t_opt, p.optimal_speed))
        assert eta == pytest.approx(p.peak_efficiency, rel=1e-6)

    def test_bounded_by_floor_and_peak(self, engine):
        p = engine.params
        speeds = np.linspace(p.min_speed, p.max_speed, 30)
        for s in speeds:
            torques = np.linspace(0.0, float(engine.max_torque(s)), 20)
            eta = np.asarray(engine.efficiency(torques, s))
            assert np.all(eta >= p.efficiency_floor - 1e-12)
            assert np.all(eta <= p.peak_efficiency + 1e-12)

    def test_degrades_away_from_sweet_spot(self, engine):
        p = engine.params
        t_opt = p.optimal_torque_fraction * float(
            engine.max_torque(p.optimal_speed))
        eta_opt = float(engine.efficiency(t_opt, p.optimal_speed))
        eta_light = float(engine.efficiency(t_opt * 0.15, p.optimal_speed))
        eta_fast = float(engine.efficiency(t_opt, p.max_speed))
        assert eta_light < eta_opt
        assert eta_fast < eta_opt


class TestFuelRate:
    def test_zero_when_off(self, engine):
        assert float(engine.fuel_rate(0.0, 0.0)) == 0.0

    def test_positive_at_idle_speed(self, engine):
        # A spinning unloaded engine still burns fuel (idle term).
        assert float(engine.fuel_rate(0.0, engine.params.min_speed)) > 0.0

    def test_eq1_consistency(self, engine):
        # Eq. 1: eta = T omega / (mdot Df) must hold up to the idle term.
        p = engine.params
        torque, speed = 60.0, 250.0
        mdot = float(engine.fuel_rate(torque, speed))
        idle = p.idle_fuel_rate * (speed / p.max_speed + 0.5)
        eta = float(engine.efficiency(torque, speed))
        assert (mdot - idle) == pytest.approx(
            torque * speed / (eta * p.fuel_energy_density), rel=1e-9)

    @given(speeds_in_band(), st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_in_torque(self, speed, frac):
        engine = Engine(EngineParams())
        t_max = float(engine.max_torque(speed))
        t = frac * t_max
        r_low = float(engine.fuel_rate(t, speed))
        r_high = float(engine.fuel_rate(min(t + 5.0, t_max), speed))
        assert r_high >= r_low - 1e-12

    @given(speeds_in_band())
    def test_nonnegative(self, speed):
        engine = Engine(EngineParams())
        assert float(engine.fuel_rate(30.0, speed)) >= 0.0

    def test_plausible_cruise_fuel_rate(self, engine):
        # ~10 kW brake power near the sweet spot should burn around
        # 0.7-1.0 g/s (i.e. 35-40 MPG territory for a compact car).
        rate = float(engine.fuel_rate(40.0, 250.0))
        assert 0.4 < rate < 1.5
