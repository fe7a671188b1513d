"""Tests of the electric machine model (paper Eq. 3-4)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.vehicle.motor import Motor
from repro.vehicle.params import MotorParams


@pytest.fixture
def motor():
    return Motor(MotorParams())


class TestEnvelope:
    def test_constant_torque_below_base_speed(self, motor):
        p = motor.params
        assert float(motor.max_torque(p.base_speed * 0.5)) == pytest.approx(
            p.max_torque)

    def test_power_limited_above_base_speed(self, motor):
        p = motor.params
        speed = p.base_speed * 2.0
        assert float(motor.max_torque(speed)) == pytest.approx(
            p.max_power / speed)

    def test_zero_beyond_max_speed(self, motor):
        assert float(motor.max_torque(motor.params.max_speed + 1.0)) == 0.0


class TestEfficiency:
    def test_bounded(self, motor):
        p = motor.params
        speeds = np.linspace(10.0, p.max_speed, 25)
        for s in speeds:
            t_lim = float(motor.max_torque(s))
            torques = np.linspace(-t_lim, t_lim, 21)
            eta = np.asarray(motor.efficiency(torques, s))
            assert np.all(eta >= p.efficiency_floor - 1e-12)
            assert np.all(eta <= p.peak_efficiency + 1e-12)

    def test_symmetric_in_torque_sign(self, motor):
        assert float(motor.efficiency(60.0, 300.0)) == pytest.approx(
            float(motor.efficiency(-60.0, 300.0)))

    def test_peak_near_sweet_spot(self, motor):
        p = motor.params
        speed = p.optimal_speed_fraction * p.max_speed
        torque = p.optimal_torque_fraction * float(motor.max_torque(speed))
        assert float(motor.efficiency(torque, speed)) == pytest.approx(
            p.peak_efficiency, rel=1e-6)


class TestElectricalPower:
    def test_motoring_draws_more_than_mechanical(self, motor):
        torque, speed = 60.0, 300.0
        mech = torque * speed
        elec = float(motor.electrical_power(torque, speed))
        assert elec > mech

    def test_generating_returns_less_than_mechanical(self, motor):
        torque, speed = -60.0, 300.0
        mech = torque * speed  # negative
        elec = float(motor.electrical_power(torque, speed))
        assert mech < elec < 0.0

    def test_zero_torque_zero_power(self, motor):
        assert float(motor.electrical_power(0.0, 300.0)) == pytest.approx(0.0)

    def test_eq3_motoring_identity(self, motor):
        # Eq. 3 motoring: eta = T omega / P_electrical.
        torque, speed = 45.0, 250.0
        elec = float(motor.electrical_power(torque, speed))
        eta = float(motor.efficiency(torque, speed))
        assert torque * speed / elec == pytest.approx(eta, rel=1e-9)

    def test_eq3_generating_identity(self, motor):
        # Eq. 3 generating: eta = P_electrical / (T omega).
        torque, speed = -45.0, 250.0
        elec = float(motor.electrical_power(torque, speed))
        eta = float(motor.efficiency(torque, speed))
        assert elec / (torque * speed) == pytest.approx(eta, rel=1e-9)


class TestPowerInversion:
    @given(st.floats(min_value=-20_000.0, max_value=20_000.0),
           st.floats(min_value=50.0, max_value=900.0))
    def test_roundtrip(self, power, speed):
        motor = Motor(MotorParams())
        torque = float(motor.torque_from_electrical_power(power, speed))
        if abs(torque) < float(motor.max_torque(speed)):
            back = float(motor.electrical_power(torque, speed))
            # 3%: the fixed-point iteration is non-smooth at the efficiency
            # floor, where a few sweeps land within a few percent.
            assert back == pytest.approx(power, rel=3e-2, abs=5.0)

    def test_zero_speed_transmits_nothing(self, motor):
        assert float(motor.torque_from_electrical_power(5000.0, 0.0)) == 0.0

    def test_sign_preserved(self, motor):
        assert float(motor.torque_from_electrical_power(5000.0, 300.0)) > 0
        assert float(motor.torque_from_electrical_power(-5000.0, 300.0)) < 0

    def test_round_trip_loss_positive(self, motor):
        # Pushing energy through the machine twice must lose energy.
        speed = 300.0
        t_gen = float(motor.torque_from_electrical_power(-5000.0, speed))
        mech_in = abs(t_gen * speed)
        elec_out = 5000.0
        assert mech_in > elec_out
