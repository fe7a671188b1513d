"""Tests of the drivetrain mechanics (paper Eq. 8-10)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.vehicle.params import TransmissionParams
from repro.vehicle.transmission import Transmission


@pytest.fixture
def trans():
    return Transmission(TransmissionParams())


class TestSpeedRelations:
    def test_engine_speed_eq8(self, trans):
        # omega_ICE = omega_wh * R(k).
        assert float(trans.engine_speed(20.0, 0)) == pytest.approx(
            20.0 * trans.params.gear_ratios[0])

    def test_motor_speed_eq8(self, trans):
        # omega_EM = omega_ICE * rho_reg.
        eng = float(trans.engine_speed(20.0, 2))
        assert float(trans.motor_speed(20.0, 2)) == pytest.approx(
            eng * trans.params.reduction_ratio)

    def test_higher_gear_lower_engine_speed(self, trans):
        speeds = [float(trans.engine_speed(20.0, k))
                  for k in range(trans.num_gears)]
        assert speeds == sorted(speeds, reverse=True)

    def test_ratio_rejects_bad_gear(self, trans):
        with pytest.raises(IndexError):
            trans.ratio(trans.num_gears)
        with pytest.raises(IndexError):
            trans.ratio(-1)


class TestTorqueRelations:
    def test_motoring_torque_loses_reduction_efficiency(self, trans):
        p = trans.params
        shaft = float(trans.motor_torque_at_shaft(10.0))
        assert shaft == pytest.approx(
            p.reduction_ratio * 10.0 * p.reduction_efficiency)

    def test_generating_torque_costs_more_at_shaft(self, trans):
        p = trans.params
        shaft = float(trans.motor_torque_at_shaft(-10.0))
        assert shaft == pytest.approx(
            p.reduction_ratio * -10.0 / p.reduction_efficiency)

    def test_wheel_torque_positive_flow(self, trans):
        p = trans.params
        t_wh = float(trans.wheel_torque(50.0, 10.0, 1))
        shaft = 50.0 + p.reduction_ratio * 10.0 * p.reduction_efficiency
        assert t_wh == pytest.approx(
            p.gear_ratios[1] * shaft * p.gearbox_efficiency)

    def test_wheel_torque_negative_flow_inverts_efficiency(self, trans):
        p = trans.params
        t_wh = float(trans.wheel_torque(0.0, -20.0, 1))
        shaft = p.reduction_ratio * -20.0 / p.reduction_efficiency
        assert t_wh == pytest.approx(
            p.gear_ratios[1] * shaft / p.gearbox_efficiency)

    @given(st.floats(min_value=-200.0, max_value=200.0),
           st.integers(min_value=0, max_value=4))
    def test_required_shaft_torque_inverts_wheel_torque(self, shaft, gear):
        trans = Transmission(TransmissionParams())
        # Build a wheel torque from a known shaft torque with T_ICE = shaft,
        # T_EM = 0, then invert: the round trip must recover shaft.
        t_wh = float(trans.wheel_torque(shaft, 0.0, gear))
        back = float(trans.required_shaft_torque(t_wh, gear))
        assert back == pytest.approx(shaft, rel=1e-9, abs=1e-9)

    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_motor_shaft_torque_roundtrip(self, torque):
        trans = Transmission(TransmissionParams())
        shaft = float(trans.motor_torque_at_shaft(torque))
        back = float(trans.motor_torque_from_shaft(shaft))
        assert back == pytest.approx(torque, rel=1e-9, abs=1e-9)

    def test_transmission_dissipates_energy_both_ways(self, trans):
        # Eq. 9-10 sign conventions must always dissipate, never create,
        # energy: |T_wh| < ideal forward, |shaft| > ideal backward.
        p = trans.params
        ideal = p.gear_ratios[0] * (30.0 + p.reduction_ratio * 10.0)
        actual = float(trans.wheel_torque(30.0, 10.0, 0))
        assert actual < ideal
