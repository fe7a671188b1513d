"""Tests of the longitudinal dynamics (paper Eq. 5-7)."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.units import AIR_DENSITY, GRAVITY
from repro.vehicle.dynamics import VehicleDynamics
from repro.vehicle.params import BodyParams


@pytest.fixture
def dyn():
    return VehicleDynamics(BodyParams())


class TestRoadLoad:
    def test_standstill_flat_no_load(self, dyn):
        load = dyn.road_load(0.0, 0.0, 0.0)
        assert load.total == pytest.approx(0.0)

    def test_rolling_resistance_vanishes_at_standstill(self, dyn):
        load = dyn.road_load(0.0, 0.0)
        assert load.rolling == pytest.approx(0.0)

    def test_rolling_resistance_value(self, dyn):
        p = dyn.params
        load = dyn.road_load(10.0, 0.0)
        assert load.rolling == pytest.approx(
            p.mass * GRAVITY * p.rolling_resistance)

    def test_aero_drag_quadratic(self, dyn):
        l10 = dyn.road_load(10.0, 0.0)
        l20 = dyn.road_load(20.0, 0.0)
        assert l20.aerodynamic == pytest.approx(4.0 * l10.aerodynamic)

    def test_aero_drag_value_at_20ms(self, dyn):
        p = dyn.params
        expected = 0.5 * AIR_DENSITY * p.drag_coefficient * p.frontal_area * 400.0
        assert dyn.road_load(20.0, 0.0).aerodynamic == pytest.approx(expected)

    def test_inertial_term(self, dyn):
        assert dyn.road_load(10.0, 1.5).inertial == pytest.approx(
            dyn.params.mass * 1.5)

    def test_grade_force_sign(self, dyn):
        uphill = dyn.road_load(10.0, 0.0, math.radians(5.0))
        downhill = dyn.road_load(10.0, 0.0, -math.radians(5.0))
        assert uphill.grade > 0
        assert downhill.grade == pytest.approx(-uphill.grade)

    def test_grade_force_value(self, dyn):
        theta = math.radians(3.0)
        expected = dyn.params.mass * GRAVITY * math.sin(theta)
        assert dyn.road_load(10.0, 0.0, theta).grade == pytest.approx(expected)

    def test_broadcasts_over_arrays(self, dyn):
        speeds = np.array([0.0, 10.0, 20.0])
        load = dyn.road_load(speeds, 0.0)
        assert np.asarray(load.total).shape == (3,)


class TestWheelQuantities:
    def test_wheel_speed(self, dyn):
        assert dyn.wheel_speed(10.0) == pytest.approx(
            10.0 / dyn.params.wheel_radius)

    def test_wheel_torque_consistent_with_force(self, dyn):
        f = dyn.tractive_force(15.0, 0.5)
        assert dyn.wheel_torque(15.0, 0.5) == pytest.approx(
            f * dyn.params.wheel_radius)

    def test_power_demand_is_force_times_speed(self, dyn):
        f = dyn.tractive_force(15.0, 0.5)
        assert dyn.power_demand(15.0, 0.5) == pytest.approx(f * 15.0)

    def test_power_demand_equals_wheel_torque_times_speed(self, dyn):
        # Eq. 7: p_dem = F_TR v = T_wh omega_wh.
        t_wh = dyn.wheel_torque(12.0, 0.3)
        w_wh = dyn.wheel_speed(12.0)
        assert dyn.power_demand(12.0, 0.3) == pytest.approx(t_wh * w_wh)

    def test_braking_power_negative(self, dyn):
        assert dyn.power_demand(15.0, -2.0) < 0.0


class TestProperties:
    @given(st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=-3.0, max_value=3.0))
    def test_power_demand_sign_matches_force(self, v, a):
        dyn = VehicleDynamics(BodyParams())
        p = float(dyn.power_demand(v, a))
        f = float(dyn.tractive_force(v, a))
        if v > 0:
            assert math.copysign(1.0, p) == math.copysign(1.0, f) or p == 0.0
        else:
            assert p == pytest.approx(0.0)

    @given(st.floats(min_value=0.1, max_value=50.0))
    def test_total_load_increases_with_acceleration(self, v):
        dyn = VehicleDynamics(BodyParams())
        assert (dyn.tractive_force(v, 1.0)
                > dyn.tractive_force(v, 0.0)
                > dyn.tractive_force(v, -1.0))

    @given(st.floats(min_value=500.0, max_value=3000.0))
    def test_heavier_vehicle_needs_more_force(self, mass):
        light = VehicleDynamics(BodyParams(mass=mass))
        heavy = VehicleDynamics(BodyParams(mass=mass * 1.5))
        assert (heavy.tractive_force(10.0, 1.0)
                > light.tractive_force(10.0, 1.0))
