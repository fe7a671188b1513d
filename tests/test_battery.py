"""Tests of the Rint battery model and Coulomb counting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.vehicle.battery import Battery, BatteryState
from repro.vehicle.params import BatteryParams


@pytest.fixture
def battery():
    return Battery(BatteryParams())


class TestStateHelpers:
    def test_initial_state_soc_roundtrip(self, battery):
        state = battery.initial_state(0.65)
        assert battery.soc(state) == pytest.approx(0.65)

    def test_initial_state_rejects_out_of_range(self, battery):
        with pytest.raises(ValueError):
            battery.initial_state(1.2)

    def test_window_bounds(self, battery):
        p = battery.params
        assert battery.charge_min == pytest.approx(p.soc_min * p.capacity)
        assert battery.charge_max == pytest.approx(p.soc_max * p.capacity)

    def test_state_copy_independent(self, battery):
        a = battery.initial_state(0.6)
        b = a.copy()
        b.charge += 100.0
        assert a.charge != b.charge


class TestElectricalModel:
    def test_ocv_affine_endpoints(self, battery):
        p = battery.params
        assert float(battery.open_circuit_voltage(0.0)) == pytest.approx(
            p.voltage_at_empty)
        assert float(battery.open_circuit_voltage(1.0)) == pytest.approx(
            p.voltage_at_full)

    def test_ocv_monotone(self, battery):
        socs = np.linspace(0, 1, 11)
        v = np.asarray(battery.open_circuit_voltage(socs))
        assert np.all(np.diff(v) > 0)

    def test_resistance_direction(self, battery):
        p = battery.params
        assert float(battery.internal_resistance(10.0)) == p.discharge_resistance
        assert float(battery.internal_resistance(-10.0)) == p.charge_resistance

    def test_terminal_power_loses_to_resistance_discharging(self, battery):
        # P = Voc*i - i^2 R < Voc*i while discharging.
        voc = float(battery.open_circuit_voltage(0.6))
        p = float(battery.terminal_power(20.0, 0.6))
        assert p < voc * 20.0
        assert p > 0

    def test_terminal_power_charging_magnitude_exceeds_stored(self, battery):
        # While charging, the bus must supply the stored power plus loss.
        voc = float(battery.open_circuit_voltage(0.6))
        p = float(battery.terminal_power(-20.0, 0.6))
        assert p < voc * -20.0  # more negative than the ideal

    def test_zero_current_zero_power(self, battery):
        assert float(battery.terminal_power(0.0, 0.6)) == pytest.approx(0.0)


class TestPowerInversion:
    @given(st.floats(min_value=-15_000.0, max_value=15_000.0),
           st.floats(min_value=0.1, max_value=0.9))
    def test_roundtrip(self, power, soc):
        battery = Battery(BatteryParams())
        # The pack's source limit: the lesser of the resistive-limit power
        # V_oc^2 / 4R and the power at the current limit.
        p = battery.params
        voc = float(battery.open_circuit_voltage(soc))
        max_p = min(voc ** 2 / (4.0 * p.discharge_resistance),
                    voc * p.max_current
                    - p.discharge_resistance * p.max_current ** 2)
        if power > max_p * 0.98:
            return  # clamped region, no exact roundtrip expected
        current = float(battery.current_for_power(power, soc))
        back = float(battery.terminal_power(current, soc))
        assert back == pytest.approx(power, rel=1e-6, abs=1e-3)

    def test_sign_convention(self, battery):
        assert float(battery.current_for_power(5000.0, 0.6)) > 0
        assert float(battery.current_for_power(-5000.0, 0.6)) < 0

    def test_excess_power_clamps_to_max(self, battery):
        huge = float(battery.current_for_power(1e7, 0.6))
        voc = float(battery.open_circuit_voltage(0.6))
        assert huge == pytest.approx(
            voc / (2.0 * battery.params.discharge_resistance))


class TestCoulombCounting:
    def test_discharge_removes_charge(self, battery):
        s0 = battery.initial_state(0.6)
        s1 = battery.step(s0, 10.0, 1.0)
        assert s1.charge == pytest.approx(s0.charge - 10.0)

    def test_charge_stores_with_efficiency(self, battery):
        s0 = battery.initial_state(0.6)
        s1 = battery.step(s0, -10.0, 1.0)
        assert s1.charge == pytest.approx(
            s0.charge + 10.0 * battery.params.coulombic_efficiency)

    def test_round_trip_loses_charge(self, battery):
        s0 = battery.initial_state(0.6)
        s1 = battery.step(s0, -10.0, 1.0)
        s2 = battery.step(s1, 10.0 * battery.params.coulombic_efficiency, 1.0)
        assert s2.charge < s0.charge + 1e-9

    def test_rejects_nonpositive_dt(self, battery):
        with pytest.raises(ValueError):
            battery.step(battery.initial_state(0.5), 1.0, 0.0)

    def test_clips_at_physical_bounds(self, battery):
        s0 = battery.initial_state(0.01)
        s1 = battery.step(s0, battery.params.max_current, 3600.0)
        assert s1.charge == 0.0
        s2 = battery.step(battery.initial_state(0.99), -battery.params.max_current,
                          3600.0)
        assert s2.charge == battery.params.capacity

    @given(st.floats(min_value=-80.0, max_value=80.0),
           st.floats(min_value=0.3, max_value=0.7))
    def test_soc_stays_in_physical_range(self, current, soc):
        battery = Battery(BatteryParams())
        state = battery.initial_state(soc)
        for _ in range(10):
            state = battery.step(state, current, 1.0)
        assert 0.0 <= battery.soc(state) <= 1.0


class TestLimitsAndWindow:
    def test_clamp_current(self, battery):
        imax = battery.params.max_current
        assert float(battery.clamp_current(imax * 2)) == imax
        assert float(battery.clamp_current(-imax * 2)) == -imax

    def test_is_current_feasible(self, battery):
        imax = battery.params.max_current
        assert bool(battery.is_current_feasible(imax))
        assert not bool(battery.is_current_feasible(imax + 1.0))

    def test_window_violation_inside_is_zero(self, battery):
        assert battery.window_violation(battery.initial_state(0.6)) == 0.0

    def test_window_violation_below(self, battery):
        state = battery.initial_state(0.35)
        assert battery.window_violation(state) > 0.0

    def test_window_violation_above(self, battery):
        state = battery.initial_state(0.85)
        assert battery.window_violation(state) > 0.0
