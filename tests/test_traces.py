"""Tests of the trace analytics in :mod:`repro.analysis.traces`."""

import pytest

from repro.analysis.traces import (
    EnergyAccount,
    energy_account,
    engine_duty,
    mode_share,
)
from repro.control import RuleBasedController
from repro.cycles import CycleSpec, synthesize
from repro.powertrain import PowertrainSolver
from repro.sim import Simulator, evaluate
from repro.vehicle import default_vehicle


@pytest.fixture(scope="module")
def result():
    solver = PowertrainSolver(default_vehicle())
    cycle = synthesize(CycleSpec("t", duration=180, mean_speed_kmh=28.0,
                                 max_speed_kmh=60.0, stop_count=3, seed=31))
    return evaluate(Simulator(solver), RuleBasedController(solver), cycle)


class TestEnergyAccount:
    def test_all_quantities_nonnegative(self, result):
        acc = energy_account(result)
        assert acc.positive_wheel_work > 0
        assert acc.braking_energy > 0
        assert acc.fuel_energy > 0
        assert acc.battery_charge_energy >= 0
        assert acc.battery_discharge_energy >= 0
        assert acc.auxiliary_energy > 0

    def test_fuel_energy_consistent(self, result):
        acc = energy_account(result)
        assert acc.fuel_energy == pytest.approx(
            result.total_fuel * result.fuel_energy_density)

    def test_regen_fraction_bounded(self, result):
        acc = energy_account(result)
        assert 0.0 <= acc.regen_fraction <= 1.0

    def test_regen_recovers_some_braking_energy(self, result):
        acc = energy_account(result)
        assert acc.regen_fraction > 0.05

    def test_zero_braking_edge_case(self):
        acc = EnergyAccount(positive_wheel_work=1.0, braking_energy=0.0,
                            fuel_energy=1.0, battery_discharge_energy=0.0,
                            battery_charge_energy=0.0, auxiliary_energy=0.0)
        assert acc.regen_fraction == 0.0


class TestModeShare:
    def test_fractions_sum_to_one(self, result):
        share = mode_share(result)
        assert sum(share.values()) == pytest.approx(1.0)

    def test_names_are_mode_names(self, result):
        share = mode_share(result)
        valid = {"IDLE", "ICE_ONLY", "EM_ONLY", "HYBRID", "CHARGING",
                 "REGEN"}
        assert set(share) <= valid


class TestEngineDuty:
    def test_on_fraction_bounded(self, result):
        duty = engine_duty(result)
        assert 0.0 < duty["on_fraction"] < 1.0

    def test_mean_rate_when_on_positive(self, result):
        duty = engine_duty(result)
        assert duty["mean_fuel_rate_on"] > 0.0

    def test_starts_counted(self, result):
        assert engine_duty(result)["starts"] >= 1
