"""Tests of the tabulated engine maps in :mod:`repro.vehicle.maps`."""

import numpy as np
import pytest

from repro.powertrain import PowertrainSolver
from repro.vehicle import default_vehicle
from repro.vehicle.engine import Engine
from repro.vehicle.maps import EngineMap, TabulatedEngine
from repro.vehicle.params import EngineParams


@pytest.fixture(scope="module")
def engine():
    return Engine(EngineParams())


@pytest.fixture(scope="module")
def engine_map(engine):
    return EngineMap.from_engine(engine, speed_points=30, torque_points=24)


class TestEngineMapValidation:
    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            EngineMap(speed_grid=np.array([2.0, 1.0]),
                      torque_grid=np.array([0.0, 1.0]),
                      fuel_rate_grid=np.zeros((2, 2)),
                      max_torque_curve=np.array([1.0, 1.0]),
                      fuel_energy_density=42_500.0)

    def test_rejects_wrong_fuel_shape(self):
        with pytest.raises(ValueError):
            EngineMap(speed_grid=np.array([1.0, 2.0]),
                      torque_grid=np.array([0.0, 1.0]),
                      fuel_rate_grid=np.zeros((3, 2)),
                      max_torque_curve=np.array([1.0, 1.0]),
                      fuel_energy_density=42_500.0)

    def test_rejects_negative_fuel(self):
        with pytest.raises(ValueError):
            EngineMap(speed_grid=np.array([1.0, 2.0]),
                      torque_grid=np.array([0.0, 1.0]),
                      fuel_rate_grid=np.full((2, 2), -1.0),
                      max_torque_curve=np.array([1.0, 1.0]),
                      fuel_energy_density=42_500.0)

    def test_rejects_mismatched_curve(self):
        with pytest.raises(ValueError):
            EngineMap(speed_grid=np.array([1.0, 2.0]),
                      torque_grid=np.array([0.0, 1.0]),
                      fuel_rate_grid=np.zeros((2, 2)),
                      max_torque_curve=np.array([1.0]),
                      fuel_energy_density=42_500.0)


class TestTabulationFidelity:
    def test_interpolation_matches_source_on_grid(self, engine, engine_map):
        # At grid points the tabulated rate equals the parametric model.
        s = engine_map.speed_grid[10]
        t = min(engine_map.torque_grid[8],
                float(engine.max_torque(s)))
        assert float(engine_map.interpolate(t, s)) == pytest.approx(
            float(engine.fuel_rate(t, s)), rel=1e-9)

    def test_interpolation_close_between_grid_points(self, engine,
                                                     engine_map):
        s = 0.5 * (engine_map.speed_grid[10] + engine_map.speed_grid[11])
        t = 35.0
        assert float(engine_map.interpolate(t, s)) == pytest.approx(
            float(engine.fuel_rate(t, s)), rel=0.03)

    def test_max_torque_curve_matches(self, engine, engine_map):
        s = engine_map.speed_grid[5]
        assert float(engine_map.max_torque_at(s)) == pytest.approx(
            float(engine.max_torque(s)), rel=1e-9)


class TestCsvRoundTrip:
    def test_roundtrip_exact(self, engine_map, tmp_path):
        path = tmp_path / "map.csv"
        engine_map.to_csv(path)
        loaded = EngineMap.from_csv(path)
        assert np.allclose(loaded.speed_grid, engine_map.speed_grid)
        assert np.allclose(loaded.fuel_rate_grid, engine_map.fuel_rate_grid,
                           atol=1e-7)
        assert loaded.fuel_energy_density == engine_map.fuel_energy_density

    def test_rejects_non_map_file(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        with pytest.raises(ValueError):
            EngineMap.from_csv(path)


class TestTabulatedEngine:
    def test_same_interface_quantities(self, engine, engine_map):
        tab = TabulatedEngine(engine_map)
        s, t = 250.0, 40.0
        assert float(tab.fuel_rate(t, s)) == pytest.approx(
            float(engine.fuel_rate(t, s)), rel=0.05)
        assert float(tab.max_torque(s)) == pytest.approx(
            float(engine.max_torque(s)), rel=0.02)

    def test_fuel_zero_when_off(self, engine_map):
        tab = TabulatedEngine(engine_map)
        assert float(tab.fuel_rate(0.0, 0.0)) == 0.0

    def test_efficiency_in_physical_band(self, engine_map):
        tab = TabulatedEngine(engine_map)
        eta = float(tab.efficiency(60.0, 250.0))
        assert 0.1 < eta < 0.45

    def test_drop_in_solver_substitution(self, engine_map):
        # The tabulated engine must slot into the powertrain solver and
        # produce near-identical results to the parametric engine.
        params = default_vehicle()
        base = PowertrainSolver(params)
        subst = PowertrainSolver(params, engine=TabulatedEngine(engine_map))
        a = base.evaluate(15.0, 0.3, 0.6, 10.0, 2, 600.0, dt=1.0)
        b = subst.evaluate(15.0, 0.3, 0.6, 10.0, 2, 600.0, dt=1.0)
        assert b.feasible
        assert b.fuel_rate == pytest.approx(a.fuel_rate, rel=0.05)
        assert b.engine_torque == pytest.approx(a.engine_torque, rel=1e-6)
