"""Tabulated engine maps (ADVISOR-style grids).

ADVISOR — the simulator the paper builds on — describes engines as gridded
steady-state fuel maps.  This module provides the same representation:
an :class:`EngineMap` holds a (speed x torque) fuel-rate grid plus the
wide-open-throttle torque curve, interpolates bilinearly, round-trips
through CSV, and :class:`TabulatedEngine` exposes the same interface as
the parametric :class:`repro.vehicle.engine.Engine` so a measured map can
be dropped into the powertrain solver unchanged.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from repro.vehicle.engine import Engine

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class EngineMap:
    """Gridded steady-state engine description."""

    speed_grid: np.ndarray
    """Crankshaft speeds of the grid columns, rad/s, ascending."""

    torque_grid: np.ndarray
    """Brake torques of the grid rows, N*m, ascending from 0."""

    fuel_rate_grid: np.ndarray
    """Fuel mass-flow at each (torque, speed) grid point, g/s; shape
    (len(torque_grid), len(speed_grid))."""

    max_torque_curve: np.ndarray
    """Wide-open-throttle torque at each grid speed, N*m."""

    fuel_energy_density: float
    """Lower heating value of the fuel, J/g."""

    idle_fuel_rate: float = 0.0
    """Fuel rate at zero torque (already included in the grid; stored for
    round-tripping)."""

    def __post_init__(self) -> None:
        speed = np.asarray(self.speed_grid, dtype=float)
        torque = np.asarray(self.torque_grid, dtype=float)
        fuel = np.asarray(self.fuel_rate_grid, dtype=float)
        if speed.ndim != 1 or len(speed) < 2:
            raise ValueError("need at least two speed grid points")
        if torque.ndim != 1 or len(torque) < 2:
            raise ValueError("need at least two torque grid points")
        if np.any(np.diff(speed) <= 0) or np.any(np.diff(torque) <= 0):
            raise ValueError("grids must be strictly increasing")
        if fuel.shape != (len(torque), len(speed)):
            raise ValueError("fuel grid shape must be (torque, speed)")
        if np.any(fuel < 0):
            raise ValueError("fuel rates cannot be negative")
        if len(self.max_torque_curve) != len(speed):
            raise ValueError("torque curve must match the speed grid")

    # --- interpolation --------------------------------------------------------

    def interpolate(self, torque: ArrayLike, speed: ArrayLike) -> ArrayLike:
        """Bilinear interpolation of the fuel-rate grid, clamped at edges."""
        torque = np.asarray(torque, dtype=float)
        speed = np.asarray(speed, dtype=float)
        ti = np.clip(np.searchsorted(self.torque_grid, torque) - 1,
                     0, len(self.torque_grid) - 2)
        si = np.clip(np.searchsorted(self.speed_grid, speed) - 1,
                     0, len(self.speed_grid) - 2)
        t0, t1 = self.torque_grid[ti], self.torque_grid[ti + 1]
        s0, s1 = self.speed_grid[si], self.speed_grid[si + 1]
        wt = np.clip((torque - t0) / (t1 - t0), 0.0, 1.0)
        ws = np.clip((speed - s0) / (s1 - s0), 0.0, 1.0)
        f = self.fuel_rate_grid
        return ((1 - wt) * (1 - ws) * f[ti, si]
                + (1 - wt) * ws * f[ti, si + 1]
                + wt * (1 - ws) * f[ti + 1, si]
                + wt * ws * f[ti + 1, si + 1])

    def max_torque_at(self, speed: ArrayLike) -> ArrayLike:
        """WOT torque at a speed (linear interpolation, zero outside grid)."""
        speed = np.asarray(speed, dtype=float)
        torque = np.interp(speed, self.speed_grid, self.max_torque_curve)
        inside = (speed >= self.speed_grid[0]) & (speed <= self.speed_grid[-1])
        return np.where(inside, torque, 0.0)

    # --- construction -----------------------------------------------------------

    @classmethod
    def from_engine(cls, engine: Engine, speed_points: int = 24,
                    torque_points: int = 20) -> "EngineMap":
        """Tabulate a parametric :class:`Engine` onto a regular grid."""
        p = engine.params
        speed_grid = np.linspace(p.min_speed, p.max_speed, speed_points)
        torque_grid = np.linspace(0.0, p.max_torque, torque_points)
        fuel = np.zeros((torque_points, speed_points))
        for i, torque in enumerate(torque_grid):
            fuel[i] = np.asarray(engine.fuel_rate(
                np.minimum(torque, engine.max_torque(speed_grid)),
                speed_grid))
        return cls(
            speed_grid=speed_grid, torque_grid=torque_grid,
            fuel_rate_grid=fuel,
            max_torque_curve=np.asarray(engine.max_torque(speed_grid)),
            fuel_energy_density=p.fuel_energy_density,
            idle_fuel_rate=p.idle_fuel_rate)

    # --- persistence ---------------------------------------------------------------

    def to_csv(self, path: Union[str, Path]) -> None:
        """Write the map as CSV: header row of speeds, then one row per
        torque (first column the torque), finally a WOT-curve row."""
        path = Path(path)
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["# fuel_energy_density", self.fuel_energy_density])
            writer.writerow(["torque\\speed"]
                            + [f"{s:.6f}" for s in self.speed_grid])
            for torque, row in zip(self.torque_grid, self.fuel_rate_grid):
                writer.writerow([f"{torque:.6f}"]
                                + [f"{x:.8f}" for x in row])
            writer.writerow(["max_torque"]
                            + [f"{t:.6f}" for t in self.max_torque_curve])

    @classmethod
    def from_csv(cls, path: Union[str, Path]) -> "EngineMap":
        """Load a map written by :meth:`to_csv`."""
        path = Path(path)
        with open(path, newline="") as f:
            rows = [r for r in csv.reader(f) if r]
        if len(rows) < 4 or rows[0][0] != "# fuel_energy_density":
            raise ValueError(f"{path} is not an EngineMap CSV")
        density = float(rows[0][1])
        speed_grid = np.asarray([float(x) for x in rows[1][1:]])
        body = rows[2:-1]
        torque_grid = np.asarray([float(r[0]) for r in body])
        fuel = np.asarray([[float(x) for x in r[1:]] for r in body])
        if rows[-1][0] != "max_torque":
            raise ValueError(f"{path} is missing the max_torque row")
        curve = np.asarray([float(x) for x in rows[-1][1:]])
        return cls(speed_grid=speed_grid, torque_grid=torque_grid,
                   fuel_rate_grid=fuel, max_torque_curve=curve,
                   fuel_energy_density=density)


class TabulatedEngine:
    """Engine model backed by an :class:`EngineMap`.

    Implements the same interface as :class:`repro.vehicle.engine.Engine`
    (``max_torque``, ``efficiency``, ``fuel_rate`` and a ``params``-like
    speed band) so it can be substituted into
    :class:`repro.powertrain.solver.PowertrainSolver`.
    """

    def __init__(self, engine_map: EngineMap):
        self._map = engine_map

    @property
    def map(self) -> EngineMap:
        """The backing grid."""
        return self._map

    @property
    def fuel_energy_density(self) -> float:
        """Lower heating value of the fuel, J/g."""
        return self._map.fuel_energy_density

    @property
    def min_speed(self) -> float:
        """Lowest gridded crankshaft speed, rad/s."""
        return float(self._map.speed_grid[0])

    @property
    def max_speed(self) -> float:
        """Highest gridded crankshaft speed, rad/s."""
        return float(self._map.speed_grid[-1])

    def max_torque(self, speed: ArrayLike) -> ArrayLike:
        """WOT torque limit at a speed, N*m."""
        return self._map.max_torque_at(speed)

    def fuel_rate(self, torque: ArrayLike, speed: ArrayLike) -> ArrayLike:
        """Interpolated fuel mass-flow, g/s; zero when the engine is off."""
        torque = np.asarray(torque, dtype=float)
        speed = np.asarray(speed, dtype=float)
        running = speed > 1e-9
        rate = np.asarray(self._map.interpolate(np.maximum(torque, 0.0),
                                                speed))
        return np.where(running, rate, 0.0)

    def efficiency(self, torque: ArrayLike, speed: ArrayLike) -> ArrayLike:
        """Brake thermal efficiency implied by the gridded fuel rate."""
        torque = np.asarray(torque, dtype=float)
        speed = np.asarray(speed, dtype=float)
        rate = np.asarray(self.fuel_rate(torque, speed))
        power = np.maximum(torque, 0.0) * speed
        with np.errstate(divide="ignore", invalid="ignore"):
            eta = power / (rate * self._map.fuel_energy_density)
        return np.where(rate > 1e-12, np.minimum(eta, 0.6), 0.0)
