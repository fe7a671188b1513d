"""Quasi-static internal-combustion engine model (paper Eq. 1-2).

The engine is described by a wide-open-throttle torque curve ``T_max(omega)``
and a brake-thermal-efficiency map ``eta(T, omega)``; the fuel mass-flow rate
follows from Eq. 1:

    mdot_f = T * omega / (eta(T, omega) * D_f)

plus an idle term at zero load.  Both surfaces are smooth parametric models
shaped like the ADVISOR steady-state maps (a concave torque curve and an
efficiency hill around a mid-speed, high-load sweet spot).  Everything is
vectorised over numpy arrays so the powertrain solver can evaluate a whole
batch of candidate actions at once.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.vehicle.params import EngineParams

ArrayLike = Union[float, np.ndarray]


class Engine:
    """Quasi-static spark-ignition engine with a parametric fuel map."""

    def __init__(self, params: EngineParams):
        self._params = params
        # Torque curve: concave parabola through (min_speed, t0), peaking at
        # peak_torque_speed with value max_torque, clipped by the power limit.
        self._curve_width = max(
            params.peak_torque_speed - params.min_speed,
            params.max_speed - params.peak_torque_speed,
        )

    @property
    def params(self) -> EngineParams:
        """The engine parameter set this model was built from."""
        return self._params

    @property
    def fuel_energy_density(self) -> float:
        """Lower heating value of the fuel, J/g."""
        return self._params.fuel_energy_density

    # --- operating envelope ---------------------------------------------------

    def max_torque(self, speed: ArrayLike) -> ArrayLike:
        """Wide-open-throttle torque limit ``T_max(omega)`` in N*m (Eq. 2).

        Zero outside the admissible speed band; inside it, the smaller of the
        concave torque curve and the rated-power hyperbola.
        """
        p = self._params
        speed = np.asarray(speed, dtype=float)
        rel = (speed - p.peak_torque_speed) / self._curve_width
        curve = p.max_torque * (1.0 - 0.35 * rel ** 2)
        power_limit = np.where(speed > 0, p.max_power / np.maximum(speed, 1e-9),
                               np.inf)
        torque = np.minimum(curve, power_limit)
        in_band = (speed >= p.min_speed) & (speed <= p.max_speed)
        return np.where(in_band, np.maximum(torque, 0.0), 0.0)

    # --- efficiency and fuel --------------------------------------------------

    def efficiency(self, torque: ArrayLike, speed: ArrayLike) -> ArrayLike:
        """Brake thermal efficiency ``eta_ICE(T, omega)`` (Eq. 1), dimensionless.

        A smooth hill: peak ``peak_efficiency`` at (``optimal_speed``,
        ``optimal_torque_fraction * T_max``), degraded quadratically in
        normalised speed and torque distance, floored at
        ``efficiency_floor``.  Defined for positive torque inside the speed
        band; elsewhere the value is the floor (the fuel model never uses it
        there).
        """
        p = self._params
        torque = np.asarray(torque, dtype=float)
        speed = np.asarray(speed, dtype=float)
        t_max = np.maximum(self.max_torque(speed), 1e-9)
        torque_frac = np.clip(torque / t_max, 0.0, 1.5)
        speed_span = p.max_speed - p.min_speed
        ds = (speed - p.optimal_speed) / speed_span
        dt = torque_frac - p.optimal_torque_fraction
        eta = p.peak_efficiency * (
            1.0 - p.speed_falloff * ds ** 2 - p.torque_falloff * dt ** 2)
        return np.clip(eta, p.efficiency_floor, p.peak_efficiency)

    def fuel_rate(self, torque: ArrayLike, speed: ArrayLike) -> ArrayLike:
        """Fuel mass-flow rate ``mdot_f`` in g/s at an operating point (Eq. 1).

        Zero when the engine is off (zero speed).  At positive speed the rate
        is the brake power divided by efficiency and fuel energy density, plus
        the idle (friction/pumping) term which dominates at light load.
        """
        p = self._params
        torque = np.asarray(torque, dtype=float)
        speed = np.asarray(speed, dtype=float)
        running = speed > 1e-9
        power = np.maximum(torque, 0.0) * speed
        eta = self.efficiency(torque, speed)
        load_fuel = power / (eta * p.fuel_energy_density)
        idle_fuel = p.idle_fuel_rate * (speed / p.max_speed + 0.5)
        return np.where(running, load_fuel + idle_fuel, 0.0)
