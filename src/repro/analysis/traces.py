"""Trace analytics: energy accounting and operating-point statistics.

Turns the per-step traces of an :class:`repro.sim.results.EpisodeResult`
into the engineering quantities an HEV calibration engineer looks at:
where the propulsion energy came from, how much braking energy the
regenerative path recovered versus dissipated in friction, how the engine's
visited operating points distribute over its efficiency map, and how the
controller's mode usage splits over the drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.powertrain.modes import OperatingMode
from repro.sim.results import EpisodeResult


@dataclass(frozen=True)
class EnergyAccount:
    """Where the trip's energy came from and went, in Joules."""

    positive_wheel_work: float
    """Propulsion work demanded at the wheels (positive phases)."""

    braking_energy: float
    """Kinetic/potential energy surrendered during braking phases
    (positive number)."""

    fuel_energy: float
    """Chemical energy of the fuel burned."""

    battery_discharge_energy: float
    """Electrical energy drawn from the pack (terminal, positive phases)."""

    battery_charge_energy: float
    """Electrical energy pushed into the pack (terminal, positive number)."""

    auxiliary_energy: float
    """Energy consumed by the auxiliary systems."""

    @property
    def regen_fraction(self) -> float:
        """Share of braking energy recovered into the pack.

        Uses charge energy as the recovered proxy; bounded to [0, 1]
        because some charging comes from the engine (mode iv), making this
        an upper estimate on engine-charging-free drives.
        """
        if self.braking_energy <= 0.0:
            return 0.0
        return float(min(self.battery_charge_energy / self.braking_energy,
                         1.0))


def energy_account(result: EpisodeResult) -> EnergyAccount:
    """Compute the :class:`EnergyAccount` of one episode."""
    dt = result.dt
    p_dem = np.asarray(result.power_demand, dtype=float)
    batt = _battery_power(result)
    return EnergyAccount(
        positive_wheel_work=float(np.sum(np.maximum(p_dem, 0.0)) * dt),
        braking_energy=float(-np.sum(np.minimum(p_dem, 0.0)) * dt),
        fuel_energy=float(result.total_fuel * result.fuel_energy_density),
        battery_discharge_energy=float(
            np.sum(np.maximum(batt, 0.0)) * dt),
        battery_charge_energy=float(-np.sum(np.minimum(batt, 0.0)) * dt),
        auxiliary_energy=float(np.sum(result.aux_power) * dt),
    )


def _battery_power(result: EpisodeResult) -> np.ndarray:
    """Approximate per-step battery terminal power from current and SoC, W."""
    # Terminal power ~ V_nom * i; the resistive correction is second-order
    # for the pack currents a compact HEV sees, and the nominal voltage is
    # recorded on the result.
    return np.asarray(result.current, dtype=float) * result.nominal_voltage


def mode_share(result: EpisodeResult) -> Dict[str, float]:
    """Operating-mode share by name (fractions summing to 1)."""
    return {OperatingMode(mode).name: fraction
            for mode, fraction in result.mode_fractions().items()}


def engine_duty(result: EpisodeResult) -> Dict[str, float]:
    """Engine usage statistics: on-fraction and mean fuel rate while on."""
    fuel = np.asarray(result.fuel_rate, dtype=float)
    on = fuel > 1e-9
    return {
        "on_fraction": float(np.mean(on)),
        "mean_fuel_rate_on": float(np.mean(fuel[on])) if np.any(on) else 0.0,
        "starts": int(np.sum((~on[:-1]) & on[1:])),
    }
