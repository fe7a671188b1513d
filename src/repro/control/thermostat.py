"""Thermostat (bang-bang) charge-sustaining baseline.

The simplest classical HEV supervisory strategy (a special case of the
rule-based family the paper's related work surveys): the battery SoC is
regulated like a thermostat — below the low threshold the engine charges
hard until the high threshold is reached; above it the vehicle drives
electrically whenever the EM alone can carry the demand.  No load
levelling, no efficiency-map awareness: a useful lower anchor between
"no strategy" and the tuned rule-based controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.control.base import Controller
from repro.powertrain.solver import PowertrainSolver
from repro.rl.agent import ExecutedStep
from repro.rl.reward import RewardConfig, build_reward_function


@dataclass(frozen=True)
class ThermostatConfig:
    """Thermostat thresholds."""

    soc_low: float = 0.50
    """Start charging below this SoC."""

    soc_high: float = 0.70
    """Stop charging above this SoC."""

    charge_current: float = -25.0
    """Charging current while the thermostat is on, A."""

    ev_power_limit: float = 10_000.0
    """EM-only driving allowed below this demand while the thermostat is
    off, W."""

    def __post_init__(self) -> None:
        if not 0 < self.soc_low < self.soc_high < 1:
            raise ValueError("thermostat thresholds out of order")
        if self.charge_current >= 0:
            raise ValueError("charge current must be negative")


class ThermostatController(Controller):
    """Bang-bang charge-sustaining controller with EV preference."""

    def __init__(self, solver: PowertrainSolver,
                 config: Optional[ThermostatConfig] = None,
                 reward_config: Optional[RewardConfig] = None):
        self.solver = solver
        self.config = config or ThermostatConfig()
        self.reward = build_reward_function(solver, reward_config)
        self._charging = False
        self._preferred_aux = solver.auxiliary.utility.argmax(
            solver.auxiliary.max_power)
        self._gears = np.arange(solver.transmission.num_gears)

    def begin_episode(self) -> None:
        """Reset the thermostat to the not-charging side of the hysteresis."""
        self._charging = False

    def _update_thermostat(self, soc: float) -> None:
        if soc <= self.config.soc_low:
            self._charging = True
        elif soc >= self.config.soc_high:
            self._charging = False

    def act(self, speed: float, acceleration: float, soc: float, dt: float,
            grade: float = 0.0, learn: bool = True,
            greedy: bool = False) -> ExecutedStep:
        """Apply the bang-bang rule and execute in the lowest feasible gear."""
        self._update_thermostat(soc)
        p_dem = float(self.solver.dynamics.power_demand(speed, acceleration,
                                                        grade))
        battery = self.solver.battery
        if p_dem < 0.0:
            current = -battery.params.max_current
        elif self._charging:
            current = self.config.charge_current
        elif p_dem <= self.config.ev_power_limit:
            current = float(battery.clamp_current(battery.current_for_power(
                p_dem / 0.72 + self._preferred_aux, soc)))
        else:
            current = 0.0

        batch = self.solver.evaluate_actions(
            speed, acceleration, soc,
            np.full(len(self._gears), current), self._gears,
            np.full(len(self._gears), self._preferred_aux), dt, grade)
        # The lowest feasible gear executes.
        return ExecutedStep.of_row(batch, batch.first_feasible(), self.reward,
                                   soc, dt, p_dem)
