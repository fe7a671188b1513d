"""Conventional-vehicle baseline: the ICE does everything.

The paper's introduction motivates HEVs by their fuel-economy advantage
over conventional ICE vehicles.  This controller emulates a conventional
drivetrain on the same vehicle: no regenerative braking, no electric
assist — the engine alone covers traction, and the battery only carries
the alternator-style auxiliary load (sustained by a small engine-driven
charge).  The gap between this controller and any hybrid strategy *is* the
hybridisation benefit, separated from all other modelling differences.

Two emulation caveats: below the engine's minimum coupling speed the
solver still drives electrically (a real conventional car slips a clutch or
torque converter there), and the engine does not idle at standstill — both
make this baseline slightly *optimistic*, so the measured HEV benefit is
conservative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.control.base import Controller, gear_order
from repro.powertrain.solver import PowertrainSolver
from repro.rl.agent import ExecutedStep
from repro.rl.reward import RewardConfig, build_reward_function


@dataclass(frozen=True)
class ConventionalConfig:
    """Behaviour of the conventional emulation."""

    alternator_current: float = -4.0
    """Trickle charge emulating the alternator, A (keeps the small battery
    topped up against the auxiliary draw)."""

    soc_target: float = 0.60
    """SoC above which the alternator stops charging."""

    shift_speeds: tuple = (4.0, 8.5, 13.0, 18.5)
    """Speed-based up-shift schedule, m/s."""

    def __post_init__(self) -> None:
        if self.alternator_current >= 0:
            raise ValueError("alternator current must be negative (charging)")
        if not 0 < self.soc_target < 1:
            raise ValueError("SoC target must be a fraction")


class ConventionalController(Controller):
    """ICE-only operation: no regen, no assist, alternator-style charging."""

    def __init__(self, solver: PowertrainSolver,
                 config: Optional[ConventionalConfig] = None,
                 reward_config: Optional[RewardConfig] = None):
        self.solver = solver
        self.config = config or ConventionalConfig()
        self.reward = build_reward_function(solver, reward_config)
        self._preferred_aux = solver.auxiliary.utility.argmax(
            solver.auxiliary.max_power)

    def act(self, speed: float, acceleration: float, soc: float, dt: float,
            grade: float = 0.0, learn: bool = True,
            greedy: bool = False) -> ExecutedStep:
        """Engine-only traction with alternator-style battery sustenance."""
        p_dem = float(self.solver.dynamics.power_demand(speed, acceleration,
                                                        grade))
        battery = self.solver.battery
        if p_dem < 0.0:
            # Friction brakes only: command zero current; the solver clips
            # motoring against brakes, and aux-sustaining discharge remains.
            current = float(battery.clamp_current(
                battery.current_for_power(self._preferred_aux, soc)))
        elif soc < self.config.soc_target:
            current = self.config.alternator_current
        else:
            # Battery neutral apart from carrying the auxiliary load.
            current = float(battery.clamp_current(
                battery.current_for_power(self._preferred_aux, soc)))

        order = gear_order(self.config.shift_speeds,
                           self.solver.transmission.num_gears, speed)
        batch = self.solver.evaluate_actions(
            speed, acceleration, soc, np.full(len(order), current), order,
            np.full(len(order), self._preferred_aux), dt, grade)
        return ExecutedStep.of_row(batch, batch.first_feasible(), self.reward,
                                   soc, dt, p_dem)
