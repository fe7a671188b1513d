"""Equivalent Consumption Minimisation Strategy (ECMS) baseline.

The classic real-time optimisation-based strategy the paper's related-work
section describes (Delprat et al. [10]): at each instant, convert battery
power into *equivalent* fuel flow through an equivalence factor ``s`` and
minimise

    cost = mdot_f + s * P_batt / D_f - w * f_aux(p_aux)

over the admissible actions.  A proportional SoC feedback keeps the pack
inside its charge-sustaining window by inflating ``s`` when the charge is
low (discharging becomes expensive) and deflating it when high.

Unlike the RL agent, ECMS needs the full fuel map at decision time — it is
the model-*based* reference point in the ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.control.base import Controller
from repro.control.dp import _action_grid
from repro.powertrain.solver import PowertrainSolver
from repro.rl.agent import ExecutedStep
from repro.rl.reward import RewardConfig, build_reward_function


@dataclass(frozen=True)
class ECMSConfig:
    """ECMS tuning parameters."""

    equivalence_factor: float = 2.4
    """Baseline equivalence factor ``s0`` (dimensionless; ~2-3 for
    charge-sustaining gasoline hybrids)."""

    soc_feedback_gain: float = 6.0
    """Proportional gain of the SoC-sustaining feedback on ``s``."""

    soc_target: float = 0.60
    """SoC the feedback regulates toward (fraction)."""

    current_levels: int = 21
    """Number of candidate battery currents evaluated per step."""

    aux_levels: int = 6
    """Number of candidate auxiliary power levels per step."""

    def __post_init__(self) -> None:
        if self.equivalence_factor <= 0:
            raise ValueError("equivalence factor must be positive")
        if self.soc_feedback_gain < 0:
            raise ValueError("feedback gain cannot be negative")
        if not 0 < self.soc_target < 1:
            raise ValueError("SoC target must be a fraction")
        if self.current_levels < 3 or self.aux_levels < 1:
            raise ValueError("candidate grids too small")


class ECMSController(Controller):
    """Instantaneous equivalent-fuel minimiser with SoC feedback."""

    def __init__(self, solver: PowertrainSolver,
                 config: Optional[ECMSConfig] = None,
                 reward_config: Optional[RewardConfig] = None):
        self.solver = solver
        self.config = config or ECMSConfig()
        self._reward_config = reward_config or RewardConfig()
        self.reward = build_reward_function(solver, self._reward_config)
        self._fuel_energy = solver.engine.fuel_energy_density

        self._grid_currents, self._grid_gears, self._grid_aux = _action_grid(
            solver, self.config.current_levels, self.config.aux_levels)

    def equivalence_factor(self, soc: float) -> float:
        """SoC-feedback-adjusted equivalence factor ``s(soc)``."""
        cfg = self.config
        return max(cfg.equivalence_factor
                   * (1.0 + cfg.soc_feedback_gain * (cfg.soc_target - soc)),
                   0.1)

    def act(self, speed: float, acceleration: float, soc: float, dt: float,
            grade: float = 0.0, learn: bool = True,
            greedy: bool = False) -> ExecutedStep:
        """Minimise the instantaneous equivalent fuel over the action grid."""
        batch = self.solver.evaluate_actions(
            speed, acceleration, soc, self._grid_currents, self._grid_gears,
            self._grid_aux, dt, grade)
        s = self.equivalence_factor(soc)
        utility = np.asarray(self.solver.auxiliary.utility(batch.aux_power))
        cost = (batch.fuel_rate
                + s * batch.battery_power / self._fuel_energy
                - self._reward_config.aux_weight * utility)
        masked = np.where(batch.feasible, cost, np.inf)
        chosen = int(np.argmin(masked))
        return ExecutedStep.of_row(
            batch, chosen if np.isfinite(masked[chosen]) else None,
            self.reward, soc, dt, batch.power_demand)
