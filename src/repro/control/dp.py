"""Offline dynamic-programming optimum (extension; upper bound for benches).

With the whole drive cycle known in advance, backward induction over a
(time x state-of-charge) grid yields the globally optimal control sequence
for the joint objective — the bound every online controller (rule-based,
ECMS, RL) is measured against in the ablation benches.

Stage cost is the negated paper reward ``(mdot_f - w * f_aux) * dt`` so the
DP minimises exactly what the RL agent maximises; the terminal cost charges
any final-SoC deficit at the engine's average fuel-to-electricity
conversion efficiency, enforcing charge sustenance.

The forward pass re-optimises each step against the stored value function
(a rollout on the exact model), which keeps the executed trajectory
consistent with the simulator's physics without storing per-node policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.control.base import Controller
from repro.cycles.cycle import DriveCycle
from repro.powertrain.solver import PowertrainSolver
from repro.rl.agent import ExecutedStep
from repro.rl.reward import RewardConfig, build_reward_function


@dataclass(frozen=True)
class DPConfig:
    """Grid resolution of the DP solve."""

    soc_nodes: int = 21
    """Number of state-of-charge grid nodes across the operating window."""

    current_levels: int = 15
    """Number of candidate battery currents."""

    aux_levels: int = 4
    """Number of candidate auxiliary power levels."""

    conversion_efficiency: float = 0.30
    """Fuel-to-stored-electricity efficiency pricing the terminal SoC
    deficit."""

    infeasible_cost: float = 1e4
    """Stage cost assigned where no action is feasible (keeps the value
    function finite on unreachable grid corners)."""

    def __post_init__(self) -> None:
        if self.soc_nodes < 3:
            raise ValueError("need at least three SoC nodes")
        if self.current_levels < 3 or self.aux_levels < 1:
            raise ValueError("action grids too small")
        if not 0 < self.conversion_efficiency <= 1:
            raise ValueError("conversion efficiency must be in (0, 1]")


@dataclass
class DPSolution:
    """Value function of one backward-induction solve."""

    soc_grid: np.ndarray
    """SoC nodes (fractions), ascending."""

    values: np.ndarray
    """``values[t, j]`` = optimal cost-to-go from SoC node j at step t;
    shape (steps + 1, soc_nodes)."""

    cycle_name: str
    """Cycle the solution was computed for."""

    initial_soc: float
    """SoC whose deficit the terminal cost charges."""


def _action_grid(solver: PowertrainSolver, num_currents: int,
                 num_aux: int):
    """The (current x gear x aux level) cross product, current-major, as
    three index-aligned arrays (shared with the ECMS baseline)."""
    i_max = solver.params.battery.max_current
    currents = np.linspace(-i_max, i_max, num_currents)
    gears = np.arange(solver.transmission.num_gears)
    aux_levels = solver.auxiliary.power_levels(num_aux)
    grid = np.array(np.meshgrid(currents, gears, aux_levels,
                                indexing="ij")).reshape(3, -1)
    return grid[0], grid[1].astype(int), grid[2]


def solve_dp(solver: PowertrainSolver, cycle: DriveCycle,
             initial_soc: float = 0.60, config: Optional[DPConfig] = None,
             reward_config: Optional[RewardConfig] = None) -> DPSolution:
    """Backward induction over the (time, SoC) grid for ``cycle``."""
    config = config or DPConfig()
    reward_config = reward_config or RewardConfig()
    battery = solver.params.battery
    reward = build_reward_function(solver, reward_config)
    currents, gears, aux = _action_grid(solver, config.current_levels,
                                        config.aux_levels)

    soc_grid = np.linspace(battery.soc_min, battery.soc_max, config.soc_nodes)
    steps = len(cycle) - 1
    values = np.zeros((steps + 1, config.soc_nodes))

    # Terminal cost: price the SoC deficit in grams of fuel.
    nominal_voltage = float(solver.battery.open_circuit_voltage(
        0.5 * (battery.soc_min + battery.soc_max)))
    deficit = np.maximum(initial_soc - soc_grid, 0.0)
    values[steps] = (deficit * battery.capacity * nominal_voltage
                     / (config.conversion_efficiency
                        * solver.engine.fuel_energy_density))

    demands = list(cycle.steps())
    for t in range(steps - 1, -1, -1):
        speed, accel, grade = demands[t]
        next_values = values[t + 1]
        for j, soc in enumerate(soc_grid):
            batch = solver.evaluate_actions(speed, accel, soc, currents,
                                            gears, aux, cycle.dt, grade)
            stage = -np.asarray(reward.paper_reward(
                batch.fuel_rate, batch.aux_power, cycle.dt))
            future = np.interp(batch.soc_next, soc_grid, next_values)
            total = np.where(batch.feasible, stage + future, np.inf)
            best = float(np.min(total))
            values[t, j] = (best if np.isfinite(best)
                            else config.infeasible_cost + float(next_values[j]))
    return DPSolution(soc_grid=soc_grid, values=values,
                      cycle_name=cycle.name, initial_soc=initial_soc)


class DPController(Controller):
    """Forward rollout of a :class:`DPSolution` (optimal on its own cycle)."""

    def __init__(self, solver: PowertrainSolver, solution: DPSolution,
                 config: Optional[DPConfig] = None,
                 reward_config: Optional[RewardConfig] = None):
        self.solver = solver
        self.solution = solution
        self.config = config or DPConfig()
        self.reward = build_reward_function(solver, reward_config)
        self._currents, self._gears, self._aux = _action_grid(
            solver, self.config.current_levels, self.config.aux_levels)
        self._t = 0

    def begin_episode(self) -> None:
        """Rewind the rollout to the first cycle step."""
        self._t = 0

    def act(self, speed: float, acceleration: float, soc: float, dt: float,
            grade: float = 0.0, learn: bool = True,
            greedy: bool = False) -> ExecutedStep:
        """Pick the action minimising stage cost plus interpolated cost-to-go."""
        batch = self.solver.evaluate_actions(
            speed, acceleration, soc, self._currents, self._gears, self._aux,
            dt, grade)
        stage = -np.asarray(self.reward.paper_reward(
            batch.fuel_rate, batch.aux_power, dt))
        t_next = min(self._t + 1, len(self.solution.values) - 1)
        future = np.interp(batch.soc_next, self.solution.soc_grid,
                           self.solution.values[t_next])
        total = np.where(batch.feasible, stage + future, np.inf)
        chosen = int(np.argmin(total))
        self._t += 1
        return ExecutedStep.of_row(
            batch, chosen if np.isfinite(total[chosen]) else None,
            self.reward, soc, dt, batch.power_demand)
