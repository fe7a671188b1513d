"""Frozen reference of the baseline controllers' step resolution.

Before steps were built from batch rows by :meth:`ExecutedStep.of_row`,
each baseline controller ended ``act`` with its own copy of the same
tail: fall back to the least-bad row when nothing is feasible, score the
chosen row with the learning and the paper reward (numpy scalars in),
and build the :class:`ExecutedStep`.  :func:`reference_tail` is that
tail; the ``Reference*`` controllers are the five ``act`` methods (and
the grids and gear orders they read) as they were then.

``tests/test_controller_equivalence.py`` drives them next to the
production controllers and compares every step byte for byte.  Not used
by the package; it exists for verification.  Do **not** "optimise" this
file — its value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.control.conventional import ConventionalController
from repro.control.dp import DPController
from repro.control.ecms import ECMSController
from repro.control.rule_based import RuleBasedController
from repro.control.thermostat import ThermostatController
from repro.rl.agent import ExecutedStep


def reference_tail(reward, batch, chosen, soc, dt, p_dem) -> ExecutedStep:
    """The step executing ``batch`` row ``chosen``; ``None`` falls back to
    the least-bad row in ``reward``'s SoC window."""
    fallback = chosen is None
    if fallback:
        violation = np.asarray(reward.window_violation(batch.soc_next))
        score = (np.where(batch.meets_demand, 0.0, 1e6)
                 + violation * 1e3 + batch.shortfall)
        chosen = int(np.argmin(score))

    step_reward = float(reward(
        batch.fuel_rate[chosen], batch.aux_power[chosen], dt,
        soc_next=batch.soc_next[chosen], soc_prev=soc,
        shortfall=batch.shortfall[chosen]))
    paper_reward = float(reward.paper_reward(
        batch.fuel_rate[chosen], batch.aux_power[chosen], dt))
    return ExecutedStep(
        state=-1, rl_action=-1,
        current=float(batch.battery_current[chosen]),
        gear=int(batch.gear[chosen]),
        aux_power=float(batch.aux_power[chosen]),
        fuel_rate=float(batch.fuel_rate[chosen]),
        soc_next=float(batch.soc_next[chosen]),
        reward=step_reward, paper_reward=paper_reward,
        feasible=not fallback, mode=int(batch.mode[chosen]),
        power_demand=p_dem,
        shortfall=float(batch.shortfall[chosen]))


def _gear_order(shift_speeds, gears, speed):
    preferred = int(np.searchsorted(shift_speeds, speed))
    preferred = min(preferred, len(gears) - 1)
    return np.asarray(
        sorted(gears, key=lambda g: abs(int(g) - preferred)), dtype=int)


def _action_grid(solver, current_levels, aux_levels):
    i_max = solver.params.battery.max_current
    currents = np.linspace(-i_max, i_max, current_levels)
    gears = np.arange(solver.transmission.num_gears)
    aux_levels = solver.auxiliary.power_levels(aux_levels)
    grid = np.array(np.meshgrid(currents, gears, aux_levels,
                                indexing="ij")).reshape(3, -1)
    return grid[0], grid[1].astype(int), grid[2]


class ReferenceConventional(ConventionalController):
    """Seed engine-only ``act``."""

    def act(self, speed, acceleration, soc, dt, grade=0.0, learn=True,
            greedy=False) -> ExecutedStep:
        p_dem = float(self.solver.dynamics.power_demand(speed, acceleration,
                                                        grade))
        battery = self.solver.battery
        if p_dem < 0.0:
            current = float(battery.clamp_current(
                battery.current_for_power(self._preferred_aux, soc)))
        elif soc < self.config.soc_target:
            current = self.config.alternator_current
        else:
            current = float(battery.clamp_current(
                battery.current_for_power(self._preferred_aux, soc)))

        order = _gear_order(self.config.shift_speeds,
                            np.arange(self.solver.transmission.num_gears),
                            speed)
        batch = self.solver.evaluate_actions(
            speed, acceleration, soc, np.full(len(order), current), order,
            np.full(len(order), self._preferred_aux), dt, grade)
        feasible = np.nonzero(batch.feasible)[0]
        chosen = int(feasible[0]) if len(feasible) else None
        return reference_tail(self.reward, batch, chosen, soc, dt, p_dem)


class ReferenceThermostat(ThermostatController):
    """Seed bang-bang ``act``."""

    def act(self, speed, acceleration, soc, dt, grade=0.0, learn=True,
            greedy=False) -> ExecutedStep:
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

        gears = np.arange(self.solver.transmission.num_gears)
        batch = self.solver.evaluate_actions(
            speed, acceleration, soc,
            np.full(len(gears), current), gears,
            np.full(len(gears), self._preferred_aux), dt, grade)
        feasible = np.nonzero(batch.feasible)[0]
        chosen = int(feasible[0]) if len(feasible) else None
        return reference_tail(self.reward, batch, chosen, soc, dt, p_dem)


class ReferenceRuleBased(RuleBasedController):
    """Seed threshold-rule ``act`` with its assist-current escalation."""

    def act(self, speed, acceleration, soc, dt, grade=0.0, learn=True,
            greedy=False) -> ExecutedStep:
        p_dem = float(self.solver.dynamics.power_demand(speed, acceleration,
                                                        grade))
        current = self._target_current(p_dem, speed, soc)
        aux = self._aux_power(soc)
        order = _gear_order(self.config.shift_speeds,
                            np.arange(self.solver.transmission.num_gears),
                            speed)
        candidates = [current, self.config.assist_current,
                      self.solver.battery.params.max_current]
        chosen = None
        batch = None
        for cand in candidates:
            batch = self.solver.evaluate_actions(
                speed, acceleration, soc,
                np.full(len(order), cand), order,
                np.full(len(order), aux), dt, grade)
            feasible = np.nonzero(batch.feasible)[0]
            if len(feasible):
                chosen = int(feasible[0])
                break
        return reference_tail(self.reward, batch, chosen, soc, dt, p_dem)


class ReferenceECMS(ECMSController):
    """Seed equivalent-fuel minimiser ``act`` over its own grid."""

    def __init__(self, solver, config=None, reward_config=None):
        super().__init__(solver, config, reward_config)
        self._grid_currents, self._grid_gears, self._grid_aux = _action_grid(
            solver, self.config.current_levels, self.config.aux_levels)

    def act(self, speed, acceleration, soc, dt, grade=0.0, learn=True,
            greedy=False) -> ExecutedStep:
        p_dem = float(self.solver.dynamics.power_demand(speed, acceleration,
                                                        grade))
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
        if not np.isfinite(masked[chosen]):
            chosen = None
        return reference_tail(self.reward, batch, chosen, soc, dt, p_dem)


class ReferenceDP(DPController):
    """Seed value-function rollout ``act`` over its own grid."""

    def __init__(self, solver, solution, config=None, reward_config=None):
        super().__init__(solver, solution, config, reward_config)
        self._currents, self._gears, self._aux = _action_grid(
            solver, self.config.current_levels, self.config.aux_levels)

    def act(self, speed, acceleration, soc, dt, grade=0.0, learn=True,
            greedy=False) -> ExecutedStep:
        p_dem = float(self.solver.dynamics.power_demand(speed, acceleration,
                                                        grade))
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
        if not np.isfinite(total[chosen]):
            chosen = None
        self._t += 1
        return reference_tail(self.reward, batch, chosen, soc, dt, p_dem)
