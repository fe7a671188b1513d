"""Frozen reference implementations of the training step around the kernel.

This module pins the pre-optimisation (seed) semantics of every layer of
the guarded 1 Hz training step *outside* the ``evaluate_grid`` kernel
(the kernel's own frozen reference is ``tests/reference_solver.py``):

* :class:`ReferenceDiscretizer` / :class:`ReferenceQuantizer` — state and
  prediction binning through ``np.searchsorted`` / ``np.ravel_multi_index``;
* :class:`ReferenceTraces` — the ``OrderedDict`` eligibility list;
* :class:`ReferenceTDLambdaLearner` — the TD(λ) update rebuilding its
  key/eligibility arrays from the traces every step;
* :class:`ReferenceReward` — the joint reward recomputing the auxiliary
  utility on every call;
* :class:`ReferenceEpsilonGreedy` — the seed action selection;
* :class:`ReferenceAgent` — the seed ``act`` / ``act_batch`` (road load
  computed outside the kernel, 0-d numpy paper reward) wired to all of
  the above;
* :class:`ReferenceSupervisor` — the safety supervisor with the seed
  envelope check (limits rebuilt every step, ``np.isfinite`` on scalars)
  and the seed reward-collapse monitor (a deque averaged by ``np.mean``).

:func:`reference_agent` and :class:`ReferenceSupervisor` build the
frozen stack with the same seeds and configuration as the production
factories, so the golden suite (``tests/test_learning_equivalence.py``)
can train both side by side and demand bit-identical Q-tables and
traces.  None of this is used by the package.  Do **not** "optimise"
this file — its value is that it does not change.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.control.rl_controller import RLController
from repro.powertrain.operating_point import BatchResult
from repro.powertrain.solver import _WINDOW_SLACK
from repro.prediction.exponential import ExponentialPredictor
from repro.prediction.quantize import PredictionQuantizer
from repro.rl.agent import (ActionSpaceConfig, ExecutedStep,
                            JointControlAgent)
from repro.rl.discretize import StateDiscretizer
from repro.rl.exploration import EpsilonGreedy
from repro.rl.reward import RewardFunction
from repro.rl.td_lambda import TDLambdaLearner
from repro.safety.envelope import _TOL, EnvelopeLimits, FeasibilityEnvelope
from repro.safety.monitors import (_OK, RewardCollapseMonitor, StepContext,
                                   Vote)
from repro.safety.state_machine import AlarmLevel
from repro.safety.supervisor import SafetySupervisor


class ReferenceQuantizer(PredictionQuantizer):
    """Seed prediction quantiser."""

    def __call__(self, prediction: float) -> int:
        thresholds = np.asarray(self._thresholds)
        return int(np.searchsorted(thresholds, prediction, side="right"))


class ReferenceDiscretizer(StateDiscretizer):
    """Seed scalar state discretisation."""

    def indices(self, power_demand: float, speed: float, soc: float,
                prediction_level: int) -> Tuple[int, int, int, int]:
        ip = int(np.searchsorted(self._power_edges, power_demand, side="right"))
        iv = int(np.searchsorted(self._speed_edges, speed, side="right"))
        iq = int(np.clip(np.searchsorted(self._soc_edges, soc, side="right"),
                         0, self._shape[2] - 1))
        il = int(np.clip(prediction_level, 0, self._shape[3] - 1))
        return ip, iv, iq, il

    def state_of(self, power_demand: float, speed: float, soc: float,
                 prediction_level: int = 0) -> int:
        return int(np.ravel_multi_index(
            self.indices(power_demand, speed, soc, prediction_level),
            self._shape))


class ReferenceTraces:
    """Seed M-most-recent eligibility list (an ordered map)."""

    def __init__(self, decay: float, max_entries: int = 64):
        if not 0.0 <= decay < 1.0:
            raise ValueError("trace decay must be in [0, 1)")
        if max_entries < 1:
            raise ValueError("need room for at least one trace entry")
        self._decay = decay
        self._max = max_entries
        self._traces: "OrderedDict[Tuple[int, int], float]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._traces)

    def __iter__(self) -> Iterator[Tuple[Tuple[int, int], float]]:
        return iter(self._traces.items())

    def get(self, state: int, action: int) -> float:
        return self._traces.get((state, action), 0.0)

    def visit(self, state: int, action: int) -> None:
        key = (state, action)
        value = self._traces.pop(key, 0.0) + 1.0
        self._traces[key] = value
        while len(self._traces) > self._max:
            self._traces.popitem(last=False)

    def decay(self) -> None:
        if self._decay == 0.0:
            self._traces.clear()
            return
        for key in self._traces:
            self._traces[key] *= self._decay

    def clear(self) -> None:
        self._traces.clear()


class ReferenceTDLambdaLearner(TDLambdaLearner):
    """Seed TD(λ) update over :class:`ReferenceTraces`."""

    def __init__(self, num_states: int, num_actions: int, config=None,
                 seed: int = 42):
        super().__init__(num_states, num_actions, config, seed=seed)
        self._traces = ReferenceTraces(
            decay=self._config.discount * self._config.trace_decay,
            max_entries=self._config.max_traces)

    def update(self, state: int, action: int, reward: float,
               next_state: int) -> float:
        c = self._config
        q = self.qtable.values
        delta = (reward + c.discount * float(np.max(q[next_state]))
                 - q[state, action])
        self._traces.visit(state, action)
        keys = np.array([k for k, _ in self._traces])
        eligibilities = np.array([e for _, e in self._traces])
        q[keys[:, 0], keys[:, 1]] += self.learning_rate * eligibilities * delta
        self._traces.decay()
        self._episode_dirty = True
        return float(delta)

    def update_terminal(self, state: int, action: int, reward: float) -> float:
        q = self.qtable.values
        delta = reward - q[state, action]
        self._traces.visit(state, action)
        keys = np.array([k for k, _ in self._traces])
        eligibilities = np.array([e for _, e in self._traces])
        q[keys[:, 0], keys[:, 1]] += self.learning_rate * eligibilities * delta
        self._traces.decay()
        self._episode_dirty = True
        return float(delta)


class ReferenceReward(RewardFunction):
    """Seed joint reward."""

    def __call__(self, fuel_rate, aux_power, dt, soc_next=None,
                 soc_prev=None, shortfall=0.0):
        c = self._config
        base = (-np.asarray(fuel_rate, dtype=float)
                + c.aux_weight * np.asarray(self._utility(aux_power),
                                            dtype=float))
        penalty = np.asarray(shortfall, dtype=float) * c.shortfall_penalty
        if soc_next is not None:
            penalty = penalty + c.window_penalty * self.window_violation(
                soc_next) ** 2
        reward = (base - penalty) * dt
        if soc_next is not None and soc_prev is not None:
            reward = reward + self._soc_price * (
                np.asarray(soc_next, dtype=float)
                - np.asarray(soc_prev, dtype=float))
        return reward

    def paper_reward(self, fuel_rate, aux_power, dt):
        return ((-np.asarray(fuel_rate, dtype=float)
                 + self._config.aux_weight
                 * np.asarray(self._utility(aux_power), dtype=float)) * dt)


class ReferenceEpsilonGreedy(EpsilonGreedy):
    """Seed epsilon-greedy selection."""

    def select(self, q_row, feasible=None, greedy=False, guided=None):
        if feasible is None:
            feasible = np.ones(len(q_row), dtype=bool)
        if not np.any(feasible):
            return int(np.argmax(q_row))
        masked = np.where(feasible, q_row, -np.inf)
        best = int(np.argmax(masked))
        if greedy or self._rng.random() >= self.epsilon:
            return best
        if (guided is not None and guided != best and feasible[guided]
                and self._rng.random() < self._guided_fraction):
            return int(guided)
        others = np.nonzero(feasible)[0]
        others = others[others != best]
        if len(others) == 0:
            return best
        return int(self._rng.choice(others))


class ReferenceAgent(JointControlAgent):
    """Seed ``act`` / ``act_batch`` over the frozen layers above."""

    def __init__(self, solver, td_config=None, reward_config=None,
                 action_config: Optional[ActionSpaceConfig] = None,
                 predictor=None, algorithm: str = "td_lambda",
                 seed: int = 42):
        battery = solver.params.battery
        quantizer = ReferenceQuantizer()
        levels = quantizer.num_levels if predictor is not None else 1
        discretizer = ReferenceDiscretizer(
            soc_min=battery.soc_min, soc_max=battery.soc_max,
            prediction_levels=levels)
        super().__init__(solver, discretizer=discretizer,
                         td_config=td_config, reward_config=reward_config,
                         action_config=action_config, predictor=predictor,
                         quantizer=quantizer,
                         exploration=ReferenceEpsilonGreedy(seed=seed),
                         algorithm=algorithm, seed=seed)
        self.reward.__class__ = ReferenceReward
        if algorithm == "td_lambda":
            self.learner = ReferenceTDLambdaLearner(
                self.discretizer.num_states, self.num_rl_actions,
                td_config, seed=seed)

    def act(self, speed: float, acceleration: float, soc: float, dt: float,
            grade: float = 0.0, learn: bool = True,
            greedy: bool = False) -> ExecutedStep:
        p_dem = float(self.solver.dynamics.power_demand(speed, acceleration,
                                                        grade))
        state = self.observe_state(p_dem, speed, soc)
        if self.predictor is not None:
            self.predictor.update(p_dem)
            update_velocity = getattr(self.predictor, "update_velocity",
                                      None)
            if update_velocity is not None:
                update_velocity(speed)

        if learn and self._pending is not None:
            prev_state, prev_action, prev_reward = self._pending
            self.learner.update(prev_state, prev_action, prev_reward, state)

        batch = self.solver.evaluate_grid(
            self._workspace, speed, acceleration, soc, dt, grade)
        rewards = np.asarray(self.reward(
            batch.fuel_rate, batch.aux_power, dt, soc_next=batch.soc_next,
            soc_prev=soc, shortfall=batch.shortfall), dtype=float)

        feasible_group, best_primitive = self._reduce(batch, rewards)
        if np.any(feasible_group):
            group_rewards = np.where(feasible_group,
                                     rewards[best_primitive], -np.inf)
            myopic = int(np.argmax(group_rewards))
        else:
            myopic = None
        rl_action = self.exploration.select(
            self.learner.qtable.row(state), feasible_group, greedy=greedy,
            guided=myopic)

        if feasible_group[rl_action]:
            prim = int(best_primitive[rl_action])
            fallback = False
        else:
            prim = self._fallback_primitive(batch)
            fallback = True

        reward = float(rewards[prim])
        paper_reward = float(self.reward.paper_reward(
            batch.fuel_rate[prim], batch.aux_power[prim], dt))
        if learn:
            self._pending = (state, rl_action, reward)
        self._last_soc = float(batch.soc_next[prim])

        return ExecutedStep(
            state=state, rl_action=rl_action,
            current=float(batch.battery_current[prim]),
            gear=int(batch.gear[prim]),
            aux_power=float(batch.aux_power[prim]),
            fuel_rate=float(batch.fuel_rate[prim]),
            soc_next=float(batch.soc_next[prim]),
            reward=reward, paper_reward=paper_reward,
            feasible=not fallback, mode=int(batch.mode[prim]),
            power_demand=p_dem, shortfall=float(batch.shortfall[prim]))

    def act_batch(self, speeds, accelerations, socs, dt: float,
                  grades=None) -> list:
        speeds = np.asarray(speeds, dtype=float)
        accelerations = np.asarray(accelerations, dtype=float)
        socs = np.asarray(socs, dtype=float)
        if grades is None:
            grades = np.zeros(len(speeds))
        else:
            grades = np.asarray(grades, dtype=float)
        level = 0
        if self.predictor is not None:
            level = self.quantizer(self.predictor.predict())

        steps = []
        for i in range(len(speeds)):
            speed = float(speeds[i])
            accel = float(accelerations[i])
            soc = float(socs[i])
            grade = float(grades[i])
            p_dem = float(self.solver.dynamics.power_demand(speed, accel,
                                                            grade))
            state = self.discretizer.state_of(p_dem, speed, soc, level)
            batch = self.solver.evaluate_grid(
                self._workspace, speed, accel, soc, dt, grade)
            rewards = np.asarray(self.reward(
                batch.fuel_rate, batch.aux_power, dt,
                soc_next=batch.soc_next, soc_prev=soc,
                shortfall=batch.shortfall), dtype=float)
            feasible_group, best_primitive = self._reduce(batch, rewards)
            masked = np.where(feasible_group,
                              self.learner.qtable.row(state), -np.inf)
            if np.any(feasible_group):
                rl_action = int(np.argmax(masked))
                prim = int(best_primitive[rl_action])
                fallback = False
            else:
                rl_action = int(np.argmax(self.learner.qtable.row(state)))
                prim = self._fallback_primitive(batch)
                fallback = True
            steps.append(ExecutedStep(
                state=state, rl_action=rl_action,
                current=float(batch.battery_current[prim]),
                gear=int(batch.gear[prim]),
                aux_power=float(batch.aux_power[prim]),
                fuel_rate=float(batch.fuel_rate[prim]),
                soc_next=float(batch.soc_next[prim]),
                reward=float(rewards[prim]),
                paper_reward=float(self.reward.paper_reward(
                    batch.fuel_rate[prim], batch.aux_power[prim], dt)),
                feasible=not fallback, mode=int(batch.mode[prim]),
                power_demand=p_dem,
                shortfall=float(batch.shortfall[prim])))
        return steps

    def q_health(self) -> Tuple[bool, float]:
        values = self.learner.qtable.values
        finite = bool(np.all(np.isfinite(values)))
        max_abs = float(np.max(np.abs(values))) if finite else float("inf")
        return finite, max_abs

    def _reduce(self, batch: BatchResult,
                rewards: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        n = self.num_rl_actions
        masked = np.where(batch.feasible, rewards, -np.inf)
        blocks = masked.reshape(n, -1)
        best_in_block = np.argmax(blocks, axis=1)
        best_primitive = best_in_block + np.arange(n) * blocks.shape[1]
        feasible_group = np.isfinite(
            blocks[np.arange(n), best_in_block])
        return feasible_group, best_primitive

    def _fallback_primitive(self, batch: BatchResult) -> int:
        violation = self.reward.window_violation(batch.soc_next)
        score = (np.where(batch.meets_demand, 0.0, 1e6)
                 + np.asarray(violation) * 1e3
                 + batch.shortfall)
        return int(np.argmin(score))


class ReferenceEnvelope(FeasibilityEnvelope):
    """Seed envelope: limits rebuilt and scalars checked by numpy."""

    def limits(self) -> EnvelopeLimits:
        battery = self._solver.params.battery
        aux = self._solver.auxiliary
        non_sheddable = sum(l.nominal_power for l in aux.loads
                            if not l.sheddable)
        return EnvelopeLimits(
            max_current=float(battery.max_current),
            num_gears=int(self._solver.transmission.num_gears),
            aux_min=float(max(aux.params.min_power, non_sheddable)),
            aux_max=float(aux.max_power),
            soc_lo=float(battery.soc_min - _WINDOW_SLACK),
            soc_hi=float(battery.soc_max + _WINDOW_SLACK))

    def check(self, current, gear, aux_power, soc_next):
        lim = self.limits()
        violations = []
        if not (np.isfinite(current) and np.isfinite(aux_power)
                and np.isfinite(soc_next)):
            violations.append((
                "nonfinite_action",
                f"current={current!r}, aux={aux_power!r}, "
                f"soc_next={soc_next!r}"))
            return violations
        if abs(current) > lim.max_current + _TOL:
            violations.append((
                "current_limit",
                f"|{current:.1f} A| exceeds the {lim.max_current:.1f} A "
                f"pack bound"))
        if not 0 <= int(gear) < lim.num_gears:
            violations.append((
                "gear_range",
                f"gear {gear} outside 0..{lim.num_gears - 1}"))
        if not lim.aux_min - _TOL <= aux_power <= lim.aux_max + _TOL:
            violations.append((
                "aux_limit",
                f"p_aux={aux_power:.0f} W outside "
                f"[{lim.aux_min:.0f}, {lim.aux_max:.0f}] W"))
        if not lim.soc_lo - _TOL <= soc_next <= lim.soc_hi + _TOL:
            violations.append((
                "soc_window",
                f"post-step SoC {soc_next:.3f} outside "
                f"[{lim.soc_lo:.3f}, {lim.soc_hi:.3f}]"))
        return violations


class ReferenceCollapseMonitor(RewardCollapseMonitor):
    """Seed reward-collapse monitor (deque window, ``np.mean``)."""

    def reset(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._recent: deque = deque()

    def observe(self, ctx: StepContext) -> Vote:
        r = float(ctx.reward)
        if not np.isfinite(r):
            return _OK
        self._recent.append(r)
        if len(self._recent) > self.window:
            oldest = self._recent.popleft()
            self._count += 1
            delta = oldest - self._mean
            self._mean += delta / self._count
            self._m2 += delta * (oldest - self._mean)
        if self._count < self.min_history:
            return _OK
        std = float(np.sqrt(self._m2 / (self._count - 1)))
        if std <= 0.0:
            return _OK
        recent_mean = float(np.mean(self._recent))
        deficit = (self._mean - recent_mean) / std
        if deficit > self.sigmas:
            return (AlarmLevel.WARN,
                    f"reward collapsed: recent mean {recent_mean:.3g} is "
                    f"{deficit:.1f} sigma below the episode baseline "
                    f"{self._mean:.3g}")
        return _OK


class ReferenceSupervisor(SafetySupervisor):
    """The safety supervisor over the seed envelope and collapse monitor."""

    def __init__(self, controller, solver, config=None):
        super().__init__(controller, solver, config=config)
        self.envelope = ReferenceEnvelope(solver)
        self._monitors = [
            ReferenceCollapseMonitor(m.window, m.sigmas, m.min_history)
            if isinstance(m, RewardCollapseMonitor) else m
            for m in self._monitors]


def reference_agent(solver, algorithm: str = "td_lambda",
                    seed: int = 42) -> RLController:
    """The seed stack in the configuration of
    ``build_rl_controller(solver, "proposed", seed=seed)`` (with
    ``algorithm`` selecting the learner)."""
    return RLController(ReferenceAgent(
        solver, action_config=ActionSpaceConfig(control_aux=True),
        predictor=ExponentialPredictor(), algorithm=algorithm, seed=seed))
