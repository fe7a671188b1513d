"""The joint powertrain + auxiliary control agent (paper Section 4.3).

The agent glues together the state discretiser, the predictor, the
TD(lambda) learner, and the powertrain solver:

* **Reduced action space** (the paper's recommendation): the RL action is
  the battery current level only; for the chosen current, the gear ``R(k)``
  and the auxiliary power ``p_aux`` are picked by an inner optimisation that
  maximises the instantaneous reward over a candidate grid — one vectorised
  solver call evaluates the whole (current x gear x aux) cross product per
  step, so the inner optimisation costs nothing extra.
* **Full action space**: every (current, gear, aux level) triple is its own
  RL action, exactly Eq. 15.  Slower to converge — the ablation bench
  measures by how much.

The agent is deliberately *partially model-free*: it never inverts the
engine fuel map or plans over the cycle; it only asks the solver "what
happens if I apply this action now", which is the measurement a real HEV
supervisory controller has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.powertrain.operating_point import BatchResult
from repro.powertrain.solver import PowertrainSolver
from repro.prediction.base import Predictor
from repro.prediction.quantize import PredictionQuantizer
from repro.rl.discretize import StateDiscretizer
from repro.rl.exploration import EpsilonGreedy
from repro.rl.reward import RewardConfig, build_reward_function
from repro.rl.td_lambda import TDLambdaConfig, TDLambdaLearner


@dataclass(frozen=True)
class ActionSpaceConfig:
    """Shape of the agent's action space (Eq. 15 or the reduced variant)."""

    current_levels: Tuple[float, ...] = (-60.0, -30.0, -15.0, -6.0, 0.0,
                                         6.0, 15.0, 30.0, 60.0)
    """Discretised battery current set I, A (positive discharges).  Nine
    levels keep the state-action product small enough for tens-of-episodes
    convergence; the action-space ablation bench sweeps the count."""

    reduced: bool = True
    """True: RL action = current only, gear/aux inner-optimised (the paper's
    recommended reduced space).  False: full Eq. 15 cross product."""

    aux_candidates: int = 6
    """Number of auxiliary power levels in the candidate grid."""

    control_aux: bool = True
    """False freezes p_aux at ``fixed_aux_power`` — used to reproduce the
    prediction-only study (Fig. 2) and the no-aux-control baseline [13]."""

    fixed_aux_power: Optional[float] = None
    """Auxiliary draw when ``control_aux`` is False, W (defaults to the
    utility-preferred power)."""

    def __post_init__(self) -> None:
        if len(self.current_levels) < 2:
            raise ValueError("need at least two current levels")
        levels = list(self.current_levels)
        if levels != sorted(levels):
            raise ValueError("current levels must be sorted")
        if self.aux_candidates < 1:
            raise ValueError("need at least one auxiliary candidate")


@dataclass(frozen=True)
class ExecutedStep:
    """What the agent actually did at one time step."""

    state: int
    """Discrete RL state id observed."""

    rl_action: int
    """Chosen RL action index (current level in the reduced space)."""

    current: float
    """Actual battery current after solver saturation, A."""

    gear: int
    """Executed 0-based gear index."""

    aux_power: float
    """Executed auxiliary draw, W."""

    fuel_rate: float
    """Fuel mass-flow of the step, g/s."""

    soc_next: float
    """Post-step battery state of charge (fraction)."""

    reward: float
    """Learning reward (penalties included)."""

    paper_reward: float
    """Unpenalised reward as printed in the paper's Table 2."""

    feasible: bool
    """False when the step executed a fallback primitive."""

    mode: int
    """Operating-mode classification of the executed point."""

    power_demand: float
    """Driver propulsion power demand of the step, W."""

    shortfall: float = 0.0
    """Torque the executed point failed to deliver, N·m (0 when demand
    was met; defaults for controllers predating the shortfall trace)."""


class JointControlAgent:
    """RL agent jointly controlling battery current, gear, and p_aux."""

    def __init__(self, solver: PowertrainSolver,
                 discretizer: Optional[StateDiscretizer] = None,
                 td_config: Optional[TDLambdaConfig] = None,
                 reward_config: Optional[RewardConfig] = None,
                 action_config: Optional[ActionSpaceConfig] = None,
                 predictor: Optional[Predictor] = None,
                 quantizer: Optional[PredictionQuantizer] = None,
                 exploration: Optional[EpsilonGreedy] = None,
                 algorithm: str = "td_lambda",
                 seed: int = 42):
        """``predictor=None`` disables the prediction state dimension (the
        configuration of the baseline RL controller [13]).  ``algorithm``
        selects the learner: ``"td_lambda"`` (Algorithm 1, the paper's) or
        ``"double_q"`` (the double-estimator extension)."""
        self.solver = solver
        battery = solver.params.battery
        levels = 1
        if predictor is not None:
            quantizer = quantizer or PredictionQuantizer()
            levels = quantizer.num_levels
        self.discretizer = discretizer or StateDiscretizer(
            soc_min=battery.soc_min, soc_max=battery.soc_max,
            prediction_levels=levels)
        self.action_config = action_config or ActionSpaceConfig()
        self.reward_config = reward_config or RewardConfig()
        self.reward = build_reward_function(solver, self.reward_config)
        self.predictor = predictor
        self.quantizer = quantizer if predictor is not None else None
        self.exploration = exploration or EpsilonGreedy(seed=seed)

        self._build_action_grid()
        if algorithm == "td_lambda":
            self.learner = TDLambdaLearner(
                self.discretizer.num_states, self.num_rl_actions,
                td_config, seed=seed)
        elif algorithm == "double_q":
            from repro.rl.double_q import DoubleQLearner
            self.learner = DoubleQLearner(
                self.discretizer.num_states, self.num_rl_actions,
                td_config, seed=seed)
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}; expected "
                             f"'td_lambda' or 'double_q'")
        self._pending: Optional[Tuple[int, int, float]] = None
        self._last_soc: Optional[float] = None

    # ------------------------------------------------------------- actions ---

    def _build_action_grid(self) -> None:
        """Enumerate the primitive (current, gear, aux) grid and the mapping
        from primitives to RL actions."""
        cfg = self.action_config
        aux = self.solver.auxiliary
        currents = np.asarray(cfg.current_levels, dtype=float)
        gears = np.arange(self.solver.transmission.num_gears)
        if cfg.control_aux:
            aux_levels = aux.power_levels(cfg.aux_candidates)
            preferred = aux.utility.argmax(aux.max_power)
            if not np.any(np.isclose(aux_levels, preferred)):
                aux_levels = np.sort(np.append(aux_levels, preferred))
        else:
            fixed = (cfg.fixed_aux_power if cfg.fixed_aux_power is not None
                     else aux.utility.argmax(aux.max_power))
            aux_levels = np.asarray([float(aux.clamp(fixed))])

        grid = np.array(np.meshgrid(np.arange(len(currents)),
                                    np.arange(len(gears)),
                                    np.arange(len(aux_levels)),
                                    indexing="ij")).reshape(3, -1)
        self._grid_currents = currents[grid[0]]
        self._grid_gears = gears[grid[1]]
        self._grid_aux = aux_levels[grid[2]]
        if cfg.reduced:
            self._grid_group = grid[0]
            self.num_rl_actions = len(currents)
        else:
            self._grid_group = np.arange(grid.shape[1])
            self.num_rl_actions = grid.shape[1]
        self.current_levels = currents
        self.aux_levels = aux_levels
        # One workspace for the life of the agent: the candidate grid is
        # fixed, so its statics (clamped currents, resistive terms, unique
        # gears) are computed once here and the per-step solver call reuses
        # the same preallocated buffers instead of rebuilding the grid.
        self._workspace = self.solver.workspace(
            self._grid_currents, self._grid_gears, self._grid_aux)
        # The reward's utility term depends on the auxiliary draw alone, so
        # it is fixed with the grid too: over the whole grid for ranking,
        # and per primitive as one draw for the executed step's paper
        # reward (see RewardFunction.aux_term).
        self._aux_term = self.reward.aux_term(self._grid_aux)
        level_terms = [float(self.reward.aux_term(a))
                       for a in aux_levels.tolist()]
        self._paper_aux_terms = [level_terms[k] for k in grid[2].tolist()]
        self._block_starts = (np.arange(self.num_rl_actions)
                              * (grid.shape[1] // self.num_rl_actions))

    # --------------------------------------------------------------- acting ---

    def begin_episode(self) -> None:
        """Reset per-episode machinery (traces, predictor history, pending)."""
        self.learner.start_episode()
        if self.predictor is not None:
            self.predictor.reset()
        self._pending = None

    def finish_episode(self, learn: bool = True) -> None:
        """Flush the last pending transition and adapt the SoC price.

        The terminal TD update closes the episode; the adaptive-pricing
        outer loop then moves the charge price against the episode's final
        SoC error (only while learning, so evaluation runs are pure).
        """
        if learn and self._pending is not None:
            state, action, reward = self._pending
            self.learner.update_terminal(state, action, reward)
        self._pending = None
        if learn:
            self.exploration.new_episode()
            if self._last_soc is not None:
                self.reward.adapt_price(self._last_soc)
        self._last_soc = None

    def observe_state(self, power_demand: float, speed: float,
                      soc: float) -> int:
        """Discretise the current observation into an RL state id."""
        level = 0
        if self.predictor is not None:
            level = self.quantizer(self.predictor.predict())
        return self.discretizer.state_of(power_demand, speed, soc, level)

    def act(self, speed: float, acceleration: float, soc: float, dt: float,
            grade: float = 0.0, learn: bool = True,
            greedy: bool = False) -> ExecutedStep:
        """Observe, (optionally) learn from the previous step, and act.

        Performs one vectorised solver evaluation of the whole primitive
        grid, reduces it to per-RL-action feasibility and best-primitive
        choices, selects an RL action epsilon-greedily (greedily in
        evaluation mode), and returns the executed step.
        """
        batch = self.solver.evaluate_grid(
            self._workspace, speed, acceleration, soc, dt, grade)
        p_dem = batch.power_demand
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

        rewards, feasible_group, best_primitive, group_best = self._score(
            batch, soc, dt)
        # Myopically best RL action — the guidance target for exploration.
        myopic = None
        if feasible_group.any():
            myopic = int(np.where(feasible_group, group_best,
                                  -np.inf).argmax())
        rl_action = self.exploration.select(
            self.learner.qtable.row(state), feasible_group, greedy=greedy,
            guided=myopic)
        step = self._executed(batch, rewards, state, rl_action,
                              feasible_group, best_primitive, p_dem, dt)
        if learn:
            self._pending = (state, rl_action, step.reward)
        self._last_soc = step.soc_next
        return step

    def act_batch(self, speeds, accelerations, socs, dt: float,
                  grades=None) -> list:
        """Greedy policy probe over N independent observations.

        Answers "what would the trained policy do in each of these
        situations" without mutating any agent state: no TD update, no
        pending transition, no predictor/exploration advance (the
        prediction level is read from the predictor's current state).
        Each observation still gets the full vectorised grid evaluation
        through the shared workspace and the same scoring as :meth:`act`.
        Returns one :class:`ExecutedStep` per observation.
        """
        speeds = np.asarray(speeds, dtype=float)
        accelerations = np.asarray(accelerations, dtype=float)
        socs = np.asarray(socs, dtype=float)
        if grades is None:
            grades = np.zeros(len(speeds))
        else:
            grades = np.asarray(grades, dtype=float)
        if not (len(speeds) == len(accelerations) == len(socs)
                == len(grades)):
            raise ValueError(
                "speeds, accelerations, socs, and grades must be "
                "index-aligned")
        level = 0
        if self.predictor is not None:
            level = self.quantizer(self.predictor.predict())

        steps = []
        for speed, accel, soc, grade in zip(speeds.tolist(),
                                            accelerations.tolist(),
                                            socs.tolist(), grades.tolist()):
            batch = self.solver.evaluate_grid(
                self._workspace, speed, accel, soc, dt, grade)
            p_dem = batch.power_demand
            state = self.discretizer.state_of(p_dem, speed, soc, level)
            rewards, feasible_group, best_primitive, _ = self._score(
                batch, soc, dt)
            rl_action = self.exploration.select(
                self.learner.qtable.row(state), feasible_group, greedy=True)
            steps.append(self._executed(batch, rewards, state, rl_action,
                                        feasible_group, best_primitive,
                                        p_dem, dt))
        return steps

    # -------------------------------------------------------- monitor hooks ---

    def drop_pending(self) -> None:
        """Discard the pending TD transition without applying it.

        The safety supervisor calls this when it freezes learning
        mid-episode: the stored ``(state, action, reward)`` would otherwise
        be paired with whatever state the agent observes *after* recovery,
        training on a transition that never happened.
        """
        self._pending = None

    def q_health(self) -> Tuple[bool, float]:
        """``(all finite, max |Q|)`` over the learner's value table(s).

        The supervisor's Q-table monitor polls this; both learners expose
        their table(s) through ``.qtable.values``.
        """
        values = self.learner.qtable.values
        # max |Q| = max(max Q, -min Q), and a NaN or infinity anywhere makes
        # it non-finite: two reductions, no temporary table.
        max_abs = abs(max(float(values.max()), -float(values.min())))
        if not math.isfinite(max_abs):
            return False, float("inf")
        return True, max_abs

    # ------------------------------------------------------------ internals ---

    def _score(self, batch: BatchResult, soc: float, dt: float
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Learning reward of every primitive, reduced per RL action:
        ``(rewards, feasible_group, best_primitive, group_best)``."""
        rewards = self.reward(
            batch.fuel_rate, batch.aux_power, dt, soc_next=batch.soc_next,
            soc_prev=soc, shortfall=batch.shortfall, aux_term=self._aux_term)
        return (rewards,) + self._reduce(batch, rewards)

    def _reduce(self, batch: BatchResult, rewards: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-RL-action feasibility, best feasible primitive index, and
        that primitive's reward (the inner optimisation of the reduced
        action space).

        The primitive grid is built current-major (meshgrid ``indexing='ij'``
        with the current index first), so each RL-action group occupies a
        contiguous, equal-size block and the reduction is a single reshape.
        """
        masked = np.where(batch.feasible, rewards, -np.inf)
        best_primitive = (masked.reshape(self.num_rl_actions, -1)
                          .argmax(axis=1) + self._block_starts)
        group_best = masked[best_primitive]
        return np.isfinite(group_best), best_primitive, group_best

    def _executed(self, batch: BatchResult, rewards: np.ndarray, state: int,
                  rl_action: int, feasible_group: np.ndarray,
                  best_primitive: np.ndarray, p_dem: float,
                  dt: float) -> ExecutedStep:
        """The step the chosen RL action executes: its best feasible
        primitive, or the least-bad fallback when it has none."""
        fallback = not feasible_group[rl_action]
        prim = (self._fallback_primitive(batch) if fallback
                else int(best_primitive[rl_action]))
        fuel_rate = float(batch.fuel_rate[prim])
        aux_power = float(batch.aux_power[prim])
        return ExecutedStep(
            state=state, rl_action=rl_action,
            current=float(batch.battery_current[prim]),
            gear=int(batch.gear[prim]), aux_power=aux_power,
            fuel_rate=fuel_rate, soc_next=float(batch.soc_next[prim]),
            reward=float(rewards[prim]),
            paper_reward=self.reward.paper_reward(
                fuel_rate, aux_power, dt,
                aux_term=self._paper_aux_terms[prim]),
            feasible=not fallback, mode=int(batch.mode[prim]),
            power_demand=p_dem, shortfall=float(batch.shortfall[prim]))

    def _fallback_primitive(self, batch: BatchResult) -> int:
        """Least-bad primitive when no action is fully feasible.

        Prefer meeting the traction demand, then the smallest SoC-window
        excursion, then the smallest torque shortfall.
        """
        violation = self.reward.window_violation(batch.soc_next)
        score = (np.where(batch.meets_demand, 0.0, 1e6)
                 + np.asarray(violation) * 1e3
                 + batch.shortfall)
        return int(np.argmin(score))
