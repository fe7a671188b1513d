"""Golden equivalence: guarded training vs the frozen seed step layers.

Every layer of the 1 Hz training step outside the ``evaluate_grid``
kernel — discretiser, prediction quantiser, reward ranking, exploration,
TD update, eligibility traces, the agent's own glue, and the safety
supervisor's envelope check and monitors — must reproduce the seed
implementation **bit-identically** while it *learns*: same Q-table, same
value in every field of every :class:`EpisodeResult`.  The seed layers are
frozen in ``tests/reference_step.py``; both sides run on the current numpy,
so the oracle holds on any numpy version (a committed hash would not).

The drives are guarded ``learn=True`` episodes on UDDS (driven twice) and
NYCC, ending in a severe mid-cycle fault that makes the supervisor
intervene, for both learners (``td_lambda`` and ``double_q``).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.control.rl_controller import RLController
from repro.cycles import standard_cycle
from repro.faults.models import AuxLoadSpike, EnginePowerLoss, MotorDerating
from repro.faults.schedule import FaultSchedule, ScheduledFault
from repro.powertrain import PowertrainSolver
from repro.prediction.exponential import ExponentialPredictor
from repro.rl.agent import ActionSpaceConfig, JointControlAgent
from repro.rl.exploration import EpsilonGreedy
from repro.rl.reward import build_reward_function
from repro.safety import SafetySupervisor, SupervisorConfig
from repro.sim import Simulator
from repro.vehicle import default_vehicle
from tests.reference_step import (ReferenceReward, ReferenceSupervisor,
                                  reference_agent)

SEED = 3

SEVERE = FaultSchedule([
    ScheduledFault(EnginePowerLoss(power_loss=0.9), start=40.0),
    ScheduledFault(MotorDerating(power_derate=0.9, torque_derate=0.9),
                   start=40.0, ramp=10.0),
    ScheduledFault(AuxLoadSpike(extra_power=1500.0), start=40.0),
])

# (cycle, repeats, initial SoC, faults)
EPISODES = (
    ("UDDS", 2, 0.60, None),
    ("NYCC", 1, 0.52, None),
    ("NYCC", 1, 0.60, SEVERE),
)

# A tight DEGRADED derate, so the faulted drive's escalation makes the
# supervisor substitute actions (and the substitutes reach the traces).
GUARD = SupervisorConfig(degraded_current_fraction=0.05)


def production_controller(solver, algorithm):
    """``build_rl_controller(solver, "proposed")`` with a chosen learner."""
    return RLController(JointControlAgent(
        solver, action_config=ActionSpaceConfig(control_aux=True),
        predictor=ExponentialPredictor(),
        exploration=EpsilonGreedy(seed=SEED), algorithm=algorithm,
        seed=SEED))


def train_guarded(build_controller, supervisor_cls, algorithm):
    solver = PowertrainSolver(default_vehicle())
    controller = build_controller(solver, algorithm)
    guarded = supervisor_cls(controller, solver, config=GUARD)
    simulator = Simulator(solver)
    results = [
        simulator.run_episode(guarded,
                              standard_cycle(name).repeat(repeats),
                              initial_soc=soc, learn=True, faults=faults)
        for name, repeats, soc, faults in EPISODES]
    return results, controller.agent.learner.checkpoint_table()


def assert_bit_identical(a, b, where):
    """Exact equality down to the bit pattern (signed zeros, NaNs)."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for field in dataclasses.fields(a):
            assert_bit_identical(getattr(a, field.name),
                                 getattr(b, field.name),
                                 f"{where}.{field.name}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_bit_identical(x, y, f"{where}[{i}]")
    elif isinstance(a, (np.ndarray, float, np.floating)):
        x, y = np.asarray(a), np.asarray(b)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), where
        assert x.tobytes() == y.tobytes(), f"{where} diverged"
    else:
        assert a == b, where


@pytest.mark.parametrize("algorithm", ["td_lambda", "double_q"])
def test_guarded_training_matches_frozen_seed_layers(algorithm):
    fast, fast_table = train_guarded(production_controller,
                                     SafetySupervisor, algorithm)
    seed, seed_table = train_guarded(
        lambda solver, alg: reference_agent(solver, alg, seed=SEED),
        ReferenceSupervisor, algorithm)
    assert_bit_identical(fast_table, seed_table, "Q-table")
    assert_bit_identical(fast, seed, "episodes")
    # The last drive must reach the guard's substitution path.
    assert fast[-1].safety.interventions > 0


def test_act_batch_matches_frozen_seed():
    """The greedy probe scores and selects exactly like the seed probe."""
    fast_solver = PowertrainSolver(default_vehicle())
    seed_solver = PowertrainSolver(default_vehicle())
    fast = production_controller(fast_solver, "td_lambda")
    seed = reference_agent(seed_solver, "td_lambda", seed=SEED)
    Simulator(fast_solver).run_episode(fast, standard_cycle("NYCC"))
    Simulator(seed_solver).run_episode(seed, standard_cycle("NYCC"))
    rng = np.random.default_rng(17)
    speeds = np.concatenate([[0.0, 35.0], rng.uniform(0.0, 30.0, 30)])
    accels = np.concatenate([[0.0, 4.0], rng.uniform(-3.0, 2.5, 30)])
    socs = np.concatenate([[0.41, 0.79], rng.uniform(0.40, 0.80, 30)])
    assert_bit_identical(fast.act_batch(speeds, accels, socs, 1.0),
                         seed.act_batch(speeds, accels, socs, 1.0),
                         "act_batch")


def test_grid_reward_terms_match_frozen_seed():
    """The agent's per-grid reward statics score like the seed's per-step
    utility calls.  A fine aux grid includes draws where scalar ``** 2``
    (libm ``pow``, the seed's paper reward of one draw) and array ``** 2``
    (the seed's grid reward) differ in the last bit."""
    solver = PowertrainSolver(default_vehicle())
    agent = JointControlAgent(
        solver, action_config=ActionSpaceConfig(aux_candidates=2001))
    seed_reward = build_reward_function(solver)
    seed_reward.__class__ = ReferenceReward
    batch = solver.evaluate_grid(agent._workspace, 12.0, 0.8, 0.55, 1.0)
    rewards, *_ = agent._score(batch, 0.55, 1.0)
    assert_bit_identical(rewards, seed_reward(
        batch.fuel_rate, batch.aux_power, 1.0, soc_next=batch.soc_next,
        soc_prev=0.55, shortfall=batch.shortfall), "grid reward")
    # Execute each primitive of current 0, gear 0 (one per aux level).
    every_group = np.ones(agent.num_rl_actions, dtype=bool)
    for prim in range(len(agent.aux_levels)):
        step = agent._executed(
            batch, rewards, 0, 0, every_group,
            np.full(agent.num_rl_actions, prim), batch.power_demand, 1.0)
        assert_bit_identical(
            step.paper_reward,
            float(seed_reward.paper_reward(batch.fuel_rate[prim],
                                           batch.aux_power[prim], 1.0)),
            f"paper reward of primitive {prim}")


@pytest.mark.parametrize("poison", [None, np.nan, np.inf, -np.inf, -1e7])
def test_q_health_matches_frozen_seed(poison):
    solver = PowertrainSolver(default_vehicle())
    fast = production_controller(solver, "td_lambda").agent
    seed = reference_agent(solver, "td_lambda", seed=SEED).agent
    for agent in (fast, seed):
        agent.learner.qtable.values[:] = np.random.default_rng(5).normal(
            size=agent.learner.qtable.values.shape)
        if poison is not None:
            agent.learner.qtable.values[7, 2] = poison
    assert_bit_identical(list(fast.q_health()), list(seed.q_health()),
                         "q_health")
