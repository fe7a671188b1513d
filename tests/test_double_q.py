"""Tests of the double Q-learning extension."""

import numpy as np
import pytest

from repro.rl.double_q import DoubleQLearner
from repro.rl.td_lambda import TDLambdaConfig
from repro.rl.agent import JointControlAgent
from repro.rl.exploration import EpsilonGreedy
from repro.powertrain import PowertrainSolver
from repro.vehicle import default_vehicle


class TestDoubleQLearner:
    def test_update_moves_mean_table(self):
        learner = DoubleQLearner(4, 2, TDLambdaConfig(), seed=0)
        before = learner.qtable.values.copy()
        learner.update(0, 1, 5.0, 1)
        assert not np.array_equal(learner.qtable.values, before)

    def test_terminal_updates_both_tables(self):
        cfg = TDLambdaConfig(learning_rate=1.0, learning_rate_decay=0.0)
        learner = DoubleQLearner(2, 1, cfg, seed=0)
        learner.update_terminal(0, 0, -3.0)
        assert learner.qtable.values[0, 0] == pytest.approx(-3.0, abs=1e-5)

    def test_annealing_advances_per_episode(self):
        cfg = TDLambdaConfig(learning_rate=0.2, learning_rate_decay=0.5)
        learner = DoubleQLearner(2, 1, cfg, seed=0)
        assert learner.learning_rate == pytest.approx(0.2)
        learner.update(0, 0, 1.0, 1)
        learner.start_episode()
        assert learner.learning_rate == pytest.approx(0.2 / 1.5)

    def test_converges_on_two_state_mdp(self):
        cfg = TDLambdaConfig(learning_rate=0.2, discount=0.5,
                             learning_rate_decay=0.0)
        learner = DoubleQLearner(2, 2, cfg, seed=1)
        rng = np.random.default_rng(0)
        state = 0
        for _ in range(12_000):
            action = (int(rng.integers(0, 2)) if rng.random() < 0.3
                      else int(np.argmax(learner.qtable.values[state])))
            next_state = state if action == 0 else 1 - state
            reward = 1.0 if next_state == 1 else 0.0
            learner.update(state, action, reward, next_state)
            state = next_state
        assert learner.qtable.values[1, 0] == pytest.approx(2.0, abs=0.2)
        assert int(np.argmax(learner.qtable.values[0])) == 1
        assert int(np.argmax(learner.qtable.values[1])) == 0

    def test_reduces_maximisation_bias(self):
        """Classic double-Q demonstration: from state 0 the 'trap' action
        leads to a state with many zero-mean noisy arms; plain Q-learning
        overestimates it, double Q does not (as much)."""
        def run(double: bool, seed: int) -> float:
            cfg = TDLambdaConfig(learning_rate=0.1, discount=0.9,
                                 trace_decay=0.0, learning_rate_decay=0.0)
            if double:
                learner = DoubleQLearner(2, 8, cfg, seed=seed)
            else:
                from repro.rl.td_lambda import TDLambdaLearner
                learner = TDLambdaLearner(2, 8, cfg, seed=seed)
            rng = np.random.default_rng(seed + 100)
            for _ in range(4000):
                # state 1 has 8 noisy arms with mean -0.2, terminal.
                arm = int(rng.integers(0, 8))
                reward = rng.normal(-0.2, 1.0)
                learner.update_terminal(1, arm, reward)
                # state 0, action 0 -> state 1 with no reward.
                learner.update(0, 0, 0.0, 1)
            return float(learner.qtable.values[0, 0])

        plain = np.mean([run(False, s) for s in range(5)])
        double = np.mean([run(True, s) for s in range(5)])
        # True value is gamma * (-0.2) = -0.18; plain Q overestimates more.
        assert double < plain


class TestAgentIntegration:
    def test_agent_accepts_double_q(self):
        solver = PowertrainSolver(default_vehicle())
        agent = JointControlAgent(solver, algorithm="double_q",
                                  exploration=EpsilonGreedy(seed=0), seed=0)
        agent.begin_episode()
        step = agent.act(12.0, 0.3, 0.6, dt=1.0)
        assert step.fuel_rate >= 0.0
        agent.act(12.5, 0.1, 0.6, dt=1.0)
        agent.finish_episode()

    def test_rejects_unknown_algorithm(self):
        solver = PowertrainSolver(default_vehicle())
        with pytest.raises(ValueError):
            JointControlAgent(solver, algorithm="sarsa")
