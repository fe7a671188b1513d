"""Tests of the TD(lambda) learner (paper Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.rl.td_lambda import TDLambdaConfig, TDLambdaLearner
from tests.reference_step import ReferenceTDLambdaLearner


class TestConfig:
    def test_defaults_valid(self):
        TDLambdaConfig()

    def test_rejects_bad_learning_rate(self):
        with pytest.raises(ValueError):
            TDLambdaConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TDLambdaConfig(learning_rate=1.5)

    def test_rejects_bad_discount(self):
        with pytest.raises(ValueError):
            TDLambdaConfig(discount=1.0)
        with pytest.raises(ValueError):
            TDLambdaConfig(discount=0.0)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            TDLambdaConfig(trace_decay=1.5)

    def test_rejects_zero_traces(self):
        with pytest.raises(ValueError):
            TDLambdaConfig(max_traces=0)


class TestAlgorithmOne:
    def test_delta_formula(self):
        # Line 5: delta = r + gamma max_a' Q(s', a') - Q(s, a).
        cfg = TDLambdaConfig(learning_rate=0.5, discount=0.9, trace_decay=0.0)
        learner = TDLambdaLearner(3, 2, cfg, seed=0)
        q = learner.qtable.values
        q[:] = 0.0
        q[1, 0] = 2.0  # max_a' Q(s'=1, .) = 2
        delta = learner.update(state=0, action=1, reward=1.0, next_state=1)
        assert delta == pytest.approx(1.0 + 0.9 * 2.0 - 0.0)

    def test_lambda_zero_updates_only_current_pair(self):
        cfg = TDLambdaConfig(learning_rate=0.5, discount=0.9, trace_decay=0.0)
        learner = TDLambdaLearner(3, 2, cfg, seed=0)
        learner.qtable.values[:] = 0.0
        learner.update(0, 0, 1.0, 1)
        q = learner.qtable.values
        assert q[0, 0] == pytest.approx(0.5 * 1.0)
        assert np.count_nonzero(q) == 1

    def test_traces_propagate_to_predecessors(self):
        # With lambda > 0, a reward must also update the previous pair.
        cfg = TDLambdaConfig(learning_rate=0.5, discount=0.9, trace_decay=0.8)
        learner = TDLambdaLearner(4, 2, cfg, seed=0)
        learner.qtable.values[:] = 0.0
        learner.update(0, 0, 0.0, 1)  # no reward: no change
        learner.update(1, 1, 1.0, 2)  # reward: both (1,1) and (0,0) move
        q = learner.qtable.values
        assert q[1, 1] > 0.0
        assert q[0, 0] > 0.0
        assert q[0, 0] == pytest.approx(
            q[1, 1] * 0.9 * 0.8)  # decayed eligibility ratio

    def test_terminal_update_no_bootstrap(self):
        cfg = TDLambdaConfig(learning_rate=1.0, discount=0.9, trace_decay=0.0)
        learner = TDLambdaLearner(2, 1, cfg, seed=0)
        learner.qtable.values[:] = 0.0
        learner.qtable.values[1, 0] = 100.0  # must NOT leak in
        delta = learner.update_terminal(0, 0, -3.0)
        assert delta == pytest.approx(-3.0)
        assert learner.qtable.values[0, 0] == pytest.approx(-3.0)

    def test_start_episode_clears_traces(self):
        learner = TDLambdaLearner(3, 2, TDLambdaConfig(), seed=0)
        learner.update(0, 0, 1.0, 1)
        assert len(learner.traces) > 0
        learner.start_episode()
        assert len(learner.traces) == 0

    def test_trace_list_bounded_by_m(self):
        cfg = TDLambdaConfig(max_traces=4, trace_decay=0.9)
        learner = TDLambdaLearner(20, 1, cfg, seed=0)
        for s in range(10):
            learner.update(s, 0, 0.1, s + 1)
        assert len(learner.traces) <= 4


class TestConvergence:
    def test_converges_on_two_state_mdp(self):
        """Deterministic 2-state MDP with known optimal Q values.

        States 0, 1; actions stay(0)/switch(1).  Reward 1 for being in
        state 1 (on arrival), 0 otherwise.  gamma = 0.5.  Optimal: always
        go to / stay in state 1; V*(1) = 2, V*(0) = 1 * gamma-adjusted.
        """
        cfg = TDLambdaConfig(learning_rate=0.2, discount=0.5,
                             trace_decay=0.3)
        learner = TDLambdaLearner(2, 2, cfg, seed=1)
        rng = np.random.default_rng(0)
        state = 0
        for step in range(8000):
            # epsilon-greedy with fixed epsilon
            if rng.random() < 0.3:
                action = int(rng.integers(0, 2))
            else:
                action = int(np.argmax(learner.qtable.values[state]))
            next_state = state if action == 0 else 1 - state
            reward = 1.0 if next_state == 1 else 0.0
            learner.update(state, action, reward, next_state)
            state = next_state
        # Q*(1, stay) = 1 + 0.5 Q*(1, stay) => 2.
        assert learner.qtable.values[1, 0] == pytest.approx(2.0, abs=0.15)
        # Q*(0, switch) = 1 + 0.5 * 2 = 2.
        assert learner.qtable.values[0, 1] == pytest.approx(2.0, abs=0.15)
        # Staying in 0 is worse: Q*(0, stay) = 0 + 0.5 * 2 = 1.
        assert learner.qtable.values[0, 0] == pytest.approx(1.0, abs=0.2)
        # Greedy policy is optimal.
        assert int(np.argmax(learner.qtable.values[0])) == 1
        assert int(np.argmax(learner.qtable.values[1])) == 0

    def test_lambda_speeds_up_learning(self):
        """On a delayed-reward chain, TD(lambda>0) must propagate credit
        to early states faster than TD(0) — the paper's stated reason for
        choosing TD(lambda)."""
        def run(trace_decay):
            cfg = TDLambdaConfig(learning_rate=0.3, discount=0.9,
                                 trace_decay=trace_decay, max_traces=16)
            learner = TDLambdaLearner(6, 1, cfg, seed=2)
            learner.qtable.values[:] = 0.0
            for _ in range(3):
                learner.start_episode()
                for s in range(5):
                    reward = 1.0 if s == 4 else 0.0
                    learner.update(s, 0, reward, s + 1)
            return learner.qtable.values[0, 0]

        assert run(0.9) > run(0.0) + 1e-6


_STEPS = st.lists(st.one_of(
    st.tuples(st.just("update"), st.integers(0, 7), st.integers(0, 2),
              st.floats(-5.0, 5.0), st.integers(0, 7)),
    st.tuples(st.just("update_terminal"), st.integers(0, 7),
              st.integers(0, 2), st.floats(-5.0, 5.0)),
    st.just(("start_episode",))), max_size=120)


@given(st.sampled_from([0.0, 0.6, 0.95]), st.integers(1, 48), _STEPS)
def test_update_matches_the_seed_learner(trace_decay, max_traces, steps):
    """Any sequence of updates, terminal updates and episode starts gives
    the seed learner's TD errors and a bit-identical table."""
    cfg = TDLambdaConfig(trace_decay=trace_decay, max_traces=max_traces)
    fast = TDLambdaLearner(8, 3, cfg, seed=4)
    seed = ReferenceTDLambdaLearner(8, 3, cfg, seed=4)
    for name, *args in steps:
        assert (getattr(fast, name)(*args) == getattr(seed, name)(*args))
    assert fast.qtable.values.tobytes() == seed.qtable.values.tobytes()
