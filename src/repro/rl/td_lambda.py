"""TD(lambda)-learning (paper Algorithm 1).

The learner keeps the Q-table and the bounded eligibility list and applies
the per-step update:

    delta  <- r_{t+1} + gamma * max_a' Q(s_{t+1}, a') - Q(s_t, a_t)
    e(s_t, a_t) <- e(s_t, a_t) + 1
    for all tracked (s, a):
        Q(s, a) <- Q(s, a) + alpha * e(s, a) * delta
        e(s, a) <- gamma * lambda * e(s, a)

The paper selects TD(lambda) over one-step Q-learning for its faster
convergence and robustness in the non-Markovian environment a real driving
profile constitutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.rl.qtable import QTable
from repro.rl.traces import EligibilityTraces


@dataclass(frozen=True)
class TDLambdaConfig:
    """Hyper-parameters of Algorithm 1."""

    learning_rate: float = 0.12
    """Step size alpha."""

    discount: float = 0.80
    """Discount rate gamma in (0, 1) (Eq. 11).  With the charge-sustaining
    shaping already pricing battery energy into each step's reward, most of
    the long-horizon credit is local and a moderate discount converges much
    faster than gamma near 1 (the discount ablation bench sweeps this)."""

    trace_decay: float = 0.60
    """The lambda of TD(lambda); 0 recovers plain Q-learning."""

    max_traces: int = 48
    """M: number of most-recent state-action pairs whose eligibility is
    tracked (all others are at most lambda^M and are dropped)."""

    learning_rate_decay: float = 0.015
    """Per-episode hyperbolic annealing of alpha:
    ``alpha_ep = alpha / (1 + decay * episode)``.  Zero keeps alpha
    constant; a small decay quiets the late-training update noise so the
    greedy policy settles."""

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning rate must be in (0, 1]")
        if self.learning_rate_decay < 0.0:
            raise ValueError("learning-rate decay cannot be negative")
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must be in (0, 1)")
        if not 0.0 <= self.trace_decay <= 1.0:
            raise ValueError("trace decay must be in [0, 1]")
        if self.max_traces < 1:
            raise ValueError("need at least one trace slot")


class TDLambdaLearner:
    """Tabular TD(lambda) with replacing-by-accumulation bounded traces."""

    def __init__(self, num_states: int, num_actions: int,
                 config: Optional[TDLambdaConfig] = None,
                 seed: int = 42):
        self._config = config or TDLambdaConfig()
        rng = np.random.default_rng(seed)
        self.qtable = QTable(num_states, num_actions, rng=rng)
        self._traces = EligibilityTraces(
            decay=self._config.discount * self._config.trace_decay,
            max_entries=self._config.max_traces)
        self._episode = 0
        self._episode_dirty = False

    @property
    def learning_rate(self) -> float:
        """Current (annealed) step size alpha."""
        c = self._config
        return c.learning_rate / (1.0 + c.learning_rate_decay * self._episode)

    @property
    def config(self) -> TDLambdaConfig:
        """The hyper-parameter set."""
        return self._config

    @property
    def traces(self) -> EligibilityTraces:
        """The bounded eligibility list (exposed for tests)."""
        return self._traces

    def start_episode(self) -> None:
        """Clear eligibility at an episode boundary (traces do not span
        independent drives) and advance the learning-rate annealing."""
        if len(self._traces) > 0 or self._episode_dirty:
            self._episode += 1
        self._traces.clear()
        self._episode_dirty = False

    # --- checkpointing ----------------------------------------------------------

    def checkpoint_table(self) -> np.ndarray:
        """Value table to persist at an episode boundary (traces are
        cleared at the next :meth:`start_episode`, so they are not saved)."""
        return self.qtable.values

    def checkpoint_meta(self) -> dict:
        """JSON-serialisable learner counters (annealing schedule state)."""
        return {"episode": self._episode, "dirty": self._episode_dirty}

    def restore_checkpoint(self, table: np.ndarray, meta: dict) -> None:
        """Restore a boundary snapshot written by the checkpoint file."""
        self.qtable.values[:] = table
        self._episode = int(meta["episode"])
        self._episode_dirty = bool(meta["dirty"])
        self._traces.clear()

    def update(self, state: int, action: int, reward: float,
               next_state: int) -> float:
        """Apply one Algorithm 1 step; returns the TD error delta."""
        q = self.qtable.values
        delta = (reward + self._config.discount
                 * self.qtable.best_value(next_state) - q[state, action])
        self._apply(state, action, delta)
        return float(delta)

    def update_terminal(self, state: int, action: int, reward: float) -> float:
        """Terminal-transition update: no bootstrap from a successor state."""
        delta = reward - self.qtable.values[state, action]
        self._apply(state, action, delta)
        return float(delta)

    def _apply(self, state: int, action: int, delta: float) -> None:
        """Algorithm 1 lines 6-9: accumulate the visited pair's trace, move
        every tracked pair along its eligibility, then decay the traces."""
        traces = self._traces
        traces.visit(state, action)
        self.qtable.values[traces.states, traces.actions] += (
            self.learning_rate * traces.eligibilities * delta)
        traces.decay()
        self._episode_dirty = True
