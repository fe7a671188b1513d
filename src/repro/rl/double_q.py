"""Double Q-learning (extension; van Hasselt 2010).

Plain Q-learning's ``max_a Q(s', a)`` bootstrap is biased upward under
noisy rewards — and an HEV's reward *is* noisy across visits (the same
discrete state covers a range of demands).  Double Q-learning keeps two
tables and decorrelates action selection from evaluation:

    with prob 1/2:   A(s,a) += alpha (r + gamma B(s', argmax_a A(s',a)) - A(s,a))
    otherwise:       B(s,a) += alpha (r + gamma A(s', argmax_a B(s',a)) - B(s,a))

The learner exposes the same surface as
:class:`repro.rl.td_lambda.TDLambdaLearner` (``qtable`` for action
selection, ``update`` / ``update_terminal`` / ``start_episode``), where the
exposed ``qtable`` is the running *mean* of the two tables — so the joint
agent can swap it in without modification (the double-Q ablation does).
Eligibility traces are not used: the double estimator's corrections would
propagate along traces built for the other table.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.rl.qtable import QTable
from repro.rl.td_lambda import TDLambdaConfig


class DoubleQLearner:
    """Tabular double Q-learning with the TD-learner interface."""

    def __init__(self, num_states: int, num_actions: int,
                 config: Optional[TDLambdaConfig] = None, seed: int = 42):
        """``config.trace_decay``/``max_traces`` are ignored (no traces);
        the learning rate, its decay, and the discount apply as usual."""
        self._config = config or TDLambdaConfig()
        rng = np.random.default_rng(seed)
        self._table_a = QTable(num_states, num_actions, rng=rng)
        self._table_b = QTable(num_states, num_actions, rng=rng)
        self.qtable = QTable(num_states, num_actions)
        self._refresh_mean()
        self._coin = np.random.default_rng(seed + 1)
        self._episode = 0
        self._episode_dirty = False

    @property
    def config(self) -> TDLambdaConfig:
        """The hyper-parameter set."""
        return self._config

    @property
    def learning_rate(self) -> float:
        """Current (annealed) step size alpha."""
        c = self._config
        return c.learning_rate / (1.0 + c.learning_rate_decay * self._episode)

    def _refresh_mean(self, state: Optional[int] = None) -> None:
        if state is None:
            self.qtable.values[:] = 0.5 * (self._table_a.values
                                           + self._table_b.values)
        else:
            self.qtable.values[state] = 0.5 * (self._table_a.values[state]
                                               + self._table_b.values[state])

    def start_episode(self) -> None:
        """Advance the learning-rate annealing at episode boundaries."""
        if self._episode_dirty:
            self._episode += 1
        self._episode_dirty = False

    # --- checkpointing ----------------------------------------------------------

    def checkpoint_table(self) -> np.ndarray:
        """Both estimator tables stacked ``(2, S, A)`` (the exposed mean is
        rebuilt on restore)."""
        return np.stack([self._table_a.values, self._table_b.values])

    def checkpoint_meta(self) -> dict:
        """JSON-serialisable counters plus the coin-flip generator state."""
        return {"episode": self._episode, "dirty": self._episode_dirty,
                "coin_state": self._coin.bit_generator.state}

    def restore_checkpoint(self, table: np.ndarray, meta: dict) -> None:
        """Restore a boundary snapshot written by the checkpoint file."""
        self._table_a.values[:] = table[0]
        self._table_b.values[:] = table[1]
        self._refresh_mean()
        self._episode = int(meta["episode"])
        self._episode_dirty = bool(meta["dirty"])
        self._coin.bit_generator.state = meta["coin_state"]

    def update(self, state: int, action: int, reward: float,
               next_state: int) -> float:
        """One double-Q update; returns the TD error of the updated table."""
        c = self._config
        if self._coin.random() < 0.5:
            primary, other = self._table_a, self._table_b
        else:
            primary, other = self._table_b, self._table_a
        best_next = int(np.argmax(primary.values[next_state]))
        target = reward + c.discount * other.values[next_state, best_next]
        delta = target - primary.values[state, action]
        primary.values[state, action] += self.learning_rate * delta
        self._refresh_mean(state)
        self._episode_dirty = True
        return float(delta)

    def update_terminal(self, state: int, action: int, reward: float) -> float:
        """Terminal update (no bootstrap): applied to both tables."""
        deltas = []
        for table in (self._table_a, self._table_b):
            delta = reward - table.values[state, action]
            table.values[state, action] += self.learning_rate * delta
            deltas.append(delta)
        self._refresh_mean(state)
        self._episode_dirty = True
        return float(np.mean(deltas))
