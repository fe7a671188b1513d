"""Exploration-versus-exploitation policy (paper Section 4.3.4).

Epsilon-greedy exactly as the paper describes: the current best action is
chosen with probability 1 - epsilon, and *the other* actions are chosen
with equal probability.  Epsilon decays geometrically across episodes so
training anneals from exploration to exploitation; evaluation uses the
greedy policy (epsilon = 0).
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class EpsilonGreedy:
    """Annealed epsilon-greedy action selection over a feasibility mask."""

    def __init__(self, epsilon: float = 0.30, decay: float = 0.93,
                 epsilon_min: float = 0.01, guided_fraction: float = 0.5,
                 seed: int = 42):
        """Start at ``epsilon``, multiply by ``decay`` each episode, floor at
        ``epsilon_min``.  ``guided_fraction`` of exploration steps take the
        caller-supplied *guided* action (the myopically best one) instead of
        a uniform draw — uniform exploration wastes most of its budget on
        actions whose immediate reward already rules them out, while the
        guided mix keeps coverage without the waste.  Selection randomness
        is seeded for reproducibility."""
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        if not 0.0 <= epsilon_min <= epsilon:
            raise ValueError("epsilon floor must be in [0, epsilon]")
        if not 0.0 <= guided_fraction <= 1.0:
            raise ValueError("guided fraction must be in [0, 1]")
        self._epsilon0 = epsilon
        self.epsilon = epsilon
        self._decay = decay
        self._min = epsilon_min
        self._guided_fraction = guided_fraction
        self._rng = np.random.default_rng(seed)

    def new_episode(self) -> None:
        """Anneal epsilon at an episode boundary."""
        self.epsilon = max(self.epsilon * self._decay, self._min)

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot: annealed epsilon plus the exact
        bit-generator state, so a resumed training run replays the same
        exploration draws as an uninterrupted one."""
        return {"epsilon": float(self.epsilon),
                "rng_state": self._rng.bit_generator.state}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self.epsilon = float(state["epsilon"])
        self._rng.bit_generator.state = state["rng_state"]

    def reset(self) -> None:
        """Restore the initial epsilon (fresh training run)."""
        self.epsilon = self._epsilon0

    def select(self, q_row: np.ndarray,
               feasible: Optional[np.ndarray] = None,
               greedy: bool = False,
               guided: Optional[int] = None) -> int:
        """Pick an action index from one Q-table row.

        Infeasible actions are never selected when at least one feasible
        action exists.  With ``greedy`` the best feasible action is returned
        deterministically (evaluation mode).  ``guided`` is the myopically
        best action the caller recommends for guided exploration steps.
        """
        if feasible is None:
            feasible = np.ones(len(q_row), dtype=bool)
        feasible = np.asarray(feasible)
        if not feasible.any():
            # Caller handles true fallback; be deterministic here.
            return int(np.argmax(q_row))
        best = int(np.where(feasible, q_row, -np.inf).argmax())
        if greedy or self._rng.random() >= self.epsilon:
            return best
        if (guided is not None and guided != best and feasible[guided]
                and self._rng.random() < self._guided_fraction):
            return int(guided)
        others = feasible.nonzero()[0]
        others = others[others != best]
        if len(others) == 0:
            return best
        return int(self._rng.choice(others))
