"""Dense tabular Q-value storage.

The paper's TD(lambda) associates a value Q(s, a) with every state-action
pair.  With the reduced action space (|A| = number of current levels) and
the default discretiser (|S| ~ 1.9k) the table is small enough to keep
dense, which makes the batched update over the eligibility list a single
vectorised numpy operation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError


class QTable:
    """Dense |S| x |A| action-value table."""

    def __init__(self, num_states: int, num_actions: int,
                 initial_value: float = 0.0,
                 rng: Optional[np.random.Generator] = None):
        """Values start at ``initial_value``; pass ``rng`` to add small random
        perturbations (Algorithm 1 line 1 allows arbitrary initialisation —
        a tiny jitter breaks argmax ties randomly but reproducibly)."""
        if num_states < 1 or num_actions < 1:
            raise ConfigurationError("table dimensions must be positive")
        self._values = np.full((num_states, num_actions), float(initial_value))
        if rng is not None:
            self._values += rng.uniform(-1e-6, 1e-6, size=self._values.shape)

    @property
    def num_states(self) -> int:
        """Number of rows |S|."""
        return self._values.shape[0]

    @property
    def num_actions(self) -> int:
        """Number of columns |A|."""
        return self._values.shape[1]

    @property
    def values(self) -> np.ndarray:
        """The raw value array (mutated in place by the learner)."""
        return self._values

    def row(self, state: int) -> np.ndarray:
        """Q(s, .) for one state (a view, not a copy)."""
        return self._values[state]

    def best_value(self, state: int) -> float:
        """``max_a Q(s, a)`` (Algorithm 1 line 5 bootstrap target)."""
        return float(np.max(self._values[state]))

    def best_action(self, state: int,
                    feasible: Optional[np.ndarray] = None) -> int:
        """Greedy action for ``state``, optionally restricted to a mask.

        With a feasibility mask, infeasible actions are excluded; if the mask
        is all-false, the unrestricted argmax is returned (the caller's
        fallback logic then decides what to execute).
        """
        q = self._values[state]
        if feasible is not None and np.any(feasible):
            masked = np.where(feasible, q, -np.inf)
            return int(np.argmax(masked))
        return int(np.argmax(q))

    def visited_fraction(self) -> float:
        """Fraction of table cells that have moved away from their init value.

        A coarse coverage diagnostic used by the convergence tests: with a
        jittered init this measures cells touched by at least one update.
        """
        return float(np.mean(np.abs(self._values) > 1e-5))
