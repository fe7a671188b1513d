"""Frozen reference of the online learner's TD(0) update loop.

:func:`reference_apply` is the numpy-scalar loop that
:meth:`repro.learn.learner.OnlineLearner._apply` ran before it moved to
Python lists: one ``q[n].max()`` reduction and numpy-scalar arithmetic
per transition.  ``tests/test_learn.py`` applies both to the same
records and compares the tables byte for byte, signed zeros, overflow
and NaN included.

Not used by the package; it exists for verification.  Do **not**
"optimise" this file — its value is that it does not change.
"""

from __future__ import annotations

import numpy as np


def reference_apply(q: np.ndarray, states, actions, rewards, next_states,
                    learning_rate: float, discount: float) -> None:
    """Sequential TD(0) on ``q``, one transition at a time in order."""
    lr = learning_rate
    gamma = discount
    # numpy scalars warn on overflow and inf - inf; the values are the
    # point of the comparison, not the warnings.
    with np.errstate(all="ignore"):
        for s, a, r, n in zip(states.tolist(), actions.tolist(),
                              rewards.tolist(), next_states.tolist()):
            target = r + gamma * float(q[n].max())
            q[s, a] += lr * (target - q[s, a])
