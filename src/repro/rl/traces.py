"""Bounded eligibility traces for TD(lambda) (paper Section 4.3.4).

The eligibility e(s, a) measures how recently and frequently a state-action
pair was visited; Algorithm 1 updates *all* pairs each step, but the paper
notes that keeping only the M most recent pairs is exact up to lambda^M,
which is negligible for modest M.  This class implements that bounded list:
the tracked pairs in recency order, decayed by gamma*lambda each step and
truncated to the M most recent pairs.

The pairs live in three preallocated arrays (states, actions,
eligibilities) of M slots; an ordered map from each pair to its slot keeps
the recency order.  A visit then costs O(1) whatever the list length, and
the learner applies its update straight to the occupied slots
(:attr:`EligibilityTraces.states`, :attr:`~EligibilityTraces.actions`,
:attr:`~EligibilityTraces.eligibilities`) without rebuilding arrays.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Tuple

import numpy as np


class EligibilityTraces:
    """M-most-recent eligibility list for tabular TD(lambda)."""

    def __init__(self, decay: float, max_entries: int = 64):
        """``decay`` is the per-step factor gamma*lambda in [0, 1); pairs
        beyond the ``max_entries`` most recent are dropped."""
        if not 0.0 <= decay < 1.0:
            raise ValueError("trace decay must be in [0, 1)")
        if max_entries < 1:
            raise ValueError("need room for at least one trace entry")
        self._decay = decay
        self._max = max_entries
        self._states = np.zeros(max_entries, dtype=np.intp)
        self._actions = np.zeros(max_entries, dtype=np.intp)
        self._elig = np.zeros(max_entries)
        # (state, action) -> slot, oldest pair first.  Slots are only
        # freed by evicting the oldest pair, which hands its slot straight
        # to the newcomer, so the occupied slots are always 0..len-1.
        self._slots: "OrderedDict[Tuple[int, int], int]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[Tuple[Tuple[int, int], float]]:
        """Iterate over ((state, action), eligibility) pairs, oldest first."""
        elig = self._elig.tolist()
        return iter([(key, elig[slot]) for key, slot in self._slots.items()])

    @property
    def states(self) -> np.ndarray:
        """State of each tracked pair, in slot order (a view)."""
        return self._states[:len(self._slots)]

    @property
    def actions(self) -> np.ndarray:
        """Action of each tracked pair, aligned with :attr:`states`."""
        return self._actions[:len(self._slots)]

    @property
    def eligibilities(self) -> np.ndarray:
        """Eligibility of each tracked pair, aligned with :attr:`states`
        (a view the learner may read; :meth:`decay` scales it in place)."""
        return self._elig[:len(self._slots)]

    def get(self, state: int, action: int) -> float:
        """Current eligibility of a pair (0 if not tracked)."""
        slot = self._slots.get((state, action))
        return 0.0 if slot is None else float(self._elig[slot])

    def visit(self, state: int, action: int) -> None:
        """Algorithm 1 line 6: accumulate the just-visited pair's trace.

        The pair moves to the most-recent position; if the list overflows,
        the oldest pair (whose eligibility is at most ``decay**M``) is
        dropped.
        """
        slots = self._slots
        key = (state, action)
        slot = slots.pop(key, None)
        if slot is None:
            if len(slots) < self._max:
                slot = len(slots)
            else:
                _, slot = slots.popitem(last=False)
            self._states[slot] = state
            self._actions[slot] = action
            self._elig[slot] = 1.0
        else:
            self._elig[slot] += 1.0
        slots[key] = slot

    def decay(self) -> None:
        """Algorithm 1 line 9: multiply every tracked eligibility by the decay."""
        if self._decay == 0.0:
            self._slots.clear()
            return
        self._elig[:len(self._slots)] *= self._decay

    def clear(self) -> None:
        """Drop all traces (start of a new episode)."""
        self._slots.clear()
