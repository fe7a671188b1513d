"""Health monitors feeding the supervisor's state machine.

Each monitor consumes one :class:`StepContext` per step and votes an
:class:`~repro.safety.state_machine.AlarmLevel`; the supervisor takes the
worst vote.  Monitors are deliberately pure counters/statistics over the
context — everything plant- or controller-specific (Q-table health, the
SoC window test) is extracted by the supervisor and handed in as plain
fields, so monitors stay trivially unit-testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.safety.state_machine import AlarmLevel

Vote = Tuple[AlarmLevel, str]
_OK: Vote = (AlarmLevel.OK, "")


@dataclass(frozen=True)
class StepContext:
    """What the monitors see of one mediated step."""

    step: int
    """Episode step index."""

    feasible: bool
    """Whether the executed step was fully feasible (envelope-clean and no
    fallback primitive inside the controller)."""

    intervened: bool
    """Whether the supervisor substituted/clamped the action this step."""

    soc_outside: bool
    """Whether the *pre-step* SoC sits outside the charge-sustaining
    window (the plant truth, not the controller's possibly-faulted
    observation)."""

    reward: float
    """Learning reward of the executed step."""

    q_finite: Optional[bool] = None
    """Whether every Q-table entry is finite (None: controller exposes no
    Q-table — e.g. a rule-based baseline)."""

    q_max_abs: float = 0.0
    """Largest Q-table magnitude (0.0 when no Q-table)."""


class Monitor:
    """One health monitor: reset per episode, vote per step."""

    name = "monitor"

    def reset(self) -> None:
        """Clear per-episode state."""

    def observe(self, ctx: StepContext) -> Vote:
        """Vote an alarm level for this step."""
        raise NotImplementedError


class QTableMonitor(Monitor):
    """Non-finite Q-values are fatal; runaway magnitudes are a warning.

    A NaN in the table poisons every greedy argmax from then on — there is
    no graceful way to keep learning, so the vote is FATAL (immediate
    HALT).  Mere divergence (|Q| beyond ``divergence_threshold``) still
    selects *some* action, so it only warrants DEGRADED.
    """

    name = "q_table"

    def __init__(self, divergence_threshold: float = 1e6):
        self.divergence_threshold = divergence_threshold

    def observe(self, ctx: StepContext) -> Vote:
        """FATAL on any non-finite Q-value, WARN on runaway magnitude."""
        if ctx.q_finite is None:
            return _OK
        if not ctx.q_finite:
            return (AlarmLevel.FATAL, "non-finite value in the Q-table")
        if ctx.q_max_abs > self.divergence_threshold:
            return (AlarmLevel.WARN,
                    f"Q-table diverging (|Q| up to {ctx.q_max_abs:.3g} > "
                    f"{self.divergence_threshold:.3g})")
        return _OK


class InfeasibilityMonitor(Monitor):
    """Counts consecutive infeasible/intervened steps.

    The occasional guard substitution is normal life with a discrete
    action set; a *run* of them means the controller has lost the plot
    (or the plant has shrunk under it) and clamping every step is no
    longer control.
    """

    name = "infeasibility"

    def __init__(self, warn_after: int = 5, severe_after: int = 20):
        if not 1 <= warn_after <= severe_after:
            raise ConfigurationError("need 1 <= warn_after <= severe_after")
        self.warn_after = warn_after
        self.severe_after = severe_after
        self.reset()

    def reset(self) -> None:
        """Clear the consecutive-infeasibility streak."""
        self._streak = 0

    def observe(self, ctx: StepContext) -> Vote:
        """Escalate WARN/SEVERE with the infeasible-step streak length."""
        if ctx.feasible and not ctx.intervened:
            self._streak = 0
            return _OK
        self._streak += 1
        if self._streak >= self.severe_after:
            return (AlarmLevel.SEVERE,
                    f"{self._streak} consecutive infeasible steps")
        if self._streak >= self.warn_after:
            return (AlarmLevel.WARN,
                    f"{self._streak} consecutive infeasible steps")
        return _OK


class SoCWindowMonitor(Monitor):
    """Counts consecutive steps spent outside the SoC operating window."""

    name = "soc_window"

    def __init__(self, warn_after: int = 10, severe_after: int = 60):
        if not 1 <= warn_after <= severe_after:
            raise ConfigurationError("need 1 <= warn_after <= severe_after")
        self.warn_after = warn_after
        self.severe_after = severe_after
        self.reset()

    def reset(self) -> None:
        """Clear the consecutive out-of-window streak."""
        self._streak = 0

    def observe(self, ctx: StepContext) -> Vote:
        """Escalate WARN/SEVERE with the out-of-window streak length."""
        if not ctx.soc_outside:
            self._streak = 0
            return _OK
        self._streak += 1
        if self._streak >= self.severe_after:
            return (AlarmLevel.SEVERE,
                    f"SoC outside the operating window for "
                    f"{self._streak} consecutive steps")
        if self._streak >= self.warn_after:
            return (AlarmLevel.WARN,
                    f"SoC outside the operating window for "
                    f"{self._streak} consecutive steps")
        return _OK


class RewardCollapseMonitor(Monitor):
    """Flags a sustained collapse of the step reward.

    Keeps Welford running statistics of the episode's rewards *older than*
    the last ``window`` steps (the lag matters: folding the collapsed
    rewards into their own baseline would inflate the deviation and cap
    the detectable deficit below any useful threshold) and compares the
    mean of the last ``window`` steps against them: a recent mean more
    than ``sigmas`` baseline standard deviations below the baseline mean
    is the signature of a policy falling off a cliff (reward scales here
    are negative fuel, so "collapse" = strongly more negative).  Needs
    ``min_history`` baseline steps before it votes at all.
    """

    name = "reward_collapse"

    def __init__(self, window: int = 25, sigmas: float = 6.0,
                 min_history: int = 120):
        if window < 2 or min_history <= window:
            raise ConfigurationError("need window >= 2 and min_history > window")
        self.window = window
        self.sigmas = sigmas
        self.min_history = min_history
        self.reset()

    def reset(self) -> None:
        """Clear the lagged baseline statistics and the recent window."""
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        # The recent window, oldest first: filled, then shifted down one
        # slot per step, so its sum runs over the same values in the same
        # order every step (numpy's pairwise sum depends on the order).
        self._recent = np.empty(self.window)
        self._filled = 0

    def observe(self, ctx: StepContext) -> Vote:
        """WARN when the recent reward mean falls ``sigmas`` baseline
        deviations below the lagged episode baseline."""
        r = float(ctx.reward)
        if not math.isfinite(r):
            # The simulator's watchdog handles non-finite rewards; the
            # collapse statistic just skips them.
            return _OK
        recent = self._recent
        if self._filled < self.window:
            recent[self._filled] = r
            self._filled += 1
        else:
            # The oldest recent reward ages out into the lagged baseline.
            oldest = float(recent[0])
            recent[:-1] = recent[1:]
            recent[-1] = r
            self._count += 1
            delta = oldest - self._mean
            self._mean += delta / self._count
            self._m2 += delta * (oldest - self._mean)
        if self._count < self.min_history:
            return _OK
        std = math.sqrt(self._m2 / (self._count - 1))
        if std <= 0.0:
            return _OK
        recent_mean = self._recent_mean()
        deficit = (self._mean - recent_mean) / std
        if deficit > self.sigmas:
            return (AlarmLevel.WARN,
                    f"reward collapsed: recent mean {recent_mean:.3g} is "
                    f"{deficit:.1f} sigma below the episode baseline "
                    f"{self._mean:.3g}")
        return _OK

    def _recent_mean(self) -> float:
        """Mean of the full recent window, as ``np.mean`` computes it: the
        pairwise sum of the same values in the same order, over the count."""
        return float(np.add.reduce(self._recent)) / self.window
