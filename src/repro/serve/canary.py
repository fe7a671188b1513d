"""Canary rollout bookkeeping: compare candidate vs incumbent, roll back.

A canary rollout routes a deterministic fraction of the fleet to a
candidate policy while the rest stays on the incumbent, accumulates
per-group reward and intervention statistics with Welford running
moments (the same machinery as the safety layer's
:class:`repro.safety.monitors.RewardCollapseMonitor` baseline), and
renders a verdict:

* ``"rollback"`` — the canary group's mean reward fell more than
  ``sigmas`` incumbent standard deviations below the incumbent's mean,
  or its intervention rate exceeded the incumbent's by more than
  ``intervention_margin``.  Guaranteed to be reached within
  ``decision_budget`` canary decisions of the regression becoming
  statistically visible, because the verdict is re-evaluated on every
  recorded batch.
* ``"promote"`` — ``decision_budget`` canary decisions completed with
  no regression; the candidate is safe to take full traffic.
* ``None`` — not enough evidence yet; keep routing.

Vehicle→group assignment is a pure hash of ``(vehicle id, candidate
version)``: deterministic (replayable campaigns), stable for a vehicle
across the rollout, and uncorrelated between rollouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ServeError
from repro.stats import Welford


@dataclass(frozen=True)
class CanaryConfig:
    """Knobs of one canary rollout."""

    fraction: float = 0.1
    """Fraction of the fleet routed to the candidate, in (0, 1)."""

    min_samples: int = 256
    """Decisions *per group* before the regression test may fire."""

    sigmas: float = 3.0
    """Reward deficit, in incumbent standard deviations, that means
    regression (mirrors the reward-collapse monitor's threshold)."""

    decision_budget: int = 10_000
    """Canary decisions after which a healthy candidate is promoted —
    and, symmetrically, the bound within which a regressed one must
    have been rolled back."""

    intervention_margin: float = 0.05
    """Absolute intervention-rate excess over the incumbent that means
    regression regardless of reward."""

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise ServeError(
                f"canary fraction must be in (0, 1), got {self.fraction!r}")
        if self.min_samples < 2:
            raise ServeError("canary min_samples must be at least 2")
        if self.sigmas <= 0:
            raise ServeError(f"sigmas must be positive, got {self.sigmas!r}")
        if self.decision_budget < self.min_samples:
            raise ServeError(
                f"decision_budget ({self.decision_budget}) cannot be "
                f"smaller than min_samples ({self.min_samples})")
        if self.intervention_margin < 0:
            raise ServeError("intervention_margin cannot be negative")


def _assignment_hash(ids: np.ndarray, salt: int) -> np.ndarray:
    """SplitMix64-style avalanche of ``ids`` mixed with ``salt``."""
    x = np.asarray(ids, dtype=np.uint64) + np.uint64(salt)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class CanaryRollout:
    """Mutable state of one in-flight canary rollout."""

    def __init__(self, candidate_version: int,
                 config: Optional[CanaryConfig] = None):
        self.candidate_version = int(candidate_version)
        self.config = config or CanaryConfig()
        self._canary = Welford()
        self._incumbent = Welford()
        self._canary_interventions = 0
        self._incumbent_interventions = 0
        self._verdict: Optional[str] = None
        self._reason = ""

    @property
    def canary_decisions(self) -> int:
        """Decisions served by the candidate so far."""
        return self._canary.count

    @property
    def verdict(self) -> Optional[str]:
        """``"rollback"``, ``"promote"``, or ``None`` while undecided."""
        return self._verdict

    @property
    def reason(self) -> str:
        """One-line justification of a decided verdict (else empty)."""
        return self._reason

    def assign_mask(self, vehicle_ids: np.ndarray) -> np.ndarray:
        """Boolean mask: which vehicles ride the canary.

        Pure function of ``(vehicle id, candidate version, fraction)``;
        the hash's top 53 bits become a uniform [0, 1) draw compared
        against the configured fraction.
        """
        hashed = _assignment_hash(vehicle_ids,
                                  salt=0x5E12 + self.candidate_version)
        draws = (hashed >> np.uint64(11)).astype(np.float64) / float(2 ** 53)
        return draws < self.config.fraction

    def record(self, canary: bool, rewards: np.ndarray,
               interventions: int = 0) -> Optional[str]:
        """Fold one group's batch of decision rewards; returns the verdict.

        Called once per served batch per group.  The verdict is
        re-evaluated immediately, so a visible regression triggers
        rollback on the very batch that exposed it — never later than
        ``decision_budget`` canary decisions in.
        """
        if self._verdict is not None:
            return self._verdict
        stats = self._canary if canary else self._incumbent
        stats.update_batch(rewards)
        if canary:
            self._canary_interventions += int(interventions)
        else:
            self._incumbent_interventions += int(interventions)
        self._evaluate()
        return self._verdict

    def _evaluate(self) -> None:
        cfg = self.config
        can, inc = self._canary, self._incumbent
        if can.count >= cfg.min_samples and inc.count >= cfg.min_samples:
            scale = max(inc.std, 1e-12)
            deficit = (inc.mean - can.mean) / scale
            if deficit > cfg.sigmas:
                self._verdict = "rollback"
                self._reason = (
                    f"canary reward {can.mean:.4f} is {deficit:.1f} sigma "
                    f"below incumbent {inc.mean:.4f} after "
                    f"{can.count} canary decisions")
                return
            can_rate = self._canary_interventions / can.count
            inc_rate = self._incumbent_interventions / inc.count
            if can_rate > inc_rate + cfg.intervention_margin:
                self._verdict = "rollback"
                self._reason = (
                    f"canary intervention rate {can_rate:.2%} exceeds "
                    f"incumbent {inc_rate:.2%} by more than "
                    f"{cfg.intervention_margin:.0%}")
                return
        if can.count >= cfg.decision_budget:
            self._verdict = "promote"
            self._reason = (
                f"no regression after {can.count} canary decisions "
                f"(budget {cfg.decision_budget})")
