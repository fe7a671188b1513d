"""Guarded candidate promotion: canary, watchdog, measured recovery.

Every candidate the learner publishes goes through the
:class:`PromotionPipeline`, which drives the PolicyServer's full
stage → verify → golden-probe → canary path and adds the two guarantees
the online loop needs on top:

* **Measured regression recovery.**  When the canary verdict is
  ``"rollback"`` (or the rollout starves and is aborted), the pipeline
  *verifies the fleet is healthy again* — the incumbent's digest and a
  deterministic probe of its decisions are bit-identical to before the
  attempt — and reports **regression-recovery time**: the wall-clock
  from the verdict (detection) through rollback to the verified-healthy
  incumbent.  The loop benchmark reports it as ``recovery_ms`` (see
  ``docs/ONLINE_LEARNING.md`` for the precise definition).

* **A cross-promotion baseline.**  The :class:`RegressionWatchdog`
  accumulates the incumbent's fleet-level reward and intervention-rate
  statistics across *healthy* runs, so a regression that slips past a
  canary (or appears later) is still caught: :meth:`check` compares any
  run against the baseline with the canary's rule
  (:func:`repro.serve.canary.regression`).  The baseline resets only
  when a *new* incumbent is promoted — a no-op swap of an identical
  candidate must not reset it (tested).

A candidate bit-identical to the incumbent short-circuits: the swap is
the server's provably-no-op identical-artifact path, no canary runs,
and the watchdog baseline survives untouched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import (CheckpointError, ExperienceError,
                          PersistenceError, ServeError)
from repro.serve import CanaryConfig, Welford
from repro.serve.canary import (INTERVENTION_MARGIN, REGRESSION_SIGMAS,
                                regression)
from repro.serve.fleet import FleetConfig, FleetSimulator
from repro.serve.server import PROBE_STATES

MIN_BASELINE_RUNS = 2
"""Healthy runs the watchdog needs before a deviation is meaningful."""


class RegressionWatchdog:
    """Incumbent fleet-health baseline under the canary's regression rule."""

    def __init__(self):
        self._reward = Welford()
        self._interventions = 0
        self._decisions = 0

    @property
    def runs(self) -> int:
        """Healthy fleet runs folded into the baseline."""
        return self._reward.count

    def _rate(self) -> float:
        return (self._interventions / self._decisions
                if self._decisions else 0.0)

    @property
    def baseline(self) -> dict:
        """The current baseline (runs, reward moments, intervention rate)."""
        return {"runs": self._reward.count,
                "reward_mean": self._reward.mean,
                "reward_std": self._reward.std,
                "intervention_rate": self._rate()}

    def observe(self, result) -> None:
        """Fold one healthy fleet run into the incumbent baseline."""
        if result.decisions <= 0:
            return
        self._reward.update(result.mean_reward)
        self._interventions += int(result.interventions)
        self._decisions += int(result.decisions)

    def check(self, result) -> Optional[str]:
        """Compare one run against the baseline; a reason means regression.

        Returns ``None`` while the baseline is too thin (fewer than
        :data:`MIN_BASELINE_RUNS` healthy runs) or the run produced no
        decisions — a zero-decision fleet carries no evidence either way.
        """
        if self._reward.count < MIN_BASELINE_RUNS or result.decisions <= 0:
            return None
        reason = regression(
            "fleet", "the incumbent baseline", result.mean_reward,
            result.interventions / result.decisions, self._reward.mean,
            self._reward.std, self._rate(), REGRESSION_SIGMAS,
            INTERVENTION_MARGIN)
        if reason is None:
            return None
        return f"{reason} ({self._reward.count} runs)"

    def reset(self) -> None:
        """Forget the baseline (a *new* incumbent took over)."""
        self._reward = Welford()
        self._interventions = 0
        self._decisions = 0


@dataclass
class PromotionReport:
    """What one guarded promotion attempt did."""

    candidate_version: int
    """Registry version of the candidate."""

    outcome: str
    """``"promoted"``, ``"noop"`` (identical candidate), ``"refused"``
    (staging rejected it), ``"rolled_back"``, or ``"aborted"`` (canary
    starved without a verdict)."""

    reason: str
    """One-line justification of the outcome."""

    rounds: int
    """Canary fleet rounds driven before the verdict."""

    canary_decisions: int
    """Decisions the candidate served during the rollout."""

    recovery_s: Optional[float] = None
    """Regression-recovery time — verdict (detection) → rollback →
    verified-healthy incumbent — for rollback/abort outcomes."""

    incumbent_intact: Optional[bool] = None
    """For rollback/abort outcomes: True when the incumbent's digest and
    probed decisions are bit-identical to before the attempt."""

    baseline_runs: int = 0
    """Watchdog baseline size after the attempt (proves noop swaps and
    rollbacks preserve it, promotions reset it)."""


class PromotionPipeline:
    """Drives candidates through canary with verified, timed recovery."""

    def __init__(self, server, registry,
                 fleet_config: Optional[FleetConfig] = None,
                 canary_config: Optional[CanaryConfig] = None,
                 max_rounds: int = 8, round_steps: int = 20):
        if max_rounds < 1:
            raise ExperienceError(
                f"the canary needs at least one fleet round, got "
                f"max_rounds={max_rounds}")
        if round_steps < 1:
            raise ExperienceError(
                f"round_steps must be at least 1, got {round_steps}")
        self._server = server
        self._registry = registry
        self._fleet_config = fleet_config or FleetConfig()
        self._canary_config = canary_config
        self.watchdog = RegressionWatchdog()
        """The cross-promotion incumbent baseline (shared with the loop)."""
        self._max_rounds = int(max_rounds)
        self._round_steps = int(round_steps)

    def _probe(self, artifact) -> np.ndarray:
        grid = np.arange(min(PROBE_STATES, artifact.num_states))
        return np.asarray(artifact.greedy(grid))

    def promote(self, version: int) -> PromotionReport:
        """Run one candidate through the guarded promotion path."""
        server = self._server
        incumbent = server.active_artifact
        if incumbent is None:
            raise ServeError(
                "cannot promote without an active incumbent; activate a "
                "policy before running the promotion pipeline")
        try:
            candidate = self._registry.load(version)
        except (PersistenceError, ServeError) as exc:
            return PromotionReport(
                candidate_version=int(version), outcome="refused",
                reason=str(exc), rounds=0, canary_decisions=0,
                baseline_runs=self.watchdog.runs)

        if candidate.digest == incumbent.digest \
                and candidate.fingerprint == incumbent.fingerprint:
            # Identical candidate: the swap is the server's provably
            # no-op path; no canary, and the watchdog baseline survives
            # (the incumbent did not actually change).
            swap = server.swap(version=version)
            return PromotionReport(
                candidate_version=int(version),
                outcome="noop" if swap.activated else "refused",
                reason=("candidate is bit-identical to the incumbent; "
                        "no-op swap" if swap.activated else swap.reason),
                rounds=0, canary_decisions=0,
                baseline_runs=self.watchdog.runs)

        before_digest = incumbent.digest
        before_actions = self._probe(incumbent)
        try:
            rollout = server.begin_canary(version=version,
                                          canary_config=self._canary_config)
        except (PersistenceError, CheckpointError, ServeError) as exc:
            return PromotionReport(
                candidate_version=int(version), outcome="refused",
                reason=str(exc), rounds=0, canary_decisions=0,
                baseline_runs=self.watchdog.runs)
        begin = time.monotonic()

        rounds = 0
        while rounds < self._max_rounds and server.canary is not None:
            FleetSimulator(server, self._fleet_config).run(
                steps=self._round_steps)
            rounds += 1
        # The rollout itself holds the verdict, whichever group's batch
        # decided it.
        verdict = rollout.verdict
        if server.canary is not None:
            # The rollout starved (e.g. a cohort that never decides);
            # abort so an undecidable canary cannot pin the server.
            server.abort_canary(
                reason=f"canary undecided after {rounds} fleet round(s)")
            verdict = "aborted"
        canary_decisions = rollout.canary_decisions

        rollback = server.last_rollback or {}
        if verdict in ("rollback", "aborted"):
            # Detection instant: the server stamped the verdict latency
            # against the same monotonic clock begin_canary used.
            detected = begin + float(rollback.get("latency_s",
                                                  time.monotonic() - begin))
            active = server.active_artifact
            intact = (active is not None
                      and active.digest == before_digest
                      and bool(np.array_equal(self._probe(active),
                                              before_actions))
                      and bool(np.array_equal(server.decide(
                          np.arange(len(before_actions))), before_actions)))
            recovery = max(time.monotonic() - detected, 0.0)
            return PromotionReport(
                candidate_version=int(version),
                outcome=("rolled_back" if verdict == "rollback"
                         else "aborted"),
                reason=str(rollback.get("reason", "canary aborted")),
                rounds=rounds, canary_decisions=canary_decisions,
                recovery_s=recovery, incumbent_intact=intact,
                baseline_runs=self.watchdog.runs)

        # Promoted: a genuinely new incumbent is serving — the old
        # baseline describes a different policy, so it resets.
        self.watchdog.reset()
        return PromotionReport(
            candidate_version=int(version), outcome="promoted",
            reason=f"canary promoted after {rounds} fleet round(s)",
            rounds=rounds,
            canary_decisions=canary_decisions,
            baseline_runs=self.watchdog.runs)
