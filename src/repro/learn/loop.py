"""The online-learning loop: fleet → journals → learner → promotion.

:class:`OnlineLearningLoop` wires every piece of ``repro.learn`` into
the cycle ROADMAP item 5 describes: a guarded fleet serves decisions
and streams experience into per-shard journals, the crash-safe learner
ingests them with exact-resume cursors, and every few rounds the
updated table is published to the registry and driven through the
guarded :class:`~repro.learn.promotion.PromotionPipeline`.

Robustness split of responsibilities (each part is tested on its own):

* the fleet never blocks on the learner — the journal stream sheds
  oldest-first under backpressure, and a stream write failure freezes
  *streaming*, never serving;
* the learner can die anywhere — ``--resume`` rebuilds it from its
  atomic checkpoint and the journals replay bit-identically;
* a regressed candidate is the promotion pipeline's problem — canary
  rollback with measured recovery, while the incumbent keeps serving;
* the :class:`~repro.learn.promotion.RegressionWatchdog` baseline rides
  across rounds and triggers a post-promotion rollback if a regression
  only becomes visible at full traffic.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from repro.errors import ExperienceError, PersistenceError, ServeError
from repro.fsio import atomic_write_bytes
from repro.learn.journal import ExperienceStream
from repro.learn.learner import OnlineLearner
from repro.learn.promotion import (PromotionPipeline, PromotionReport,
                                   RegressionWatchdog)
from repro.serve.canary import CanaryConfig
from repro.serve.fleet import FleetConfig, FleetSimulator
from repro.serve.registry import PolicyRegistry
from repro.serve.server import PolicyServer

CHECKPOINT_NAME = "learner-checkpoint.rpa"
"""Filename of the learner checkpoint inside the loop workdir."""

JOURNAL_DIRNAME = "journals"
"""Subdirectory of the loop workdir holding experience journals."""

STATE_NAME = "incumbent.json"
"""Loop state file pinning the vetted incumbent version.

The registry may hold *candidates* that were published but rolled back
or aborted by the canary; ``activate_latest`` on a restart would hand
one of them the fleet ungated.  The loop therefore records which
version actually won promotion and re-activates exactly that on
``--resume``."""

STREAM_BUFFER = 65536
"""Records the loop's experience stream buffers between flushes: a
tick's batch is one flush, so ticks of fleets up to this size are never
shed."""


@dataclass
class RoundReport:
    """What one loop round did."""

    round: int
    """1-based round index."""

    decisions: int
    """Decisions the fleet consumed this round."""

    mean_reward: float
    """Fleet mean decision reward this round."""

    records_streamed: int
    """Experience records durably journaled this round."""

    records_shed: int
    """Records shed oldest-first by stream backpressure this round."""

    records_ingested: int
    """Valid records the learner applied this round."""

    quarantined: int
    """Corrupt journal lines quarantined this round."""

    watchdog_alert: Optional[str] = None
    """Watchdog regression reason, when one fired this round."""

    promotion: Optional[PromotionReport] = None
    """The guarded promotion attempt, on promotion rounds."""


@dataclass
class LoopReport:
    """Aggregates of one :meth:`OnlineLearningLoop.run` call."""

    rounds: List[RoundReport] = field(default_factory=list)
    """Per-round accounting, in order."""

    promotions: int = 0
    """Candidates that took over as incumbent."""

    rollbacks: int = 0
    """Candidates rolled back or aborted by the canary/watchdog."""

    recovery_latencies_s: List[float] = field(default_factory=list)
    """Measured regression-recovery times of this run's rollbacks."""

    final_version: int = 0
    """Incumbent version serving when the run ended."""


class OnlineLearningLoop:
    """Round-based fleet/learner/promotion orchestrator; its canary is
    sized to its fleet."""

    def __init__(self, registry: Union[PolicyRegistry, str, Path],
                 workdir: Union[str, Path],
                 fleet_config: Optional[FleetConfig] = None,
                 promote_every: int = 2,
                 resume: bool = False,
                 telemetry=None):
        if promote_every < 1:
            raise ExperienceError(
                f"promote_every must be at least 1, got {promote_every}")
        self._registry = (registry if isinstance(registry, PolicyRegistry)
                          else PolicyRegistry(registry))
        self._workdir = Path(workdir)
        self._workdir.mkdir(parents=True, exist_ok=True)
        self._journal_dir = self._workdir / JOURNAL_DIRNAME
        self._telemetry = telemetry
        self._promote_every = int(promote_every)
        self._fleet_config = fleet_config or FleetConfig()

        self.server = PolicyServer(self._registry, telemetry=telemetry)
        """The serving side of the loop (kept answering no matter what)."""
        self._state_path = self._workdir / STATE_NAME
        pinned = self._pinned_incumbent() if resume else None
        if pinned is not None:
            self.server.activate(self._registry.load(pinned))
        else:
            self.server.activate_latest()
        if self.server.degraded:
            raise ServeError(
                "the registry holds no servable policy; the loop needs a "
                "healthy incumbent to learn from (publish one first)")
        self._save_state()

        checkpoint = self._workdir / CHECKPOINT_NAME
        if resume and checkpoint.exists():
            self.learner = OnlineLearner.resume(checkpoint)
            """The crash-safe central learner."""
            if self.learner.fingerprint != \
                    self.server.active_artifact.fingerprint:
                raise ExperienceError(
                    f"checkpoint {checkpoint} was trained under a "
                    "different agent fingerprint than the serving "
                    "incumbent; refusing to mix incompatible policies")
        else:
            self.learner = OnlineLearner.from_artifact(
                self.server.active_artifact, checkpoint_path=checkpoint)
        max_rounds, round_steps = 8, 20
        # Size the canary budget to the configured fleet: the stock
        # CanaryConfig budget (10k canary decisions) assumes a large
        # fleet and would starve — and so abort — every healthy
        # candidate on a small one before the promote verdict.
        expected = int(0.1 * self._fleet_config.vehicles
                       * round_steps * max_rounds * 0.5)
        budget = max(16, min(10_000, expected))
        canary_config = CanaryConfig(
            fraction=0.1,
            min_samples=max(2, min(256, budget // 4)),
            decision_budget=budget)
        self.pipeline = PromotionPipeline(
            self.server, self._registry, fleet_config=self._fleet_config,
            canary_config=canary_config, max_rounds=max_rounds,
            round_steps=round_steps)
        """The guarded promotion path every candidate goes through."""
        self._stream = ExperienceStream(self._journal_dir, shard=0,
                                        buffer_limit=STREAM_BUFFER)

    def _event(self, type_: str, **fields) -> None:
        if self._telemetry is not None:
            self._telemetry.event(type_, **fields)

    def _pinned_incumbent(self) -> Optional[int]:
        """The vetted incumbent version recorded by a previous run."""
        try:
            raw = self._state_path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise PersistenceError(
                f"cannot read loop state {self._state_path} "
                f"({exc})") from exc
        try:
            payload = json.loads(raw.decode("utf-8"))
            version = payload["version"]
        except (json.JSONDecodeError, UnicodeDecodeError, TypeError,
                KeyError) as exc:
            raise PersistenceError(
                f"{self._state_path}: loop state is corrupt ({exc}); "
                "delete it to fall back to the latest registry version "
                "— note that may activate an unvetted candidate") from exc
        if not isinstance(version, int) or isinstance(version, bool):
            raise PersistenceError(
                f"{self._state_path}: loop state pins non-integer "
                f"incumbent version {version!r}; the file is corrupt")
        return version

    def _save_state(self) -> None:
        body = json.dumps(
            {"version": int(self.server.active_version)},
            sort_keys=True).encode("utf-8")
        atomic_write_bytes(self._state_path, body)

    def run(self, rounds: int) -> LoopReport:
        """Drive ``rounds`` fleet/ingest/promote cycles; returns totals."""
        if rounds < 1:
            raise ExperienceError(
                f"the loop needs at least one round, got {rounds}")
        report = LoopReport()
        # The previous incumbent's baseline, armed for one round after a
        # promotion: the canary's verdict came from a traffic fraction,
        # so the first full-traffic run can still expose a regression —
        # and one rollback step away is the verified-healthy incumbent.
        net: Optional[RegressionWatchdog] = None
        for index in range(1, rounds + 1):
            watchdog = self.pipeline.watchdog
            shed_before = self._stream.shed
            written_before = self._stream.written
            result = FleetSimulator(
                self.server, self._fleet_config,
                experience=self._stream).run()

            alert = (net.check(result) if net is not None
                     else watchdog.check(result))
            if alert is not None and net is not None:
                self.server.rollback(reason=alert)
                report.rollbacks += 1
                # The old incumbent is back; its baseline resumes.
                self.pipeline.watchdog = net
                watchdog = net
            elif alert is None:
                watchdog.observe(result)
            net = None

            ingest = self.learner.ingest(self._journal_dir)
            self._event("learn_ingest", journals=ingest.journals,
                        records=ingest.records,
                        quarantined=ingest.quarantined,
                        excluded=ingest.excluded)

            promotion: Optional[PromotionReport] = None
            if index % self._promote_every == 0:
                prior = copy.deepcopy(self.pipeline.watchdog)
                version = self.learner.publish(self._registry)
                promotion = self.pipeline.promote(version)
                self._event("learn_promotion", version=version,
                            outcome=promotion.outcome,
                            reason=promotion.reason[:300])
                if promotion.outcome == "promoted":
                    report.promotions += 1
                    net = prior
                elif promotion.outcome in ("rolled_back", "aborted"):
                    report.rollbacks += 1
                    if promotion.recovery_s is not None:
                        report.recovery_latencies_s.append(
                            promotion.recovery_s)

            self._save_state()
            report.rounds.append(RoundReport(
                round=index, decisions=result.decisions,
                mean_reward=result.mean_reward,
                records_streamed=self._stream.written - written_before,
                records_shed=self._stream.shed - shed_before,
                records_ingested=ingest.records,
                quarantined=ingest.quarantined,
                watchdog_alert=alert, promotion=promotion))
        report.final_version = self.server.active_version
        return report

    def close(self) -> None:
        """Release the journal stream descriptor (idempotent)."""
        self._stream.close()

    def __enter__(self) -> "OnlineLearningLoop":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
