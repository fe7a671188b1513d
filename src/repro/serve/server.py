"""The policy server: batched decisions, hot-swap, canary, degradation.

One :class:`PolicyServer` holds at most one *active* policy artifact and
serves greedy state→action decisions from it through a dense per-state
decision memo.  Around that hot path sit the robustness mechanisms this
layer exists for:

**Atomic hot-swap.**  A candidate version is *staged* — loaded, its
SHA-256 digest and fingerprint verified, and golden-probed on a held-out
deterministic state grid — entirely off the serving path.  Only a
candidate that survives all of it is *activated*, and activation is a
single pointer flip plus a memo reset: in-flight callers see either the
old policy or the new one, never a mixture.  Swapping in a bit-identical
artifact provably changes no decision (golden-tested).

**Refusal, not crashes.**  :meth:`PolicyServer.swap` converts every
structured staging failure — corrupt artifact
(:class:`~repro.errors.PersistenceError`), incompatible fingerprint
(:class:`~repro.errors.CheckpointError`), failed probe or blown staging
deadline (:class:`~repro.errors.ServeError`) — into a refused
:class:`SwapReport` while the incumbent keeps serving untouched.

**Canary rollout.**  :meth:`begin_canary` stages a candidate and routes
a configured fleet fraction to it; :meth:`observe` feeds per-group
reward/intervention batches into :class:`repro.serve.canary.CanaryRollout`
(Welford moments, the safety layer's reward-collapse machinery) and
applies the verdict: automatic rollback — discard the candidate, the
incumbent never stopped serving — or promotion after the decision
budget passes cleanly.

**Graceful degradation.**  :meth:`activate_latest` walks the registry
newest-first past corrupt versions; when *nothing* loads, the server
engages a rule-based fallback action (the zero-current "let the engine
carry it" level, the serving-side analogue of the safety supervisor's
LIMP_HOME rule-based controller) instead of crashing.

**Overload protection.**  :meth:`submit`/:meth:`pump` form a bounded
FIFO request queue: admission beyond :data:`QUEUE_LIMIT` and requests whose
deadline passed before processing are *shed* — counted, telemetered,
answered with a structured outcome — so a flooded server stays live for
the requests it can still serve in time.

All telemetry (``serve.decision`` spans, ``serve.swap`` /
``serve.rollback`` / ``serve.shed`` counters, the ``serve.active_version``
gauge) is emitted only when a :class:`repro.telemetry.Telemetry` is
attached; a telemetry-free server is bit-identical in every decision
(golden-tested like the simulator paths).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.errors import CheckpointError, PersistenceError, ServeError
from repro.serve.artifact import PolicyArtifact, peek_fingerprint
from repro.serve.canary import CanaryConfig, CanaryRollout
from repro.serve.registry import PolicyRegistry


PROBE_STATES = 128
"""Held-out state-grid size of the golden probe (capped at |S|)."""

PROBE_SEED = 0x5EBE
"""Seed of the deterministic probe-grid sample."""

QUEUE_LIMIT = 64
"""Bounded request-queue depth; admissions beyond it are shed."""


@dataclass(frozen=True)
class SwapReport:
    """What one hot-swap attempt did (activated or refused, and why)."""

    from_version: int
    """Serving version before the attempt (0 = fallback/none)."""

    to_version: int
    """Candidate version requested (0 when none was named)."""

    activated: bool
    """True when the candidate took over; False = refused, incumbent
    kept serving."""

    reason: str
    """``"ok"`` on activation; the structured refusal message otherwise."""

    probe_disagreement: float
    """Fraction of held-out probe states where the candidate's greedy
    action differs from the incumbent's (0.0 when refused pre-probe)."""

    elapsed_s: float
    """Wall-clock of the whole attempt (stage + flip)."""


@dataclass(frozen=True)
class DecisionOutcome:
    """Terminal outcome of one queued decision request."""

    key: Optional[str]
    """Caller's correlation key (opaque to the server)."""

    actions: Optional[np.ndarray]
    """Decided action ids, or ``None`` when the request was shed."""

    shed: bool
    """True when the request was dropped (queue full or deadline past)."""

    reason: str
    """``"ok"``, ``"queue full"``, or ``"deadline exceeded"``."""

    latency_s: float
    """Submit-to-outcome wall-clock (0.0 for admission-time sheds)."""


class PolicyServer:
    """Versioned policy serving with hot-swap, canary, and load shedding."""

    def __init__(self, registry: PolicyRegistry, telemetry=None,
                 clock: Callable[[], float] = time.monotonic):
        self._registry = registry
        self._telemetry = telemetry
        self._clock = clock
        self._active: Optional[PolicyArtifact] = None
        self._previous: Optional[PolicyArtifact] = None
        self._last_fingerprint: Optional[dict] = None
        self._fallback_hint: Optional[dict] = None
        self._memo = np.empty(0, dtype=np.intp)
        self._queue: deque = deque()
        self._canary: Optional[CanaryRollout] = None
        self._canary_artifact: Optional[PolicyArtifact] = None
        self._canary_started_at: float = 0.0
        self._staged_disagreement = 0.0
        self.decisions = 0
        """Total decisions served (incumbent + canary + fallback)."""
        self.fallback_decisions = 0
        """Decisions answered by the rule-based fallback action."""
        self.swaps = 0
        """Successful activations (initial, hot-swap, promotion)."""
        self.refused_swaps = 0
        """Swap attempts refused with the incumbent untouched."""
        self.rollbacks = 0
        """Canary rollbacks plus explicit :meth:`rollback` calls."""
        self.shed_count = 0
        """Requests shed by the bounded queue (admission + deadline)."""
        self.stage_sheds = 0
        """Staging attempts discarded for blowing the staging deadline."""
        self.degraded_loads = 0
        """Registry versions skipped as corrupt by the degradation walk."""
        self.cache_hits = 0
        """Decision-memo hits (unique states, not batch elements)."""
        self.cache_misses = 0
        """Decision-memo misses (unique states whose greedy action was
        computed from the table)."""
        self.last_rollback: Optional[dict] = None
        """``{"version", "reason", "decisions", "latency_s"}`` of the most
        recent canary rollback (``None`` until one happens)."""

    # -- telemetry helpers -------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        if self._telemetry is not None:
            self._telemetry.metrics.counter(name).inc(n)

    def _set_version_gauge(self) -> None:
        if self._telemetry is not None:
            self._telemetry.metrics.gauge("serve.active_version").set(
                float(self.active_version))

    # -- introspection -----------------------------------------------------

    @property
    def active_version(self) -> int:
        """Version currently serving (0 = rule-based fallback / nothing)."""
        return self._active.version if self._active is not None else 0

    @property
    def active_artifact(self) -> Optional[PolicyArtifact]:
        """The serving artifact (``None`` while degraded to fallback)."""
        return self._active

    @property
    def degraded(self) -> bool:
        """True while decisions come from the rule-based fallback."""
        return self._active is None

    @property
    def canary(self) -> Optional[CanaryRollout]:
        """The in-flight canary rollout, if any."""
        return self._canary

    # -- activation & degradation ladder -----------------------------------

    def _activate(self, artifact: PolicyArtifact, reason: str) -> None:
        """The atomic pointer flip: candidate becomes the active policy."""
        self._previous = self._active
        self._active = artifact
        self._last_fingerprint = artifact.fingerprint
        self._reset_memo()
        self.swaps += 1
        self._count("serve.swap")
        self._set_version_gauge()
        if self._telemetry is not None:
            previous = self._previous.version if self._previous else 0
            self._telemetry.event("serve_swap", from_version=previous,
                                  to_version=artifact.version,
                                  activated="yes", reason=reason)

    def _engage_fallback(self) -> None:
        """Bottom of the degradation ladder: rule-based fallback serving."""
        self._previous = self._active
        self._active = None
        self._reset_memo()
        self._set_version_gauge()

    def _reset_memo(self) -> None:
        """Forget every memoised decision (a different policy now serves).

        The memo holds the active table's greedy action per state, ``-1``
        where none was computed yet.  It is dense, so it is bounded by
        |S| and is at most 1/|A| of the mapped table.
        """
        size = self._active.num_states if self._active is not None else 0
        self._memo = np.full(size, -1, dtype=np.intp)

    def _fallback_action(self) -> int:
        """The rule-based fallback action id: the zero-current level.

        Commanding zero battery current makes the engine carry the full
        demand — the charge-neutral choice the paper's rule-based
        controller makes in the nominal SoC band, and the serving-side
        analogue of the safety supervisor's LIMP_HOME fallback.  The
        current levels come from the last verified fingerprint, or —
        when nothing ever loaded — from the unverified header hint the
        degradation ladder peeked off a corrupt artifact (the hint only
        ever picks this action, never gates verification).  Without any
        fingerprint at all the first action (0) is used.
        """
        fingerprint = self._last_fingerprint or self._fallback_hint
        if fingerprint is None:
            return 0
        levels = fingerprint.get("current_levels")
        if not levels:
            return 0
        return int(np.argmin(np.abs(np.asarray(levels, dtype=float))))

    def activate_latest(self) -> int:
        """Walk the registry newest-first and activate the first healthy
        version; engage the rule-based fallback when nothing loads.

        This is the degradation ladder: corrupt artifacts are *skipped*
        (counted in :attr:`degraded_loads`) rather than fatal, and a
        registry with no loadable version leaves the server alive in
        fallback mode.  Returns the activated version (0 = fallback).
        """
        for version in reversed(self._registry.versions()):
            try:
                artifact = self._registry.load(version)
                self._golden_probe(artifact)
            except (PersistenceError, ServeError):
                # containment: the ladder's whole point — a corrupt
                # version is skipped (and counted) so an older healthy
                # one can serve; the corruption is re-raisable via
                # registry.load(version) for diagnosis
                self.degraded_loads += 1
                if self._last_fingerprint is None \
                        and self._fallback_hint is None:
                    try:
                        self._fallback_hint = peek_fingerprint(
                            self._registry.path_for(version))
                    except (PersistenceError, ServeError):  # containment: the hint is best-effort; a header too corrupt to peek leaves the fallback on action 0
                        pass
                continue
            self._activate(artifact, reason="activate_latest")
            return version
        self._engage_fallback()
        return 0

    def activate(self, artifact: PolicyArtifact) -> None:
        """Directly activate an already-loaded artifact (probe first)."""
        self._golden_probe(artifact)
        self._activate(artifact, reason="direct activation")

    # -- staging and hot-swap ----------------------------------------------

    def _probe_grid(self, num_states: int) -> np.ndarray:
        size = min(PROBE_STATES, num_states)
        if size == num_states:
            return np.arange(num_states)
        rng = np.random.default_rng(PROBE_SEED)
        return np.sort(rng.choice(num_states, size=size, replace=False))

    def _golden_probe(self, candidate: PolicyArtifact) -> float:
        """Probe a candidate on the held-out grid; returns disagreement.

        A candidate whose probed Q-rows contain non-finite values is
        refused (:class:`~repro.errors.ServeError`): the digest proves
        the file matches what was written, the probe proves what was
        written is a servable policy.
        """
        grid = self._probe_grid(candidate.num_states)
        rows = np.asarray(candidate.table[grid], dtype=float)
        if not np.all(np.isfinite(rows)):
            raise ServeError(
                f"candidate v{candidate.version} failed the golden probe: "
                f"non-finite Q-values on {int(np.sum(~np.isfinite(rows).all(axis=1)))} "
                f"of {len(grid)} held-out states")
        actions = np.argmax(rows, axis=1)
        incumbent = self._active
        if incumbent is not None \
                and incumbent.num_states == candidate.num_states:
            return float(np.mean(actions != incumbent.greedy(grid)))
        return 0.0

    def stage(self, version: Optional[int] = None,
              deadline_s: Optional[float] = None) -> PolicyArtifact:
        """Load, verify, and golden-probe a registry version off the
        serving path (``None``: the latest).

        Raises the structured error of whatever failed: corruption →
        :class:`~repro.errors.PersistenceError`, fingerprint mismatch →
        :class:`~repro.errors.CheckpointError`, failed probe or staging
        slower than ``deadline_s`` seconds →
        :class:`~repro.errors.ServeError`.  The active policy is never
        touched.
        """
        start = self._clock()
        candidate = self._registry.load(version)
        reference = (self._active.fingerprint if self._active is not None
                     else self._last_fingerprint)
        if reference is not None and candidate.fingerprint != reference:
            mismatched = sorted(
                key for key in set(reference) | set(candidate.fingerprint)
                if reference.get(key) != candidate.fingerprint.get(key))
            raise CheckpointError(
                f"candidate v{candidate.version} is incompatible with the "
                f"serving fingerprint; mismatched fields: {mismatched}")
        disagreement = self._golden_probe(candidate)
        self._staged_disagreement = disagreement
        elapsed = self._clock() - start
        if deadline_s is not None and elapsed > deadline_s:
            self.stage_sheds += 1
            self._count("serve.shed")
            raise ServeError(
                f"staging deadline exceeded: load+verify+probe took "
                f"{elapsed:.3f}s against a {deadline_s:.3f}s budget; the "
                "candidate was discarded and the incumbent keeps serving")
        return candidate

    def swap(self, version: Optional[int] = None,
             deadline_s: Optional[float] = None) -> SwapReport:
        """Atomically hot-swap to a registry version; refuse on any defect.

        Never raises for a *bad candidate*: every structured staging
        failure becomes a refused :class:`SwapReport` (reason recorded,
        ``serve_swap`` event emitted) while the incumbent keeps serving
        bit-identically.
        """
        start = self._clock()
        from_version = self.active_version
        try:
            candidate = self.stage(version=version, deadline_s=deadline_s)
        except (PersistenceError, CheckpointError, ServeError) as exc:
            self.refused_swaps += 1
            if self._telemetry is not None:
                self._telemetry.event(
                    "serve_swap", from_version=from_version,
                    to_version=int(version or 0), activated="no",
                    reason=str(exc)[:300])
            return SwapReport(from_version=from_version,
                              to_version=int(version or 0),
                              activated=False, reason=str(exc),
                              probe_disagreement=0.0,
                              elapsed_s=self._clock() - start)
        disagreement = self._staged_disagreement
        self._activate(candidate, reason="hot-swap")
        return SwapReport(from_version=from_version,
                          to_version=candidate.version, activated=True,
                          reason="ok", probe_disagreement=disagreement,
                          elapsed_s=self._clock() - start)

    def rollback(self, reason: str = "manual") -> int:
        """Revert the pointer to the previously active policy.

        Returns the version now serving.  Raises
        :class:`~repro.errors.ServeError` when there is nothing to roll
        back to (rollback is one step, not a history walk).
        """
        if self._previous is None:
            raise ServeError("no previous policy to roll back to")
        rolled_from = self.active_version
        self._active = self._previous
        self._previous = None
        self._last_fingerprint = self._active.fingerprint
        self._reset_memo()
        self.rollbacks += 1
        self._count("serve.rollback")
        self._set_version_gauge()
        if self._telemetry is not None:
            self._telemetry.event("serve_rollback", version=rolled_from,
                                  reason=reason, decisions=self.decisions)
        return self.active_version

    # -- canary rollout ----------------------------------------------------

    def begin_canary(self, version: Optional[int] = None,
                     canary_config: Optional[CanaryConfig] = None
                     ) -> CanaryRollout:
        """Stage a registry version and open a canary rollout against it.

        The candidate serves only :meth:`canary_decide` traffic until
        :meth:`observe` reaches a verdict.  Staging failures raise their
        structured error; the incumbent is never touched.
        """
        if self._canary is not None:
            raise ServeError(
                f"a canary rollout of v{self._canary.candidate_version} is "
                "already in flight; observe it to a verdict first")
        if self._active is None:
            raise ServeError(
                "cannot run a canary without an active incumbent policy")
        candidate = self.stage(version=version)
        self._canary_artifact = candidate
        self._canary = CanaryRollout(candidate.version, canary_config)
        self._canary_started_at = self._clock()
        return self._canary

    def canary_decide(self, states: np.ndarray) -> np.ndarray:
        """Greedy decisions from the canary candidate (uncached)."""
        if self._canary_artifact is None:
            raise ServeError("no canary rollout is in flight")
        states = np.atleast_1d(np.asarray(states, dtype=np.intp))
        self._check_states(states, self._canary_artifact)
        self.decisions += int(states.size)
        return self._canary_artifact.greedy(states)

    def observe(self, canary: bool, rewards: np.ndarray,
                interventions: int = 0) -> Optional[str]:
        """Feed one group's decision outcomes; apply any verdict.

        On ``"rollback"`` the candidate is discarded — the incumbent
        never stopped serving, so "rolling back" is dropping a pointer —
        and :attr:`last_rollback` records the latency in decisions and
        wall-clock.  On ``"promote"`` the candidate is activated through
        the same pointer flip as a hot-swap.  Returns the verdict.
        """
        if self._canary is None:
            raise ServeError("no canary rollout is in flight")
        rollout = self._canary
        verdict = rollout.record(canary, rewards, interventions)
        if verdict == "rollback":
            self._drop_canary(rollout.reason)
        elif verdict == "promote":
            self._activate(self._canary_artifact, reason="canary promotion")
            self._canary = None
            self._canary_artifact = None
        return verdict

    def abort_canary(self, reason: str = "aborted") -> None:
        """Discard an in-flight canary without a statistical verdict.

        The candidate is dropped exactly as a rollback drops it — the
        incumbent never stopped serving — and :attr:`last_rollback`
        records the abort so recovery latency stays measurable.  The
        promotion pipeline uses this when a canary starves (e.g. a
        cohort that never produces decisions) so an undecidable rollout
        cannot pin the server forever.  Raises
        :class:`~repro.errors.ServeError` when no canary is in flight.
        """
        if self._canary is None:
            raise ServeError("no canary rollout is in flight")
        self._drop_canary(reason)

    def _drop_canary(self, reason: str) -> None:
        """Discard the in-flight candidate and record it as a rollback."""
        rollout = self._canary
        self.rollbacks += 1
        self._count("serve.rollback")
        self.last_rollback = {
            "version": rollout.candidate_version,
            "reason": reason,
            "decisions": rollout.canary_decisions,
            "latency_s": self._clock() - self._canary_started_at,
        }
        if self._telemetry is not None:
            self._telemetry.event(
                "serve_rollback", version=rollout.candidate_version,
                reason=reason[:300], decisions=rollout.canary_decisions)
        self._canary = None
        self._canary_artifact = None

    # -- decisions ---------------------------------------------------------

    def _check_states(self, states: np.ndarray,
                      artifact: PolicyArtifact) -> None:
        # One reduction: a negative id wraps to a huge unsigned one.
        if states.size and int(states.view(np.uintp).max()) \
                >= artifact.num_states:
            raise ServeError(
                f"state ids must lie in [0, {artifact.num_states}); got "
                f"range [{int(states.min())}, {int(states.max())}]")

    def decide(self, states: np.ndarray) -> np.ndarray:
        """Batched greedy decisions for ``states`` (memoised per state).

        While degraded to fallback every state gets the rule-based
        fallback action; otherwise each unique state's greedy action is
        served from the memo or computed in one argmax gather.
        """
        if self._telemetry is None:
            return self._decide(states)
        start = self._clock()
        with self._telemetry.span("serve.decision",
                                  batch=int(np.asarray(states).size)):
            actions = self._decide(states)
        from repro.telemetry.metrics import LATENCY_BUCKETS_S
        self._telemetry.metrics.histogram(
            "serve.decision_seconds",
            buckets=LATENCY_BUCKETS_S).observe(self._clock() - start)
        return actions

    def _decide(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_1d(np.asarray(states, dtype=np.intp))
        self.decisions += int(states.size)
        active = self._active
        if active is None:
            self.fallback_decisions += int(states.size)
            return np.full(states.shape, self._fallback_action(),
                           dtype=np.intp)
        self._check_states(states, active)
        memo = self._memo
        actions = memo[states]
        missing = actions < 0
        # Hits and misses count unique states of the batch, not elements.
        unique = int(np.count_nonzero(np.bincount(states.ravel(),
                                                  minlength=memo.size)))
        if missing.any():
            fresh = np.unique(states[missing])
            memo[fresh] = active.greedy(fresh)
            actions = memo[states]
            self.cache_misses += fresh.size
            unique -= fresh.size
        self.cache_hits += unique
        return actions

    # -- bounded request queue --------------------------------------------

    def submit(self, states: np.ndarray, deadline_s: Optional[float] = None,
               key: Optional[str] = None) -> bool:
        """Enqueue one decision request; returns False when shed.

        Admission beyond :data:`QUEUE_LIMIT` sheds immediately — a bounded
        queue is the overload contract: a flooded server drops work
        loudly instead of growing an unbounded backlog it can never
        drain in time.
        """
        if len(self._queue) >= QUEUE_LIMIT:
            self.shed_count += 1
            self._count("serve.shed")
            return False
        now = self._clock()
        deadline = None if deadline_s is None else now + deadline_s
        self._queue.append((key, states, deadline, now))
        return True

    def pump(self) -> List[DecisionOutcome]:
        """Serve every queued request in FIFO order, shedding late ones.

        A request whose deadline passed while it waited is shed with a
        structured outcome rather than served stale — by the time it
        would be answered, the vehicle has already had to act.
        """
        outcomes: List[DecisionOutcome] = []
        while self._queue:
            key, states, deadline, enqueued = self._queue.popleft()
            now = self._clock()
            if deadline is not None and now > deadline:
                self.shed_count += 1
                self._count("serve.shed")
                outcomes.append(DecisionOutcome(
                    key=key, actions=None, shed=True,
                    reason="deadline exceeded", latency_s=now - enqueued))
                continue
            actions = self.decide(states)
            outcomes.append(DecisionOutcome(
                key=key, actions=actions, shed=False, reason="ok",
                latency_s=self._clock() - enqueued))
        return outcomes
