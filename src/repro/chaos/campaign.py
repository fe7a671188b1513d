"""Chaos campaigns: N seeds × K fault kinds, tallied into one report.

A campaign expands each seed into a deterministic
:class:`~repro.chaos.plan.ChaosPlan`, runs every scheduled experiment in
its own scratch directory, and aggregates the outcomes:

* **detection rate** — faults that surfaced as their documented
  structured error (or were tolerated by design with exact results),
  over all faults.  The stack's contract is 100%: a fault that passes
  silently is an :class:`~repro.errors.InvariantViolation`.
* **recovery rate** — resumable faults whose documented recovery path
  restored correct (bit-identical where promised) state, over all
  resumable faults.  Also contractually 100%.
* **recovery latency** — wall-clock of the recovery paths, accumulated
  in a constant-memory telemetry histogram and reported as p50/p99.

Invariant violations do not abort the campaign — they are its findings.
The report's :meth:`~CampaignReport.signature` (seed, kind, detected,
recovered tuples) is deterministic per seed set; latencies are measured
and excluded.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.chaos.experiments import (
    EXPERIMENTS,
    RESUMABLE,
    ExperimentOutcome,
)
from repro.chaos.plan import FAULT_KINDS, ChaosPlan
from repro.errors import ChaosError, ReproError
from repro.telemetry.metrics import LATENCY_BUCKETS_S, Histogram

REPORT_VERSION = 1
"""Campaign report schema version."""


@dataclass
class CampaignReport:
    """Everything one chaos campaign established."""

    seeds: int
    """Number of campaign seeds run (seed values 0..seeds-1)."""

    kinds: Tuple[str, ...]
    """Fault kinds exercised (each once per seed)."""

    outcomes: List[Tuple[int, ExperimentOutcome]] = field(
        default_factory=list)
    """Every ``(seed, outcome)``, in execution order."""

    violations: List[dict] = field(default_factory=list)
    """One record per broken invariant: seed, kind, message."""

    latency: Histogram = field(default_factory=lambda: Histogram(
        "chaos.recovery_seconds", LATENCY_BUCKETS_S))
    """Recovery-path wall-clock distribution."""

    elapsed_s: float = 0.0
    """Total campaign wall-clock."""

    # -- tallies -----------------------------------------------------------

    @property
    def faults(self) -> int:
        """Total fault injections."""
        return len(self.outcomes)

    @property
    def detected(self) -> int:
        """Faults that surfaced per contract."""
        return sum(1 for _, o in self.outcomes if o.detected)

    @property
    def resumable(self) -> int:
        """Faults with a documented recovery path."""
        return sum(1 for _, o in self.outcomes if o.resumable)

    @property
    def recovered(self) -> int:
        """Resumable faults whose recovery path held."""
        return sum(1 for _, o in self.outcomes
                   if o.resumable and o.recovered)

    @property
    def detection_rate(self) -> float:
        """Detected fraction of all faults (1.0 when none ran)."""
        return self.detected / self.faults if self.faults else 1.0

    @property
    def recovery_rate(self) -> float:
        """Recovered fraction of resumable faults (1.0 when none ran)."""
        return self.recovered / self.resumable if self.resumable else 1.0

    @property
    def clean(self) -> bool:
        """True when every invariant held: full detection and recovery."""
        return (not self.violations
                and self.detected == self.faults
                and self.recovered == self.resumable)

    def signature(self) -> List[Tuple[int, str, bool, Optional[bool]]]:
        """Deterministic skeleton of the campaign (latency excluded) —
        two campaigns over the same seeds must compare equal."""
        return [(seed, o.kind, o.detected, o.recovered)
                for seed, o in self.outcomes]

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> dict:
        """Full JSON-serialisable report."""
        per_kind: Dict[str, dict] = {}
        for _, outcome in self.outcomes:
            row = per_kind.setdefault(outcome.kind, {
                "runs": 0, "detected": 0, "recovered": 0,
                "resumable": RESUMABLE[outcome.kind]})
            row["runs"] += 1
            row["detected"] += int(outcome.detected)
            row["recovered"] += int(bool(outcome.recovered))
        return {
            "report": "chaos_campaign",
            "version": REPORT_VERSION,
            "seeds": self.seeds,
            "kinds": list(self.kinds),
            "totals": {"faults": self.faults, "detected": self.detected,
                       "resumable": self.resumable,
                       "recovered": self.recovered,
                       "violations": len(self.violations)},
            "detection_rate": self.detection_rate,
            "recovery_rate": self.recovery_rate,
            "recovery_latency_s": {
                "count": self.latency.count,
                "p50": self.latency.quantile(0.50),
                "p99": self.latency.quantile(0.99),
                "mean": self.latency.mean(),
            } if self.latency.count else None,
            "per_kind": per_kind,
            "violations": list(self.violations),
            "runs": [dict(seed=seed, **outcome.to_json())
                     for seed, outcome in self.outcomes],
            "elapsed_s": self.elapsed_s,
        }

    def render(self) -> str:
        """Human-readable campaign summary."""
        lines = [f"chaos campaign: {self.seeds} seed(s) x "
                 f"{len(self.kinds)} fault kind(s) = {self.faults} "
                 f"injections in {self.elapsed_s:.1f}s",
                 f"  detected : {self.detected}/{self.faults} "
                 f"({self.detection_rate:.0%})",
                 f"  recovered: {self.recovered}/{self.resumable} "
                 f"resumable ({self.recovery_rate:.0%})"]
        if self.latency.count:
            lines.append(
                f"  recovery latency: p50 "
                f"{self.latency.quantile(0.5) * 1e3:.1f}ms, p99 "
                f"{self.latency.quantile(0.99) * 1e3:.1f}ms "
                f"({self.latency.count} samples)")
        per_kind = self.to_json()["per_kind"]
        width = max(len(k) for k in per_kind) if per_kind else 0
        for kind in sorted(per_kind):
            row = per_kind[kind]
            recovery = (f"{row['recovered']}/{row['runs']} recovered"
                        if row["resumable"] else "detection-only")
            lines.append(f"    {kind:<{width}}  "
                         f"{row['detected']}/{row['runs']} detected, "
                         f"{recovery}")
        for violation in self.violations:
            lines.append(f"  VIOLATION seed={violation['seed']} "
                         f"{violation['kind']}: {violation['message']}")
        if self.clean:
            lines.append("  every documented recovery invariant held")
        return "\n".join(lines)


def run_campaign(seeds: int = 20,
                 kinds: Optional[Sequence[str]] = None,
                 workdir: Optional[Union[str, Path]] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 ) -> CampaignReport:
    """Run a full chaos campaign; never raises on broken invariants.

    ``seeds`` campaign seeds (0..seeds-1) each expand into one
    deterministic :class:`ChaosPlan` over ``kinds`` (default: all of
    :data:`FAULT_KINDS`).  Each experiment runs in its own directory
    under ``workdir`` (default: a temporary directory, removed
    afterwards).  ``progress`` receives one line per seed.

    Harness misconfiguration raises :class:`~repro.errors.ChaosError`;
    broken *invariants* (any other :class:`~repro.errors.ReproError`
    escaping an experiment) are collected into the report instead — a
    campaign that dies on its first finding cannot surface the second.
    """
    if not isinstance(seeds, int) or seeds < 1:
        raise ChaosError(f"seeds must be a positive int, got {seeds!r}")
    chosen = tuple(kinds) if kinds is not None else FAULT_KINDS
    report = CampaignReport(seeds=seeds, kinds=chosen)
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        root = Path(workdir) if workdir is not None else Path(scratch)
        for seed in range(seeds):
            plan = ChaosPlan.generate(seed, chosen)
            for fault in plan.faults:
                subdir = root / f"seed{seed:03d}" / fault.kind
                subdir.mkdir(parents=True, exist_ok=True)
                try:
                    outcome = EXPERIMENTS[fault.kind](fault, subdir)
                except ReproError as exc:
                    if type(exc) is ChaosError:  # the harness, not a finding
                        raise
                    report.violations.append({
                        "seed": seed, "kind": fault.kind,
                        "message": str(exc)})
                    outcome = ExperimentOutcome(
                        kind=fault.kind, detected=False,
                        recovered=False if RESUMABLE[fault.kind] else None,
                        resumable=RESUMABLE[fault.kind],
                        detail=f"INVARIANT VIOLATION: {exc}",
                        recovery_seconds=None)
                report.outcomes.append((seed, outcome))
                if outcome.recovery_seconds is not None:
                    report.latency.observe(outcome.recovery_seconds)
            if progress is not None:
                done = sum(1 for s, _ in report.outcomes if s == seed)
                progress(f"seed {seed}: {done} fault(s) injected, "
                         f"{len(report.violations)} violation(s) so far")
    report.elapsed_s = time.monotonic() - started
    return report
