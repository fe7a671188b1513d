"""Aggregate a telemetry event file (or sweep manifest) into a run summary.

This is the read side of the observability layer — the ``repro telemetry
report`` subcommand.  Two input kinds are recognised by their header
line:

* a **telemetry event file** (header ``type == "telemetry"``) — the
  summary covers spans by name (count + p50/p99 duration), episodes,
  guard interventions, health transitions, supervised task outcomes
  (attempts, retries, latency), bridged log records, and the final
  metrics snapshot;
* a **sweep manifest** (header ``type == "manifest"``,
  :mod:`repro.exec.manifest`) — the summary covers per-task wall-clock
  latency and attempt counts from the journaled result lines, so
  supervisor latency can be studied from manifests that already exist.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro import journal
from repro.errors import TelemetryError
from repro.telemetry.events import read_events


def _percentiles(values: List[float]) -> Dict[str, float]:
    arr = np.asarray(values, dtype=float)
    return {"p50": float(np.percentile(arr, 50)),
            "p99": float(np.percentile(arr, 99)),
            "max": float(arr.max()), "total": float(arr.sum())}


@dataclass
class EventFileSummary:
    """Aggregates of one telemetry event file."""

    path: str
    run_id: str
    events: int = 0
    counts_by_type: Dict[str, int] = field(default_factory=dict)
    span_durations: Dict[str, List[float]] = field(default_factory=dict)
    episodes: int = 0
    episode_steps: int = 0
    episode_rewards: List[float] = field(default_factory=list)
    episode_final_socs: List[float] = field(default_factory=list)
    guard_kinds: Dict[str, int] = field(default_factory=dict)
    transitions: List[dict] = field(default_factory=list)
    task_outcomes: Dict[str, int] = field(default_factory=dict)
    task_attempts: int = 0
    task_retries: int = 0
    task_elapsed: List[float] = field(default_factory=list)
    log_levels: Dict[str, int] = field(default_factory=dict)
    metrics: Optional[dict] = None

    def render(self) -> str:
        """Human-readable run summary."""
        lines = [f"telemetry report: {self.path}",
                 f"run {self.run_id}: {self.events} event(s)",
                 "events by type: " + (", ".join(
                     f"{k}={v}" for k, v in
                     sorted(self.counts_by_type.items())) or "none")]
        if self.span_durations:
            lines.append("")
            lines.append(f"{'span':24s} {'count':>6s} {'total s':>9s} "
                         f"{'p50 ms':>9s} {'p99 ms':>9s}")
            for name in sorted(self.span_durations):
                stats = _percentiles(self.span_durations[name])
                lines.append(
                    f"{name:24s} {len(self.span_durations[name]):6d} "
                    f"{stats['total']:9.3f} {1e3 * stats['p50']:9.2f} "
                    f"{1e3 * stats['p99']:9.2f}")
        if self.episodes:
            lines.append("")
            lines.append(
                f"episodes: {self.episodes} ({self.episode_steps} steps); "
                f"mean reward {np.mean(self.episode_rewards):.2f}, "
                f"mean final SoC {np.mean(self.episode_final_socs):.3f}")
        if self.guard_kinds:
            lines.append("")
            total = sum(self.guard_kinds.values())
            lines.append(f"guard interventions: {total}")
            for kind, count in sorted(self.guard_kinds.items()):
                lines.append(f"  {kind}: {count}")
        if self.transitions:
            lines.append("")
            lines.append(f"health transitions: {len(self.transitions)}")
            for tr in self.transitions:
                lines.append(
                    f"  step {tr['step']:5d} (t={tr['time']:7.1f}s)  "
                    f"{tr['source']} -> {tr['target']}: {tr['reason']}")
        if self.task_outcomes:
            lines.append("")
            done = sum(self.task_outcomes.values())
            outcome_text = ", ".join(
                f"{k}={v}" for k, v in sorted(self.task_outcomes.items()))
            lines.append(
                f"supervised tasks: {done} ({outcome_text}); "
                f"{self.task_attempts} attempt(s), "
                f"{self.task_retries} retried")
            if self.task_elapsed:
                stats = _percentiles(self.task_elapsed)
                lines.append(
                    f"  task latency: p50 {stats['p50']:.3f}s, "
                    f"p99 {stats['p99']:.3f}s, max {stats['max']:.3f}s")
        if self.log_levels:
            lines.append("")
            lines.append("bridged log records: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.log_levels.items())))
        if self.metrics:
            lines.append("")
            lines.append("final metrics snapshot:")
            for name in sorted(self.metrics):
                snap = self.metrics[name]
                kind = snap.get("kind")
                if kind == "histogram":
                    detail = (f"count={snap['count']}")
                    if snap.get("p50") is not None:
                        detail += (f" p50={snap['p50']:.6g} "
                                   f"p99={snap['p99']:.6g}")
                else:
                    detail = f"{snap.get('value')}"
                lines.append(f"  {name:32s} {kind:9s} {detail}")
        return "\n".join(lines)


def summarize_events(path: Union[str, Path]) -> EventFileSummary:
    """Aggregate one telemetry event file (validates every record)."""
    path = Path(path)
    records = read_events(path)
    header = records[0]
    summary = EventFileSummary(path=str(path),
                               run_id=str(header.get("run_id", "")))
    counts: TallyCounter = TallyCounter()
    spans = defaultdict(list)
    for record in records:
        kind = record["type"]
        counts[kind] += 1
        summary.events += 1
        if kind == "span":
            spans[record["name"]].append(float(record["duration"]))
        elif kind == "episode":
            summary.episodes += 1
            summary.episode_steps += int(record["steps"])
            summary.episode_rewards.append(float(record["total_reward"]))
            summary.episode_final_socs.append(float(record["final_soc"]))
        elif kind == "guard_intervention":
            summary.guard_kinds[record["kind"]] = \
                summary.guard_kinds.get(record["kind"], 0) + 1
        elif kind == "health_transition":
            summary.transitions.append(record)
        elif kind == "task":
            outcome = record["outcome"]
            summary.task_outcomes[outcome] = \
                summary.task_outcomes.get(outcome, 0) + 1
            summary.task_attempts += int(record["attempts"])
            summary.task_retries += max(int(record["attempts"]) - 1, 0)
            summary.task_elapsed.append(float(record["elapsed"]))
        elif kind == "log":
            summary.log_levels[record["level"]] = \
                summary.log_levels.get(record["level"], 0) + 1
        elif kind == "metrics_snapshot":
            summary.metrics = record["metrics"]
    summary.counts_by_type = dict(counts)
    summary.span_durations = dict(spans)
    return summary


@dataclass
class ManifestSummary:
    """Supervisor latency/attempt aggregates of one sweep manifest."""

    path: str
    results: int = 0
    ok: int = 0
    quarantined: int = 0
    attempts: int = 0
    retries: int = 0
    elapsed: List[float] = field(default_factory=list)
    slowest: List[tuple] = field(default_factory=list)

    def render(self) -> str:
        """Human-readable latency summary."""
        lines = [f"manifest report: {self.path}",
                 f"results: {self.results} "
                 f"(ok={self.ok}, quarantined={self.quarantined}); "
                 f"{self.attempts} attempt(s), {self.retries} retried"]
        if self.elapsed:
            stats = _percentiles(self.elapsed)
            lines.append(
                f"task latency: p50 {stats['p50']:.3f}s, "
                f"p99 {stats['p99']:.3f}s, max {stats['max']:.3f}s, "
                f"total {stats['total']:.3f}s")
        if self.slowest:
            lines.append("slowest tasks:")
            for key, elapsed in self.slowest:
                lines.append(f"  {elapsed:8.3f}s  {key}")
        return "\n".join(lines)


SLOWEST_TASKS = 5
"""Slowest tasks a manifest summary lists."""


def summarize_manifest(path: Union[str, Path]) -> ManifestSummary:
    """Aggregate one sweep manifest's per-task latency and attempts.

    Reads the raw JSONL records (payloads are *not* decoded — latency
    analysis must not require the payload classes).  Success lines have
    always journaled ``attempts``/``elapsed``; quarantined lines gained
    top-level copies in manifest v1.1 and older files fall back to the
    fields inside the failure record.
    """
    path = Path(path)
    summary = ManifestSummary(path=str(path))
    timed = []
    for record in journal.read(path, "manifest", TelemetryError).records:
        if record.get("type") != "result":
            continue
        summary.results += 1
        status = record.get("status")
        if status == "ok":
            summary.ok += 1
        elif status == "quarantined":
            summary.quarantined += 1
        failure = record.get("failure") or {}
        attempts = record.get("attempts", failure.get("attempts"))
        elapsed = record.get("elapsed", failure.get("elapsed"))
        if isinstance(attempts, int):
            summary.attempts += attempts
            summary.retries += max(attempts - 1, 0)
        if isinstance(elapsed, (int, float)) and not isinstance(elapsed,
                                                                bool):
            summary.elapsed.append(float(elapsed))
            timed.append((str(record.get("key", "")), float(elapsed)))
    timed.sort(key=lambda pair: pair[1], reverse=True)
    summary.slowest = timed[:SLOWEST_TASKS]
    return summary


def summarize(path: Union[str, Path]) -> str:
    """Render the right summary for ``path`` (event file or manifest)."""
    header = journal.header(path, TelemetryError) or {}
    kind = header.get("type")
    if kind == "telemetry":
        return summarize_events(path).render()
    if kind == "manifest":
        return summarize_manifest(path).render()
    raise TelemetryError(
        f"{path}: not a telemetry event file or sweep manifest "
        f"(header type {kind!r})")
