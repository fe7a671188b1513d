"""Safety journal: guard events, mode transitions, and the episode report.

Everything the supervisor does to (or observes about) the wrapped
controller is journaled here as plain dataclasses with JSON-able fields,
so the record survives the trip through the CLI, the robustness report,
and the sweep-manifest payload codec unchanged.  The log is append-only
during an episode; the :class:`SafetyReport` built from it at episode end
is what :class:`repro.sim.results.EpisodeResult` exposes.

Event storage is bounded (a pathological drive could otherwise journal an
event per step for thousands of steps); when the cap is hit, further
events are counted in :attr:`SafetyReport.events_dropped` rather than
silently discarded — the report always says what it is missing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class GuardEvent:
    """One supervisor intervention on a single step."""

    step: int
    """Episode step index the event occurred at."""

    time: float
    """Episode time, s."""

    kind: str
    """What tripped the guard: ``"nonfinite_action"``, ``"current_limit"``,
    ``"gear_range"``, ``"aux_limit"``, ``"soc_window"``,
    ``"degraded_clamp"``, ``"controller_error"``, or
    ``"fallback_engaged"``."""

    detail: str
    """Human-readable description of the violation and the substitution."""

    action_before: Optional[dict] = None
    """The proposed ``{"current", "gear", "aux_power"}`` (None when the
    controller raised instead of proposing)."""

    action_after: Optional[dict] = None
    """The substituted action actually executed (None for pure
    observations such as ``controller_error``)."""


@dataclass(frozen=True)
class ModeTransition:
    """One health-state-machine transition."""

    step: int
    """Episode step index the transition occurred at."""

    time: float
    """Episode time, s."""

    source: str
    """Mode left (``"NOMINAL"``, ``"DEGRADED"``, ``"LIMP_HOME"``)."""

    target: str
    """Mode entered (``"DEGRADED"``, ``"LIMP_HOME"``, ``"HALT"``, or back
    toward ``"NOMINAL"`` on hysteresis recovery)."""

    reason: str
    """The alarm (or recovery condition) that drove the transition."""


@dataclass
class SafetyReport:
    """Episode-level summary of the supervisor's activity."""

    modes: np.ndarray
    """Per-step health mode id (the mode each step was decided in):
    0 = NOMINAL, 1 = DEGRADED, 2 = LIMP_HOME, 3 = HALT."""

    events: List[GuardEvent]
    """Journaled guard events (bounded; see :attr:`events_dropped`)."""

    transitions: List[ModeTransition]
    """Every mode transition, in order (never capped)."""

    interventions: int
    """Steps on which the supervisor substituted or clamped the action."""

    steps: int
    """Steps the supervisor mediated this episode."""

    final_mode: str
    """Health mode at episode end (or at the halt)."""

    halted: bool
    """True when the episode ended in a :class:`SafetyHaltError`."""

    events_dropped: int = 0
    """Guard events that occurred beyond the journal cap (counted, not
    stored)."""

    MODE_NAMES = ("NOMINAL", "DEGRADED", "LIMP_HOME", "HALT")

    def time_in_mode(self) -> Dict[str, int]:
        """Steps spent in each mode, keyed by mode name (all modes listed,
        zeros included, so downstream tables have stable columns)."""
        counts = {name: 0 for name in self.MODE_NAMES}
        ids, tallies = np.unique(self.modes, return_counts=True)
        for mode_id, tally in zip(ids, tallies):
            if 0 <= int(mode_id) < len(self.MODE_NAMES):
                counts[self.MODE_NAMES[int(mode_id)]] = int(tally)
        return counts

    @property
    def intervention_rate(self) -> float:
        """Fraction of mediated steps the guard intervened on."""
        return self.interventions / self.steps if self.steps > 0 else 0.0

    def render(self) -> str:
        """Human-readable journal (what ``repro evaluate --guard`` prints)."""
        lines = [
            f"safety report: {self.steps} steps mediated, "
            f"{self.interventions} intervention(s) "
            f"({self.intervention_rate:.1%}), final mode {self.final_mode}"
            + (" [HALTED]" if self.halted else ""),
            "time in mode: " + ", ".join(
                f"{name}={steps}" for name, steps in
                self.time_in_mode().items()),
        ]
        if self.transitions:
            lines.append("transitions:")
            for tr in self.transitions:
                lines.append(f"  step {tr.step:5d} (t={tr.time:7.1f}s)  "
                             f"{tr.source} -> {tr.target}: {tr.reason}")
        else:
            lines.append("transitions: none (stayed NOMINAL)")
        if self.events:
            lines.append(f"guard events ({len(self.events)} journaled"
                         + (f", {self.events_dropped} beyond cap"
                            if self.events_dropped else "") + "):")
            for ev in self.events:
                lines.append(f"  step {ev.step:5d} (t={ev.time:7.1f}s)  "
                             f"[{ev.kind}] {ev.detail}")
        else:
            lines.append("guard events: none")
        return "\n".join(lines)


class SafetyLog:
    """Append-only episode journal the supervisor writes into."""

    def __init__(self, max_events: int = 256):
        if max_events < 1:
            raise ConfigurationError("need room for at least one event")
        self._max_events = max_events
        self.reset()

    def reset(self) -> None:
        """Start a fresh episode journal."""
        self._events: List[GuardEvent] = []
        self._transitions: List[ModeTransition] = []
        self._modes: List[int] = []
        self._interventions = 0
        self._dropped = 0
        self._halted = False

    @property
    def interventions(self) -> int:
        """Interventions journaled so far this episode."""
        return self._interventions

    def record_mode(self, mode_id: int) -> None:
        """Journal the health mode one step was decided in."""
        self._modes.append(int(mode_id))

    def record_event(self, event: GuardEvent,
                     intervention: bool = True) -> None:
        """Journal one guard event (bounded storage, honest counting)."""
        if intervention:
            self._interventions += 1
        if len(self._events) < self._max_events:
            self._events.append(event)
        else:
            self._dropped += 1

    def record_transition(self, transition: ModeTransition) -> None:
        """Journal one state-machine transition (never capped)."""
        self._transitions.append(transition)

    def record_halt(self) -> None:
        """Mark the episode as ended by a safety halt."""
        self._halted = True

    def report(self, final_mode: str) -> SafetyReport:
        """Freeze the journal into an episode report."""
        return SafetyReport(
            modes=np.asarray(self._modes, dtype=np.int8),
            events=list(self._events),
            transitions=list(self._transitions),
            interventions=self._interventions,
            steps=len(self._modes),
            final_mode=final_mode,
            halted=self._halted,
            events_dropped=self._dropped)
