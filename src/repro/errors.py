"""Structured exception hierarchy for the public API surface.

Every error the library raises at an API boundary derives from
:class:`ReproError`, so callers (the CLI, the robustness harness, batch
sweeps) can catch one base class and report a clean message instead of a
traceback.  Classes that replace historical ad-hoc ``ValueError`` raises
also inherit :class:`ValueError`, so ``except ValueError`` call sites keep
working through the migration.

The ``scripts/check_no_bare_raise.py`` lint pins the migration: modules
declared as API boundaries there may only raise classes from this module.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every structured error raised by :mod:`repro`."""


class ConfigurationError(ReproError, ValueError):
    """An argument, parameter set, or configuration is invalid.

    Raised at construction/call time, before any simulation work happens
    (mis-shaped action batches, non-positive time steps, out-of-range
    fractions, empty batches, ...).
    """


class InfeasibleActionError(ReproError, ValueError):
    """A commanded action cannot be executed even by the fallback machinery.

    The solver normally *reports* infeasibility instead of raising; this
    error marks the rare configurations with no executable action at all
    (e.g. an auxiliary power cap below the safety-critical floor).
    """


class CycleError(ReproError, ValueError):
    """A drive cycle is malformed (bad trace shape, negative speeds,
    non-positive sample period, unreadable cycle file)."""


class CycleLookupError(CycleError, KeyError):
    """A cycle name does not match any built-in cycle.

    Also a :class:`KeyError` for callers that treat the built-in registry
    as a mapping, while the CLI catches it as a :class:`ReproError` and
    reports one clean line instead of a traceback.
    """

    def __str__(self) -> str:
        # KeyError.__str__ repr()s the message; report it verbatim.
        return str(self.args[0]) if self.args else ""


class CheckpointError(ReproError, ValueError):
    """A policy or training checkpoint cannot be saved, loaded, or resumed
    (missing files, fingerprint mismatch, incompatible table shapes)."""


class NumericalError(ReproError, ArithmeticError):
    """The numerical watchdog tripped: a simulated quantity went
    non-finite (NaN/Inf), which would silently poison every downstream
    trace and Q-value if allowed to propagate."""


class FaultScenarioError(ReproError, ValueError):
    """A fault scenario is malformed (unknown fault kind, bad schedule
    bounds, unparseable scenario JSON)."""


class ExecutionError(ReproError, RuntimeError):
    """The supervised executor cannot run at all (worker isolation
    unavailable on this platform, duplicate task keys, a sweep whose
    every task was quarantined).

    Per-task failures never raise this — they are captured as
    :class:`repro.exec.TaskFailure` records instead."""


class ManifestError(ReproError, ValueError):
    """A sweep manifest cannot be read or reused (missing file, corrupt
    non-final record, unknown payload type, incompatible version)."""


class PersistenceError(CheckpointError):
    """A persisted policy or checkpoint file failed its integrity check
    (SHA-256 digest mismatch, truncated file, unreadable header).

    Subclasses :class:`CheckpointError`, so existing ``except
    CheckpointError`` call sites keep working; the narrower class marks
    on-disk corruption as opposed to configuration mismatches."""


class ServeError(ReproError, ValueError):
    """The policy service is misconfigured or asked for something it does
    not have (unknown registry version, a canary fraction outside (0, 1],
    serving before any policy was activated).

    Artifact *corruption* never raises this — a corrupt or truncated
    policy artifact surfaces as :class:`PersistenceError`, exactly like
    the training-side persistence layer, and the server degrades instead
    of crashing (see ``docs/SERVING.md``)."""


class ExperienceError(ReproError, ValueError):
    """An experience record or journal violates the online-learning
    contract (malformed or non-finite record fields, an unwritable
    journal shard, a cursor whose content hash no longer matches the
    journal it was taken from).

    Record-level *corruption inside a journal* never aborts ingestion —
    the learner quarantines the bad line, counts it honestly, and keeps
    consuming (see ``docs/ONLINE_LEARNING.md``); this error marks the
    codec/API boundary where a single record or cursor is rejected."""


class TelemetryError(ReproError, ValueError):
    """The telemetry layer cannot record or read observability data (an
    event violating the declared schema, a corrupt event file, a metric
    re-registered under a different type, an unbalanced span stack).

    Telemetry failures never abort the instrumented workload silently —
    they are structured errors at the observability API boundary."""


class ChaosError(ReproError, ValueError):
    """The chaos harness is misconfigured or cannot run (unknown fault
    kind, empty campaign, overlapping filesystem-shim installation).

    Fault *injections themselves* never raise this — the injected
    failures surface through the layer under attack as the structured
    error that layer documents (:class:`ManifestError`,
    :class:`PersistenceError`, :class:`TelemetryError`, ...)."""


class InvariantViolation(ChaosError):
    """A chaos experiment caught the stack breaking a documented recovery
    guarantee: a fault went undetected, a resume was not bit-identical,
    or coverage accounting lied.

    This is the chaos harness's *finding*, not its failure — the
    campaign records it and keeps going so one broken invariant cannot
    hide another."""


class SafetyHaltError(ReproError, RuntimeError):
    """The runtime safety supervisor reached HALT and stopped the episode.

    Raised by :class:`repro.safety.SafetySupervisor` when a fatal health
    alarm fires (e.g. a non-finite Q-table) or the escalation chain is
    exhausted.  Carries the step index, the triggering reason, and the
    safety report accumulated up to the halt."""

    def __init__(self, message: str, step: int = -1, reason: str = "",
                 report=None):
        super().__init__(message)
        self.step = int(step)
        """Episode step at which the supervisor halted (-1 if unknown)."""
        self.reason = reason
        """The alarm or condition that forced the halt."""
        self.report = report
        """The :class:`repro.safety.SafetyReport` up to the halt (or None)."""
