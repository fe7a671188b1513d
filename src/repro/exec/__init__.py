"""Supervised parallel execution: isolated workers, retries, resumable sweeps.

The subsystem that makes every sweep in the repository survivable,
parallel, and resumable:

* :mod:`repro.exec.task` — :class:`Task` (work + JSON-able spec for
  content hashing) and :class:`TaskFailure` (structured failure record:
  exception class, traceback, attempt count, failure kind).
* :mod:`repro.exec.supervisor` — the :class:`Supervisor`: fans tasks out
  to forked worker processes with per-task wall-clock timeouts, bounded
  retry with exponential backoff + deterministic jitter, a quarantine
  list for tasks that exhaust their retries, and graceful degradation —
  the sweep completes and the
  :class:`SweepResult` reports coverage honestly.  Serial in-process
  mode (the default) is bit-identical to a plain for-loop.
* :mod:`repro.exec.manifest` — :class:`SweepManifest`, the append-only
  JSONL journal keyed by task-spec content hash; a killed sweep
  re-launched against its manifest skips finished work and reproduces
  the uninterrupted aggregates exactly.

The batch runner (:func:`repro.sim.run_batch`), the robustness grid
(:func:`repro.sim.run_robustness`), and the CLI ``sweep`` subcommand all
execute through this layer.  See ``docs/ROBUSTNESS.md``.
"""

from repro.exec.task import Task, TaskFailure, spec_hash
from repro.exec.manifest import (
    SweepManifest,
    decode_payload,
    encode_payload,
)
from repro.exec.supervisor import Supervisor, SweepResult

__all__ = [
    "Task",
    "TaskFailure",
    "spec_hash",
    "SweepManifest",
    "encode_payload",
    "decode_payload",
    "Supervisor",
    "SweepResult",
]
