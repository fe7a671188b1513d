"""Versioned JSONL event sink: schema-validated, crash-tolerant appends.

One telemetry file is one run's event stream: a header line followed by
one JSON object per event, in emission order.  The file is a
:mod:`repro.journal` journal, so it shares the sweep manifest's
crash-safety contract; the telemetry policy (a read-only reader skips a
torn final line, an appender amputates it, corruption anywhere else
raises :class:`~repro.errors.TelemetryError`) is tabulated in
``docs/ROBUSTNESS.md``, "Crash-safe journals".

Every record carries the base fields ``type`` (str), ``v`` (the schema
version), ``seq`` (per-process emission counter), ``wall`` (unix time),
and ``pid`` (emitting process — forked workers share the sink fd, so one
file can interleave several processes' events).  Each event type then
declares required typed fields in :data:`EVENT_SCHEMAS`; emission and
reading both validate, so a consumer can rely on the declared shape.

Each event is one ``os.write`` on an ``O_APPEND`` descriptor: on POSIX
this makes each line one atomic append, which is what lets forked
supervisor workers write into the parent's sink without tearing each
other's records mid-line.  A failed append raises
:class:`~repro.errors.TelemetryError` and leaves every earlier line
intact.
"""

from __future__ import annotations

import json
import math
import os
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro import journal
from repro.errors import TelemetryError

SCHEMA_VERSION = 1
"""Current event-file schema version (first header field checked)."""

_NUMBER = (int, float)

BASE_FIELDS: Dict[str, Any] = {"type": str, "v": int, "seq": int,
                               "wall": _NUMBER, "pid": int}
"""Fields required on every record."""

EVENT_SCHEMAS: Dict[str, Dict[str, Any]] = {
    # the file header (always the first line)
    "telemetry": {"run_id": str, "created_unix": _NUMBER},
    # one finished tracer span
    "span": {"name": str, "trace_id": str, "span_id": str,
             "duration": _NUMBER, "attributes": dict},
    # sampled simulator step
    "step": {"t": int, "speed": _NUMBER, "soc": _NUMBER,
             "reward": _NUMBER, "current": _NUMBER},
    # one finished simulator episode
    "episode": {"cycle": str, "steps": int, "initial_soc": _NUMBER,
                "total_reward": _NUMBER, "total_fuel_g": _NUMBER,
                "final_soc": _NUMBER, "total_shortfall": _NUMBER},
    # one training-loop episode (index within the run)
    "training_episode": {"episode": int, "total_reward": _NUMBER,
                         "final_soc": _NUMBER},
    # safety supervisor: guard intervened on (or observed) one step
    "guard_intervention": {"step": int, "time": _NUMBER, "kind": str,
                           "detail": str},
    # safety supervisor: health state machine moved
    "health_transition": {"step": int, "time": _NUMBER, "source": str,
                          "target": str, "reason": str},
    # supervised executor: one task reached a terminal outcome
    "task": {"key": str, "outcome": str, "attempts": int,
             "elapsed": _NUMBER},
    # logging bridge: one WARNING+ log record
    "log": {"level": str, "logger": str, "message": str},
    # final metrics registry snapshot (emitted on Telemetry.close)
    "metrics_snapshot": {"metrics": dict},
    # policy server: a candidate policy was activated (or refused)
    "serve_swap": {"from_version": int, "to_version": int,
                   "activated": str, "reason": str},
    # policy server: a canary candidate was rolled back
    "serve_rollback": {"version": int, "reason": str, "decisions": int},
    # online learner: one ingest pass over the experience journals
    "learn_ingest": {"journals": int, "records": int, "quarantined": int,
                     "excluded": int},
    # online loop: one guarded promotion attempt concluded
    "learn_promotion": {"version": int, "outcome": str, "reason": str},
}
"""Required typed fields per event type (extra fields are allowed)."""


def _type_name(expected: Any) -> str:
    if expected is _NUMBER or expected == _NUMBER:
        return "number"
    return expected.__name__


def validate_event(record: Mapping[str, Any]) -> None:
    """Raise :class:`TelemetryError` unless ``record`` conforms.

    Checks the base fields, that the type is declared, and every
    declared field's presence and runtime type (bool never satisfies a
    numeric field — JSON trues are not counts)."""
    if not isinstance(record, Mapping):
        raise TelemetryError(
            f"telemetry records must be objects, got "
            f"{type(record).__name__}")
    kind = record.get("type")
    if not isinstance(kind, str) or kind not in EVENT_SCHEMAS:
        raise TelemetryError(f"unknown telemetry event type {kind!r}")
    if record.get("v") != SCHEMA_VERSION:
        raise TelemetryError(
            f"telemetry record carries schema version {record.get('v')!r}; "
            f"this reader understands {SCHEMA_VERSION}")
    required = dict(BASE_FIELDS)
    required.update(EVENT_SCHEMAS[kind])
    for field, expected in required.items():
        if field not in record:
            raise TelemetryError(
                f"{kind!r} event is missing required field {field!r}")
        value = record[field]
        if isinstance(value, bool) or not isinstance(value, expected):
            raise TelemetryError(
                f"{kind!r} event field {field!r} must be "
                f"{_type_name(expected)}, got {type(value).__name__}")


class EventSink:
    """Append-only, schema-validated JSONL event writer.

    A fresh path gets a header line; an existing file is refused unless
    ``append=True`` (an event stream is never silently overwritten), in
    which case a torn final line is amputated, every existing record is
    validated (a corrupt one is refused, as :func:`read_events` does)
    and the header's run id adopted.
    """

    def __init__(self, path: Union[str, Path], run_id: Optional[str] = None,
                 append: bool = False):
        self.path = Path(path)
        exists = self.path.exists()
        if exists and not append:
            raise TelemetryError(
                f"telemetry file {self.path} already exists; pass "
                "append=True to continue it, or choose a fresh path")
        if not exists and append:
            raise TelemetryError(
                f"cannot append: telemetry file {self.path} does not exist")
        self._seq = 0
        if exists:
            header = _validated(self.path, amputate=True)[0]
            self.run_id = str(header.get("run_id", ""))
        else:
            self.run_id = run_id or uuid.uuid4().hex[:12]
            header = self._record("telemetry", run_id=self.run_id,
                                  created_unix=time.time())
            self._seq = 1
        self._journal = journal.JournalWriter(self.path, header, "telemetry",
                                              TelemetryError)
        self._journal.open()

    def _record(self, type_: str, **fields: Any) -> dict:
        record = {"type": type_, "v": SCHEMA_VERSION, "seq": self._seq,
                  "wall": time.time(), "pid": os.getpid()}
        record.update(fields)
        validate_event(record)
        return record

    def emit(self, type_: str, **fields: Any) -> dict:
        """Validate and append one event; returns the full record."""
        if self._journal.closed:
            raise TelemetryError(
                f"telemetry sink {self.path} is closed")
        record = self._record(type_, **fields)
        self._journal.append(json.dumps(record, sort_keys=True))
        self._seq += 1
        return record

    def close(self) -> None:
        """Release the descriptor (idempotent)."""
        self._journal.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._journal.closed

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _validate_line(path: Path, lineno: int, record: Mapping[str, Any]) -> None:
    try:
        validate_event(record)
    except TelemetryError as exc:
        raise TelemetryError(f"{path}:{lineno}: {exc}") from exc


def _validated(path: Path, amputate: bool = False) -> List[dict]:
    """Every record of one telemetry journal, header first, validated."""
    read = journal.read(path, "telemetry", TelemetryError,
                        amputate=amputate)
    kind = read.header.get("type") if read.header else None
    if kind != "telemetry":
        raise TelemetryError(f"{path}:1: first record must be the "
                             f"'telemetry' header, got {kind!r}")
    records = [read.header] + read.records
    for lineno, record in enumerate(records, start=1):
        _validate_line(path, lineno, record)
    return records


def read_events(path: Union[str, Path]) -> List[dict]:
    """Load and validate every event of one telemetry file.

    Returns the records in file order, header included.  A torn final
    line warns and is skipped, the file left as it is (crash
    tolerance); any other malformation — a corrupt line, an unknown
    event type, a missing or mistyped field, a version mismatch —
    raises :class:`~repro.errors.TelemetryError`."""
    return _validated(Path(path))
