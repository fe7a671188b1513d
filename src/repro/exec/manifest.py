"""Append-only JSONL sweep manifests: journal, resume, payload codec.

A manifest makes a sweep *resumable*: every completed task is appended as
one JSON line keyed by the content hash of its task spec, payload
included.  Re-launching the sweep with the same manifest skips finished
tasks and replays their recorded payloads, so the aggregates of an
interrupted-and-resumed sweep are identical to an uninterrupted run.

File format (one JSON object per line):

* header — ``{"type": "manifest", "version": 1, "created_unix": ...}``
* success — ``{"type": "result", "status": "ok", "key": ..., "hash": ...,
  "spec": {...}, "attempts": n, "elapsed": s, "completed_unix": ...,
  "payload": <encoded>}``
* quarantine — ``{"type": "result", "status": "quarantined", "key": ...,
  "hash": ..., "spec": {...}, "attempts": n, "elapsed": s,
  "completed_unix": ..., "failure": {...}}``

Every result line journals its wall-clock cost at the top level
(``attempts``, ``elapsed``, ``completed_unix``), so ``repro telemetry
report <manifest>`` can summarise supervisor latency from manifests
alone — no payload decoding, no event file.  (Older files lacked the
top-level copies on quarantined lines; readers fall back to the same
fields inside ``failure``.)

Quarantined records are journaled for the post-mortem but are **not**
skipped on resume — a failed task is not finished work, so the re-launch
tries it again.  The file is a :mod:`repro.journal` journal under the
manifest policy: every record is fsynced, a torn final line is amputated
on resume (warned about; its task simply re-runs), and any other
corruption raises :class:`repro.errors.ManifestError` rather than ever
resuming silently wrong — unparseable JSON on any complete line, or a
parseable record missing its hash/payload/failure fields.  An append
failure (ENOSPC, injected by the chaos harness through
:mod:`repro.fsio`) surfaces as a ``ManifestError`` naming the journal.

Payload encoding is JSON with tagged extensions — numpy arrays and a
small allow-list of repro dataclasses round-trip exactly (floats via
``repr``, so resumed aggregates are bit-identical):

* ``{"__ndarray__": {"dtype": ..., "shape": ..., "data": ...}}``
* ``{"__tuple__": [...]}``
* ``{"__dataclass__": "module:Class", "fields": {...}}``

Decoding instantiates only classes on the allow-list
(:data:`PAYLOAD_TYPES`) — a manifest is data, not code.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

from repro import journal
from repro.errors import ManifestError
from repro.exec.task import Task, TaskFailure

MANIFEST_VERSION = 1
"""Current manifest format version (checked on resume)."""

PAYLOAD_TYPES = {
    "repro.sim.results:EpisodeResult",
    "repro.sim.robustness:RobustnessRow",
    "repro.exec.task:TaskFailure",
    "repro.safety.events:GuardEvent",
    "repro.safety.events:ModeTransition",
    "repro.safety.events:SafetyReport",
}
"""``module:Class`` names the payload decoder may instantiate."""


def encode_payload(value: Any) -> Any:
    """Encode a task result into JSON-serialisable form (see module doc)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if not np.isfinite(value):
            # JSON has no Infinity/NaN; tag them so decode is exact.
            return {"__float__": repr(value)}
        return value
    if isinstance(value, np.generic):
        return encode_payload(value.item())
    if isinstance(value, np.ndarray):
        return {"__ndarray__": {"dtype": str(value.dtype),
                                "shape": list(value.shape),
                                "data": value.tolist()}}
    if isinstance(value, tuple):
        return {"__tuple__": [encode_payload(v) for v in value]}
    if isinstance(value, list):
        return [encode_payload(v) for v in value]
    if isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            raise ManifestError("payload dicts must have string keys")
        return {k: encode_payload(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = f"{type(value).__module__}:{type(value).__qualname__}"
        if name not in PAYLOAD_TYPES:
            raise ManifestError(
                f"payload type {name} is not in PAYLOAD_TYPES")
        fields = {f.name: encode_payload(getattr(value, f.name))
                  for f in dataclasses.fields(value)}
        return {"__dataclass__": name, "fields": fields}
    raise ManifestError(
        f"cannot encode payload of type {type(value).__name__}")


def decode_payload(value: Any) -> Any:
    """Inverse of :func:`encode_payload`."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [decode_payload(v) for v in value]
    if isinstance(value, dict):
        if "__float__" in value:
            return float(value["__float__"])
        if "__ndarray__" in value:
            spec = value["__ndarray__"]
            arr = np.asarray(spec["data"],
                             dtype=np.dtype(spec["dtype"]))
            return arr.reshape([int(s) for s in spec["shape"]])
        if "__tuple__" in value:
            return tuple(decode_payload(v) for v in value["__tuple__"])
        if "__dataclass__" in value:
            name = value["__dataclass__"]
            if name not in PAYLOAD_TYPES:
                raise ManifestError(
                    f"manifest payload type {name} is not allowed")
            module_name, _, qualname = name.partition(":")
            cls = importlib.import_module(module_name)
            for part in qualname.split("."):
                cls = getattr(cls, part)
            fields = {k: decode_payload(v)
                      for k, v in value["fields"].items()}
            return cls(**fields)
        return {k: decode_payload(v) for k, v in value.items()}
    raise ManifestError(
        f"cannot decode payload fragment of type {type(value).__name__}")


class SweepManifest:
    """Append-only journal of one sweep, optionally pre-loaded for resume.

    ``resume=True`` loads every ``status == "ok"`` record so the
    supervisor can skip finished tasks; new completions are appended to
    the same file either way.  Opening an *existing* manifest without
    ``resume=True`` raises — an append-only journal is never silently
    overwritten or double-written.
    """

    def __init__(self, path: Union[str, Path], resume: bool = False):
        self.path = Path(path)
        self._completed: Dict[str, Any] = {}
        self._failed: Dict[str, TaskFailure] = {}
        # fsync per record: a journal line the supervisor acted on
        # (skipping the task on resume) must survive a power cut, not just
        # a process kill.
        self._journal = journal.JournalWriter(
            self.path, {"type": "manifest", "version": MANIFEST_VERSION,
                        "created_unix": time.time()},
            "manifest", ManifestError, fsync=True)
        if self.path.exists():
            if not resume:
                raise ManifestError(
                    f"manifest {self.path} already exists; pass resume=True "
                    "(CLI: --resume) to continue it, or choose a fresh path")
            self._load()
        else:
            if resume:
                raise ManifestError(
                    f"cannot resume: manifest {self.path} does not exist")
            try:
                self._journal.open()
            finally:
                self._journal.close()

    # -- resume state ------------------------------------------------------

    @property
    def completed(self) -> Mapping[str, Any]:
        """Decoded payloads of finished tasks, keyed by spec hash."""
        return self._completed

    @property
    def quarantined(self) -> Mapping[str, TaskFailure]:
        """Journaled failures keyed by spec hash (informational only —
        resume re-runs these)."""
        return self._failed

    def payload_for(self, task: Task):
        """``(True, payload)`` when ``task`` is already finished in this
        manifest, else ``(False, None)``."""
        h = task.hash
        if h in self._completed:
            return True, self._completed[h]
        return False, None

    # -- journaling --------------------------------------------------------

    def record_success(self, task: Task, payload: Any, attempts: int,
                       elapsed: float) -> None:
        """Append one finished task, payload included."""
        self._append({"type": "result", "status": "ok", "key": task.key,
                      "hash": task.hash, "spec": dict(task.spec),
                      "attempts": attempts, "elapsed": elapsed,
                      "completed_unix": time.time(),
                      "payload": encode_payload(payload)})
        self._completed[task.hash] = payload

    def record_failure(self, task: Task, failure: TaskFailure) -> None:
        """Append one quarantined task (not skipped on resume).

        ``attempts``/``elapsed`` are journaled at the top level (as on
        success lines) so latency reports need not open the failure
        record.
        """
        self._append({"type": "result", "status": "quarantined",
                      "key": task.key, "hash": task.hash,
                      "spec": dict(task.spec),
                      "attempts": failure.attempts,
                      "elapsed": failure.elapsed,
                      "completed_unix": time.time(),
                      "failure": failure.to_json()})
        self._failed[task.hash] = failure

    # -- internals ---------------------------------------------------------

    def _append(self, record: dict) -> None:
        # Nothing owns a manifest long enough to close it, so it holds no
        # descriptor between records.
        try:
            self._journal.append(json.dumps(record, sort_keys=True))
        finally:
            self._journal.close()

    def _load(self) -> None:
        read = journal.read(self.path, "manifest", ManifestError,
                            amputate=True)
        if read.header is not None:
            for lineno, record in enumerate([read.header] + read.records,
                                            start=1):
                self._ingest(record, lineno)

    def _ingest(self, record: Mapping[str, Any], lineno: int) -> None:
        kind = record.get("type")
        if kind == "manifest":
            version = record.get("version")
            if version != MANIFEST_VERSION:
                raise ManifestError(
                    f"{self.path}: manifest version {version!r} is not "
                    f"supported (expected {MANIFEST_VERSION})")
            return
        if kind != "result":
            raise ManifestError(
                f"{self.path}:{lineno}: unknown record type {kind!r}")
        h = record.get("hash")
        if not isinstance(h, str) or not h:
            raise ManifestError(
                f"{self.path}:{lineno}: result record carries no spec "
                "hash — the line is torn or was edited; refusing to "
                "resume from a journal that cannot identify its tasks")
        if record.get("status") == "ok":
            if "payload" not in record:
                # A parseable-but-incomplete line (torn at a field
                # boundary, or hand-stripped) must never resume as a
                # silently None payload.
                raise ManifestError(
                    f"{self.path}:{lineno}: ok record for "
                    f"{record.get('key', '?')!r} has no payload — the "
                    "line is torn or incomplete")
            self._completed[h] = decode_payload(record["payload"])
        elif record.get("status") == "quarantined":
            failure = record.get("failure")
            if not isinstance(failure, Mapping):
                raise ManifestError(
                    f"{self.path}:{lineno}: quarantined record for "
                    f"{record.get('key', '?')!r} has no failure record — "
                    "the line is torn or incomplete")
            self._failed[h] = TaskFailure.from_json(failure)
        else:
            raise ManifestError(
                f"{self.path}:{lineno}: unknown result status "
                f"{record.get('status')!r}")
