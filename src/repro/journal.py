"""Crash-safe append-only JSONL journals: the one on-disk contract.

The sweep manifest (:mod:`repro.exec.manifest`), the telemetry event
file (:mod:`repro.telemetry.events`) and the experience journals
(:mod:`repro.learn.journal`) are schemas over this one format:

* a JSON-object **header** line, written when the file is opened empty;
* one JSON record per line, appended with **one** ``os.write`` on an
  ``O_APPEND`` descriptor routed through :mod:`repro.fsio`, so forked
  writers interleave whole lines and a crash tears only the last one;
* the **torn tail** — the bytes after the last newline, the only shape a
  crash leaves — is discarded with a :class:`RuntimeWarning`, and
  *amputated* (truncated out of the file, idempotently) by a consumer
  about to append or resume, and by a writer whose own write failed,
  so its next line cannot land on the fragment;
* a complete line that does not decode is **interior corruption**,
  refused or *quarantined* (counted and skipped);
* a **resume cursor** (offset, SHA-256 of the consumed bytes, lines
  seen) makes a reader consume only what is new and refuse a file
  rewritten under it.

Each consumer fixes its policy in code (table: ``docs/ROBUSTNESS.md``,
"Crash-safe journals") and gets its own :mod:`repro.errors` class back.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Type, Union

from repro import fsio
from repro.errors import ReproError

PathLike = Union[str, Path]


def _json_object(text: str) -> dict:
    """Decode one journal line that must hold a JSON object."""
    record = json.loads(text)
    if not isinstance(record, dict):
        raise json.JSONDecodeError("expected a JSON object", text, 0)
    return record


class JournalWriter:
    """Append half of one journal file.

    Opening a missing or empty file (eagerly with :meth:`open`, or on
    the first :meth:`append`) writes ``header`` first.  ``fsync=True``
    fsyncs every line.  A failed open or write raises ``error`` and
    leaves every earlier line intact; the next append first cuts the
    fragment the failed write may have left, so it starts on a line
    boundary (and re-heads a file the cut leaves empty).
    """

    def __init__(self, path: PathLike, header: Mapping[str, Any], kind: str,
                 error: Type[ReproError], fsync: bool = False):
        self.path = Path(path)
        self._header = json.dumps(header, sort_keys=True)
        self._kind = kind
        self._error = error
        self._fsync = fsync
        self._fd: Optional[int] = None
        self._torn = False

    def open(self) -> None:
        """Open the descriptor (idempotent), heading an empty file."""
        if self._fd is not None:
            return
        try:
            self._fd = os.open(str(self.path),
                               os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            fresh = os.fstat(self._fd).st_size == 0
        except OSError as exc:
            raise self._error(
                f"cannot open {self._kind} journal {self.path} "
                f"({exc})") from exc
        if fresh:
            self._write(self._header)

    def append(self, line: str) -> None:
        """Append ``line`` and its newline with one write."""
        if self._fd is None:
            self.open()
        if self._torn:
            raw = _read_bytes(self.path, self._error)
            end = raw.rfind(b"\n") + 1
            if end < len(raw):
                _truncate(self.path, end, self._kind, self._error)
            self._torn = False
            if end == 0:
                self._write(self._header)
        self._write(line)

    def _write(self, line: str) -> None:
        try:
            fsio.os_write(self._fd, (line + "\n").encode("utf-8"),
                          path=self.path)
            if self._fsync:
                fsio.fsync(self._fd, path=self.path)
        except OSError as exc:
            self._torn = True
            raise self._error(
                f"cannot append to {self._kind} journal {self.path} "
                f"({exc}); every earlier line is intact") from exc

    def close(self) -> None:
        """Release the descriptor (idempotent)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    @property
    def closed(self) -> bool:
        """True while no descriptor is open."""
        return self._fd is None


@dataclass
class JournalRead:
    """Everything one :func:`read` consumed."""

    header: Optional[dict]
    """The header record; None when the file holds no complete line."""

    records: List[Any]
    """Decoded records past the cursor, in file order."""

    cursor: Dict[str, Any]
    """Resume cursor ``{"offset", "sha256", "lines"}``: the byte offset
    consumed, the SHA-256 of every consumed byte, and the total record
    lines seen (quarantined included)."""

    quarantined: int = 0
    """Corrupt record lines skipped (``quarantine=True`` only)."""

    amputated_bytes: int = 0
    """Bytes of torn tail truncated out of the file (``amputate=True``
    only; a read-only read leaves the file as it is)."""


def _read_bytes(path: Path, error: Type[ReproError]) -> bytes:
    try:
        return fsio.read_bytes(path)
    except OSError as exc:
        raise error(f"cannot read journal {path} ({exc})") from exc


def _truncate(path: Path, end: int, kind: str,
              error: Type[ReproError]) -> None:
    """Cut ``path`` back to ``end`` bytes: the one way a torn tail goes."""
    try:
        os.truncate(path, end)
    except OSError as exc:
        raise error(f"cannot amputate the torn tail of {kind} "
                    f"journal {path} ({exc})") from exc


def _decode_header(line: bytes, path: Path, error: Type[ReproError]) -> dict:
    try:
        return _json_object(line.decode("utf-8"))
    except ValueError as exc:
        raise error(f"{path}:1: corrupt journal header ({exc}); the file "
                    "is corrupt or foreign") from exc


def header(path: PathLike, error: Type[ReproError]) -> Optional[dict]:
    """The header record of ``path`` (None if it has no complete line)."""
    path = Path(path)
    raw = _read_bytes(path, error)
    end = raw.find(b"\n")
    return None if end < 0 else _decode_header(raw[:end], path, error)


def _resume_at(raw: bytes, cursor: Mapping[str, Any], body: int, path: Path,
               error: Type[ReproError]) -> tuple:
    """``(offset, lines)`` of a cursor verified against ``raw``."""
    offset = cursor.get("offset")
    digest = cursor.get("sha256")
    lines = cursor.get("lines", 0)
    if (not isinstance(offset, int) or not isinstance(digest, str)
            or isinstance(offset, bool) or not isinstance(lines, int)):
        raise error(
            f"malformed journal cursor {cursor!r}; cursors carry an "
            "integer offset, a sha256 hex digest, and a line count")
    if offset < body or offset > len(raw) \
            or raw[offset - 1:offset] != b"\n":
        raise error(
            f"journal cursor offset {offset} does not land on a record "
            f"boundary of {path} ({len(raw)} bytes); the journal was "
            "rewritten or truncated under the cursor")
    actual = hashlib.sha256(raw[:offset]).hexdigest()
    if actual != digest:
        raise error(
            f"journal {path} was rewritten under its cursor: the consumed "
            f"prefix hashes to {actual}, the cursor recorded {digest} — "
            "refusing to resume, the reader would double-count or skip "
            "records")
    return offset, lines


def read(path: PathLike, kind: str, error: Type[ReproError], *,
         amputate: bool = False, quarantine: bool = False,
         decode: Callable[[str], Any] = _json_object,
         cursor: Optional[Mapping[str, Any]] = None) -> JournalRead:
    """Read one journal: one whole-file read, split on newlines.

    A torn tail is warned about and discarded (``amputate=True`` also
    truncates it out of the file).  Every complete line past the header
    — or past ``cursor``, verified first — goes through ``decode``,
    which signals a corrupt line with :class:`ValueError`.  A corrupt
    line raises ``error`` naming it, unless ``quarantine=True`` counts
    and skips it (a corrupt header always raises).
    """
    path = Path(path)
    raw = _read_bytes(path, error)
    end = raw.rfind(b"\n") + 1
    torn = len(raw) - end
    if torn:
        raw = raw[:end]
        lineno = raw.count(b"\n") + 1
        warnings.warn(
            f"{path}:{lineno}: discarding torn final {kind} "
            f"record ({torn} bytes after the last newline; a writer died "
            "mid-append) — " + ("amputating it" if amputate else
                                "the file is left as it is"),
            RuntimeWarning, stacklevel=3)
        if amputate:
            _truncate(path, end, kind, error)
    body = raw.find(b"\n") + 1
    head = _decode_header(raw[:body - 1], path, error) if body else None
    start, prior = body, 0
    if cursor is not None:
        start, prior = _resume_at(raw, cursor, body, path, error)
    chunks = raw[start:].split(b"\n")[:-1]
    records: List[Any] = []
    quarantined = 0
    for chunk in chunks:
        try:
            records.append(decode(chunk.decode("utf-8")))
        except ValueError as exc:
            if not quarantine:
                raise error(f"{path}:{prior + len(records) + 2}: corrupt "
                            f"{kind} record ({exc})") from exc
            quarantined += 1
    return JournalRead(
        header=head, records=records,
        cursor={"offset": len(raw), "sha256": hashlib.sha256(raw).hexdigest(),
                "lines": prior + len(chunks)},
        quarantined=quarantined, amputated_bytes=torn if amputate else 0)
