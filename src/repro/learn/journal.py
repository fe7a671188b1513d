"""Per-shard experience journals: batch codec, bounded writer, exact reader.

A fleet tick's transitions ``(s, a, r, s')`` travel as one **batch**:
one sorted-key JSON line holding ``v``, ``step`` and the equal-length
columns of :data:`COLUMNS` (``docs/ONLINE_LEARNING.md``).  Plain JSON
keeps a journal greppable and round-trips every float reward
bit-exactly.  One vectorised pass validates a batch: *any* malformed
line is a structured :class:`repro.errors.ExperienceError` naming the
first bad row, never a batch the learner would silently train on
(Hypothesis-fuzzed in ``tests/test_learn.py``).

:class:`ExperienceStream` is the write half of one shard's journal: a
bounded buffer that *sheds the oldest rows* when the learner falls
behind (the fleet never blocks; the loss is counted), flushed to a
:mod:`repro.journal` file as one atomic ``os.write`` per batch.

:func:`read_journal` is the read half, under the experience-journal
policy of ``docs/ROBUSTNESS.md``, "Crash-safe journals": a **torn final
line** is amputated (idempotently, with a warning), losing that one
batch; **corrupt interior lines** are quarantined (counted, skipped);
and the **cursor** — byte offset plus the SHA-256 of everything
consumed — lets a resumed learner re-read nothing twice and refuses a
journal rewritten under it with an :class:`~repro.errors.ExperienceError`.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

from repro import journal
from repro.errors import ExperienceError

JOURNAL_FORMAT = "repro-experience-journal"
"""Format name recorded in (and required of) every journal header."""

JOURNAL_VERSION = 2
"""Version this module writes and reads, in the header and every line."""

COLUMNS = ("vehicle_id", "state", "action", "reward", "next_state",
           "policy_version")
"""Per-row columns of one batch line (``v`` and ``step`` are per line)."""

DEFAULT_BUFFER_LIMIT = 8192
"""Default bound on records (rows) buffered between flushes."""


def _fail(name: str, row: int, problem: str):
    raise ExperienceError(f"experience column {name!r} row {row}: {problem}")


def _column(name: str, values: Any, rows: int) -> np.ndarray:
    """One validated column: a list of ``rows`` ints (reward: finite
    reals) decoded into an array, or the first bad row named."""
    if not isinstance(values, list):
        raise ExperienceError(f"experience column {name!r} must be a list, "
                              f"got {type(values).__name__}")
    if len(values) != rows:
        _fail(name, min(len(values), rows), f"the column has {len(values)} "
              f"rows, column 'vehicle_id' has {rows}")
    kinds = {int, float} if name == "reward" else {int}
    if not set(map(type, values)) <= kinds:
        row = next(i for i, v in enumerate(values) if type(v) not in kinds)
        _fail(name, row, f"expected {' or '.join(k.__name__ for k in kinds)}"
              f", got {type(values[row]).__name__} ({values[row]!r})")
    dtype = np.float64 if name == "reward" else np.int64
    try:
        array = np.array(values, dtype=dtype)
    except OverflowError:
        for row, value in enumerate(values):
            try:
                dtype(value)
            except OverflowError:
                _fail(name, row, f"{value} is out of {dtype.__name__} range")
    if name == "reward":
        bad = np.flatnonzero(~np.isfinite(array))
        if len(bad):
            _fail(name, bad[0], f"a reward must be finite, got "
                  f"{values[bad[0]]!r}; it would poison the Q-table")
        return array
    low = 1 if name == "policy_version" else 0
    bad = np.flatnonzero(array < low)
    if len(bad):
        _fail(name, bad[0], f"must be >= {low}, got {values[bad[0]]}"
              + (" (fallback decisions are never streamed)" if low else ""))
    return array


def _validated(payload: Mapping[str, Any]) -> Dict[str, np.ndarray]:
    """Every column of one batch (``step`` expanded per row), validated."""
    expected = {"v", "step", *COLUMNS}
    if set(payload) != expected:
        raise ExperienceError(
            f"experience batch carries unknown columns "
            f"{sorted(set(payload) - expected)} or misses columns "
            f"{sorted(expected - set(payload))}")
    version, step = payload["v"], payload["step"]
    if type(version) is not int or version != JOURNAL_VERSION:
        raise ExperienceError(
            f"unsupported experience batch version {version!r} (this "
            f"reader understands {JOURNAL_VERSION})")
    if type(step) is not int or not 0 <= step < 2 ** 63:
        raise ExperienceError(f"experience batch step must be a "
                              f"non-negative int64, got {step!r}")
    ids = payload["vehicle_id"]
    rows = len(ids) if isinstance(ids, list) else 0
    columns = {name: _column(name, payload[name], rows) for name in COLUMNS}
    if not rows:
        raise ExperienceError("an experience batch holds at least one row")
    columns["step"] = np.full(rows, step, dtype=np.int64)
    return columns


def _payload(step: Any, columns: Mapping[str, Any]) -> Dict[str, Any]:
    """The validated line object of one tick's ``columns``: an array's
    Python values, a sequence's own (so its rows keep their types)."""
    payload = {name: columns[name].tolist()
               if isinstance(columns[name], np.ndarray)
               else list(columns[name]) for name in COLUMNS}
    payload.update(v=JOURNAL_VERSION, step=np.asarray(step).tolist())
    _validated(payload)
    return payload


def decode_batch(line: str) -> Dict[str, np.ndarray]:
    """Decode and fully validate one batch line into its columns: one
    array per column of :data:`COLUMNS` plus ``step``, one row per
    transition.  Anything malformed raises
    :class:`repro.errors.ExperienceError`."""
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ExperienceError(
            f"experience line is not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ExperienceError(f"experience line must be a JSON object, got "
                              f"{type(payload).__name__}")
    return _validated(payload)


def shard_filename(shard: int) -> str:
    """Canonical journal filename of one shard (``shard-0003.jsonl``)."""
    return f"shard-{int(shard):04d}.jsonl"


class ExperienceStream:
    """Bounded-buffer write half of one shard's experience journal."""

    def __init__(self, directory: Union[str, Path], shard: int = 0,
                 buffer_limit: int = DEFAULT_BUFFER_LIMIT):
        if int(shard) < 0:
            raise ExperienceError(
                f"journal shard indices are non-negative, got {shard}")
        if int(buffer_limit) < 1:
            raise ExperienceError(
                f"the stream buffer must hold at least one record, got "
                f"buffer_limit={buffer_limit}")
        self._limit = int(buffer_limit)
        self._buffer: deque = deque()
        self._rows = 0
        self.path = Path(directory) / shard_filename(shard)
        """The journal file this stream appends to."""
        self._journal = journal.JournalWriter(
            self.path, {"format": JOURNAL_FORMAT, "v": JOURNAL_VERSION,
                        "shard": int(shard)},
            "experience", ExperienceError)
        self.offered = 0
        """Records handed to the stream (including later-shed ones)."""
        self.shed = 0
        """Records dropped oldest-first under backpressure."""
        self.written = 0
        """Records durably appended to the journal."""

    def offer_batch(self, states, actions, rewards, next_states,
                    policy_versions, vehicle_ids, step: int) -> int:
        """Buffer one tick's transitions (parallel arrays); returns count.

        The batch is validated whole (a bad row is an
        :class:`repro.errors.ExperienceError` naming it) and becomes one
        journal line, rows in the order given, so the learner's update
        order is deterministic for a deterministic fleet.  Beyond
        ``buffer_limit`` buffered rows the *oldest* rows are shed, a
        buffered batch cut if need be — the freshest experience always
        survives, and the caller (the fleet) is never blocked.
        """
        values = (vehicle_ids, states, actions, rewards, next_states,
                  policy_versions)
        if all(len(column) == 0 for column in values):
            return 0
        payload = _payload(step, dict(zip(COLUMNS, values)))
        rows = len(payload["state"])
        self._buffer.append(payload)
        self._rows += rows
        self.offered += rows
        while self._rows > self._limit:
            oldest = self._buffer[0]
            cut = min(self._rows - self._limit, len(oldest["state"]))
            for name in COLUMNS:
                oldest[name] = oldest[name][cut:]
            if not oldest["state"]:
                self._buffer.popleft()
            self._rows -= cut
            self.shed += cut
        return rows

    def flush(self) -> int:
        """Append every buffered batch to the journal; returns records.

        One ``os.write`` per batch, so concurrent forked writers
        interleave whole batches and a crash mid-flush tears at most the
        final line (which the reader amputates).  A failed write leaves
        the unwritten batches buffered and raises
        :class:`repro.errors.ExperienceError`.
        """
        if self._journal.closed:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ExperienceError(
                    f"cannot open experience journal {self.path} "
                    f"({exc})") from exc
            self._journal.open()
        before = self.written
        while self._buffer:
            self._journal.append(json.dumps(self._buffer[0], sort_keys=True))
            rows = len(self._buffer.popleft()["state"])
            self._rows -= rows
            self.written += rows
        return self.written - before

    @property
    def buffered(self) -> int:
        """Records currently waiting for the next :meth:`flush`."""
        return self._rows

    def close(self) -> None:
        """Release the descriptor (idempotent); does not flush."""
        self._journal.close()

    def __enter__(self) -> "ExperienceStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class JournalSlice:
    """What one :func:`read_journal` call consumed."""

    columns: Dict[str, np.ndarray]
    """The validated transitions past the cursor, in journal order: one
    array per column of :data:`COLUMNS` plus ``step``, equal lengths."""

    cursor: Dict[str, Any]
    """The new resume cursor (see :class:`repro.journal.JournalRead`)."""

    lines: int
    """Batch lines decoded."""

    quarantined: int
    """Corrupt lines (each a whole batch) skipped."""

    amputated_bytes: int
    """Torn-final-line bytes truncated off the journal."""

    @property
    def records(self) -> int:
        """Transitions decoded (rows over every decoded line)."""
        return len(self.columns["state"])


def read_journal(path: Union[str, Path],
                 cursor: Optional[dict] = None) -> JournalSlice:
    """Consume one journal shard from ``cursor`` (or its start).

    Amputates a torn final line first (idempotent — re-reading after a
    crash truncates nothing further), verifies the cursor's content
    hash against the bytes it claims to have consumed, then decodes
    every complete line past it, quarantining corrupt batches.  Returns
    the validated transitions as columns plus the new cursor.

    Raises :class:`repro.errors.ExperienceError` when the journal
    itself is untrustworthy: unreadable, missing its header, or
    rewritten under the cursor (prefix hash mismatch).
    """
    read = journal.read(path, "experience", ExperienceError, amputate=True,
                        quarantine=True, decode=decode_batch, cursor=cursor)
    header = read.header
    if header is None or header.get("format") != JOURNAL_FORMAT:
        raise ExperienceError(
            f"experience journal {path} has no header declaring format "
            f"{JOURNAL_FORMAT!r}; the file is empty, corrupt or foreign")
    if header.get("v") != JOURNAL_VERSION:
        raise ExperienceError(
            f"experience journal {path} has unsupported version "
            f"{header.get('v')!r} (this reader understands "
            f"{JOURNAL_VERSION})")
    columns = {name: np.concatenate([batch[name] for batch in read.records]
                                    or [np.empty(0, np.float64 if name ==
                                                 "reward" else np.int64)])
               for name in COLUMNS + ("step",)}
    return JournalSlice(columns=columns, cursor=read.cursor,
                        lines=len(read.records),
                        quarantined=read.quarantined,
                        amputated_bytes=read.amputated_bytes)
