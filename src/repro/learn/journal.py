"""Per-shard experience journals: bounded writer, cursor-exact reader.

Fleet workers stream experience through an :class:`ExperienceStream`,
the write half of one shard's journal: a bounded in-memory buffer that
*sheds oldest-first* when the learner falls behind (the fleet never
blocks on a slow learner — backpressure loses the stalest experience,
counted honestly, instead of stalling serving), flushed to a
:mod:`repro.journal` file as one atomic ``os.write`` per record.

The read half, :func:`read_journal`, carries the crash-recovery
contract the learner depends on (``docs/ONLINE_LEARNING.md``) under the
experience-journal policy of ``docs/ROBUSTNESS.md``, "Crash-safe
journals":

* a **torn final line** (writer killed mid-append) is amputated —
  idempotent and warned about;
* **corrupt interior records** are quarantined (counted, skipped) so one
  bad line cannot poison or abort ingestion;
* the returned **cursor** is content-hash keyed — byte offset plus the
  SHA-256 of everything consumed — so a resumed learner re-reads
  nothing twice and detects a journal rewritten under it as a
  structured :class:`repro.errors.ExperienceError`, never as silent
  double-counting.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Optional, Union

from repro import journal
from repro.errors import ExperienceError
from repro.learn.records import (ExperienceRecord, decode_record,
                                 encode_record)

JOURNAL_FORMAT = "repro-experience-journal"
"""Format name recorded in (and required of) every journal header."""

JOURNAL_VERSION = 1
"""Journal layout version this module writes and reads."""

DEFAULT_BUFFER_LIMIT = 8192
"""Default bound on records buffered between flushes."""


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

    def offer(self, record: ExperienceRecord) -> bool:
        """Buffer one record; returns False if an old record was shed.

        When the buffer is full the *oldest* buffered record is dropped
        to make room — the freshest experience always survives, and the
        caller (the fleet) is never blocked.
        """
        self.offered += 1
        shed = len(self._buffer) >= self._limit
        if shed:
            self._buffer.popleft()
            self.shed += 1
        self._buffer.append(record)
        return not shed

    def offer_batch(self, states, actions, rewards, next_states,
                    policy_versions, vehicle_ids, step: int) -> int:
        """Buffer one tick's transitions (parallel arrays); returns count.

        Records are offered in ascending vehicle order, so the journal
        ordering — and therefore the learner's update order — is
        deterministic for a deterministic fleet.
        """
        count = 0
        for i in range(len(states)):
            self.offer(ExperienceRecord(
                state=int(states[i]), action=int(actions[i]),
                reward=float(rewards[i]), next_state=int(next_states[i]),
                policy_version=int(policy_versions[i]),
                vehicle_id=int(vehicle_ids[i]), step=int(step)))
            count += 1
        return count

    def flush(self) -> int:
        """Append every buffered record to the journal; returns count.

        One ``os.write`` per record, so concurrent forked writers
        interleave whole records and a crash mid-flush tears at most the
        final line (which the reader amputates).  A failed write leaves
        the unwritten suffix buffered and raises
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
        flushed = 0
        while self._buffer:
            self._journal.append(encode_record(self._buffer[0]))
            self._buffer.popleft()
            self.written += 1
            flushed += 1
        return flushed

    @property
    def buffered(self) -> int:
        """Records currently waiting for the next :meth:`flush`."""
        return len(self._buffer)

    def close(self) -> None:
        """Release the descriptor (idempotent); does not flush."""
        self._journal.close()

    def __enter__(self) -> "ExperienceStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


JournalSlice = journal.JournalRead
"""What one :func:`read_journal` call consumed: the validated
experience records past the cursor, the new cursor, and the counts of
quarantined lines and amputated bytes."""


def read_journal(path: Union[str, Path],
                 cursor: Optional[dict] = None) -> JournalSlice:
    """Consume one journal shard from ``cursor`` (or its start).

    Amputates a torn final line first (idempotent — re-reading after a
    crash truncates nothing further), verifies the cursor's content
    hash against the bytes it claims to have consumed, then decodes
    every complete line past it, quarantining corrupt records.  Returns
    the validated records plus the new cursor.

    Raises :class:`repro.errors.ExperienceError` when the journal
    itself is untrustworthy: unreadable, missing its header, or
    rewritten under the cursor (prefix hash mismatch).
    """
    read = journal.read(path, "experience", ExperienceError, amputate=True,
                        quarantine=True, decode=decode_record, cursor=cursor)
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
    return read
