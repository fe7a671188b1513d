"""Invariants of the crash-safe JSONL journal primitive (:mod:`repro.journal`).

The sweep manifest, the telemetry event file and the experience journals
are schemas over this one format, so its crash-recovery contract is
fuzzed once here, for any record list and any cut inside the final line:
a read returns exactly the intact prefix and counts the torn bytes
exactly; amputation is idempotent and later appends read back clean;
interior corruption is refused or quarantined as asked; and a prefix
rewritten under a resume cursor is refused.
"""

import errno
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import fsio, journal
from repro.errors import TelemetryError

HEADER = {"format": "test-journal", "v": 1}

RECORDS = st.lists(
    st.dictionaries(st.text(max_size=6),
                    st.one_of(st.integers(), st.text(max_size=12),
                              st.booleans(), st.none()),
                    max_size=3),
    max_size=8)

CORRUPT_LINES = st.sampled_from(
    [b"not json", b"[1, 2]", b"17", b'{"a": ', b"\x80\xffgarbage", b""])


def _write(path: Path, records) -> None:
    writer = journal.JournalWriter(path, HEADER, "test", TelemetryError)
    try:
        writer.open()
        for record in records:
            writer.append(json.dumps(record, sort_keys=True))
    finally:
        writer.close()


def _torn(path: Path, records, keep: int) -> bytes:
    """Write ``records`` then cut the file ``keep`` bytes into its final
    line (the header's, when there are no records); returns the bytes
    of every complete line before it."""
    _write(path, records)
    raw = path.read_bytes()
    start = raw.rfind(b"\n", 0, len(raw) - 1) + 1
    keep %= len(raw) - 1 - start  # strictly inside: never the newline
    path.write_bytes(raw[:start + keep])
    return raw[:start]


def _read_quietly(path: Path, **kwargs) -> journal.JournalRead:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return journal.read(path, "test", TelemetryError, **kwargs)


class TestTornTail:
    @settings(max_examples=60, deadline=None)
    @given(records=RECORDS, keep=st.integers(0, 10_000),
           amputate=st.booleans())
    def test_read_returns_the_intact_prefix(self, records, keep, amputate):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "j.jsonl"
            intact = _torn(path, records, keep)
            torn = path.stat().st_size - len(intact)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                read = journal.read(path, "test", TelemetryError,
                                    amputate=amputate)
            assert read.records == records[:-1]
            assert read.header == (HEADER if records else None)
            assert read.cursor["offset"] == len(intact)
            assert read.amputated_bytes == (torn if amputate else 0)
            assert len(caught) == (1 if torn else 0)
            if torn:
                assert f"({torn} bytes after the last newline" \
                    in str(caught[0].message)
            expected_size = len(intact) if amputate else len(intact) + torn
            assert path.stat().st_size == expected_size

    @settings(max_examples=60, deadline=None)
    @given(records=RECORDS, keep=st.integers(0, 10_000), more=RECORDS)
    def test_amputation_is_idempotent_and_appends_read_back_clean(
            self, records, keep, more):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "j.jsonl"
            _torn(path, records, keep)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                first = journal.read(path, "test", TelemetryError,
                                     amputate=True)
            again = _read_quietly(path, amputate=True)
            assert again.amputated_bytes == 0
            assert again.records == first.records == records[:-1]
            # An emptied file is headed again on the next open.
            _write(path, more)
            after = _read_quietly(path)
            assert after.header == HEADER
            assert after.records == records[:-1] + more


class _TearOnce(fsio.FilesystemShim):
    """Write number ``at`` keeps ``keep`` of its bytes (modulo its
    length) and fails with ENOSPC; every other write passes."""

    def __init__(self, at: int, keep: int):
        self.at, self.keep, self.seen = at, keep, 0

    def write(self, path, data, default):
        self.seen += 1
        if self.seen != self.at:
            return default(data)
        default(data[:self.keep % len(data)])
        raise OSError(errno.ENOSPC, "No space left on device")


class TestFailedWrite:
    @settings(max_examples=60, deadline=None)
    @given(records=RECORDS.filter(bool), at=st.integers(1, 9),
           keep=st.integers(0, 10_000))
    def test_next_append_starts_on_a_line_boundary(self, records, at, keep):
        # The same writer retries the failed line once space returns:
        # the file reads back every record exactly once, quietly.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "j.jsonl"
            writer = journal.JournalWriter(path, HEADER, "test",
                                           TelemetryError)
            try:
                with fsio.shimmed(_TearOnce(at, keep)):
                    try:
                        writer.open()
                    except TelemetryError:
                        pass  # a torn header is re-written by the retry
                    for record in records:
                        line = json.dumps(record, sort_keys=True)
                        try:
                            writer.append(line)
                        except TelemetryError:
                            writer.append(line)
            finally:
                writer.close()
            read = _read_quietly(path)
            assert read.header == HEADER
            assert read.records == records


class TestInteriorCorruption:
    @settings(max_examples=60, deadline=None)
    @given(records=RECORDS, index=st.integers(0, 100), bad=CORRUPT_LINES)
    def test_refused_or_quarantined(self, records, index, bad):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "j.jsonl"
            _write(path, records)
            lines = path.read_bytes().split(b"\n")[:-1]
            at = 1 + index % (len(records) + 1)  # any line past the header
            lines.insert(at, bad)
            path.write_bytes(b"\n".join(lines) + b"\n")
            with pytest.raises(TelemetryError,
                               match=rf"j\.jsonl:{at + 1}: corrupt test "):
                _read_quietly(path)
            read = _read_quietly(path, quarantine=True)
            assert read.records == records
            assert read.quarantined == 1
            assert read.cursor["lines"] == len(records) + 1

    def test_corrupt_header_is_refused_even_under_quarantine(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"format": \n{"a": 1}\n')
        with pytest.raises(TelemetryError, match="corrupt journal header"):
            journal.read(path, "test", TelemetryError, quarantine=True)


class TestCursor:
    @settings(max_examples=60, deadline=None)
    @given(records=RECORDS, more=RECORDS)
    def test_cursor_consumes_only_new_records(self, records, more):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "j.jsonl"
            _write(path, records)
            first = _read_quietly(path)
            _write(path, more)
            rest = _read_quietly(path, cursor=first.cursor)
            assert rest.records == more
            assert rest.cursor["lines"] == len(records) + len(more)
            assert _read_quietly(path, cursor=rest.cursor).records == []

    @settings(max_examples=60, deadline=None)
    @given(records=RECORDS.filter(bool), more=RECORDS,
           position=st.integers(0, 10_000), flip=st.integers(1, 255))
    def test_prefix_rewritten_under_cursor_is_refused(self, records, more,
                                                      position, flip):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "j.jsonl"
            _write(path, records)
            cursor = _read_quietly(path).cursor
            _write(path, more)
            raw = bytearray(path.read_bytes())
            body = raw.find(b"\n") + 1
            at = body + position % (cursor["offset"] - body)
            raw[at] ^= flip
            path.write_bytes(bytes(raw))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the flip may tear the tail
                with pytest.raises(TelemetryError, match="rewritten"):
                    journal.read(path, "test", TelemetryError,
                                 quarantine=True, cursor=cursor)


class _WriteRecorder(fsio.FilesystemShim):
    def __init__(self):
        self.writes = []

    def write(self, path, data, default):
        self.writes.append(data)
        return default(data)


@settings(max_examples=30, deadline=None)
@given(records=RECORDS)
def test_every_line_is_one_write(records):
    recorder = _WriteRecorder()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "j.jsonl"
        with fsio.shimmed(recorder):
            _write(path, records)
        assert len(recorder.writes) == len(records) + 1
        assert all(w.endswith(b"\n") and w.count(b"\n") == 1
                   for w in recorder.writes)
        assert b"".join(recorder.writes) == path.read_bytes()
