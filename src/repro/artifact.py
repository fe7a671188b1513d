"""The ``.rpa`` container: the one on-disk form of a Q-table.

Every table the package persists is one file in this layout: a serving
artifact (:mod:`repro.serve.artifact`), a saved policy and a training
checkpoint (:mod:`repro.rl.persistence`), and an online learner
checkpoint (:mod:`repro.learn.learner`).  All little-endian::

    offset 0   magic            b"RPA\\x01"
    offset 4   header length    uint32 (JSON bytes, space-padded)
    offset 8   header           UTF-8 JSON (see below)
    aligned    table            raw C-order array bytes, 64-byte aligned

The header records the format name and version, the registry
``version`` (0 outside a registry), the agent ``fingerprint``, the
table ``dtype`` and ``shape``, and ``table_sha256`` — the SHA-256
digest of the raw table bytes.  A checkpoint adds one optional
``state`` object holding the non-table data it restores (counters,
cursors, RNG states).  The table is 2-D ``(states, actions)``, or 3-D
``(2, states, actions)`` for the double-Q learner's two stacked
estimators.

:func:`write_table` commits a file with one atomic rename
(:func:`repro.fsio.atomic_write_bytes`), so a failed save leaves the
previous file whole.  :func:`read_table` verifies magic, header shape,
declared against actual file size, and the digest hashed straight off
the memory map; any mismatch raises a structured
:class:`repro.errors.PersistenceError`.  A missing file raises
:class:`FileNotFoundError`, which each caller maps to its own contract.
Writing is deterministic: the same table, fingerprint, version and
state give the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from repro import fsio
from repro.errors import PersistenceError

MAGIC = b"RPA\x01"
"""Leading magic bytes of every table file."""

ARTIFACT_FORMAT = "repro-policy-artifact"
"""Format name recorded in (and required of) every header."""

ARTIFACT_VERSION = 1
"""Container layout version this module writes and reads."""

TABLE_ALIGN = 64
"""Byte alignment of the table section (cache-line/mmap friendly)."""

_MAX_HEADER_BYTES = 1 << 20
"""Upper bound on a plausible header; larger claims are corruption."""

_PREFIX_LEN = len(MAGIC) + 4


def _aligned(offset: int) -> int:
    """``offset`` rounded up to the next :data:`TABLE_ALIGN` boundary."""
    return (offset + TABLE_ALIGN - 1) // TABLE_ALIGN * TABLE_ALIGN


def write_table(path: Union[str, Path], table: np.ndarray,
                fingerprint: dict, version: int = 0,
                state: Optional[dict] = None) -> str:
    """Atomically write one table file; returns the table's digest.

    ``state`` (JSON-serialisable) is recorded in the header only when
    given, so a file without it is byte-identical to a serving artifact.
    """
    table = np.ascontiguousarray(table)
    body = table.tobytes()
    digest = hashlib.sha256(body).hexdigest()
    header = {
        "format": ARTIFACT_FORMAT,
        "artifact_version": ARTIFACT_VERSION,
        "version": int(version),
        "fingerprint": fingerprint,
        "dtype": table.dtype.str,
        "shape": [int(n) for n in table.shape],
        "table_sha256": digest,
    }
    if state is not None:
        header["state"] = state
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    # Pad the header with JSON-legal trailing spaces so the table lands
    # on an aligned offset; the recorded length includes the padding.
    table_offset = _aligned(_PREFIX_LEN + len(head))
    head = head + b" " * (table_offset - _PREFIX_LEN - len(head))
    payload = MAGIC + len(head).to_bytes(4, "little") + head + body
    fsio.atomic_write_bytes(Path(path), payload)
    return digest


def _read(path: Path, size: int) -> bytes:
    try:
        return fsio.read_bytes(path, size)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise PersistenceError(
            f"{path}: cannot read table file ({exc})") from exc


def read_header(path: Union[str, Path]) -> Tuple[object, int]:
    """``(header, header end offset)`` of one table file, unverified.

    Validates the magic, the declared header length, and the JSON
    syntax; any problem raises a structured
    :class:`repro.errors.PersistenceError`.  Does **not** verify the
    table digest — a caller that will use the table must go through
    :func:`read_table`.
    """
    path = Path(path)
    head = _read(path, _PREFIX_LEN)
    if len(head) < _PREFIX_LEN or head[:len(MAGIC)] != MAGIC:
        raise PersistenceError(
            f"{path}: not a table file (bad or truncated magic); "
            "expected an RPA file written by repro.artifact")
    header_len = int.from_bytes(head[len(MAGIC):], "little")
    if not 0 < header_len <= _MAX_HEADER_BYTES:
        raise PersistenceError(
            f"{path}: implausible header length {header_len}; the "
            "file is corrupt")
    raw = _read(path, _PREFIX_LEN + header_len)
    if len(raw) < _PREFIX_LEN + header_len:
        raise PersistenceError(
            f"{path}: header truncated ({len(raw) - _PREFIX_LEN} of "
            f"{header_len} bytes); the file is corrupt")
    try:
        header = json.loads(raw[_PREFIX_LEN:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistenceError(
            f"{path}: header is not valid JSON ({exc}); the file is "
            "corrupt") from exc
    return header, _PREFIX_LEN + header_len


def read_table(path: Union[str, Path]) -> Tuple[dict, np.ndarray]:
    """``(header, table)`` of one fully verified table file.

    Every failure mode — unreadable file, bad magic, truncated or
    unparseable header, implausible declared shape, short table
    section, digest mismatch — raises
    :class:`repro.errors.PersistenceError` naming the file and the
    problem.  The table is a read-only memory map; the digest is
    computed from the mapped bytes, so what was verified is exactly
    what the caller gets.
    """
    path = Path(path)
    header, header_end = read_header(path)
    if not isinstance(header, dict) \
            or header.get("format") != ARTIFACT_FORMAT:
        raise PersistenceError(
            f"{path}: header does not declare format "
            f"{ARTIFACT_FORMAT!r}; the file is corrupt or foreign")
    if header.get("artifact_version") != ARTIFACT_VERSION:
        raise PersistenceError(
            f"{path}: unsupported container version "
            f"{header.get('artifact_version')!r} (this reader "
            f"understands {ARTIFACT_VERSION})")
    shape = header.get("shape")
    if (not isinstance(shape, list) or len(shape) not in (2, 3)
            or not all(isinstance(n, int) and n > 0 for n in shape)):
        raise PersistenceError(
            f"{path}: header declares invalid table shape {shape!r}")
    version = header.get("version")
    expected = header.get("table_sha256")
    if (not isinstance(version, int) or version < 0
            or not isinstance(header.get("fingerprint"), dict)
            or not isinstance(expected, str)
            or not isinstance(header.get("state", {}), dict)):
        raise PersistenceError(
            f"{path}: header is missing or mistypes required fields "
            "(version/fingerprint/table_sha256/state)")
    try:
        dtype = np.dtype(header.get("dtype"))
    except TypeError as exc:
        raise PersistenceError(
            f"{path}: header declares unknown dtype "
            f"{header.get('dtype')!r}") from exc
    table_offset = _aligned(header_end)
    nbytes = math.prod(shape) * dtype.itemsize
    try:
        size = os.stat(path).st_size
    except OSError as exc:
        raise PersistenceError(
            f"{path}: cannot stat table file ({exc})") from exc
    if size < table_offset + nbytes:
        raise PersistenceError(
            f"{path}: table section truncated ({size} bytes on disk, "
            f"{table_offset + nbytes} required for shape {shape}); the "
            "file is corrupt")
    try:
        table = np.memmap(path, dtype=dtype, mode="r", offset=table_offset,
                          shape=tuple(shape))
    except (ValueError, OSError) as exc:
        raise PersistenceError(
            f"{path}: cannot map table section ({exc}); the file is "
            "corrupt") from exc
    actual = hashlib.sha256(table.tobytes()).hexdigest()
    if actual != expected:
        raise PersistenceError(
            f"{path}: integrity check failed — table SHA-256 {actual} "
            f"does not match the header's recorded {expected}; the file "
            "was corrupted after it was written")
    return header, table
