"""Read-only, integrity-checked, memory-mapped policy artifacts.

A :class:`PolicyArtifact` is one trained policy compiled for serving: the
dense Q-table plus the configuration fingerprint that gives its rows and
columns meaning (:func:`repro.rl.persistence._fingerprint`), in a single
file a server can memory-map read-only and share between processes.

The file is the package's one table container, ``.rpa``
(:mod:`repro.artifact`, layout in ``docs/SERVING.md``): a serving
artifact is one with no ``state`` header and a 2-D table.  Loading
verifies magic, the header and its digest, declared vs actual file
size, and the table digest hashed straight off the memory map.  Any
mismatch — truncation, bit rot, a torn copy — raises a structured
:class:`repro.errors.PersistenceError`; neither the header nor the
table bytes can be silently scrambled (fuzz-tested in
``tests/test_serve.py``).

Compilation is deterministic: the same table produces bit-identical
artifact bytes, which is what makes "hot-swap of an identical policy is
bit-identical to no-swap serving" a testable promise.  Writes are one
atomic tmp-then-rename; header reads go through :mod:`repro.fsio` so the
chaos harness can inject slow or failing storage on the load side.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.artifact import read_header, read_table, write_table
from repro.errors import PersistenceError, ServeError


def compile_table(table: np.ndarray, fingerprint: dict,
                  path: Union[str, Path], version: int = 0) -> str:
    """Compile a raw Q-table into an artifact file; returns its digest.

    ``table`` must be 2-D ``(num_states, num_actions)``.  The write is
    atomic (tmp sibling + rename), so a crash mid-compile never leaves a
    half-written artifact where a good one used to be.
    """
    table = np.asarray(table)
    if table.ndim != 2 or table.size == 0:
        raise ServeError(
            f"policy tables are non-empty 2-D (states x actions) arrays; "
            f"got shape {table.shape}")
    if int(version) < 0:
        raise ServeError(f"artifact versions are non-negative, got {version}")
    return write_table(path, table, fingerprint, version=version)


def _missing(path: Path, exc: FileNotFoundError) -> PersistenceError:
    return PersistenceError(f"{path}: cannot read policy artifact ({exc})")


def peek_fingerprint(path: Union[str, Path]) -> dict:
    """The agent fingerprint recorded in an artifact's header.

    Verifies only the header (its ``header_sha256``) — the table digest
    is *not* checked, so this works on an artifact whose table bytes are
    corrupt.  The result must therefore never gate a verification
    decision; it exists so the degradation ladder can recover
    action-space metadata (the current levels) for its rule-based
    fallback when no healthy artifact is loadable.  Raises
    :class:`repro.errors.PersistenceError` when the header itself is
    unreadable or altered.
    """
    path = Path(path)
    try:
        header, _ = read_header(path)
    except FileNotFoundError as exc:
        raise _missing(path, exc) from exc
    return header["fingerprint"]


class PolicyArtifact:
    """One loaded, verified, memory-mapped serving policy (read-only)."""

    def __init__(self, path: Path, version: int, fingerprint: dict,
                 table: np.ndarray, digest: str):
        self._path = Path(path)
        self._version = int(version)
        self._fingerprint = dict(fingerprint)
        self._table = table
        self._digest = digest

    @property
    def path(self) -> Path:
        """The artifact file this policy is mapped from."""
        return self._path

    @property
    def version(self) -> int:
        """Registry version recorded in the header (0 = unregistered)."""
        return self._version

    @property
    def fingerprint(self) -> dict:
        """Agent configuration fingerprint the table was trained under."""
        return dict(self._fingerprint)

    @property
    def table(self) -> np.ndarray:
        """The read-only ``(num_states, num_actions)`` Q-table view."""
        return self._table

    @property
    def digest(self) -> str:
        """Verified SHA-256 hexdigest of the raw table bytes."""
        return self._digest

    @property
    def num_states(self) -> int:
        """Number of discrete states the table covers."""
        return int(self._table.shape[0])

    @property
    def num_actions(self) -> int:
        """Number of actions per state."""
        return int(self._table.shape[1])

    def greedy(self, states: np.ndarray) -> np.ndarray:
        """Greedy action ids for a batch of state ids (one argmax gather)."""
        return np.argmax(self._table[np.asarray(states, dtype=np.intp)],
                         axis=-1)

    def __repr__(self) -> str:
        return (f"PolicyArtifact(v{self._version}, "
                f"{self.num_states}x{self.num_actions}, "
                f"{self._digest[:12]}..., {self._path.name})")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PolicyArtifact":
        """Load and fully verify an artifact file.

        Every failure mode — missing file, bad magic, truncated or
        unparseable header, implausible declared shape, short table
        section, digest mismatch — raises
        :class:`repro.errors.PersistenceError` naming the file and the
        problem.  On success the table is a read-only memory map; the
        digest is computed from the mapped bytes, so what was verified
        is exactly what will be served.
        """
        path = Path(path)
        try:
            header, table = read_table(path)
        except FileNotFoundError as exc:
            raise _missing(path, exc) from exc
        if table.ndim != 2:
            raise PersistenceError(
                f"{path}: holds a stacked {table.shape} table (a double-Q "
                "training checkpoint); serving needs a 2-D policy table")
        return cls(path, header["version"], header["fingerprint"], table,
                   header["table_sha256"])
