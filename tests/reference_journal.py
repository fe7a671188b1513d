"""Frozen reference of the experience journal's write half.

:class:`ReferenceStream` is :class:`repro.learn.journal.ExperienceStream`
as it wrote journal lines before the writer moved to arrays: each
offered column becomes a list of Python values (``tolist()`` of an
array, ``list()`` of any other sequence), the lists are validated row
by row, buffered, shed oldest-first past ``buffer_limit``, and each
batch is written as ``json.dumps(payload, sort_keys=True)``.
``tests/test_learn.py`` feeds both writers the same batches and
compares the lines byte for byte, and the error messages of invalid
batches.

Not used by the package; it exists for verification.  Do **not**
"optimise" this file — its value is that it does not change.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, List, Mapping

import numpy as np

from repro.errors import ExperienceError
from repro.learn.journal import COLUMNS, JOURNAL_VERSION


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


def _validated(payload: Mapping[str, Any]) -> None:
    """Validate every column of one batch payload."""
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
    for name in COLUMNS:
        _column(name, payload[name], rows)
    if not rows:
        raise ExperienceError("an experience batch holds at least one row")


def _payload(step: Any, columns: Mapping[str, Any]) -> Dict[str, Any]:
    """The validated line object of one tick's ``columns``: an array's
    Python values, a sequence's own (so its rows keep their types)."""
    payload = {name: columns[name].tolist()
               if isinstance(columns[name], np.ndarray)
               else list(columns[name]) for name in COLUMNS}
    payload.update(v=JOURNAL_VERSION, step=np.asarray(step).tolist())
    _validated(payload)
    return payload


class ReferenceStream:
    """The bounded buffer and line writer, without the journal file."""

    def __init__(self, buffer_limit: int):
        self._limit = int(buffer_limit)
        self._buffer: deque = deque()
        self._rows = 0
        self.offered = 0
        self.shed = 0
        self.written = 0

    def offer_batch(self, states, actions, rewards, next_states,
                    policy_versions, vehicle_ids, step: int) -> int:
        """Validate and buffer one tick; shed the oldest rows past the
        limit; returns the rows offered."""
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

    def lines(self) -> List[str]:
        """Every buffered batch's journal line, the buffer emptied."""
        lines = []
        while self._buffer:
            payload = self._buffer.popleft()
            lines.append(json.dumps(payload, sort_keys=True))
            self._rows -= len(payload["state"])
            self.written += len(payload["state"])
        return lines
