"""Crash-safe central learner consuming experience journals.

The :class:`OnlineLearner` turns journaled fleet experience into
candidate policies.  Its defining property is the exec-manifest resume
contract: **kill it anywhere and resume, and the aggregate Q-table is
bit-identical to an uninterrupted run** (the experience and learner rows
of the ``journal_torn_tail`` and ``artifact_corrupt`` chaos kinds
enforce this).  Two design choices make
that cheap to guarantee:

* **Batch-invariant updates.**  The update rule is plain tabular
  Q-learning — TD(λ) with ``λ = 0`` and a *constant* step size, bit
  for bit the offline :class:`repro.rl.td_lambda.TDLambdaLearner` at
  ``trace_decay=0, learning_rate_decay=0`` (property-tested in
  ``tests/test_learn.py``).  No eligibility traces and no step-size
  annealing means the final table depends only on the *sequence* of
  records, never on how they were grouped into journal batches or
  :meth:`ingest` calls; a learner killed between any two ingests and
  resumed replays the exact same float operations.
  (The offline trainer keeps its TD(λ) traces; they pay off there and
  would silently break exact resume here.)

* **State and cursors committed together.**  Every successful
  :meth:`ingest` atomically rewrites one checkpoint file — an ``.rpa``
  table file (:mod:`repro.artifact`) committed by one tmp + fsync +
  rename — holding the Q-table bytes and, in its ``state`` header, the
  per-journal content-hash cursors, the config and the counters.  There
  is no window where the table reflects records the cursors have not
  acknowledged, so a crash at any instant resumes from a consistent
  pair.  An ingest decodes every shard before it applies anything, so
  one that raises commits nothing, in memory or on disk.

Corrupt journal lines are quarantined with honest counts (see
:mod:`repro.learn.journal`); a corrupt *checkpoint* is a
:class:`repro.errors.PersistenceError`, exactly like every other
integrity failure in the repo.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.artifact import read_table, write_table
from repro.errors import ExperienceError, PersistenceError
from repro.learn.journal import VALUE_BOUND, read_journal

CHECKPOINT_FORMAT = "repro-learn-checkpoint"
"""Format name recorded in (and required of) every learner checkpoint."""

CHECKPOINT_VERSION = 1
"""Checkpoint layout version this module writes and reads."""


@dataclass(frozen=True)
class OnlineLearnerConfig:
    """Hyper-parameters of the online update rule.

    Deliberately excludes eligibility traces and step-size annealing:
    both make the final table depend on ingest batch boundaries, which
    would break the kill-and-resume bit-identity contract (see module
    docstring).
    """

    learning_rate: float = 0.05
    """Constant step size of every update."""

    discount: float = 0.8
    """Discount factor of the one-step bootstrap target."""

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise ExperienceError(
                f"learning_rate must lie in (0, 1], got "
                f"{self.learning_rate}")
        if not 0.0 <= self.discount < 1.0:
            raise ExperienceError(
                f"discount must lie in [0, 1), got {self.discount}")


@dataclass
class IngestReport:
    """Accounting of one :meth:`OnlineLearner.ingest` pass."""

    journals: int = 0
    """Journal shard files consumed."""

    records: int = 0
    """Valid records (transitions) applied as updates this pass."""

    quarantined: int = 0
    """Corrupt lines, each a whole batch, skipped (counted, never
    trained on) this pass."""

    excluded: int = 0
    """Schema-valid records rejected as foreign (state or action id
    outside the learner's table) this pass."""

    amputated_bytes: int = 0
    """Torn-final-line bytes truncated off journals this pass."""


class OnlineLearner:
    """Consumes experience journals into a publishable Q-table."""

    def __init__(self, fingerprint: dict, table: np.ndarray,
                 config: Optional[OnlineLearnerConfig] = None,
                 checkpoint_path: Optional[Union[str, Path]] = None):
        table = np.ascontiguousarray(np.asarray(table, dtype=np.float64))
        if table.ndim != 2 or table.size == 0:
            raise ExperienceError(
                f"learner tables are non-empty 2-D (states x actions) "
                f"arrays; got shape {table.shape}")
        if not isinstance(fingerprint, dict):
            raise ExperienceError(
                "the learner needs the agent fingerprint dict the seed "
                "table was trained under")
        self._config = config or OnlineLearnerConfig()
        # TD(0) keeps a table within B / (1 - discount), up to rounding,
        # when every reward is within B, so the tables ingest checkpoints
        # pass this check on resume.
        limit = VALUE_BOUND / (1.0 - self._config.discount)
        if not np.all(np.abs(table) <= limit):
            raise ExperienceError(
                f"the learner's seed table contains non-finite values or "
                f"values beyond +-{limit:g}; refusing to learn from a "
                f"poisoned starting point")
        self._fingerprint = dict(fingerprint)
        self._q = table.copy()
        self._cursors: Dict[str, dict] = {}
        self._path = Path(checkpoint_path) if checkpoint_path else None
        self.records = 0
        """Valid records applied over the learner's lifetime."""
        self.quarantined = 0
        """Corrupt lines quarantined over the learner's lifetime."""
        self.excluded = 0
        """Foreign (out-of-table) records excluded over the lifetime."""
        self.ingests = 0
        """Completed :meth:`ingest` passes (checkpoints written)."""

    @classmethod
    def from_artifact(cls, artifact,
                      config: Optional[OnlineLearnerConfig] = None,
                      checkpoint_path: Optional[Union[str, Path]] = None
                      ) -> "OnlineLearner":
        """A learner warm-started from a serving policy artifact."""
        return cls(artifact.fingerprint, np.array(artifact.table),
                   config=config, checkpoint_path=checkpoint_path)

    @property
    def config(self) -> OnlineLearnerConfig:
        """The update-rule hyper-parameters."""
        return self._config

    @property
    def fingerprint(self) -> dict:
        """Agent fingerprint the table (and its candidates) carry."""
        return dict(self._fingerprint)

    @property
    def table(self) -> np.ndarray:
        """The publishable Q-table (a copy)."""
        return self._q.copy()

    @property
    def cursors(self) -> Dict[str, dict]:
        """Per-journal resume cursors (filename -> cursor dict)."""
        return {name: dict(cur) for name, cur in self._cursors.items()}

    def _apply(self, q: np.ndarray, states, actions, rewards,
               next_states) -> None:
        """Sequential TD(0) on ``q``, one transition at a time in order.

        The table is updated as Python lists of floats and written back
        once: per record, ``row[a] += lr * (r + gamma * max(rows[n]) -
        row[a])``.  Records revisit a few hundred cells in short
        conflict-free runs, so batching them cannot pay; what costs is
        per-record numpy overhead, which lists avoid.

        The bytes equal those of the numpy-scalar loop
        (``q[s, a] += lr * (r + gamma * q[n].max() - q[s, a])``, frozen
        in ``tests/reference_learner.py``) wherever its result is finite.
        Both run the same IEEE double operations in the same order; on a
        row without a NaN, ``max`` and numpy's reduction return the same
        value, except that a tie between ``+0.0`` and ``-0.0`` may come
        back with either sign.  That sign cannot reach a stored value:
        ``r + gamma * (±0)`` is ``r`` unless ``r`` is zero, which leaves a
        zero target; then ``old + lr * (±0 - old)`` is ``old + lr * -old``
        for a nonzero ``old`` and ``+0.0`` for either signed-zero ``old``.
        A NaN is out of reach: rewards are bounded by
        :data:`~repro.learn.journal.VALUE_BOUND` and seed tables by the
        bound TD(0) keeps, so no update overflows.
        """
        lr = self._config.learning_rate
        gamma = self._config.discount
        rows = q.tolist()
        for s, a, r, n in zip(states.tolist(), actions.tolist(),
                              rewards.tolist(), next_states.tolist()):
            row = rows[s]
            old = row[a]
            row[a] = old + lr * (r + gamma * max(rows[n]) - old)
        q[...] = rows

    def ingest(self, journal_dir: Union[str, Path]) -> IngestReport:
        """Consume every journal shard under ``journal_dir`` once.

        All or nothing: every shard is read from its stored cursor and
        decoded first, then transitions are applied in journal order
        (shards in sorted filename order) and the new table, cursors and
        counters are committed together, with the checkpoint when one is
        configured.  A raising ingest leaves the learner as it was.  A
        batch with a reward beyond :data:`~repro.learn.journal.VALUE_BOUND`
        is quarantined like any corrupt line, so the updates cannot
        overflow; a non-finite table is still refused uncommitted, as the
        last line of defence.  Idempotent when nothing new was appended.
        """
        pieces = {path.name: read_journal(path, self._cursors.get(path.name))
                  for path in sorted(Path(journal_dir).glob("shard-*.jsonl"))}
        report = IngestReport(journals=len(pieces))
        num_states, num_actions = self._q.shape
        q = self._q.copy()
        for piece in pieces.values():
            report.quarantined += piece.quarantined
            report.amputated_bytes += piece.amputated_bytes
            cols = piece.columns
            inside = ((cols["state"] < num_states)
                      & (cols["next_state"] < num_states)
                      & (cols["action"] < num_actions))
            report.excluded += int(np.count_nonzero(~inside))
            report.records += int(np.count_nonzero(inside))
            self._apply(q, *(cols[name][inside] for name in (
                "state", "action", "reward", "next_state")))
        if not np.isfinite(q).all():
            s, a = np.argwhere(~np.isfinite(q))[0]
            raise ExperienceError(
                f"the journals' rewards overflow Q-value (state {s}, "
                f"action {a}) to {q[s, a]}; nothing was committed")
        before = dict(vars(self))  # table and cursors are replaced whole
        self._q = q
        self._cursors = {**self._cursors,
                         **{name: p.cursor for name, p in pieces.items()}}
        self.records += report.records
        self.quarantined += report.quarantined
        self.excluded += report.excluded
        self.ingests += 1
        if self._path is not None:
            try:
                self.checkpoint()
            except BaseException:
                vars(self).update(before)
                raise
        return report

    def publish(self, registry) -> int:
        """Publish the current table as a registry candidate; version."""
        return registry.publish_table(self.table, self._fingerprint)

    def checkpoint(self) -> Path:
        """Atomically write the checkpoint file; returns its path."""
        if self._path is None:
            raise ExperienceError(
                "this learner was built without a checkpoint_path; "
                "nowhere to checkpoint to")
        write_table(self._path, self._q, self._fingerprint, state={
            "format": CHECKPOINT_FORMAT,
            "v": CHECKPOINT_VERSION,
            "config": {"learning_rate": self._config.learning_rate,
                       "discount": self._config.discount},
            "cursors": self._cursors,
            "counters": {"records": self.records,
                         "quarantined": self.quarantined,
                         "excluded": self.excluded,
                         "ingests": self.ingests},
        })
        return self._path

    @classmethod
    def resume(cls, checkpoint_path: Union[str, Path]) -> "OnlineLearner":
        """Rebuild a learner from its checkpoint, verified end to end.

        A missing checkpoint is an :class:`ExperienceError` (nothing to
        resume); a present-but-corrupt one — unparseable JSON, a table
        whose digest no longer matches — is a
        :class:`repro.errors.PersistenceError`.
        """
        path = Path(checkpoint_path)
        try:
            header, table = read_table(path)
        except FileNotFoundError as exc:
            raise ExperienceError(
                f"no learner checkpoint at {path}; nothing to resume "
                "from") from exc
        state = header.get("state", {})
        if state.get("format") != CHECKPOINT_FORMAT:
            raise PersistenceError(
                f"{path}: not a learner checkpoint (missing format "
                f"{CHECKPOINT_FORMAT!r}); the file is corrupt or foreign")
        if state.get("v") != CHECKPOINT_VERSION:
            raise PersistenceError(
                f"{path}: unsupported learner checkpoint version "
                f"{state.get('v')!r} (this reader understands "
                f"{CHECKPOINT_VERSION})")
        conf = state.get("config")
        cursors = state.get("cursors")
        counters = state.get("counters")
        if not isinstance(conf, dict) or not isinstance(cursors, dict) \
                or not isinstance(counters, dict):
            raise PersistenceError(
                f"{path}: learner checkpoint is missing or mistypes "
                "required sections (config/cursors/counters)")
        config = OnlineLearnerConfig(
            learning_rate=conf.get("learning_rate", 0.05),
            discount=conf.get("discount", 0.8))
        learner = cls(header["fingerprint"], table, config=config,
                      checkpoint_path=path)
        learner._cursors = {str(k): dict(v) for k, v in cursors.items()}
        learner.records = int(counters.get("records", 0))
        learner.quarantined = int(counters.get("quarantined", 0))
        learner.excluded = int(counters.get("excluded", 0))
        learner.ingests = int(counters.get("ingests", 0))
        return learner
