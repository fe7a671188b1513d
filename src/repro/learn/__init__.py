"""Fault-tolerant online learning at fleet scale (``docs/ONLINE_LEARNING.md``).

The loop ROADMAP item 5 asks for, built survivably: fleet workers
stream schema-validated experience, one batch line per tick, into
per-shard append-only JSONL journals (:mod:`repro.learn.journal` —
torn-line amputation, corrupt-batch quarantine, oldest-first
backpressure shedding); a crash-safe
central learner (:mod:`repro.learn.learner`) consumes them with
content-hash exact-resume cursors and batch-invariant Q updates, so a
kill-and-resume aggregate is bit-identical; candidates publish through
the :class:`repro.serve.PolicyRegistry` and take traffic only via the
guarded promotion pipeline (:mod:`repro.learn.promotion`) — canary,
regression watchdog, auto-rollback with *measured* recovery time.

The experience and learner rows of the ``journal_*`` and
``artifact_*`` chaos kinds, and ``learn_regressed_candidate``, attack
exactly these guarantees.
"""

from repro.learn.journal import (COLUMNS, DEFAULT_BUFFER_LIMIT,
                                 ExperienceStream, JournalSlice,
                                 decode_batch, read_journal, shard_filename)
from repro.learn.learner import (IngestReport, OnlineLearner,
                                 OnlineLearnerConfig)
from repro.learn.loop import (LoopReport, OnlineLearningLoop, RoundReport)
from repro.learn.promotion import (PromotionPipeline, PromotionReport,
                                   RegressionWatchdog)

__all__ = [
    "COLUMNS",
    "DEFAULT_BUFFER_LIMIT",
    "ExperienceStream",
    "IngestReport",
    "JournalSlice",
    "LoopReport",
    "OnlineLearner",
    "OnlineLearnerConfig",
    "OnlineLearningLoop",
    "PromotionPipeline",
    "PromotionReport",
    "RegressionWatchdog",
    "RoundReport",
    "decode_batch",
    "read_journal",
    "shard_filename",
]
