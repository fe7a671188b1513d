"""Chaos harness: deterministic infrastructure-fault injection.

This package attacks the repository's *own* durability machinery — the
supervised executor (:mod:`repro.exec`) and every consumer of the
journal and ``.rpa`` primitives — with seeded, reproducible faults:
SIGTERM-proof worker hangs, process death between journal fsync and
result delivery, torn / corrupt / duplicated / reordered journal lines,
bit rot and cuts in table files, disk exhaustion and slow I/O (injected
through :mod:`repro.fsio`, never by patching library internals).

Each fault kind is paired with the documented invariant it challenges
(see ``docs/ROBUSTNESS.md``): corruption is always *detected* as a
structured error, interrupted sweeps resume with bit-identical
aggregates and honest coverage, killed training replays bit-identically
from its checkpoint.  A campaign (:func:`run_campaign`, CLI: ``repro
chaos``) runs every kind across N seeds and reports detection rate,
recovery rate, and recovery-latency percentiles; any broken invariant is
recorded as a finding, not an excuse to stop.

Determinism contract: a campaign's fault schedule and outcome signature
are pure functions of ``(seeds, kinds)``; only measured latencies vary
between runs.
"""

from repro.chaos.campaign import CampaignReport, run_campaign
from repro.chaos.experiments import EXPERIMENTS, RESUMABLE, ExperimentOutcome
from repro.chaos.plan import FAULT_KINDS, ChaosFault, ChaosPlan
from repro.chaos.shims import EnospcShim, SlowWriteShim, TargetedShim

__all__ = [
    "CampaignReport",
    "ChaosFault",
    "ChaosPlan",
    "EnospcShim",
    "EXPERIMENTS",
    "ExperimentOutcome",
    "FAULT_KINDS",
    "RESUMABLE",
    "run_campaign",
    "SlowWriteShim",
    "TargetedShim",
]
