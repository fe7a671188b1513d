"""Deterministic per-seed fault schedules for chaos campaigns.

One campaign seed expands into one :class:`ChaosPlan`: every requested
fault kind, each with seed-varied parameters (where to tear a line, how
many bytes until the disk "fills", how long a worker hangs), in a
seed-shuffled execution order.  The expansion is a pure function of
``(seed, kinds)`` built on :class:`numpy.random.SeedSequence`, so a
campaign replays bit-identically: same seed, same faults, same
parameters, same order — which is what makes a chaos finding
*reportable* ("seed 7 breaks invariant X") instead of anecdotal.

Every kind runs exactly once per seed.  Campaign denominators therefore
stay stable across seeds (N seeds × K kinds faults, always), so
detection and recovery rates compare across campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ChaosError

_PLAN_ROOT = 0xC4A05
"""Root entropy mixed into every plan's seed sequence."""

FAULT_KINDS: Tuple[str, ...] = (
    "worker_hang_sigterm",
    "abort_mid_sweep",
    "duplicated_manifest_lines",
    "reordered_manifest_lines",
    "slow_manifest_io",
    "journal_torn_tail",
    "journal_interior_corrupt",
    "journal_enospc_append",
    "artifact_corrupt",
    "artifact_enospc",
    "serve_slow_artifact_load",
    "learn_regressed_candidate",
)
"""Every fault kind the harness can inject (see repro.chaos.experiments)."""


def _sample_params(kind: str, rng: np.random.Generator) -> Dict[str, Any]:
    """Seed-varied parameters for one fault kind (plain JSON scalars)."""
    if kind == "worker_hang_sigterm":
        return {"timeout_s": round(float(rng.uniform(0.25, 0.45)), 3),
                "grace_s": round(float(rng.uniform(0.08, 0.18)), 3)}
    if kind == "abort_mid_sweep":
        n = int(rng.integers(4, 8))
        return {"n_tasks": n, "crash_after": int(rng.integers(1, n))}
    if kind == "duplicated_manifest_lines":
        n = int(rng.integers(3, 7))
        return {"n_tasks": n, "dup_count": int(rng.integers(1, n))}
    if kind == "reordered_manifest_lines":
        return {"n_tasks": int(rng.integers(3, 7)),
                "shuffle_seed": int(rng.integers(0, 2 ** 31))}
    if kind == "slow_manifest_io":
        return {"n_tasks": int(rng.integers(3, 6)),
                "delay_s": round(float(rng.uniform(0.002, 0.008)), 4)}
    if kind == "journal_torn_tail":
        return {"n_records": int(rng.integers(3, 7)),
                "cut_fraction": round(float(rng.uniform(0.1, 0.9)), 3)}
    if kind == "journal_interior_corrupt":
        n = int(rng.integers(3, 7))
        return {"n_records": n,
                "target": int(rng.integers(0, n - 1)),
                "mode": str(rng.choice(["syntactic", "semantic"])),
                "cut_fraction": round(float(rng.uniform(0.15, 0.85)), 3)}
    if kind == "journal_enospc_append":
        n = int(rng.integers(4, 8))
        # write 1 is the header; fail on some *record* append
        return {"n_records": n,
                "fail_after_writes": int(rng.integers(2, n + 2)),
                "partial_fraction": round(float(rng.uniform(0.1, 0.9)), 3)}
    if kind == "artifact_corrupt":
        return {"offset_fraction": round(float(rng.uniform(0.0, 1.0)), 4),
                "bit": int(rng.integers(0, 8)),
                "keep_fraction": round(float(rng.uniform(0.0, 1.0)), 3),
                "interrupt_after": int(rng.integers(1, 4)),
                "agent_seed": int(rng.integers(1, 1000))}
    if kind == "artifact_enospc":
        return {"saves_before": int(rng.integers(1, 4)),
                "partial_fraction": round(float(rng.uniform(0.0, 0.9)), 3),
                "agent_seed": int(rng.integers(1, 1000))}
    if kind == "serve_slow_artifact_load":
        return {"delay_s": round(float(rng.uniform(0.05, 0.15)), 4),
                "deadline_s": round(float(rng.uniform(0.005, 0.02)), 4),
                "agent_seed": int(rng.integers(1, 1000))}
    if kind == "learn_regressed_candidate":
        return {"agent_seed": int(rng.integers(1, 1000)),
                "fleet_seed": int(rng.integers(0, 1000)),
                "fraction": round(float(rng.uniform(0.2, 0.35)), 3)}
    raise ChaosError(f"unknown fault kind {kind!r}; "
                     f"known kinds: {', '.join(FAULT_KINDS)}")


@dataclass(frozen=True)
class ChaosFault:
    """One scheduled fault injection: a kind plus its sampled parameters."""

    kind: str
    """One of :data:`FAULT_KINDS`."""

    params: Mapping[str, Any]
    """JSON-scalar parameters the experiment consumes."""

    def to_json(self) -> dict:
        """JSON-serialisable form (campaign reports)."""
        return {"kind": self.kind, "params": dict(self.params)}


@dataclass(frozen=True)
class ChaosPlan:
    """The full deterministic fault schedule of one campaign seed."""

    seed: int
    """Campaign seed this plan was expanded from."""

    faults: Tuple[ChaosFault, ...]
    """Every injection, in execution order (seed-shuffled)."""

    @classmethod
    def generate(cls, seed: int,
                 kinds: Optional[Sequence[str]] = None) -> "ChaosPlan":
        """Expand ``seed`` into a plan over ``kinds`` (default: all).

        Pure function of its arguments: parameters are drawn from one
        :class:`numpy.random.SeedSequence` stream per ``(seed, kind)``
        and the execution order from a ``(seed,)`` stream, so adding or
        removing a kind never perturbs the others' parameters.
        """
        if not isinstance(seed, int) or seed < 0:
            raise ChaosError(f"campaign seeds are non-negative ints, "
                             f"got {seed!r}")
        chosen = tuple(kinds) if kinds is not None else FAULT_KINDS
        if not chosen:
            raise ChaosError("a chaos plan needs at least one fault kind")
        unknown = sorted(set(chosen) - set(FAULT_KINDS))
        if unknown:
            raise ChaosError(
                f"unknown fault kind(s) {unknown}; "
                f"known kinds: {', '.join(FAULT_KINDS)}")
        if len(set(chosen)) != len(chosen):
            raise ChaosError(f"duplicate fault kinds in {list(chosen)}")
        faults = []
        for kind in chosen:
            # FAULT_KINDS.index, not enumerate(chosen): the stream for a
            # kind must not depend on which other kinds were requested.
            stream = np.random.default_rng(np.random.SeedSequence(
                [_PLAN_ROOT, seed, FAULT_KINDS.index(kind)]))
            faults.append(ChaosFault(kind, _sample_params(kind, stream)))
        order = np.random.default_rng(
            np.random.SeedSequence([_PLAN_ROOT, seed]))
        return cls(seed=seed,
                   faults=tuple(faults[i]
                                for i in order.permutation(len(faults))))
