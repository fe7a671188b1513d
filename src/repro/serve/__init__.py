"""Fleet policy serving: versioned artifacts, hot-swap, canary, degradation.

The training side of this repository produces Q-tables; this package
turns them into something a fleet can consume safely:

* :mod:`repro.serve.artifact` — :class:`PolicyArtifact`: a trained
  policy compiled to a read-only, SHA-256-integrity-checked,
  memory-mapped ``.rpa`` file (:mod:`repro.artifact`).  Corruption
  anywhere surfaces as a structured
  :class:`repro.errors.PersistenceError`, never a numpy traceback.
* :mod:`repro.serve.registry` — :class:`PolicyRegistry`: a directory of
  artifacts under monotonically increasing versions.
* :mod:`repro.serve.server` — :class:`PolicyServer`: batched
  state→action decisions through a dense per-state memo, atomic
  hot-swap (verify + golden probe before a single pointer flip),
  graceful degradation down a documented ladder, and a bounded request
  queue with deadline-based load shedding.
* :mod:`repro.serve.canary` — :class:`CanaryRollout`: route a fraction
  of the fleet to a candidate, compare reward/intervention-rate against
  the incumbent with Welford statistics, and roll back automatically
  within a bounded number of decisions on regression.
* :mod:`repro.serve.fleet` — :class:`FleetSimulator`: the standard load
  generator driving a heterogeneous vehicle population (cycle ×
  aux-load × fault scenario) against the server, shardable across
  worker processes through :class:`repro.exec.Supervisor`.

See ``docs/SERVING.md`` for the artifact format, the swap/rollback state
machine, and the degradation ladder.
"""

from repro.serve.artifact import (
    PolicyArtifact,
    compile_table,
    peek_fingerprint,
)
from repro.serve.canary import CanaryConfig, CanaryRollout, Welford
from repro.serve.fleet import FleetConfig, FleetResult, FleetSimulator, run_fleet_sharded
from repro.serve.registry import PolicyRegistry
from repro.serve.server import PolicyServer, SwapReport

__all__ = [
    "PolicyArtifact",
    "compile_table",
    "peek_fingerprint",
    "PolicyRegistry",
    "PolicyServer",
    "SwapReport",
    "CanaryConfig",
    "CanaryRollout",
    "Welford",
    "FleetConfig",
    "FleetResult",
    "FleetSimulator",
    "run_fleet_sharded",
]
