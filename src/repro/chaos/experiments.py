"""One chaos experiment per fault kind: inject, then verify recovery.

Every experiment follows the same contract: given a
:class:`~repro.chaos.plan.ChaosFault` and a private working directory,
it attacks one documented durability guarantee of the repository's own
stack and returns an :class:`ExperimentOutcome` stating whether the
fault was **detected** (surfaced as the structured error the layer
documents, or tolerated by design with exact results) and whether the
stack **recovered** (resumed to the bit-identical state an unfaulted
run produces).

A broken guarantee raises :class:`repro.errors.InvariantViolation`; the
campaign records it and keeps going.  Experiments never leave a shim
installed and never depend on wall-clock or ambient randomness beyond
their fault parameters, so a campaign seed replays bit-identically
(recovery *latencies* are measured, not deterministic, and are excluded
from determinism comparisons).

The kind-to-guarantee map is documented in ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import json
import signal
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.artifact import _aligned
from repro.chaos.plan import ChaosFault
from repro.chaos.shims import EnospcShim, SlowReadShim, SlowWriteShim
from repro.control import build_rl_controller
from repro.cycles import DriveCycle
from repro.errors import (
    ExperienceError,
    InvariantViolation,
    ManifestError,
    PersistenceError,
    TelemetryError,
)
from repro.exec import Supervisor, SweepManifest, Task
from repro.exec.manifest import encode_payload
from repro.fsio import shimmed
from repro.learn import (
    ExperienceStream,
    OnlineLearner,
    PromotionPipeline,
    read_journal,
    shard_filename,
)
from repro.powertrain import PowertrainSolver
from repro.rl.persistence import (
    _fingerprint,
    load_checkpoint,
    load_policy,
    save_checkpoint,
    save_policy,
)
from repro.serve import (
    CanaryConfig,
    FleetConfig,
    PolicyRegistry,
    PolicyServer,
)
from repro.sim import Simulator, train
from repro.telemetry.events import EventSink, read_events
from repro.vehicle import default_vehicle


@dataclass(frozen=True)
class ExperimentOutcome:
    """What one fault injection established about the stack."""

    kind: str
    """Fault kind (one of :data:`repro.chaos.plan.FAULT_KINDS`)."""

    detected: bool
    """The fault surfaced as its documented structured error (or was
    tolerated by design with provably exact results) — never silent."""

    recovered: Optional[bool]
    """The documented recovery path restored correct — bit-identical
    where promised — state.  ``None`` for detection-only faults (no
    recovery path exists; refusing loudly *is* the guarantee)."""

    resumable: bool
    """Whether this kind has a documented recovery path at all."""

    detail: str
    """One-line account of what was observed."""

    recovery_seconds: Optional[float]
    """Measured wall-clock of the recovery path (``None`` when the fault
    is detection-only).  Excluded from determinism comparisons."""

    def to_json(self) -> dict:
        """JSON-serialisable form (campaign reports)."""
        return asdict(self)


EXPERIMENTS: Dict[str, Callable[[ChaosFault, Path], ExperimentOutcome]] = {}
"""Registry: fault kind -> experiment callable (filled by decorator)."""

RESUMABLE: Dict[str, bool] = {}
"""Whether each kind has a recovery path (vs detection-only)."""


def _experiment(kind: str, resumable: bool):
    def register(fn):
        """File ``fn`` under ``kind`` in the experiment registry."""
        EXPERIMENTS[kind] = fn
        RESUMABLE[kind] = resumable
        return fn
    return register


def _require(condition: bool, message: str) -> None:
    """Assert one documented invariant; violations are campaign findings."""
    if not condition:
        raise InvariantViolation(message)


def _refused(call: Callable[[], Any], error: type, what: str) -> str:
    """Run ``call``, which must raise ``error``; returns its message."""
    try:
        call()
    except error as exc:
        return str(exc)
    raise InvariantViolation(
        f"{what} was accepted without a structured {error.__name__}")


def _held(fault: ChaosFault, detail: str,
          seconds: Optional[float] = None) -> ExperimentOutcome:
    """The outcome of a fault whose every invariant held."""
    resumable = RESUMABLE[fault.kind]
    return ExperimentOutcome(kind=fault.kind, detected=True,
                             recovered=resumable or None, resumable=resumable,
                             detail=detail, recovery_seconds=seconds)


def _caught(call: Callable[[], Any]) -> Tuple[Any, List[str]]:
    """``(result, warning messages)`` of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [str(w.message) for w in caught]


# -- deterministic sweep workload --------------------------------------------

def _payload(index: int) -> dict:
    """Deterministic task result exercising the manifest payload codec."""
    return {"value": 0.1 * index + 0.25,
            "series": np.linspace(0.0, 1.0, 4) * index}


def _make_tasks(n: int) -> list:
    return [Task(key=f"t{i}", fn=(lambda i=i: _payload(i)),
                 spec={"index": i}) for i in range(n)]


def _reference(n: int) -> dict:
    return {f"t{i}": _payload(i) for i in range(n)}


def _canonical(results: Mapping[str, Any]) -> str:
    """Bit-faithful comparison form of a result set (floats via repr)."""
    return json.dumps({k: encode_payload(v) for k, v in results.items()},
                      sort_keys=True)


def _run_sweep(manifest: SweepManifest, n: int):
    return Supervisor(manifest=manifest).run(_make_tasks(n))


def _resume_exact(path: Path, n: int, expect_resumed: int) -> float:
    """Resume exactly (bit-identical aggregates); returns its seconds."""
    start = time.monotonic()
    sweep = _run_sweep(SweepManifest(path, resume=True), n)
    elapsed = time.monotonic() - start
    _require(not sweep.failures,
             f"resume quarantined {sweep.quarantined} on a healthy journal")
    _require(len(sweep.resumed) == expect_resumed,
             f"resume replayed {len(sweep.resumed)} tasks, "
             f"expected {expect_resumed} — coverage accounting lied")
    _require(_canonical(sweep.results) == _canonical(_reference(n)),
             "resumed aggregates are not bit-identical to an "
             "uninterrupted run")
    return elapsed


# -- executor faults ----------------------------------------------------------

def _sigterm_proof_hang():
    """A worker that ignores SIGTERM and never returns (forked)."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        time.sleep(0.05)


@_experiment("worker_hang_sigterm", resumable=True)
def _exp_worker_hang(fault: ChaosFault, workdir: Path) -> ExperimentOutcome:
    """A hung, SIGTERM-ignoring worker must be SIGKILLed; the sweep
    completes with honest coverage."""
    timeout = float(fault.params["timeout_s"])
    grace = float(fault.params["grace_s"])
    tasks = _make_tasks(2) + [Task(key="hang", fn=_sigterm_proof_hang,
                                   spec={"index": "hang"})]
    sup = Supervisor(jobs=2, timeout=timeout, kill_grace=grace)
    start = time.monotonic()
    sweep = sup.run(tasks)
    elapsed = time.monotonic() - start
    _require(len(sweep.failures) == 1 and sweep.quarantined == ["hang"],
             f"expected exactly the hung task quarantined, "
             f"got {sweep.quarantined}")
    failure = sweep.failures[0]
    detected = failure.kind == "timeout" and "SIGKILL" in failure.message
    _require(detected,
             f"hung worker was not reported as a SIGKILL-escalated "
             f"timeout: {failure.describe()}")
    _require(set(sweep.results) == {"t0", "t1"}
             and abs(sweep.coverage - 2 / 3) < 1e-12,
             "coverage accounting is dishonest after a hang")
    return _held(
        fault, f"worker_hang_sigterm: escalated to SIGKILL after "
               f"{grace:g}s grace; sweep completed 2/3 honestly",
        max(elapsed - timeout, 0.0))


class _SimulatedCrash(Exception):
    """Stand-in for process death mid-sweep (after a journal fsync)."""


class _CrashAfter(SweepManifest):
    """Manifest that "dies" right after its Nth success hits the disk.

    The journal line is written and fsynced by the superclass before the
    crash fires — exactly the window between journaling a result and the
    supervisor acting on it.
    """

    def __init__(self, path, crash_after: int):
        super().__init__(path)
        self._fuse = crash_after

    def record_success(self, task, payload, attempts, elapsed):
        """Journal the result, then die once the fuse runs out."""
        super().record_success(task, payload, attempts, elapsed)
        self._fuse -= 1
        if self._fuse == 0:
            raise _SimulatedCrash(
                f"simulated process death after journaling {task.key}")


@_experiment("abort_mid_sweep", resumable=True)
def _exp_abort_mid_sweep(fault: ChaosFault,
                         workdir: Path) -> ExperimentOutcome:
    """A sweep killed between journal fsync and result delivery must
    resume exactly: journaled tasks replayed, the rest re-run."""
    n = int(fault.params["n_tasks"])
    crash_after = int(fault.params["crash_after"])
    path = workdir / "sweep.jsonl"
    try:
        _run_sweep(_CrashAfter(path, crash_after), n)
    except _SimulatedCrash:  # containment: the injected crash is the fault
        pass
    else:
        raise InvariantViolation(
            "the simulated crash never fired — the experiment is vacuous")
    return _held(
        fault, f"abort_mid_sweep: killed after {crash_after}/{n} journal "
               f"records; resume replayed exactly those",
        _resume_exact(path, n, expect_resumed=crash_after))


# -- manifest-file faults -----------------------------------------------------

def _rewritten_sweep(workdir: Path, n: int, rewrite) -> float:
    """Run, ``rewrite`` the result lines, resume exactly; its seconds."""
    path = workdir / "sweep.jsonl"
    _run_sweep(SweepManifest(path), n)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:1] + rewrite(lines[1:])) + "\n",
                    encoding="utf-8")
    return _resume_exact(path, n, expect_resumed=n)


@_experiment("duplicated_manifest_lines", resumable=True)
def _exp_duplicated(fault: ChaosFault, workdir: Path) -> ExperimentOutcome:
    """Replayed/duplicated journal lines (crash-retry, copied file) must
    dedupe by spec hash and resume exactly."""
    dup = int(fault.params["dup_count"])
    return _held(
        fault, f"duplicated_manifest_lines: {dup} replayed lines deduped "
               f"by spec hash; aggregates exact",
        _rewritten_sweep(workdir, int(fault.params["n_tasks"]),
                         lambda results: results + results[:dup]))


@_experiment("reordered_manifest_lines", resumable=True)
def _exp_reordered(fault: ChaosFault, workdir: Path) -> ExperimentOutcome:
    """Out-of-order journal lines (merged shards, interleaved writers)
    must not matter: resume keys on content hashes, not positions."""
    shuffle = np.random.default_rng(int(fault.params["shuffle_seed"]))
    return _held(
        fault, "reordered_manifest_lines: shuffled journal resumed "
               "exactly (content-hash keyed)",
        _rewritten_sweep(workdir, int(fault.params["n_tasks"]),
                         lambda results: [results[i] for i in shuffle
                                          .permutation(len(results))]))


@_experiment("slow_manifest_io", resumable=True)
def _exp_slow_manifest(fault: ChaosFault,
                       workdir: Path) -> ExperimentOutcome:
    """Degraded (slow) storage must change latency only — every record
    lands intact and a clean resume replays all of them."""
    n = int(fault.params["n_tasks"])
    delay = float(fault.params["delay_s"])
    path = workdir / "sweep.jsonl"
    shim = SlowWriteShim(delay, match="sweep.jsonl")
    with shimmed(shim):
        sweep = _run_sweep(SweepManifest(path), n)
    _require(shim.intercepted == n + 1,
             f"slow-IO shim saw {shim.intercepted} writes, expected "
             f"{n + 1} (header + {n} records)")
    _require(_canonical(sweep.results) == _canonical(_reference(n)),
             "results diverged under slow I/O")
    return _held(
        fault, f"slow_manifest_io: {shim.intercepted} writes stalled "
               f"{delay * 1e3:g}ms each; journal intact, resume exact",
        _resume_exact(path, n, expect_resumed=n))


# -- journal rows -------------------------------------------------------------
# Each writes records through one consumer's writer (``open``, ``emit``)
# and reads them back through its reader (``read``) as comparable records.

_STATES, _ACTIONS = 16, 4
"""Shape of the online learner's seed table in the experience rows."""


def _seed_learner(checkpoint: Optional[Path] = None,
                  bump: float = 0.0) -> OnlineLearner:
    """A learner over the deterministic seed table, ``bump`` above it."""
    table = np.random.default_rng(0).normal(size=(_STATES, _ACTIONS))
    return OnlineLearner({"chaos": "seed table"}, table + bump,
                         checkpoint_path=checkpoint)


class _JournalRow:
    amputates, quarantines, quarantined, writer = True, False, 0, None

    def __init__(self, params: Mapping[str, Any], workdir: Path):
        self.path = workdir / self.file
        self.n = int(params["n_records"])
        self.written: list = []

    def write(self) -> None:
        """Emit each record not yet written, through the same writer."""
        for i in range(len(self.written), self.n):
            self.written.append(self.emit(i))

    def append(self) -> list:
        """A restarted writer appends one more record; returns it."""
        self.close()
        self.writer, self.n = None, self.n + 1
        self.write()
        return self.written[-1:]

    def close(self) -> None:
        """Release the writer's descriptor (a manifest holds none)."""
        if hasattr(self.writer, "close"):
            self.writer.close()

    def recover(self) -> float:
        """The consumer's own recovery check; returns its seconds."""
        return 0.0  # the sink's recovery is reading every event back


class _ManifestRow(_JournalRow):
    """Sweep manifest: amputates on resume, refuses corruption."""

    name, file, error = "manifest", "sweep.jsonl", ManifestError
    semantic_key = "payload"

    def emit(self, i: int) -> tuple:
        """Journal task ``i`` as done."""
        if self.writer is None:
            self.writer = SweepManifest(self.path, resume=self.path.exists())
        task = _make_tasks(i + 1)[i]
        self.writer.record_success(task, _payload(i), 1, 0.0)
        return task.hash, _canonical({"": _payload(i)})

    def read(self) -> list:
        """The finished tasks a resume loads."""
        return [(h, _canonical({"": p})) for h, p in
                SweepManifest(self.path, resume=True).completed.items()]

    def recover(self) -> float:
        """A resumed sweep is exact."""
        return _resume_exact(self.path, self.n, len(self.read()))


class _SinkRow(_JournalRow):
    """``EventSink(append=True)`` amputates, refuses corruption (the
    ``read-events`` row: skips a torn tail, leaves the file as is)."""

    name, file, error = "event-sink", "events.jsonl", TelemetryError
    semantic_key = "episode"

    def emit(self, i: int) -> dict:
        """Emit training episode ``i``."""
        if self.writer is None:
            self.writer = EventSink(self.path, run_id="chaos",
                                    append=self.path.exists())
        return self.writer.emit("training_episode", episode=i,
                                total_reward=0.5 * i, final_soc=0.6)

    def read(self) -> list:
        """Every event past the header, as an appender would see them."""
        if self.amputates:
            EventSink(self.path, append=True).close()
        return read_events(self.path)[1:]


class _ReaderRow(_SinkRow):
    name, amputates = "read-events", False


class _ExperienceRow(_JournalRow):
    """Experience journal: amputates, quarantines corrupt lines."""

    name, file, error = "experience", shard_filename(0), ExperienceError
    semantic_key, quarantines = "reward", True

    def emit(self, i: int) -> list:
        """Offer batch ``i`` (three rows at step ``i``) unless a failed
        flush kept it, then flush; returns its rows."""
        if self.writer is None:
            self.writer = ExperienceStream(self.path.parent)
        j = np.arange(3 * i, 3 * i + 3)
        batch = ((7 * j) % _STATES, j % _ACTIONS, 0.25 * (j % 5) - 0.5,
                 (3 * j + 1) % _STATES, np.ones_like(j), j, np.full(3, i))
        if not self.writer.buffered:
            self.writer.offer_batch(*batch[:-1], step=i)
        self.writer.flush()
        return list(zip(*(column.tolist() for column in batch)))

    def read(self) -> list:
        """Each batch line's rows, a corrupt line quarantined."""
        piece = read_journal(self.path)
        self.quarantined = piece.quarantined
        rows = list(zip(*(piece.columns[name].tolist() for name in (
            "state", "action", "reward", "next_state", "policy_version",
            "vehicle_id", "step"))))
        return [rows[k:k + 3] for k in range(0, len(rows), 3)]

    def resume_learner(self, checkpoint: Path):
        """Append, resume, ingest: equal to one pass; (learner, seconds)."""
        self.append()
        self.close()
        start = time.monotonic()
        resumed = OnlineLearner.resume(checkpoint)
        resumed.ingest(self.path.parent)
        elapsed = time.monotonic() - start
        reference = _seed_learner()
        reference.ingest(self.path.parent)
        _require(resumed.records == reference.records
                 and np.array_equal(resumed.table, reference.table),
                 "kill-and-resume is not bit-identical to one pass")
        return resumed, elapsed

    def recover(self) -> float:
        """Learner kill-and-resume is exact; its cursor is content-keyed."""
        checkpoint = self.path.with_name("learner-checkpoint.rpa")
        killed = _seed_learner(checkpoint)
        killed.ingest(self.path.parent)
        again = killed.ingest(self.path.parent)
        _require(again.records == again.amputated_bytes == 0,
                 "a re-ingest under the cursor consumed the journal again")
        resumed, elapsed = self.resume_learner(checkpoint)
        raw = self.path.read_bytes()
        self.path.write_bytes(raw.replace(b'"reward": ', b'"reward":  ', 1))
        _refused(lambda: resumed.ingest(self.path.parent), ExperienceError,
                 "a journal rewritten under its cursor")
        return elapsed


JOURNAL_ROWS = (_ManifestRow, _SinkRow, _ReaderRow, _ExperienceRow)
"""Every consumer of :mod:`repro.journal`, one row each."""


def _rows(kinds: tuple, fault: ChaosFault, workdir: Path):
    """Fresh rows of ``kinds``; journal writers are closed come what may."""
    for kind in kinds:
        (workdir / kind.name).mkdir(parents=True, exist_ok=True)
        row = kind(fault.params, workdir / kind.name)
        try:
            yield row
        finally:
            if isinstance(row, _JournalRow):
                row.close()


# -- journal kinds ------------------------------------------------------------

@_experiment("journal_torn_tail", resumable=True)
def _exp_journal_torn_tail(fault: ChaosFault,
                           workdir: Path) -> ExperimentOutcome:
    """A torn final line: every consumer warns, reads back every intact
    record, amputates exactly the fragment (read-only: leaves the file
    as is), reads quietly again, appends on a line boundary, recovers."""
    elapsed = 0.0
    for row in _rows(JOURNAL_ROWS, fault, workdir):
        row.write()
        expected = row.written[:-1]
        raw = row.path.read_bytes()
        start = raw.rfind(b"\n", 0, len(raw) - 1) + 1
        torn = raw[:start + max(1, int((len(raw) - 1 - start)
                                       * fault.params["cut_fraction"]))]
        row.path.write_bytes(torn)
        kept = raw[:start] if row.amputates else torn
        (got, warned), (again, rewarned) = _caught(row.read), _caught(row.read)
        _require(any("torn final" in m for m in warned)
                 and got == again == expected and row.quarantined == 0
                 and row.path.read_bytes() == kept
                 and not (row.amputates and rewarned),
                 f"{row.name}: a torn tail did not warn exactly once, lost "
                 "an intact record, or left the wrong bytes behind")
        expected += _caught(row.append)[0]
        _require(_caught(row.read) == (expected, []),
                 f"{row.name}: the next append landed off a line boundary")
        elapsed += row.recover()
    return _held(fault, "journal_torn_tail: every consumer warned, kept "
                        "every intact record and recovered", elapsed)


@_experiment("journal_interior_corrupt", resumable=False)
def _exp_journal_interior_corrupt(fault: ChaosFault,
                                  workdir: Path) -> ExperimentOutcome:
    """A corrupt interior line is refused by name (manifest, telemetry)
    or quarantined alone (experience journal), never skipped silently."""
    target, mode = int(fault.params["target"]), str(fault.params["mode"])
    for row in _rows(JOURNAL_ROWS, fault, workdir):
        row.write()
        lines = row.path.read_bytes().split(b"\n")
        line = lines[target + 1]
        if mode == "syntactic":
            cut = float(fault.params["cut_fraction"])
            lines[target + 1] = line[:max(1, int(len(line) * cut))]
        else:
            # Parseable, but missing a field only the schema requires.
            record = json.loads(line)
            del record[row.semantic_key]
            lines[target + 1] = json.dumps(record, sort_keys=True).encode()
        row.path.write_bytes(b"\n".join(lines))
        where = f"{row.path.name}:{target + 2}"
        if row.quarantines:
            rest = row.written[:target] + row.written[target + 1:]
            _require(row.read() == rest and row.quarantined == 1,
                     f"{row.name}: {where} was not quarantined alone")
        else:
            message = _refused(row.read, row.error,
                               f"{row.name}: a {mode}ally corrupt {where}")
            _require(where in message,
                     f"{row.name}: the refusal does not name {where}")
    return _held(fault, f"journal_interior_corrupt[{mode}]: line "
                        f"{target + 2} refused by name or quarantined alone")


@_experiment("journal_enospc_append", resumable=True)
def _exp_journal_enospc(fault: ChaosFault,
                        workdir: Path) -> ExperimentOutcome:
    """A full disk fails an append loudly, naming the file; once space
    returns the same writer carries on and every record reads back."""
    fail_after = int(fault.params["fail_after_writes"])
    elapsed = 0.0
    for row in _rows(JOURNAL_ROWS, fault, workdir):
        shim = EnospcShim(fail_after, float(fault.params["partial_fraction"]),
                          match=row.path.name)
        with shimmed(shim):
            message = _refused(row.write, row.error,
                               f"{row.name}: an append on a full disk")
        # Write 1 is the header, write k the record k - 2.
        _require(shim.tripped and "cannot append" in message
                 and row.path.name in message
                 and len(row.written) == fail_after - 2,
                 f"{row.name}: the failed append was not reported honestly")
        row.write()
        _require(_caught(row.read) == (row.written, []),
                 f"{row.name}: after space returned the file does not "
                 "read back every record the writer reports written")
        elapsed += row.recover()
    return _held(fault, f"journal_enospc_append: write {fail_after} failed "
                        "loudly; each writer carried on, losing nothing",
                 elapsed)


# -- artifact rows ------------------------------------------------------------
# Each saves the next state through one consumer's writer (``save``) and
# loads ``path`` back through its reader (``load``) in a comparable form.

def _built_agent(agent_seed: int):
    """``(solver, controller)`` of a seeded agent with a random table."""
    solver = PowertrainSolver(default_vehicle())
    controller = build_rl_controller(solver, seed=int(agent_seed))
    agent = controller.agent
    # Give the Q-table deterministic non-trivial content so corruption
    # has something to corrupt and comparisons something to compare.
    rng = np.random.default_rng(int(agent_seed))
    agent.learner.qtable.values[:] = rng.normal(
        size=agent.learner.qtable.values.shape)
    return solver, controller


class _TableRow:
    def __init__(self, params: Mapping[str, Any], workdir: Path):
        self.params, self.dir, self.path = params, workdir, workdir / self.file
        self.agent = _built_agent(params["agent_seed"])[1].agent
        # Loads land in a second agent of the same configuration.
        self.probe = _built_agent(params["agent_seed"])[1].agent

    def refuse(self, damage: str) -> None:
        """The damaged file is refused with a PersistenceError."""
        _refused(self.load, PersistenceError, f"{self.name}: {damage}")

    def recover(self) -> None:
        """The consumer's own recovery beyond loading as before."""


class _PolicyRow(_TableRow):
    """``save_policy`` / ``load_policy``."""

    name, file = "policy", "policy.rpa"

    def save(self) -> None:
        """Save the agent's policy, one higher than the last."""
        self.agent.learner.qtable.values[:] += 1.0
        save_policy(self.agent, self.path)

    prepare = save

    def load(self) -> bytes:
        """The policy table, loaded into the probe agent."""
        load_policy(self.probe, self.path)
        return self.probe.learner.qtable.values.tobytes()


class _CheckpointRow(_TableRow):
    """``save_checkpoint`` / ``load_checkpoint`` and training resume."""

    name, file, episode = "checkpoint", "ckpt.rpa", 0

    def save(self) -> None:
        """Checkpoint the next episode, the table one higher."""
        self.episode += 1
        self.agent.learner.qtable.values[:] += 1.0
        save_checkpoint(self.agent, self.path, episode=self.episode)

    def load(self) -> tuple:
        """``(episode, table)`` restored into the probe agent."""
        return (load_checkpoint(self.probe, self.path),
                self.probe.learner.checkpoint_table().tobytes())

    def _train(self, episodes: int, **kwargs) -> np.ndarray:
        """The Q-table of a fresh agent trained on a gentle 30 s cycle."""
        solver, controller = _built_agent(self.params["agent_seed"])
        speeds = 10.0 - np.abs(np.linspace(-10.0, 10.0, 30))
        train(Simulator(solver), controller,
              DriveCycle("chaos-gentle", speeds), episodes=episodes,
              seed=int(self.params["agent_seed"]), evaluate_after=False,
              **kwargs)
        return controller.agent.learner.qtable.values

    def prepare(self) -> None:
        """A killed run leaves the checkpoint; a whole one is the reference."""
        self.straight = self._train(4)
        self._train(int(self.params["interrupt_after"]),
                    checkpoint_path=self.path)

    def recover(self) -> None:
        """Training resumed from the checkpoint equals the whole run."""
        _require(np.array_equal(self._train(4, resume_from=self.path),
                                self.straight),
                 "resumed training is not bit-identical to a whole run")


class _LearnerRow(_TableRow):
    """``OnlineLearner.checkpoint`` / ``resume`` plus ingest."""

    name, file, saves = "learner", "learner-checkpoint.rpa", 0

    def save(self) -> None:
        """Checkpoint a learner whose table is one higher."""
        self.saves += 1
        _seed_learner(self.path, self.saves).checkpoint()

    def load(self) -> bytes:
        """The resumed learner's table."""
        return OnlineLearner.resume(self.path).table.tobytes()

    def prepare(self) -> None:
        """A learner ingests a journal, checkpoints and dies."""
        self.journal = _ExperienceRow({"n_records": 12}, self.dir)
        self.journal.write()
        self.journal.close()
        _seed_learner(self.path).ingest(self.dir)

    def recover(self) -> None:
        """Resume plus ingest equals the uninterrupted learner."""
        self.journal.resume_learner(self.path)


class _RegistryRow(_TableRow):
    """``PolicyRegistry.publish`` plus ``PolicyServer.swap``."""

    name, file = "registry", ""  # path: the latest version's file

    def __init__(self, params: Mapping[str, Any], workdir: Path):
        super().__init__(params, workdir)
        self.registry = PolicyRegistry(workdir)

    def save(self) -> None:
        """Publish the agent's policy, then move it 0.25 on."""
        self.path = self.registry.path_for(self.registry.publish(self.agent))
        self.agent.learner.qtable.values[:] += 0.25

    def load(self) -> tuple:
        """Every published version, verified."""
        return tuple(self.registry.load(v).table.tobytes()
                     for v in self.registry.versions())

    def prepare(self) -> None:
        """v1 serves; v2, a different policy, is the candidate."""
        self.save()
        self.save()
        self.server = PolicyServer(self.registry)
        self.server.activate(self.registry.load(1))
        self.states = np.arange(min(96, self.server.active_artifact
                                    .num_states))
        self.before = self.server.decide(self.states)

    def refuse(self, damage: str) -> None:
        """Refused on load, and at swap time with the incumbent intact."""
        super().refuse(damage)
        refused = self.server.refused_swaps
        report = self.server.swap(version=2)
        _require(not report.activated
                 and self.server.refused_swaps == refused + 1
                 and self.server.active_version == 1
                 and np.array_equal(self.server.decide(self.states),
                                    self.before),
                 f"a candidate with {damage} was not refused and counted "
                 f"with the incumbent bit-identical: {report}")


ARTIFACT_ROWS = (_PolicyRow, _CheckpointRow, _LearnerRow, _RegistryRow)
"""Every writer/reader pair of :mod:`repro.artifact`, one row each."""


def _damages(blob: bytes, params: Mapping[str, Any]) -> list:
    """``(label, bytes)`` of a bit flip and a cut in the header, then in
    the table, bounded by the file's own header length.  The header flip
    is the first from the seeded ``(byte, bit)`` that still parses to a
    *different* JSON header: the damage only the header digest catches."""
    header_end = 8 + int.from_bytes(blob[4:8], "little")
    table_at = _aligned(header_end)
    at, bit = float(params["offset_fraction"]), int(params["bit"])
    keep, span = float(params["keep_fraction"]), header_end - 8
    original = json.loads(blob[8:header_end])
    for step in range(8 * span):
        index = 8 + (int(at * span) + step // 8) % span
        flip = (bit + step) % 8
        header_flip = bytearray(blob)
        header_flip[index] ^= 1 << flip
        try:
            if json.loads(header_flip[8:header_end]) != original:
                break
        except ValueError:  # containment: an unparseable flip is skipped
            pass
    table_flip = bytearray(blob)
    table_index = table_at + min(int(at * (len(blob) - table_at)),
                                 len(blob) - table_at - 1)
    table_flip[table_index] ^= 1 << bit
    header_cut = 8 + int(keep * span)
    table_cut = table_at + int(keep * (len(blob) - table_at))
    return [(f"header byte {index} bit {flip} flipped", bytes(header_flip)),
            (f"table byte {table_index} bit {bit} flipped",
             bytes(table_flip)),
            (f"a cut at header byte {header_cut}", blob[:header_cut]),
            (f"a cut at table byte {table_cut}", blob[:table_cut])]


# -- artifact kinds -----------------------------------------------------------

@_experiment("artifact_corrupt", resumable=True)
def _exp_artifact_corrupt(fault: ChaosFault,
                          workdir: Path) -> ExperimentOutcome:
    """Every damage is refused with a PersistenceError (a swap refused and
    counted); restoring the intact bytes recovers each consumer exactly."""
    elapsed = 0.0
    for row in _rows(ARTIFACT_ROWS, fault, workdir):
        row.prepare()
        intact, before = row.path.read_bytes(), row.load()
        for damage, blob in _damages(intact, fault.params):
            row.path.write_bytes(blob)
            row.refuse(damage)
        row.path.write_bytes(intact)
        start = time.monotonic()
        _require(row.load() == before,
                 f"{row.name}: the restored file does not load as before")
        row.recover()
        elapsed += time.monotonic() - start
    return _held(fault, "artifact_corrupt: every damage refused; every "
                        "consumer recovered from the intact bytes", elapsed)


@_experiment("artifact_enospc", resumable=True)
def _exp_artifact_enospc(fault: ChaosFault,
                         workdir: Path) -> ExperimentOutcome:
    """A save on a full disk fails loudly, leaks no temporary file, and
    leaves every earlier file loading as it was (atomic writes)."""
    saves = int(fault.params["saves_before"])
    elapsed = 0.0
    for row in _rows(ARTIFACT_ROWS, fault, workdir):
        for _ in range(saves):
            row.save()
        before = row.load()
        shim = EnospcShim(1, float(fault.params["partial_fraction"]),
                          match=".rpa")
        with shimmed(shim):
            message = _refused(row.save, PersistenceError,
                               f"{row.name}: a save on a full disk")
        _require(shim.tripped and "cannot persist" in message
                 and ".rpa" in message
                 and not list(row.dir.rglob("*.tmp")),
                 f"{row.name}: ENOSPC surfaced without naming the file, "
                 f"or leaked a temporary file: {message}")
        start = time.monotonic()
        _require(row.load() == before,
                 f"{row.name}: a failed save changed the previous file")
        elapsed += time.monotonic() - start
    return _held(fault, f"artifact_enospc: save {saves + 1} failed loudly; "
                        "every earlier file loads as it was", elapsed)


# -- serving and learning faults ----------------------------------------------

@_experiment("serve_slow_artifact_load", resumable=True)
def _exp_serve_slow_load(fault: ChaosFault,
                         workdir: Path) -> ExperimentOutcome:
    """Pathologically slow artifact reads must trip the staging deadline:
    the swap is shed cleanly (no indefinite stall) and the incumbent
    keeps serving bit-identically."""
    row = _RegistryRow(fault.params, workdir)
    row.prepare()
    server, probe, before = row.server, row.states, row.before
    delay = float(fault.params["delay_s"])
    deadline = float(fault.params["deadline_s"])
    shim = SlowReadShim(delay, match=".rpa")
    start = time.monotonic()
    with shimmed(shim):
        report = server.swap(version=2, deadline_s=deadline)
    stalled = time.monotonic() - start
    _require(shim.intercepted >= 1,
             "the slow-read shim never intercepted an artifact read — "
             "the experiment is vacuous")
    _require(not report.activated and server.stage_sheds == 1,
             f"a swap that blew its {deadline:g}s staging deadline was "
             f"not shed: {report}")
    _require("deadline" in report.reason,
             f"shed swap did not name the deadline: {report.reason!r}")
    recover_start = time.monotonic()
    after = server.decide(probe)
    elapsed = time.monotonic() - recover_start
    _require(server.active_version == 1 and np.array_equal(before, after),
             "serving degraded after a deadline-shed swap — the incumbent "
             "should have been untouched")
    return _held(
        fault, f"serve_slow_artifact_load: reads stalled {delay * 1e3:g}ms "
               f"each ({stalled:.3f}s total), staging shed at "
               f"{deadline * 1e3:g}ms deadline; serving bit-identical",
        elapsed)


@_experiment("learn_regressed_candidate", resumable=True)
def _exp_learn_regressed(fault: ChaosFault,
                         workdir: Path) -> ExperimentOutcome:
    """A clearly regressed candidate (the incumbent's table negated, so
    its greedy policy picks the worst action everywhere) must be caught
    by the canary cohort, rolled back automatically with the incumbent
    bit-identical, and the regression-recovery latency recorded."""
    params = fault.params
    agent = _built_agent(int(params["agent_seed"]))[1].agent
    table = np.asarray(agent.learner.qtable.values, dtype=np.float64)
    fingerprint = _fingerprint(agent)
    registry = PolicyRegistry(workdir / "registry")
    incumbent = registry.load(registry.publish_table(table, fingerprint))
    poisoned = registry.publish_table(-table, fingerprint)
    server = PolicyServer(registry)
    server.activate(incumbent)
    probe = np.arange(min(96, server.active_artifact.num_states))
    before = server.decide(probe)

    pipeline = PromotionPipeline(
        server, registry,
        fleet_config=FleetConfig(vehicles=192, steps=30,
                                 seed=int(params["fleet_seed"])),
        canary_config=CanaryConfig(fraction=float(params["fraction"]),
                                   min_samples=48, sigmas=2.0,
                                   decision_budget=4000,
                                   intervention_margin=0.02),
        max_rounds=6, round_steps=15)
    report = pipeline.promote(poisoned)
    _require(report.outcome == "rolled_back",
             f"a negated-table candidate came out {report.outcome!r} "
             f"({report.reason}); the canary should have rolled it back")
    _require(report.incumbent_intact is True,
             "the pipeline could not verify the incumbent bit-identical "
             "after the rollback")
    _require(report.recovery_s is not None and report.recovery_s >= 0.0,
             "the rollback did not record a regression-recovery latency")
    after = server.decide(probe)
    _require(server.active_version == 1
             and bool(np.array_equal(before, after)),
             "serving changed across a canary rollback — the incumbent "
             "should have been untouched")
    _require(server.canary is None,
             "the rolled-back canary rollout is still attached to the "
             "server")
    return _held(
        fault, f"learn_regressed_candidate: canary caught v{poisoned} "
               f"after {report.rounds} fleet round(s) "
               f"({report.canary_decisions} canary decisions), rolled "
               "back to a verified bit-identical incumbent "
               f"in {report.recovery_s * 1e3:.1f}ms",
        report.recovery_s)
