"""Supervised task execution: worker isolation, timeouts, retry, quarantine.

The :class:`Supervisor` runs a list of :class:`~repro.exec.task.Task`
objects and *always* returns a :class:`SweepResult` — one hung solver or
one raised ``NumericalError`` no longer destroys hours of completed
work.  Failures become structured
:class:`~repro.exec.task.TaskFailure` records; tasks that exhaust their
retries land on the quarantine list; the sweep completes and reports
coverage honestly.

Execution modes
---------------

* **Serial in-process** (``jobs=1``, ``timeout=None`` — the default):
  tasks run in submission order in the calling process, bit-identical to
  a plain for-loop.  This is the mode the batch and robustness runners
  use unless told otherwise.
* **Isolated workers** (``jobs > 1`` or any ``timeout``): each attempt
  runs in its own forked worker process, so a crash (segfault, OOM kill)
  or a hang cannot take the sweep down — a hung worker is killed when
  its wall-clock ``timeout`` expires.  Killing escalates: SIGTERM first,
  then — after ``kill_grace`` seconds without exit — SIGKILL, so even a
  worker that installs a SIGTERM handler and refuses to die cannot stall
  the sweep (escalations tick the ``exec.sigkills`` counter).  Fork
  semantics mean task closures never need pickling; only *results*
  cross the process boundary.

Retries use exponential backoff with deterministic jitter
(:class:`BackoffPolicy`): the delay for ``(task key, attempt)`` is a pure
function, so a re-run schedules identically.

With a :class:`~repro.exec.manifest.SweepManifest` attached, every
completion is journaled; a manifest opened with ``resume=True`` replays
finished tasks instead of re-running them.

With a :class:`~repro.telemetry.Telemetry` attached (opt-in, default
off), every sweep opens an ``exec.sweep`` span and every task an
``exec.task`` span — stacked in serial mode, detached in isolated mode
where task lifetimes overlap, with the span context handed across the
fork boundary so worker-side tracers continue the same trace.  Task
completions become ``task`` events, and retries/timeouts/quarantines
tick ``exec.*`` counters plus an ``exec.task_seconds`` latency
histogram.
"""

from __future__ import annotations

import hashlib
import time
import traceback as traceback_module
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional, Sequence

import multiprocessing

from repro.errors import ConfigurationError, ExecutionError
from repro.exec.manifest import SweepManifest
from repro.exec.task import Task, TaskFailure

_POLL_CAP = 0.5
"""Upper bound on one scheduler wait, s (keeps deadline checks timely)."""


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential retry backoff with deterministic jitter.

    The delay before retry ``attempt`` (1-based count of failed
    attempts) is ``base * factor**(attempt-1)``, inflated by up to
    ``jitter`` fraction using a uniform draw derived from
    ``sha256(key:attempt)`` — deterministic per (task, attempt), but
    decorrelated across tasks so a retried fleet does not stampede.
    """

    base: float = 0.05
    """First-retry delay, s."""

    factor: float = 2.0
    """Multiplier applied per additional failed attempt."""

    jitter: float = 0.25
    """Maximum fractional inflation of the delay."""

    max_delay: float = 5.0
    """Ceiling on any single delay, s."""

    def __post_init__(self):
        if self.base < 0 or self.factor < 1.0 or not (0 <= self.jitter <= 1) \
                or self.max_delay < 0:
            raise ConfigurationError(
                "backoff needs base >= 0, factor >= 1, jitter in [0, 1], "
                "max_delay >= 0")

    def delay(self, key: str, attempt: int) -> float:
        """Deterministic delay before retrying ``key`` after ``attempt``
        failed attempts."""
        if attempt < 1:
            raise ConfigurationError("attempt counts are 1-based")
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).hexdigest()
        unit = int(digest[:8], 16) / float(0xFFFFFFFF)
        raw = self.base * self.factor ** (attempt - 1)
        return min(raw * (1.0 + self.jitter * unit), self.max_delay)


@dataclass
class SweepResult:
    """Everything one supervised sweep produced, including what it lost."""

    planned: List[str] = field(default_factory=list)
    """Keys of every task submitted, in submission order."""

    results: Dict[str, Any] = field(default_factory=dict)
    """Payloads of completed tasks (resumed ones included), by key."""

    failures: List[TaskFailure] = field(default_factory=list)
    """Quarantine list: one record per task that exhausted its retries."""

    resumed: List[str] = field(default_factory=list)
    """Keys replayed from the manifest instead of executed."""

    attempts: Dict[str, int] = field(default_factory=dict)
    """Attempts spent per executed task (0 for resumed tasks)."""

    @property
    def quarantined(self) -> List[str]:
        """Keys of the quarantined tasks."""
        return [f.key for f in self.failures]

    @property
    def coverage(self) -> float:
        """Completed fraction of the planned sweep (1.0 when empty)."""
        if not self.planned:
            return 1.0
        return len(self.results) / len(self.planned)


class Supervisor:
    """Fault-tolerant executor for independent tasks (see module doc)."""

    def __init__(self, jobs: int = 1, timeout: Optional[float] = None,
                 retries: int = 0, backoff: Optional[BackoffPolicy] = None,
                 manifest: Optional[SweepManifest] = None,
                 failure_mode: str = "quarantine",
                 telemetry=None, kill_grace: float = 1.0):
        if not isinstance(jobs, int) or jobs < 1:
            raise ConfigurationError(f"jobs must be a positive int, "
                                     f"got {jobs!r}")
        if timeout is not None and not timeout > 0:
            raise ConfigurationError(f"timeout must be positive, "
                                     f"got {timeout!r}")
        if not isinstance(retries, int) or retries < 0:
            raise ConfigurationError(f"retries must be a non-negative int, "
                                     f"got {retries!r}")
        if failure_mode not in ("quarantine", "raise"):
            raise ConfigurationError(
                f"failure_mode must be 'quarantine' or 'raise', "
                f"got {failure_mode!r}")
        if not kill_grace > 0:
            raise ConfigurationError(
                f"kill_grace must be positive seconds, got {kill_grace!r}")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff or BackoffPolicy()
        self.manifest = manifest
        self.failure_mode = failure_mode
        self.telemetry = telemetry
        self.kill_grace = float(kill_grace)

    @property
    def isolated(self) -> bool:
        """True when attempts run in forked worker processes."""
        return self.jobs > 1 or self.timeout is not None

    # -- public API --------------------------------------------------------

    def run(self, tasks: Sequence[Task]) -> SweepResult:
        """Execute ``tasks``, surviving per-task failures.

        Returns a :class:`SweepResult`; raises only on misconfiguration
        (duplicate keys, isolation unavailable) or, in
        ``failure_mode="raise"``, on the first quarantined task.
        """
        keys = [t.key for t in tasks]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ExecutionError(f"duplicate task keys: {dupes}")
        sweep = SweepResult(planned=keys)
        sweep_span = None
        if self.telemetry is not None:
            sweep_span = self.telemetry.tracer.start(
                "exec.sweep", planned=len(keys), jobs=self.jobs,
                isolated=self.isolated)
        try:
            todo: List[Task] = []
            for task in tasks:
                if self.manifest is not None:
                    found, payload = self.manifest.payload_for(task)
                    if found:
                        sweep.results[task.key] = payload
                        sweep.resumed.append(task.key)
                        sweep.attempts[task.key] = 0
                        if self.telemetry is not None:
                            self._journal(task.key, "resumed", 0, 0.0)
                        continue
                todo.append(task)
            if todo:
                if self.isolated:
                    self._check_isolation_available()
                    self._run_isolated(todo, sweep)
                else:
                    self._run_serial(todo, sweep)
        finally:
            if sweep_span is not None:
                self.telemetry.tracer.end(
                    sweep_span, completed=len(sweep.results),
                    quarantined=len(sweep.failures),
                    resumed=len(sweep.resumed))
        return sweep

    # -- telemetry plumbing ------------------------------------------------

    _OUTCOME_COUNTERS = {"ok": "exec.tasks_completed",
                         "quarantined": "exec.tasks_quarantined",
                         "resumed": "exec.tasks_resumed"}

    def _journal(self, key: str, outcome: str, attempts: int,
                 elapsed: float) -> None:
        """Emit one ``task`` event and tick the exec metrics.

        Callers guard on ``self.telemetry is not None``.
        """
        telemetry = self.telemetry
        telemetry.event("task", key=key, outcome=outcome,
                        attempts=int(attempts), elapsed=float(elapsed))
        telemetry.metrics.counter(self._OUTCOME_COUNTERS[outcome]).inc()
        if outcome != "resumed":
            from repro.telemetry.metrics import LATENCY_BUCKETS_S
            telemetry.metrics.histogram(
                "exec.task_seconds",
                buckets=LATENCY_BUCKETS_S).observe(elapsed)

    # -- shared bookkeeping ------------------------------------------------

    def _record_success(self, sweep: SweepResult, task: Task, value: Any,
                        attempts: int, elapsed: float) -> None:
        sweep.results[task.key] = value
        sweep.attempts[task.key] = attempts
        if self.manifest is not None:
            self.manifest.record_success(task, value, attempts, elapsed)
        if self.telemetry is not None:
            self._journal(task.key, "ok", attempts, elapsed)

    def _record_failure(self, sweep: SweepResult, task: Task,
                        failure: TaskFailure,
                        cause: Optional[BaseException] = None) -> None:
        sweep.failures.append(failure)
        sweep.attempts[task.key] = failure.attempts
        if self.manifest is not None:
            self.manifest.record_failure(task, failure)
        if self.telemetry is not None:
            self._journal(task.key, "quarantined", failure.attempts,
                          failure.elapsed)
        if self.failure_mode == "raise":
            if cause is not None:
                raise cause
            raise ExecutionError(failure.describe())

    # -- serial in-process mode --------------------------------------------

    def _run_serial(self, todo: Sequence[Task], sweep: SweepResult) -> None:
        telemetry = self.telemetry
        for task in todo:
            span = None
            if telemetry is not None:
                span = telemetry.tracer.start("exec.task", key=task.key)
            attempt = 0
            outcome = "error"
            try:
                while True:
                    attempt += 1
                    start = time.monotonic()
                    try:
                        value = task.fn()
                    except Exception as exc:
                        elapsed = time.monotonic() - start
                        if attempt <= self.retries:
                            if telemetry is not None:
                                telemetry.metrics.counter(
                                    "exec.retries").inc()
                            time.sleep(self.backoff.delay(task.key, attempt))
                            continue
                        failure = TaskFailure(
                            key=task.key, kind="error",
                            exception_type=type(exc).__name__,
                            message=str(exc),
                            traceback=traceback_module.format_exc(),
                            attempts=attempt, elapsed=elapsed)
                        outcome = "quarantined"
                        # In raise mode the *original* exception propagates,
                        # preserving the pre-supervisor serial-loop contract.
                        self._record_failure(sweep, task, failure, cause=exc)
                        break
                    outcome = "ok"
                    self._record_success(sweep, task, value, attempt,
                                         time.monotonic() - start)
                    break
            finally:
                if span is not None:
                    telemetry.tracer.end(span, outcome=outcome,
                                         attempts=attempt)

    # -- isolated worker mode ----------------------------------------------

    @staticmethod
    def _check_isolation_available() -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ExecutionError(
                "worker isolation needs the 'fork' start method, which "
                "this platform lacks; use jobs=1 with no timeout")

    def _run_isolated(self, todo: Sequence[Task],
                      sweep: SweepResult) -> None:
        ctx = multiprocessing.get_context("fork")
        pending = deque((task, 1, 0.0) for task in todo)
        running: List[_WorkerSlot] = []
        spans: Dict[str, Any] = {}  # live detached task spans, by key
        try:
            while pending or running:
                now = time.monotonic()
                self._launch_ready(ctx, pending, running, spans, now)
                self._wait(pending, running, now)
                now = time.monotonic()
                self._reap(pending, running, sweep, spans, now)
        finally:
            for slot in running:
                self._kill_slot(slot)
            if self.telemetry is not None:
                # Tasks still in flight when the sweep aborts (raise mode)
                # get their spans closed so the trace stays complete.
                for span in spans.values():
                    self.telemetry.tracer.end(span, outcome="aborted")
                spans.clear()

    def _launch_ready(self, ctx, pending, running: List["_WorkerSlot"],
                      spans: Dict[str, Any], now: float) -> None:
        while len(running) < self.jobs:
            index = next((i for i, (_, _, ready) in enumerate(pending)
                          if ready <= now), None)
            if index is None:
                break
            task, attempt, _ = pending[index]
            del pending[index]
            span_context = None
            if self.telemetry is not None:
                # One detached span covers every attempt of the task; its
                # context crosses the fork so the worker continues the
                # trace (see repro.telemetry.tracing).
                span = spans.get(task.key)
                if span is None:
                    span = self.telemetry.tracer.start(
                        "exec.task", detached=True, key=task.key)
                    spans[task.key] = span
                span_context = span.context.to_json()
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker_entry,
                               args=(task.fn, child_conn, span_context),
                               daemon=True)
            proc.start()
            child_conn.close()
            deadline = now + self.timeout if self.timeout else None
            running.append(_WorkerSlot(task=task, attempt=attempt,
                                       proc=proc, conn=parent_conn,
                                       started=now, deadline=deadline,
                                       grace=self.kill_grace))

    def _wait(self, pending, running: List["_WorkerSlot"],
              now: float) -> None:
        waits = [_POLL_CAP]
        waits += [slot.deadline - now for slot in running
                  if slot.deadline is not None]
        if len(running) < self.jobs:
            waits += [ready - now for (_, _, ready) in pending]
        wait = max(min(waits), 0.0)
        if running:
            mp_connection.wait([slot.conn for slot in running],
                               timeout=wait)
        elif wait > 0:
            time.sleep(wait)

    def _reap(self, pending, running: List["_WorkerSlot"],
              sweep: SweepResult, spans: Dict[str, Any],
              now: float) -> None:
        ready = mp_connection.wait([slot.conn for slot in running],
                                   timeout=0) if running else []
        for slot in list(running):
            if slot.conn in ready:
                outcome = slot.collect()
            elif slot.deadline is not None and now >= slot.deadline:
                escalated = self._kill_slot(slot)
                how = ("SIGKILLed after ignoring SIGTERM for "
                       f"{slot.grace:g}s" if escalated else "killed")
                outcome = ("timeout", "", f"no result within "
                           f"{self.timeout:g}s wall-clock; worker {how}",
                           "")
            else:
                continue
            running.remove(slot)
            elapsed = time.monotonic() - slot.started
            if outcome[0] == "ok":
                self._end_task_span(spans, slot, "ok")
                self._record_success(sweep, slot.task, outcome[1],
                                     slot.attempt, elapsed)
                continue
            kind, exception_type, message, tb = outcome
            if self.telemetry is not None and kind == "timeout":
                self.telemetry.metrics.counter("exec.timeouts").inc()
            if slot.attempt <= self.retries:
                if self.telemetry is not None:
                    self.telemetry.metrics.counter("exec.retries").inc()
                delay = self.backoff.delay(slot.task.key, slot.attempt)
                pending.append((slot.task, slot.attempt + 1, now + delay))
                continue
            self._end_task_span(spans, slot, "quarantined")
            self._record_failure(sweep, slot.task, TaskFailure(
                key=slot.task.key, kind=kind,
                exception_type=exception_type, message=message,
                traceback=tb, attempts=slot.attempt, elapsed=elapsed))

    def _kill_slot(self, slot: "_WorkerSlot") -> bool:
        """Kill one worker, escalating if needed; ticks ``exec.sigkills``
        when SIGTERM was not enough.  Returns True on escalation."""
        escalated = slot.kill()
        if escalated and self.telemetry is not None:
            self.telemetry.metrics.counter("exec.sigkills").inc()
        return escalated

    def _end_task_span(self, spans: Dict[str, Any], slot: "_WorkerSlot",
                       outcome: str) -> None:
        if self.telemetry is None:
            return
        span = spans.pop(slot.task.key, None)
        if span is not None:
            self.telemetry.tracer.end(span, outcome=outcome,
                                      attempts=slot.attempt)


@dataclass
class _WorkerSlot:
    """One live worker process and its bookkeeping."""

    task: Task
    attempt: int
    proc: multiprocessing.Process
    conn: mp_connection.Connection
    started: float
    deadline: Optional[float]
    grace: float = 1.0
    """Seconds a SIGTERMed worker gets to exit before SIGKILL."""

    def collect(self):
        """Drain the worker's report; classify a silent death as a crash."""
        try:
            message = self.conn.recv()
        except (EOFError, OSError):
            self.proc.join(timeout=5.0)
            code = self.proc.exitcode
            message = ("crash", "",
                       f"worker died without reporting (exit code {code})",
                       "")
        else:
            self.proc.join(timeout=5.0)
        self.conn.close()
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=5.0)
        return message

    def kill(self) -> bool:
        """Stop the worker (timeout or sweep teardown), escalating.

        SIGTERM first — a cooperative worker gets ``grace`` seconds to
        clean up and exit — then SIGKILL, which no handler can ignore.
        Returns True when escalation was needed (the worker blocked or
        ignored SIGTERM); the caller surfaces that in the failure record
        and metrics, because a SIGTERM-proof task is worth knowing about.
        """
        escalated = False
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=self.grace)
        if self.proc.is_alive():
            escalated = True
            self.proc.kill()
            self.proc.join(timeout=5.0)
        self.conn.close()
        return escalated


def _worker_entry(fn, conn, span_context=None) -> None:
    """Forked worker body: run the task, report exactly one message.

    ``span_context`` (the supervisor task span's ``to_json()`` form, when
    telemetry is on) is installed as the worker's ambient trace parent,
    so any tracer the task builds continues the supervisor's trace.
    """
    if span_context is not None:
        from repro.telemetry.tracing import SpanContext, set_ambient_context
        set_ambient_context(SpanContext.from_json(span_context))
    try:
        value = fn()
    except BaseException as exc:
        try:
            conn.send(("error", type(exc).__name__, str(exc),
                       traceback_module.format_exc()))
        except Exception:  # containment: pipe gone; parent reports a crash
            pass
        return
    try:
        conn.send(("ok", value, "", ""))
    except Exception as exc:
        try:
            conn.send(("error", type(exc).__name__,
                       f"task result could not cross the process "
                       f"boundary: {exc}", traceback_module.format_exc()))
        except Exception:  # containment: pipe gone; parent reports a crash
            pass
