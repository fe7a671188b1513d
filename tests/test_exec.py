"""Tests of the supervised execution layer (:mod:`repro.exec`).

Covers the supervisor failure paths the robustness story hangs on:
worker crash (hard and soft), hang hitting the wall-clock timeout,
retry-then-succeed, retry exhaustion → quarantine, serial-vs-parallel
determinism of batch summaries, and manifest journaling / resume.
"""

import os
import signal
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.control import RuleBasedController
from repro.cycles import CycleSpec, synthesize
from repro.errors import (
    ConfigurationError,
    ExecutionError,
    ManifestError,
)
from repro.exec import (
    Supervisor,
    SweepManifest,
    Task,
    TaskFailure,
    decode_payload,
    encode_payload,
    spec_hash,
)
from repro.exec.supervisor import _backoff_delay
from repro.powertrain import PowertrainSolver
from repro.sim import Simulator, run_batch, run_robustness
from repro.sim.robustness import RobustnessRow
from repro.faults import builtin_scenarios
from repro.vehicle import default_vehicle


def _double(n):
    return n * 2


def _raise_value_error():
    raise ValueError("injected worker failure")


def _hang_forever():
    time.sleep(60)


def _sigterm_proof_hang():
    """A worker that ignores SIGTERM and never returns (forked)."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        time.sleep(0.05)


def _double_seven():
    return 14


def _fuzz_tasks(n, must_not_run=False):
    """Deterministic fuzz workload; ``must_not_run`` asserts on execution
    (every task is expected to replay from the journal)."""
    def fn(i):
        if must_not_run:
            raise AssertionError(f"finished task t{i} was re-executed")
        return {"i": i, "x": 0.5 * i}
    return [Task(key=f"t{i}", fn=(lambda i=i: fn(i)), spec={"index": i})
            for i in range(n)]


def _die_hard():
    os._exit(7)


def _task(key, fn, **spec):
    return Task(key=key, fn=fn, spec=spec or {"key": key})


@pytest.fixture(scope="module")
def cycle():
    return synthesize(CycleSpec("x", duration=100, mean_speed_kmh=24.0,
                                max_speed_kmh=48.0, stop_count=2, seed=61))


class TestTaskSpecHash:
    def test_stable_across_insertion_order(self):
        assert spec_hash({"a": 1, "b": 2}) == spec_hash({"b": 2, "a": 1})

    def test_distinguishes_content(self):
        assert spec_hash({"seed": 1}) != spec_hash({"seed": 2})

    def test_rejects_unserialisable_spec(self):
        with pytest.raises(ConfigurationError):
            spec_hash({"fn": _double})


class TestBackoffPolicy:
    def test_deterministic_per_key_and_attempt(self):
        assert _backoff_delay("k", 1) == _backoff_delay("k", 1)

    def test_grows_exponentially(self):
        for attempt in (1, 2, 3):
            raw = 0.05 * 2.0 ** (attempt - 1)
            assert raw <= _backoff_delay("k", attempt) <= 1.25 * raw

    def test_jitter_decorrelates_tasks(self):
        assert _backoff_delay("task-a", 1) != _backoff_delay("task-b", 1)

    def test_respects_max_delay(self):
        assert _backoff_delay("k", 10) == 5.0


class TestSupervisorValidation:
    def test_rejects_zero_jobs(self):
        with pytest.raises(ConfigurationError):
            Supervisor(jobs=0)

    def test_rejects_negative_timeout(self):
        with pytest.raises(ConfigurationError):
            Supervisor(timeout=-1.0)

    def test_rejects_negative_retries(self):
        with pytest.raises(ConfigurationError):
            Supervisor(retries=-1)

    def test_rejects_unknown_failure_mode(self):
        with pytest.raises(ConfigurationError):
            Supervisor(failure_mode="explode")

    def test_rejects_duplicate_task_keys(self):
        with pytest.raises(ExecutionError, match="duplicate"):
            Supervisor().run([_task("a", lambda: 1), _task("a", lambda: 2)])


class TestSerialMode:
    def test_runs_in_order_and_in_process(self):
        order = []
        tasks = [_task(f"t{i}", lambda i=i: order.append(i) or i)
                 for i in range(4)]
        sweep = Supervisor().run(tasks)
        # In-process: side effects are visible; serial: submission order.
        assert order == [0, 1, 2, 3]
        assert [sweep.results[f"t{i}"] for i in range(4)] == [0, 1, 2, 3]
        assert sweep.coverage == 1.0

    def test_raise_mode_propagates_original_exception(self):
        supervisor = Supervisor(failure_mode="raise")
        with pytest.raises(ValueError, match="injected worker failure"):
            supervisor.run([_task("bad", _raise_value_error)])

    def test_quarantine_mode_completes_the_sweep(self):
        supervisor = Supervisor(failure_mode="quarantine")
        sweep = supervisor.run([_task("bad", _raise_value_error),
                                _task("good", lambda: 42)])
        assert sweep.results == {"good": 42}
        assert sweep.quarantined == ["bad"]
        failure = sweep.failures[0]
        assert failure.kind == "error"
        assert failure.exception_type == "ValueError"
        assert "injected worker failure" in failure.message
        assert "Traceback" in failure.traceback
        assert failure.attempts == 1

    def test_retry_then_succeed(self, tmp_path):
        marker = tmp_path / "attempted"

        def flaky():
            if not marker.exists():
                marker.touch()
                raise RuntimeError("first attempt dies")
            return "recovered"

        supervisor = Supervisor(retries=1, failure_mode="quarantine")
        sweep = supervisor.run([_task("flaky", flaky)])
        assert sweep.results == {"flaky": "recovered"}
        assert sweep.attempts["flaky"] == 2
        assert sweep.failures == []

    def test_retry_exhaustion_quarantines(self):
        calls = []

        def always_fails():
            calls.append(1)
            raise RuntimeError("never recovers")

        supervisor = Supervisor(retries=2, failure_mode="quarantine")
        sweep = supervisor.run([_task("doomed", always_fails)])
        assert len(calls) == 3  # initial attempt + 2 retries
        assert sweep.quarantined == ["doomed"]
        assert sweep.failures[0].attempts == 3


class TestIsolatedWorkers:
    def test_parallel_results_match_serial(self):
        tasks = lambda: [_task(f"n={i}", lambda i=i: _double(i), n=i)
                         for i in range(6)]
        serial = Supervisor().run(tasks())
        parallel = Supervisor(jobs=3, failure_mode="quarantine").run(tasks())
        assert parallel.results == serial.results

    def test_worker_exception_is_structured(self):
        supervisor = Supervisor(jobs=2, failure_mode="quarantine")
        sweep = supervisor.run([_task("bad", _raise_value_error),
                                _task("good", lambda: 1)])
        assert sweep.results == {"good": 1}
        failure = sweep.failures[0]
        assert failure.kind == "error"
        assert failure.exception_type == "ValueError"
        assert "Traceback" in failure.traceback

    def test_hard_crash_is_quarantined_as_crash(self):
        supervisor = Supervisor(jobs=2, failure_mode="quarantine")
        sweep = supervisor.run([_task("dies", _die_hard),
                                _task("good", lambda: 1)])
        assert sweep.results == {"good": 1}
        failure = sweep.failures[0]
        assert failure.kind == "crash"
        assert "exit code 7" in failure.message

    def test_hang_hits_timeout_and_is_killed(self):
        supervisor = Supervisor(jobs=2, timeout=0.5,
                                failure_mode="quarantine")
        start = time.monotonic()
        sweep = supervisor.run([_task("hang", _hang_forever),
                                _task("good", lambda: 1)])
        elapsed = time.monotonic() - start
        assert elapsed < 10.0  # nowhere near the 60 s sleep
        assert sweep.results == {"good": 1}
        failure = sweep.failures[0]
        assert failure.kind == "timeout"
        assert failure.elapsed >= 0.5

    def test_timeout_alone_forces_isolation(self):
        # A serial supervisor cannot preempt a hung task, so any timeout
        # switches to worker isolation even at jobs=1.
        supervisor = Supervisor(jobs=1, timeout=0.5,
                                failure_mode="quarantine")
        assert supervisor.isolated
        sweep = supervisor.run([_task("hang", _hang_forever)])
        assert sweep.quarantined == ["hang"]

    def test_parallel_retry_then_succeed(self, tmp_path):
        marker = tmp_path / "attempted"

        def flaky():
            if not marker.exists():
                marker.touch()
                raise RuntimeError("first attempt dies")
            return "recovered"

        supervisor = Supervisor(jobs=2, retries=1,
                                failure_mode="quarantine")
        sweep = supervisor.run([_task("flaky", flaky)])
        assert sweep.results == {"flaky": "recovered"}
        assert sweep.attempts["flaky"] == 2

    def test_raise_mode_raises_execution_error(self):
        supervisor = Supervisor(jobs=2, failure_mode="raise")
        with pytest.raises(ExecutionError):
            supervisor.run([_task("bad", _raise_value_error)])


class TestPayloadCodec:
    def test_round_trips_scalars_and_containers(self):
        value = {"a": [1, 2.5, None, True, "s"], "b": (1, 2)}
        assert decode_payload(encode_payload(value)) == value

    def test_round_trips_numpy_arrays_exactly(self):
        arr = np.array([0.1, float(np.pi), -1e300])
        out = decode_payload(encode_payload(arr))
        assert out.dtype == arr.dtype
        np.testing.assert_array_equal(out, arr)

    def test_round_trips_bool_and_int_arrays(self):
        for arr in (np.array([True, False]), np.arange(5, dtype=np.int64)):
            out = decode_payload(encode_payload(arr))
            assert out.dtype == arr.dtype
            np.testing.assert_array_equal(out, arr)

    def test_round_trips_nonfinite_floats(self):
        for value in (float("inf"), float("-inf")):
            assert decode_payload(encode_payload(value)) == value
        assert np.isnan(decode_payload(encode_payload(float("nan"))))

    def test_round_trips_registered_dataclass(self):
        row = RobustnessRow(controller="c", scenario="s", corrected_mpg=51.5,
                            mpg_retention=0.9, window_violations=1,
                            fallback_steps=2, fault_activations=3,
                            faulted_steps=4, final_soc=0.55, finite=True)
        assert decode_payload(encode_payload(row)) == row

    def test_rejects_unregistered_types(self):
        with pytest.raises(ManifestError):
            encode_payload(object())

    def test_decode_rejects_unlisted_dataclass(self):
        with pytest.raises(ManifestError, match="not allowed"):
            decode_payload({"__dataclass__": "os:environ", "fields": {}})


class TestSweepManifest:
    def test_refuses_to_overwrite_existing(self, tmp_path):
        path = tmp_path / "m.jsonl"
        SweepManifest(path)
        with pytest.raises(ManifestError, match="already exists"):
            SweepManifest(path)

    def test_resume_requires_existing_file(self, tmp_path):
        with pytest.raises(ManifestError, match="does not exist"):
            SweepManifest(tmp_path / "missing.jsonl", resume=True)

    def test_resume_skips_finished_work(self, tmp_path):
        path = tmp_path / "m.jsonl"
        supervisor = Supervisor(manifest=SweepManifest(path))
        supervisor.run([_task("a", lambda: 11, n=1),
                        _task("b", lambda: 22, n=2)])

        def must_not_run():
            raise AssertionError("finished task was re-executed")

        resumed = Supervisor(manifest=SweepManifest(path, resume=True))
        sweep = resumed.run([_task("a", must_not_run, n=1),
                             _task("b", must_not_run, n=2)])
        assert sweep.results == {"a": 11, "b": 22}
        assert sorted(sweep.resumed) == ["a", "b"]

    def test_quarantined_tasks_are_retried_on_resume(self, tmp_path):
        path = tmp_path / "m.jsonl"
        supervisor = Supervisor(manifest=SweepManifest(path),
                                failure_mode="quarantine")
        supervisor.run([_task("bad", _raise_value_error, n=1)])
        resumed = Supervisor(manifest=SweepManifest(path, resume=True),
                             failure_mode="quarantine")
        sweep = resumed.run([_task("bad", lambda: "fixed", n=1)])
        assert sweep.results == {"bad": "fixed"}
        assert sweep.resumed == []

    def test_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        supervisor = Supervisor(manifest=SweepManifest(path))
        supervisor.run([_task("a", lambda: 1, n=1)])
        with path.open("a") as fh:
            fh.write('{"type": "result", "status": "ok", "ha')  # killed here
        manifest = SweepManifest(path, resume=True)
        assert len(manifest.completed) == 1

    def test_torn_final_line_warns_loudly(self, tmp_path):
        """Crash recovery is tolerated but never silent: the discarded
        partial record must surface as a RuntimeWarning naming the line."""
        path = tmp_path / "m.jsonl"
        supervisor = Supervisor(manifest=SweepManifest(path))
        supervisor.run([_task("a", lambda: 1, n=1)])
        with path.open("a") as fh:
            fh.write('{"type": "result", "st')  # killed mid-append
        with pytest.warns(RuntimeWarning, match=r"m\.jsonl:3.*torn final"):
            manifest = SweepManifest(path, resume=True)
        assert len(manifest.completed) == 1

    def test_clean_resume_does_not_warn(self, tmp_path):
        import warnings as warnings_mod
        path = tmp_path / "m.jsonl"
        supervisor = Supervisor(manifest=SweepManifest(path))
        supervisor.run([_task("a", lambda: 1, n=1)])
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            SweepManifest(path, resume=True)

    def test_rejects_corruption_before_final_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('not json\n{"type": "manifest", "version": 1}\n')
        with pytest.raises(ManifestError, match="corrupt"):
            SweepManifest(path, resume=True)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"type": "manifest", "version": 99}\n')
        with pytest.raises(ManifestError, match="version"):
            SweepManifest(path, resume=True)

    def test_failure_records_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        supervisor = Supervisor(manifest=SweepManifest(path),
                                failure_mode="quarantine")
        supervisor.run([_task("bad", _raise_value_error, n=1)])
        manifest = SweepManifest(path, resume=True)
        failure = next(iter(manifest.quarantined.values()))
        assert isinstance(failure, TaskFailure)
        assert failure.exception_type == "ValueError"

    def test_torn_final_line_is_amputated(self, tmp_path):
        """Tolerating a torn tail on read is not enough: the fragment
        must be truncated out, or the resumed run's first append would
        concatenate onto it and corrupt the journal mid-file."""
        path = tmp_path / "m.jsonl"
        Supervisor(manifest=SweepManifest(path)).run(
            [_task("a", lambda: 1, n=1)])
        with path.open("a") as fh:
            fh.write('{"type": "result", "st')  # killed mid-append
        with pytest.warns(RuntimeWarning, match="torn final"):
            manifest = SweepManifest(path, resume=True)
        Supervisor(manifest=manifest).run(
            [_task("a", lambda: 1, n=1), _task("b", lambda: 2, n=2)])
        # The append after crash recovery landed on a clean boundary:
        # a third open parses every line and warns about nothing.
        import warnings as warnings_mod
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            again = SweepManifest(path, resume=True)
        assert len(again.completed) == 2

    def test_ok_record_without_payload_refuses_resume(self, tmp_path):
        """A parseable line stripped of its payload must never resume as
        a silent None payload."""
        import json
        path = tmp_path / "m.jsonl"
        Supervisor(manifest=SweepManifest(path)).run(
            [_task("a", lambda: 11, n=1), _task("b", lambda: 22, n=2)])
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        del record["payload"]
        lines[1] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match="no payload"):
            SweepManifest(path, resume=True)

    def test_result_record_without_hash_refuses_resume(self, tmp_path):
        import json
        path = tmp_path / "m.jsonl"
        Supervisor(manifest=SweepManifest(path)).run(
            [_task("a", lambda: 11, n=1)])
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        del record["hash"]
        lines[1] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match="no spec hash"):
            SweepManifest(path, resume=True)


class TestKillEscalation:
    """SIGTERM → grace → SIGKILL: no worker can outlive its timeout."""

    def test_rejects_nonpositive_grace(self):
        with pytest.raises(ConfigurationError, match="kill_grace"):
            Supervisor(kill_grace=0.0)

    def test_sigterm_ignoring_worker_is_sigkilled(self):
        supervisor = Supervisor(timeout=0.3, kill_grace=0.15)
        start = time.monotonic()
        sweep = supervisor.run([_task("stubborn", _sigterm_proof_hang),
                                _task("fine", _double_seven)])
        elapsed = time.monotonic() - start
        assert sweep.results == {"fine": 14}
        assert sweep.quarantined == ["stubborn"]
        failure = sweep.failures[0]
        assert failure.kind == "timeout"
        assert "SIGKILL" in failure.message
        # Bounded by timeout + grace + joins, never a hang of our own.
        assert elapsed < 15.0

    def test_cooperative_worker_is_not_reported_escalated(self):
        supervisor = Supervisor(timeout=0.3, kill_grace=2.0)
        sweep = supervisor.run([_task("hang", _hang_forever)])
        failure = sweep.failures[0]
        assert failure.kind == "timeout"
        assert "SIGKILL" not in failure.message

    def test_escalation_ticks_sigkill_counter(self, tmp_path):
        from repro.telemetry import Telemetry
        with Telemetry(tmp_path / "t.jsonl") as telemetry:
            supervisor = Supervisor(timeout=0.3, kill_grace=0.15,
                                    telemetry=telemetry)
            supervisor.run([_task("stubborn", _sigterm_proof_hang)])
            assert telemetry.metrics.counter("exec.sigkills").value == 1


class TestManifestFuzz:
    """Property-style journal resilience: random duplication, reordering,
    and tearing must either resume exactly or refuse loudly — never
    resume silently wrong."""

    @staticmethod
    def _journal(tmp_dir, n):
        path = Path(tmp_dir) / "m.jsonl"
        Supervisor(manifest=SweepManifest(path)).run(_fuzz_tasks(n))
        return path

    @staticmethod
    def _expected(n):
        return {f"t{i}": {"i": i, "x": 0.5 * i} for i in range(n)}

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 6), data=st.data())
    def test_duplicated_and_reordered_lines_resume_exactly(self, n, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = self._journal(tmp, n)
            header, *results = path.read_text().splitlines()
            dup = data.draw(st.lists(st.sampled_from(results), max_size=4))
            order = data.draw(st.permutations(results + dup))
            path.write_text("\n".join([header] + list(order)) + "\n")
            sweep = Supervisor(
                manifest=SweepManifest(path, resume=True)).run(
                _fuzz_tasks(n, must_not_run=True))
            assert sweep.results == self._expected(n)
            assert sorted(sweep.resumed) == sorted(f"t{i}"
                                                   for i in range(n))
            assert sweep.coverage == 1.0

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(3, 6), target=st.integers(0, 4),
           cut=st.floats(0.05, 0.95))
    def test_torn_midfile_line_refuses_resume(self, n, target, cut):
        with tempfile.TemporaryDirectory() as tmp:
            path = self._journal(tmp, n)
            header, *results = path.read_text().splitlines()
            index = target % (n - 1)  # never the final line
            results[index] = results[index][
                :max(1, int(len(results[index]) * cut))]
            path.write_text("\n".join([header] + results) + "\n")
            with pytest.raises(ManifestError):
                SweepManifest(path, resume=True)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 6), cut=st.floats(0.05, 0.95))
    def test_torn_final_line_resumes_exactly(self, n, cut):
        with tempfile.TemporaryDirectory() as tmp:
            path = self._journal(tmp, n)
            header, *results = path.read_text().splitlines()
            torn = results[-1][:max(1, int(len(results[-1]) * cut))]
            path.write_text("\n".join([header] + results[:-1])
                            + "\n" + torn)
            with pytest.warns(RuntimeWarning, match="torn final"):
                manifest = SweepManifest(path, resume=True)
            sweep = Supervisor(manifest=manifest).run(_fuzz_tasks(n))
            assert sweep.results == self._expected(n)
            assert len(sweep.resumed) == n - 1  # torn task re-ran


class TestBatchThroughSupervisor:
    def test_serial_vs_parallel_batch_identical(self, cycle):
        def batch(executor):
            return run_batch(
                lambda solver, seed: RuleBasedController(solver),
                lambda: PowertrainSolver(default_vehicle()),
                cycle, seeds=[0, 1, 2], episodes=1, executor=executor)

        serial = batch(None)
        parallel = batch(Supervisor(jobs=3, failure_mode="quarantine"))
        assert parallel.coverage == 1.0
        assert parallel.summarize() == serial.summarize()

    def test_quarantined_repetition_degrades_gracefully(self, cycle):
        def factory(solver, seed):
            if seed == 1:
                raise ValueError("injected repetition failure")
            return RuleBasedController(solver)

        batch = run_batch(factory,
                          lambda: PowertrainSolver(default_vehicle()),
                          cycle, seeds=[0, 1, 2], episodes=1,
                          executor=Supervisor(failure_mode="quarantine"))
        assert batch.planned == 3
        assert len(batch.evaluations) == 2
        assert batch.coverage == pytest.approx(2 / 3)
        assert batch.failures[0].key == "seed=1"
        assert batch.summarize()["total_fuel_g"].count == 2

    def test_default_executor_still_raises(self, cycle):
        def factory(solver, seed):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            run_batch(factory, lambda: PowertrainSolver(default_vehicle()),
                      cycle, seeds=[0], episodes=1)

    def test_batch_manifest_resume_identical_summaries(self, cycle, tmp_path):
        """A batch killed mid-run and re-launched with the manifest skips
        the finished repetitions and reproduces the uninterrupted
        summaries exactly."""
        path = tmp_path / "batch.jsonl"

        def batch(seeds, executor):
            return run_batch(
                lambda solver, seed: RuleBasedController(solver),
                lambda: PowertrainSolver(default_vehicle()),
                cycle, seeds=seeds, episodes=1, executor=executor)

        uninterrupted = batch([0, 1], None)
        # Simulate a kill after the first repetition: only seed 0 is
        # journaled before the re-launch.
        batch([0], Supervisor(manifest=SweepManifest(path)))
        resumed = batch([0, 1],
                        Supervisor(manifest=SweepManifest(path,
                                                          resume=True)))
        assert resumed.summarize() == uninterrupted.summarize()


class TestRobustnessThroughSupervisor:
    @pytest.fixture(scope="class")
    def scenarios(self):
        everything = builtin_scenarios()
        return {name: everything[name]
                for name in ["aux_spike", "noisy_sensors"]}

    def test_graceful_degradation_with_failing_controller(self, cycle,
                                                          scenarios):
        solver = PowertrainSolver(default_vehicle())
        simulator = Simulator(solver)

        class ExplodingController(RuleBasedController):
            def act(self, *args, **kwargs):
                raise ValueError("controller meltdown")

        controllers = {"good": RuleBasedController(solver),
                       "bad": ExplodingController(solver)}
        report = run_robustness(
            simulator, controllers, scenarios, cycle, seed=1,
            executor=Supervisor(failure_mode="quarantine"))
        # The good controller's full column survives; the bad one's
        # healthy reference is quarantined and its cells are skipped.
        assert {r.controller for r in report.rows} == {"good"}
        assert len(report.rows) == 1 + len(scenarios)
        assert report.planned == 2 * (1 + len(scenarios))
        kinds = {f.key: f.kind for f in report.failures}
        assert kinds["bad/(healthy)"] == "error"
        assert all(kinds[f"bad/{name}"] == "skipped" for name in scenarios)
        assert 0 < report.coverage < 1
        rendered = report.render()
        assert "quarantined" in rendered

    def test_manifest_resume_reproduces_report(self, cycle, scenarios,
                                               tmp_path):
        path = tmp_path / "grid.jsonl"

        def grid(executor):
            solver = PowertrainSolver(default_vehicle())
            simulator = Simulator(solver)
            controllers = {"rb": RuleBasedController(solver)}
            return run_robustness(simulator, controllers, scenarios, cycle,
                                  seed=1, executor=executor)

        uninterrupted = grid(None)
        grid(Supervisor(manifest=SweepManifest(path),
                        failure_mode="quarantine"))
        resumed = grid(Supervisor(manifest=SweepManifest(path, resume=True),
                                  failure_mode="quarantine"))
        assert resumed.rows == uninterrupted.rows
