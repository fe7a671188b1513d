"""Tests of the observability layer (:mod:`repro.telemetry`).

Covers the acceptance criteria of the telemetry tentpole: histogram
quantile accuracy against ``numpy.percentile``, span nesting and
serialisable context round-trips, JSONL schema validation including the
torn-final-line crash tolerance, the golden guarantee that a
disabled-telemetry run is bit-identical to the seed code path, the
instrumentation of the simulator / training loop / supervised executor /
safety supervisor, and the ``repro telemetry report`` CLI surface.
"""

import json
import logging

import numpy as np
import pytest

from repro.cli import main
from repro.control import RuleBasedController
from repro.control.base import Controller
from repro.control.rl_controller import build_rl_controller
from repro.cycles import CycleSpec, synthesize
from repro.errors import ConfigurationError, TelemetryError
from repro.exec import Supervisor, SweepManifest, Task, TaskFailure
from repro.powertrain import PowertrainSolver
from repro.safety import SafetySupervisor
from repro.sim import Simulator, evaluate, train
from repro.telemetry import (
    Counter,
    EventSink,
    Gauge,
    Histogram,
    MetricsRegistry,
    SpanContext,
    Telemetry,
    Tracer,
    attach_logging_bridge,
    detach_logging_bridge,
    exponential_buckets,
    read_events,
    summarize,
    summarize_events,
    summarize_manifest,
    validate_event,
)
from repro.telemetry.runtime import STEP_SAMPLE_EVERY
from repro.telemetry.tracing import ambient_context, set_ambient_context
from repro.vehicle import default_vehicle


@pytest.fixture(scope="module")
def cycle():
    return synthesize(CycleSpec("tel", duration=90, mean_speed_kmh=25.0,
                                max_speed_kmh=50.0, stop_count=2, seed=3))


@pytest.fixture()
def solver():
    return PowertrainSolver(default_vehicle())


# --------------------------------------------------------------- metrics ---


class TestBuckets:
    def test_exponential(self):
        assert exponential_buckets(1.0, 2.0, 3) == (1.0, 2.0, 4.0)

    def test_invalid(self):
        with pytest.raises(TelemetryError):
            exponential_buckets(0.0, 2.0, 3)


class TestCounterAndGauge:
    def test_counter_accumulates(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert c.snapshot() == {"kind": "counter", "value": 3.5}

    def test_counter_rejects_decrease(self):
        with pytest.raises(TelemetryError):
            Counter("c").inc(-1)

    def test_gauge_keeps_last(self):
        g = Gauge("g")
        assert g.value is None
        g.set(1.0)
        g.set(-2.0)
        assert g.value == -2.0


class TestHistogram:
    def test_quantiles_match_numpy_within_bucket_width(self):
        width = 0.5
        rng = np.random.default_rng(0)
        data = rng.uniform(0.0, 10.0, size=500)
        hist = Histogram("h", tuple(width + i * width for i in range(20)))
        for v in data:
            hist.observe(v)
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            expected = float(np.percentile(data, 100 * q))
            assert abs(hist.quantile(q) - expected) <= width + 1e-9

    def test_extremes_are_exact(self):
        hist = Histogram("h", (1.0, 2.0, 3.0, 4.0, 5.0))
        for v in (0.3, 2.2, 7.7):
            hist.observe(v)
        assert hist.quantile(0.0) == 0.3
        assert hist.quantile(1.0) == 7.7

    def test_empty_is_nan(self):
        assert np.isnan(Histogram("h", (1.0,)).quantile(0.5))

    def test_rejects_nonfinite_and_bad_q(self):
        hist = Histogram("h", (1.0,))
        with pytest.raises(TelemetryError):
            hist.observe(float("nan"))
        with pytest.raises(TelemetryError):
            hist.quantile(1.5)

    def test_rejects_bad_bounds(self):
        with pytest.raises(TelemetryError):
            Histogram("h", ())
        with pytest.raises(TelemetryError):
            Histogram("h", (1.0, 1.0))
        with pytest.raises(TelemetryError):
            Histogram("h", (1.0, float("inf")))

    def test_snapshot_shape(self):
        hist = Histogram("h", (1.0, 2.0))
        hist.observe(0.5)
        snap = hist.snapshot()
        assert snap["kind"] == "histogram"
        assert snap["count"] == 1
        assert snap["min"] == snap["max"] == snap["p50"] == 0.5


class TestMetricsRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TelemetryError):
            reg.gauge("a")

    def test_histogram_needs_buckets_first(self):
        reg = MetricsRegistry()
        with pytest.raises(TelemetryError):
            reg.histogram("h")
        reg.histogram("h", buckets=(1.0, 2.0))
        assert reg.histogram("h") is reg.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(TelemetryError):
            reg.histogram("h", buckets=(1.0, 3.0))

    def test_snapshot_covers_all(self):
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.gauge("a").set(1.0)
        assert list(reg.snapshot()) == ["a", "z"]


# --------------------------------------------------------------- tracing ---


class TestTracing:
    def test_nesting_records_parent_chain(self):
        records = []
        tracer = Tracer(emit=records.append)
        outer = tracer.start("outer", layer="sim")
        inner = tracer.start("inner")
        tracer.end(inner)
        tracer.end(outer, outcome="ok")
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records[0]["parent_id"] == outer.context.span_id
        assert records[1]["parent_id"] is None
        assert records[0]["trace_id"] == records[1]["trace_id"]
        assert records[1]["attributes"] == {"layer": "sim", "outcome": "ok"}
        assert records[0]["duration"] >= 0.0

    def test_unbalanced_end_raises(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        tracer.start("inner")
        with pytest.raises(TelemetryError):
            tracer.end(outer)

    def test_double_end_raises(self):
        tracer = Tracer()
        span = tracer.start("s")
        tracer.end(span)
        with pytest.raises(TelemetryError):
            tracer.end(span)

    def test_detached_spans_overlap(self):
        tracer = Tracer()
        a = tracer.start("a", detached=True)
        b = tracer.start("b", detached=True)
        assert tracer.current_context() is None
        tracer.end(a)  # out of start order: fine for detached spans
        tracer.end(b)

    def test_context_round_trip(self):
        ctx = SpanContext("trace", "span", "parent")
        assert SpanContext.from_json(ctx.to_json()) == ctx
        assert SpanContext.from_json(
            json.loads(json.dumps(ctx.to_json()))) == ctx

    def test_malformed_context_raises(self):
        with pytest.raises(TelemetryError):
            SpanContext.from_json({"trace_id": "", "span_id": "s"})

    def test_ambient_context_becomes_parent(self):
        set_ambient_context(SpanContext("trace-x", "span-x"))
        try:
            tracer = Tracer()
            root = tracer.start("root")
            assert root.context.trace_id == "trace-x"
            assert root.context.parent_id == "span-x"
            tracer.end(root)
        finally:
            set_ambient_context(None)
        assert ambient_context() is None

    def test_span_context_manager(self):
        records = []
        tracer = Tracer(emit=records.append)
        with tracer.span("region", k=1):
            pass
        assert records[0]["name"] == "region"


# ---------------------------------------------------------------- events ---


class TestEventSink:
    def test_header_and_round_trip(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with EventSink(path, run_id="r1") as sink:
            sink.emit("step", t=0, speed=1.0, soc=0.6, reward=-1.0,
                      current=0.0)
        records = read_events(path)
        assert [r["type"] for r in records] == ["telemetry", "step"]
        assert records[0]["run_id"] == "r1"
        assert [r["seq"] for r in records] == [0, 1]

    def test_refuses_existing_without_append(self, tmp_path):
        path = tmp_path / "e.jsonl"
        EventSink(path).close()
        with pytest.raises(TelemetryError):
            EventSink(path)

    def test_append_adopts_run_id(self, tmp_path):
        path = tmp_path / "e.jsonl"
        EventSink(path, run_id="orig").close()
        sink = EventSink(path, append=True)
        assert sink.run_id == "orig"
        sink.close()
        assert len(read_events(path)) == 1  # no second header

    def test_append_refuses_a_record_missing_a_field(self, tmp_path):
        """An appender validates every existing record, as the reader
        does, so it never extends a file ``read_events`` would refuse."""
        path = tmp_path / "e.jsonl"
        with EventSink(path) as sink:
            sink.emit("log", level="WARNING", logger="x", message="m")
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        del record["message"]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TelemetryError, match=r"e\.jsonl:2: .*'message'"):
            EventSink(path, append=True)

    def test_append_missing_raises(self, tmp_path):
        with pytest.raises(TelemetryError):
            EventSink(tmp_path / "missing.jsonl", append=True)

    def test_unknown_type_raises(self, tmp_path):
        with EventSink(tmp_path / "e.jsonl") as sink:
            with pytest.raises(TelemetryError):
                sink.emit("nonsense", anything=1)

    def test_missing_field_raises(self, tmp_path):
        with EventSink(tmp_path / "e.jsonl") as sink:
            with pytest.raises(TelemetryError):
                sink.emit("step", t=0, speed=1.0)  # soc/reward/current gone

    def test_bool_is_not_a_number(self, tmp_path):
        with EventSink(tmp_path / "e.jsonl") as sink:
            with pytest.raises(TelemetryError):
                sink.emit("step", t=0, speed=True, soc=0.6, reward=-1.0,
                          current=0.0)

    def test_emit_after_close_raises(self, tmp_path):
        sink = EventSink(tmp_path / "e.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(TelemetryError):
            sink.emit("log", level="WARNING", logger="x", message="m")

    def test_torn_final_line_tolerated_loudly(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with EventSink(path) as sink:
            sink.emit("log", level="WARNING", logger="x", message="m")
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"type": "log", "lev')  # killed mid-append
        with pytest.warns(RuntimeWarning, match="torn final"):
            records = read_events(path)
        assert len(records) == 2

    def test_append_after_torn_tail_keeps_every_event(self, tmp_path):
        """Reopening a torn file to append amputates the fragment, so the
        new events land on a line boundary instead of onto the fragment."""
        path = tmp_path / "e.jsonl"
        with EventSink(path) as sink:
            sink.emit("log", level="WARNING", logger="x", message="before")
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"type": "log", "lev')  # killed mid-append
        with pytest.warns(RuntimeWarning, match="torn final telemetry"):
            sink = EventSink(path, append=True)
        with sink:
            sink.emit("log", level="WARNING", logger="x", message="one")
            sink.emit("log", level="WARNING", logger="x", message="two")
        records = read_events(path)
        assert [r["message"] for r in records[1:]] == ["before", "one", "two"]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with EventSink(path) as sink:
            sink.emit("log", level="WARNING", logger="x", message="m")
        lines = path.read_text().splitlines()
        lines.insert(1, "not json at all")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TelemetryError, match="corrupt"):
            read_events(path)

    def test_invalid_record_mid_file_raises(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with EventSink(path) as sink:
            sink.emit("log", level="WARNING", logger="x", message="m")
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "step", "v": 1, "seq": 9,
                                 "wall": 0.0, "pid": 1}) + "\n")
        with pytest.raises(TelemetryError, match="missing required field"):
            read_events(path)

    def test_validate_event_rejects_wrong_version(self):
        with pytest.raises(TelemetryError, match="schema version"):
            validate_event({"type": "log", "v": 99, "seq": 0, "wall": 0.0,
                            "pid": 1, "level": "WARNING", "logger": "x",
                            "message": "m"})


class TestTelemetryFacade:
    def test_close_snapshots_metrics(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Telemetry(path) as tel:
            tel.metrics.counter("hits").inc(3)
        records = read_events(path)
        assert records[-1]["type"] == "metrics_snapshot"
        assert records[-1]["metrics"]["hits"]["value"] == 3.0

    def test_no_snapshot_without_metrics(self, tmp_path):
        path = tmp_path / "t.jsonl"
        Telemetry(path).close()
        assert [r["type"] for r in read_events(path)] == ["telemetry"]

    def test_spans_flow_into_sink(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Telemetry(path) as tel:
            with tel.span("work"):
                pass
        assert any(r["type"] == "span" and r["name"] == "work"
                   for r in read_events(path))


# --------------------------------------------------------- logging bridge ---


class TestLoggingBridge:
    def test_warning_records_bridged(self, tmp_path):
        path = tmp_path / "t.jsonl"
        logger = logging.getLogger("repro.test_bridge")
        logger.setLevel(logging.DEBUG)
        with Telemetry(path) as tel:
            handler = attach_logging_bridge(tel, logger)
            logger.warning("the solver %s", "wobbled")
            logger.info("below the bridge level")
            detach_logging_bridge(handler, logger)
            logger.warning("after detach")
        logs = [r for r in read_events(path) if r["type"] == "log"]
        assert len(logs) == 1
        assert logs[0]["message"] == "the solver wobbled"
        assert logs[0]["level"] == "WARNING"


# ------------------------------------------------------ golden determinism ---


class TestGoldenDeterminism:
    def test_enabled_equals_disabled_rule_based(self, solver, cycle,
                                                tmp_path):
        plain = Simulator(solver).run_episode(
            RuleBasedController(solver), cycle, learn=False, greedy=True)
        with Telemetry(tmp_path / "t.jsonl") as tel:
            instrumented = Simulator(solver, telemetry=tel).run_episode(
                RuleBasedController(solver), cycle, learn=False, greedy=True)
        for field in ("soc", "current", "fuel_rate", "reward", "gear",
                      "aux_power", "mode"):
            assert np.array_equal(getattr(plain, field),
                                  getattr(instrumented, field)), field

    def test_enabled_equals_disabled_rl_training(self, cycle, tmp_path):
        def _train(telemetry):
            solver = PowertrainSolver(default_vehicle())
            simulator = Simulator(solver, telemetry=telemetry)
            controller = build_rl_controller(solver, seed=11)
            return train(simulator, controller, cycle, episodes=2, seed=11)

        baseline = _train(None)
        with Telemetry(tmp_path / "t.jsonl") as tel:
            instrumented = _train(tel)
        assert baseline.learning_curve == instrumented.learning_curve
        assert np.array_equal(baseline.evaluation.soc,
                              instrumented.evaluation.soc)
        assert np.array_equal(baseline.evaluation.current,
                              instrumented.evaluation.current)


# ------------------------------------------------------- instrumentation ---


class TestSimulatorInstrumentation:
    def test_episode_events_and_spans(self, solver, cycle, tmp_path):
        path = tmp_path / "t.jsonl"
        with Telemetry(path) as tel:
            simulator = Simulator(solver, telemetry=tel)
            result = evaluate(simulator, RuleBasedController(solver), cycle)
        records = read_events(path)
        spans = [r for r in records if r["type"] == "span"]
        assert [s["name"] for s in spans] == ["sim.episode"]
        assert spans[0]["attributes"]["outcome"] == "ok"
        episodes = [r for r in records if r["type"] == "episode"]
        assert len(episodes) == 1
        assert episodes[0]["steps"] == len(result.soc)
        assert episodes[0]["final_soc"] == pytest.approx(result.final_soc)
        steps = [r for r in records if r["type"] == "step"]
        assert len(steps) == ((len(result.soc) + STEP_SAMPLE_EVERY - 1)
                              // STEP_SAMPLE_EVERY)
        snapshot = records[-1]["metrics"]
        assert snapshot["sim.episodes"]["value"] == 1.0
        assert snapshot["sim.step_seconds"]["count"] == len(result.soc)

    def test_training_span_and_episode_events(self, cycle, tmp_path):
        path = tmp_path / "t.jsonl"
        with Telemetry(path) as tel:
            solver = PowertrainSolver(default_vehicle())
            simulator = Simulator(solver, telemetry=tel)
            train(simulator, build_rl_controller(solver, seed=5), cycle,
                  episodes=3)
        records = read_events(path)
        train_spans = [r for r in records
                       if r["type"] == "span" and r["name"] == "train.run"]
        assert len(train_spans) == 1
        assert train_spans[0]["attributes"]["trained"] == 3
        assert train_spans[0]["attributes"]["outcome"] == "ok"
        assert len([r for r in records
                    if r["type"] == "training_episode"]) == 3
        # 3 training episodes + the greedy evaluation
        assert len([r for r in records if r["type"] == "episode"]) == 4


class _BoomController(Controller):
    """Always raises a structured error (drives the safety fallback)."""

    def begin_episode(self):
        pass

    def finish_episode(self, learn=True):
        pass

    def act(self, *args, **kwargs):
        raise ConfigurationError("scripted controller failure")


class TestSafetyInstrumentation:
    def test_guard_and_transition_events(self, solver, tmp_path):
        path = tmp_path / "t.jsonl"
        with Telemetry(path) as tel:
            supervisor = SafetySupervisor(_BoomController(), solver,
                                          telemetry=tel)
            supervisor.begin_episode()
            supervisor.act(10.0, 0.0, 0.60, 1.0)
            assert tel.metrics.counter("safety.guard_events").value == 2.0
            assert tel.metrics.counter("safety.transitions").value == 1.0
        records = read_events(path)
        kinds = [r["kind"] for r in records
                 if r["type"] == "guard_intervention"]
        assert kinds == ["controller_error", "fallback_engaged"]
        transitions = [r for r in records if r["type"] == "health_transition"]
        assert len(transitions) == 1
        assert transitions[0]["source"] == "NOMINAL"
        assert transitions[0]["target"] == "LIMP_HOME"


def _ok():
    return 42


class _FlakyOnce:
    """Raises on the first call, succeeds afterwards."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls == 1:
            raise ValueError("first attempt fails")
        return "recovered"


def _always_fails():
    raise ValueError("hopeless")


class TestSupervisorInstrumentation:
    def test_serial_task_events_and_retries(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Telemetry(path) as tel:
            supervisor = Supervisor(retries=1, telemetry=tel)
            sweep = supervisor.run([
                Task(key="good", fn=_ok, spec={"k": "good"}),
                Task(key="flaky", fn=_FlakyOnce(), spec={"k": "flaky"}),
                Task(key="bad", fn=_always_fails, spec={"k": "bad"}),
            ])
            assert sweep.results["flaky"] == "recovered"
            assert tel.metrics.counter("exec.retries").value == 2.0
            assert tel.metrics.counter("exec.tasks_completed").value == 2.0
            assert tel.metrics.counter("exec.tasks_quarantined").value == 1.0
        records = read_events(path)
        tasks = {r["key"]: r for r in records if r["type"] == "task"}
        assert tasks["good"]["outcome"] == "ok"
        assert tasks["good"]["attempts"] == 1
        assert tasks["flaky"]["outcome"] == "ok"
        assert tasks["flaky"]["attempts"] == 2
        assert tasks["bad"]["outcome"] == "quarantined"
        assert tasks["bad"]["attempts"] == 2
        span_names = [r["name"] for r in records if r["type"] == "span"]
        assert span_names.count("exec.task") == 3
        assert span_names[-1] == "exec.sweep"

    def test_isolated_tasks_traced_with_shared_trace_id(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Telemetry(path) as tel:
            supervisor = Supervisor(jobs=2, telemetry=tel)
            sweep = supervisor.run([
                Task(key="a", fn=_ok, spec={"k": "a"}),
                Task(key="b", fn=_ok, spec={"k": "b"}),
            ])
        assert sweep.results == {"a": 42, "b": 42}
        records = read_events(path)
        spans = [r for r in records if r["type"] == "span"]
        task_spans = [s for s in spans if s["name"] == "exec.task"]
        sweep_span = next(s for s in spans if s["name"] == "exec.sweep")
        assert len(task_spans) == 2
        for span in task_spans:
            assert span["attributes"]["outcome"] == "ok"
            assert span["parent_id"] == sweep_span["span_id"]
            assert span["trace_id"] == sweep_span["trace_id"]

    def test_resumed_tasks_journaled(self, tmp_path):
        manifest_path = tmp_path / "m.jsonl"
        manifest = SweepManifest(manifest_path)
        task = Task(key="a", fn=_ok, spec={"k": "a"})
        Supervisor(manifest=manifest).run([task])
        path = tmp_path / "t.jsonl"
        with Telemetry(path) as tel:
            resumed = Supervisor(
                manifest=SweepManifest(manifest_path, resume=True),
                telemetry=tel)
            resumed.run([task])
            assert tel.metrics.counter("exec.tasks_resumed").value == 1.0
        tasks = [r for r in read_events(path) if r["type"] == "task"]
        assert tasks[0]["outcome"] == "resumed"
        assert tasks[0]["attempts"] == 0


# ---------------------------------------------------------------- reports ---


class TestReports:
    def test_event_report_renders_sections(self, solver, cycle, tmp_path):
        path = tmp_path / "t.jsonl"
        with Telemetry(path) as tel:
            simulator = Simulator(solver, telemetry=tel)
            evaluate(simulator, RuleBasedController(solver), cycle)
            Supervisor(telemetry=tel).run(
                [Task(key="a", fn=_ok, spec={"k": "a"})])
        summary = summarize_events(path)
        text = summary.render()
        assert "sim.episode" in text
        assert "episodes: 1" in text
        assert "supervised tasks: 1 (ok=1)" in text
        assert "final metrics snapshot" in text
        assert summarize(path) == text

    def test_manifest_report_counts_latency(self, tmp_path):
        path = tmp_path / "m.jsonl"
        manifest = SweepManifest(path)
        manifest.record_success(Task(key="fast", fn=_ok, spec={"k": "f"}),
                                payload=1, attempts=1, elapsed=0.25)
        manifest.record_failure(
            Task(key="slow", fn=_ok, spec={"k": "s"}),
            TaskFailure(key="slow", kind="timeout", exception_type="",
                        message="killed", traceback="", attempts=2,
                        elapsed=4.0))
        summary = summarize_manifest(path)
        assert summary.ok == 1
        assert summary.quarantined == 1
        assert summary.attempts == 3
        assert summary.retries == 1
        assert summary.slowest[0] == ("slow", 4.0)
        text = summary.render()
        assert "ok=1, quarantined=1" in text
        assert summarize(path) == text

    def test_manifest_lines_carry_latency_at_top_level(self, tmp_path):
        path = tmp_path / "m.jsonl"
        manifest = SweepManifest(path)
        manifest.record_success(Task(key="a", fn=_ok, spec={"k": "a"}),
                                payload=1, attempts=1, elapsed=0.5)
        manifest.record_failure(
            Task(key="b", fn=_ok, spec={"k": "b"}),
            TaskFailure(key="b", kind="error", exception_type="ValueError",
                        message="x", traceback="", attempts=2, elapsed=1.5))
        lines = [json.loads(line) for line in
                 path.read_text().splitlines()[1:]]
        for record in lines:
            assert "completed_unix" in record
            assert isinstance(record["attempts"], int)
            assert isinstance(record["elapsed"], float)

    def test_summarize_rejects_unknown_file(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(TelemetryError):
            summarize(path)


# -------------------------------------------------------------------- CLI ---


class TestCLITelemetry:
    def test_evaluate_with_telemetry_then_report(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["evaluate", "--cycle", "SC03", "--repeats", "1",
                     "--controller", "rule-based", "--guard",
                     "--telemetry", str(path)]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["telemetry", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry report:" in out
        assert "sim.episode" in out

    def test_existing_telemetry_path_is_structured_error(self, tmp_path,
                                                         capsys):
        path = tmp_path / "run.jsonl"
        path.write_text("occupied\n")
        assert main(["evaluate", "--cycle", "SC03", "--repeats", "1",
                     "--telemetry", str(path)]) == 2
        assert "already exists" in capsys.readouterr().err

    def test_report_missing_file_is_structured_error(self, tmp_path,
                                                     capsys):
        assert main(["telemetry", "report",
                     str(tmp_path / "missing.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err
