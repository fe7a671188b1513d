"""Tests of the resilient online-learning loop (:mod:`repro.learn`).

Covers the acceptance criteria of the online-learning tentpole: the
Hypothesis fuzz guarantee that any truncation, field drop, type
mutation, or non-finite value in an experience record surfaces as a
structured :class:`~repro.errors.ExperienceError` (never a crash, never
silent garbage); journal torn-tail amputation and its idempotence;
content-hash cursors that re-read nothing twice and refuse a journal
rewritten underneath them; oldest-first backpressure shedding; the
learner's kill-and-resume bit-identity contract; the regression
watchdog; the guarded promotion pipeline — including the canary edge
cases (zero-decision cohort, starved rollout, a no-op swap of an
identical candidate that must NOT reset the watchdog baseline) — and
the loop's vetted-incumbent pinning across restarts.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.artifact import write_table
from repro.control.rl_controller import build_rl_controller
from repro.errors import ExperienceError, PersistenceError, ServeError
from repro.learn import (
    ExperienceRecord,
    ExperienceStream,
    OnlineLearner,
    OnlineLearnerConfig,
    OnlineLearningLoop,
    PromotionPipeline,
    RegressionWatchdog,
    decode_record,
    encode_record,
    read_journal,
)
from repro.learn.loop import STATE_NAME
from repro.powertrain import PowertrainSolver
from repro.rl.persistence import _fingerprint
from repro.rl.td_lambda import TDLambdaConfig, TDLambdaLearner
from repro.serve import (
    CanaryConfig,
    FleetConfig,
    PolicyRegistry,
    PolicyServer,
)
from repro.vehicle import default_vehicle


@pytest.fixture(scope="module")
def policy():
    """``(table, fingerprint)`` of one deterministic non-trivial policy."""
    solver = PowertrainSolver(default_vehicle())
    agent = build_rl_controller(solver, seed=23).agent
    rng = np.random.default_rng(23)
    agent.learner.qtable.values[:] = rng.normal(
        size=agent.learner.qtable.values.shape)
    return agent.learner.qtable.values.copy(), _fingerprint(agent)


def _registry(root, table, fingerprint, versions=1, bump=0.25):
    registry = PolicyRegistry(root / "registry")
    for i in range(versions):
        registry.publish_table(table + bump * i, fingerprint)
    return registry


def _records(n, num_states=12, num_actions=4, seed=0, version=1):
    rng = np.random.default_rng(seed)
    return [ExperienceRecord(
        state=int(rng.integers(num_states)),
        action=int(rng.integers(num_actions)),
        reward=round(float(rng.normal()), 6),
        next_state=int(rng.integers(num_states)),
        policy_version=version, vehicle_id=i, step=0) for i in range(n)]


def _write_journal(directory, records, shard=0):
    with ExperienceStream(directory, shard=shard) as stream:
        for rec in records:
            stream.offer(rec)
        stream.flush()
        return stream.path


_VALID = encode_record(ExperienceRecord(
    state=3, action=1, reward=0.5, next_state=4,
    policy_version=2, vehicle_id=7, step=11))


class TestRecordCodec:
    def test_round_trip(self):
        rec = ExperienceRecord(state=3, action=1, reward=0.5, next_state=4,
                               policy_version=2, vehicle_id=7, step=11)
        assert decode_record(encode_record(rec)) == rec

    def test_reward_is_coerced_to_float(self):
        rec = ExperienceRecord(state=0, action=0, reward=1, next_state=0,
                               policy_version=1, vehicle_id=0, step=0)
        assert isinstance(rec.reward, float)

    @pytest.mark.parametrize("field,value", [
        ("state", -1), ("action", 1.5), ("next_state", True),
        ("policy_version", 0), ("vehicle_id", "x"), ("step", -3),
        ("reward", float("nan")), ("reward", float("inf")),
        ("reward", "much"),
    ])
    def test_invalid_fields_are_structured(self, field, value):
        kwargs = dict(state=0, action=0, reward=0.0, next_state=0,
                      policy_version=1, vehicle_id=0, step=0)
        kwargs[field] = value
        with pytest.raises(ExperienceError):
            ExperienceRecord(**kwargs)

    def test_version_mismatch_is_structured(self):
        payload = json.loads(_VALID)
        payload["v"] = 99
        with pytest.raises(ExperienceError, match="version"):
            decode_record(json.dumps(payload))

    def test_unknown_fields_are_structured(self):
        payload = json.loads(_VALID)
        payload["extra"] = 1
        with pytest.raises(ExperienceError, match="unknown"):
            decode_record(json.dumps(payload))


class TestRecordCodecFuzz:
    """Any mangling of a valid line must surface as ExperienceError —
    never an unstructured crash, never a silently-wrong record."""

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=len(_VALID) - 1))
    def test_any_truncation_is_structured(self, cut):
        with pytest.raises(ExperienceError):
            decode_record(_VALID[:cut])

    @settings(max_examples=30, deadline=None)
    @given(dropped=st.sampled_from(sorted(json.loads(_VALID))))
    def test_any_field_drop_is_structured(self, dropped):
        payload = json.loads(_VALID)
        del payload[dropped]
        with pytest.raises(ExperienceError):
            decode_record(json.dumps(payload))

    @settings(max_examples=80, deadline=None)
    @given(field=st.sampled_from(sorted(set(json.loads(_VALID)) - {"v"})),
           value=st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                           st.floats(), st.lists(st.integers(), max_size=2)))
    def test_any_type_mutation_is_structured_or_equivalent(self, field,
                                                           value):
        payload = json.loads(_VALID)
        payload[field] = value
        try:
            rec = decode_record(json.dumps(payload))
        except ExperienceError:
            return
        # The only acceptable non-error: a numeric reward equal in value
        # (e.g. 0.5 -> 0.5); everything else would be silent garbage.
        assert field == "reward" and isinstance(value, float)
        assert math.isfinite(value) and rec.reward == value

    @settings(max_examples=60, deadline=None)
    @given(line=st.text(max_size=80))
    def test_random_garbage_is_structured(self, line):
        try:
            rec = decode_record(line)
        except ExperienceError:
            return
        assert decode_record(encode_record(rec)) == rec

    def test_nonfinite_json_tokens_are_structured(self):
        for token in ("NaN", "Infinity", "-Infinity"):
            with pytest.raises(ExperienceError):
                decode_record(_VALID.replace("0.5", token))


class TestJournal:
    def test_write_read_round_trip(self, tmp_path):
        records = _records(9)
        path = _write_journal(tmp_path, records)
        piece = read_journal(path)
        assert piece.records == records
        assert piece.quarantined == 0 and piece.amputated_bytes == 0
        assert piece.cursor["offset"] == path.stat().st_size

    def test_cursor_resumes_exactly_once(self, tmp_path):
        records = _records(10)
        path = _write_journal(tmp_path, records[:6])
        first = read_journal(path)
        assert first.records == records[:6]
        # Nothing new: the cursor consumes nothing twice.
        again = read_journal(path, first.cursor)
        assert again.records == []
        _write_journal(tmp_path, records[6:])
        rest = read_journal(path, again.cursor)
        assert rest.records == records[6:]

    def test_torn_tail_is_amputated_idempotently(self, tmp_path):
        records = _records(5)
        path = _write_journal(tmp_path, records)
        intact = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(encode_record(_records(1, seed=9)[0])[:17]
                     .encode("utf-8"))
        with pytest.warns(RuntimeWarning, match="amputating"):
            piece = read_journal(path)
        assert piece.records == records and piece.amputated_bytes == 17
        assert path.stat().st_size == intact
        # Second read: physically truncated already, nothing to warn about.
        import warnings as warnings_module
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            again = read_journal(path, piece.cursor)
        assert again.records == [] and again.amputated_bytes == 0

    def test_interior_corruption_is_quarantined(self, tmp_path):
        records = _records(6)
        path = _write_journal(tmp_path, records[:3])
        with open(path, "ab") as fh:
            fh.write(b'{"not": "an experience record"}\n')
            fh.write(b"\x80\xffgarbage\n")
        _write_journal(tmp_path, records[3:])
        piece = read_journal(path)
        assert piece.records == records
        assert piece.quarantined == 2

    def test_rewrite_under_cursor_is_refused(self, tmp_path):
        path = _write_journal(tmp_path, _records(4))
        cursor = read_journal(path).cursor
        body = path.read_bytes()
        path.write_bytes(body.replace(b'"step": 0', b'"step": 1', 1))
        with pytest.raises(ExperienceError, match="rewritten"):
            read_journal(path, cursor)

    def test_foreign_or_headerless_file_is_refused(self, tmp_path):
        alien = tmp_path / "alien.jsonl"
        alien.write_text('{"format": "something-else", "v": 1}\n')
        with pytest.raises(ExperienceError, match="format"):
            read_journal(alien)
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        with pytest.raises(ExperienceError, match="header"):
            read_journal(empty)

    def test_backpressure_sheds_oldest_first(self, tmp_path):
        records = _records(10)
        with ExperienceStream(tmp_path, buffer_limit=4) as stream:
            for rec in records:
                stream.offer(rec)
            assert stream.shed == 6 and stream.buffered == 4
            stream.flush()
            path = stream.path
        # The freshest experience survived; the stalest was dropped.
        assert read_journal(path).records == records[-4:]

    def test_invalid_stream_configs_are_structured(self, tmp_path):
        with pytest.raises(ExperienceError):
            ExperienceStream(tmp_path, shard=-1)
        with pytest.raises(ExperienceError):
            ExperienceStream(tmp_path, buffer_limit=0)


class TestLearner:
    _FP = {"kind": "test", "seed": 1}

    def _table(self, num_states=12, num_actions=4, seed=3):
        return np.random.default_rng(seed).normal(
            size=(num_states, num_actions))

    def test_ingest_applies_q_updates(self, tmp_path):
        table = self._table()
        _write_journal(tmp_path / "j", _records(20))
        learner = OnlineLearner(self._FP, table)
        report = learner.ingest(tmp_path / "j")
        assert report.records == 20 and report.journals == 1
        assert not np.array_equal(learner.table, table)
        assert np.all(np.isfinite(learner.table))

    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        table = self._table()
        config = OnlineLearnerConfig()
        records = _records(30)
        _write_journal(tmp_path / "ref", records)
        reference = OnlineLearner(self._FP, table, config=config)
        reference.ingest(tmp_path / "ref")

        # The same records arrive in three bursts; the learner is
        # "killed" (dropped) and resumed from its checkpoint between
        # each.  The final table must match the uninterrupted run bit
        # for bit — the updates are batch-boundary invariant.
        ckpt = tmp_path / "ckpt.rpa"
        learner = OnlineLearner(self._FP, table, config=config,
                                checkpoint_path=ckpt)
        for lo, hi in ((0, 11), (11, 17), (17, 30)):
            _write_journal(tmp_path / "live", records[lo:hi])
            learner.ingest(tmp_path / "live")
            learner = OnlineLearner.resume(ckpt)
        assert np.array_equal(learner.table, reference.table)
        assert learner.records == 30

    def test_missing_checkpoint_is_experience_error(self, tmp_path):
        with pytest.raises(ExperienceError, match="nothing to resume"):
            OnlineLearner.resume(tmp_path / "absent.json")

    def test_corrupt_checkpoint_is_structured(self, tmp_path):
        ckpt = tmp_path / "ckpt.rpa"
        learner = OnlineLearner(self._FP, self._table(),
                                checkpoint_path=ckpt)
        _write_journal(tmp_path / "j", _records(5))
        learner.ingest(tmp_path / "j")
        intact = ckpt.read_bytes()
        blob = bytearray(intact)
        blob[-1] ^= 0x01  # inside the table section
        ckpt.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError, match="integrity"):
            OnlineLearner.resume(ckpt)
        blob = bytearray(intact)
        blob[8] ^= 0xFF  # the header's opening brace
        ckpt.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError, match="JSON"):
            OnlineLearner.resume(ckpt)
        ckpt.write_bytes(b"not json at all")
        with pytest.raises(PersistenceError):
            OnlineLearner.resume(ckpt)
        # A policy file is a valid table file but not a checkpoint.
        write_table(ckpt, self._table(), self._FP)
        with pytest.raises(PersistenceError, match="not a learner"):
            OnlineLearner.resume(ckpt)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ingest_matches_td_lambda_zero(self, data):
        # The online rule is TD(lambda) at lambda = 0 with a constant
        # step size, bit for bit, whatever the records and seed table.
        num_states = data.draw(st.integers(1, 6), label="states")
        num_actions = data.draw(st.integers(1, 4), label="actions")
        finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        table = data.draw(hnp.arrays(np.float64, (num_states, num_actions),
                                     elements=finite), label="table")
        records = [ExperienceRecord(
            state=s, action=a, reward=r, next_state=n,
            policy_version=1, vehicle_id=i, step=0)
            for i, (s, a, r, n) in enumerate(data.draw(st.lists(
                st.tuples(st.integers(0, num_states - 1),
                          st.integers(0, num_actions - 1), finite,
                          st.integers(0, num_states - 1)),
                max_size=40), label="records"))]
        lr = data.draw(st.floats(1e-3, 1.0), label="learning_rate")
        gamma = data.draw(st.floats(1e-3, 0.999), label="discount")

        learner = OnlineLearner(self._FP, table, config=OnlineLearnerConfig(
            learning_rate=lr, discount=gamma))
        with tempfile.TemporaryDirectory() as tmp:
            _write_journal(Path(tmp), records)
            assert learner.ingest(tmp).records == len(records)
        offline = TDLambdaLearner(num_states, num_actions, TDLambdaConfig(
            learning_rate=lr, discount=gamma, trace_decay=0.0,
            learning_rate_decay=0.0))
        offline.qtable.values[:] = table
        for rec in records:
            offline.update(rec.state, rec.action, rec.reward,
                           rec.next_state)
        assert np.array_equal(learner.table, offline.qtable.values)

    def test_out_of_table_records_are_excluded(self, tmp_path):
        table = self._table(num_states=4, num_actions=2)
        good = _records(6, num_states=4, num_actions=2)
        foreign = _records(3, num_states=50, num_actions=9, seed=8)
        _write_journal(tmp_path / "j", good + foreign)
        learner = OnlineLearner(self._FP, table)
        report = learner.ingest(tmp_path / "j")
        assert report.records + report.excluded == 9
        assert report.excluded >= 3

    def test_non_finite_seed_table_is_refused(self):
        table = self._table()
        table[0, 0] = np.nan
        with pytest.raises(ExperienceError, match="non-finite"):
            OnlineLearner(self._FP, table)

    def test_invalid_configs_are_structured(self):
        with pytest.raises(ExperienceError):
            OnlineLearnerConfig(learning_rate=0.0)
        with pytest.raises(ExperienceError):
            OnlineLearnerConfig(discount=1.0)

    def test_publish_round_trips_through_registry(self, tmp_path, policy):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        learner = OnlineLearner(fingerprint, table)
        _write_journal(tmp_path / "j",
                       _records(10, num_states=table.shape[0],
                                num_actions=table.shape[1]))
        learner.ingest(tmp_path / "j")
        version = learner.publish(registry)
        assert np.array_equal(np.array(registry.load(version).table),
                              learner.table)


class _Run:
    """A minimal FleetResult stand-in for watchdog unit tests."""

    def __init__(self, mean_reward, interventions=0, decisions=1000):
        self.mean_reward = mean_reward
        self.interventions = interventions
        self.decisions = decisions


class TestRegressionWatchdog:
    def test_thin_baseline_never_alerts(self):
        dog = RegressionWatchdog(min_runs=2)
        dog.observe(_Run(1.0))
        assert dog.check(_Run(-100.0)) is None

    def test_reward_collapse_alerts(self):
        dog = RegressionWatchdog(sigmas=2.0)
        for reward in (1.00, 1.01, 0.99, 1.02):
            dog.observe(_Run(reward))
        assert dog.check(_Run(1.0)) is None
        alert = dog.check(_Run(0.2))
        assert alert is not None and "sigma" in alert

    def test_intervention_excess_alerts(self):
        dog = RegressionWatchdog(intervention_margin=0.05)
        for _ in range(3):
            dog.observe(_Run(1.0, interventions=10))
        alert = dog.check(_Run(1.0, interventions=200))
        assert alert is not None and "intervention" in alert

    def test_zero_decision_runs_carry_no_evidence(self):
        dog = RegressionWatchdog()
        dog.observe(_Run(1.0, decisions=0))
        assert dog.runs == 0
        for _ in range(3):
            dog.observe(_Run(1.0))
        assert dog.check(_Run(-5.0, decisions=0)) is None

    def test_reset_forgets_the_baseline(self):
        dog = RegressionWatchdog()
        for _ in range(3):
            dog.observe(_Run(1.0))
        dog.reset()
        assert dog.runs == 0 and dog.check(_Run(-5.0)) is None

    def test_invalid_thresholds_are_structured(self):
        with pytest.raises(ExperienceError):
            RegressionWatchdog(sigmas=0.0)
        with pytest.raises(ExperienceError):
            RegressionWatchdog(min_runs=1)


class TestPromotionPipeline:
    def _pipeline(self, registry, **kwargs):
        server = PolicyServer(registry)
        server.activate(registry.load(1))
        kwargs.setdefault("fleet_config",
                          FleetConfig(vehicles=96, steps=20, seed=5))
        kwargs.setdefault("canary_config",
                          CanaryConfig(fraction=0.3, min_samples=32,
                                       sigmas=2.0, decision_budget=600,
                                       intervention_margin=0.02))
        kwargs.setdefault("round_steps", 10)
        return server, PromotionPipeline(server, registry, **kwargs)

    def test_healthy_candidate_promotes_and_resets_baseline(self, tmp_path,
                                                            policy):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        # A candidate with identical greedy behaviour but different bytes.
        registry.publish_table(table + 1e-9, fingerprint)
        server, pipeline = self._pipeline(registry)
        for _ in range(3):
            pipeline.watchdog.observe(_Run(1.0))
        report = pipeline.promote(2)
        assert report.outcome == "promoted"
        assert server.active_version == 2
        assert report.canary_decisions > 0
        assert report.baseline_runs == 0  # a new incumbent: baseline reset

    def test_identical_candidate_noop_keeps_baseline(self, tmp_path,
                                                     policy):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        registry.publish_table(table, fingerprint)  # bit-identical v2
        server, pipeline = self._pipeline(registry)
        for _ in range(3):
            pipeline.watchdog.observe(_Run(1.0))
        report = pipeline.promote(2)
        assert report.outcome == "noop"
        assert report.baseline_runs == 3  # the incumbent did not change
        assert pipeline.watchdog.runs == 3
        assert server.active_version == 2

    def test_regressed_candidate_rolls_back_with_recovery(self, tmp_path,
                                                          policy):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        registry.publish_table(-table, fingerprint)
        server, pipeline = self._pipeline(registry)
        probe = np.arange(32)
        before = server.decide(probe)
        report = pipeline.promote(2)
        assert report.outcome == "rolled_back"
        assert report.incumbent_intact is True
        assert report.recovery_s is not None and report.recovery_s >= 0.0
        assert server.active_version == 1
        assert np.array_equal(server.decide(probe), before)

    def test_unloadable_candidate_is_refused(self, tmp_path, policy):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        server, pipeline = self._pipeline(registry)
        report = pipeline.promote(99)
        assert report.outcome == "refused"
        assert server.active_version == 1

    def test_zero_decision_cohort_aborts_not_hangs(self, tmp_path, policy):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        registry.publish_table(table + 0.5, fingerprint)
        # A cohort so small no vehicle is assigned to it: the rollout
        # can never reach a verdict and must be aborted, not spun on.
        server, pipeline = self._pipeline(
            registry,
            fleet_config=FleetConfig(vehicles=6, steps=10, seed=5),
            canary_config=CanaryConfig(fraction=0.001, min_samples=2,
                                       decision_budget=50),
            max_rounds=2)
        report = pipeline.promote(2)
        assert report.outcome == "aborted"
        assert report.canary_decisions == 0
        assert report.incumbent_intact is True
        assert server.active_version == 1 and server.canary is None

    def test_promotion_without_incumbent_raises(self, tmp_path, policy):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        server = PolicyServer(registry)  # nothing activated
        pipeline = PromotionPipeline(server, registry)
        with pytest.raises(ServeError, match="incumbent"):
            pipeline.promote(1)


class TestOnlineLearningLoop:
    def _seeded_registry(self, tmp_path, policy):
        table, fingerprint = policy
        return _registry(tmp_path, table, fingerprint)

    def test_loop_rounds_stream_ingest_and_promote(self, tmp_path, policy):
        registry = self._seeded_registry(tmp_path, policy)
        with OnlineLearningLoop(
                registry, tmp_path / "wd",
                fleet_config=FleetConfig(vehicles=48, steps=10, seed=3),
                promote_every=2) as loop:
            report = loop.run(4)
        assert len(report.rounds) == 4
        for rnd in report.rounds:
            assert rnd.decisions > 0
            assert rnd.records_streamed > 0
            assert rnd.records_ingested == rnd.records_streamed
            assert rnd.quarantined == 0
        assert report.rounds[1].promotion is not None
        assert report.final_version >= 1

    def test_resume_pins_the_vetted_incumbent(self, tmp_path, policy):
        table, fingerprint = policy
        registry = self._seeded_registry(tmp_path, policy)
        config = FleetConfig(vehicles=32, steps=8, seed=3)
        with OnlineLearningLoop(registry, tmp_path / "wd",
                                fleet_config=config,
                                promote_every=10) as loop:
            loop.run(1)
            vetted = loop.server.active_version
        # An unvetted candidate lands in the registry after the crash
        # (e.g. published but never promoted).  A resumed loop must NOT
        # serve it: the pinned incumbent wins over activate_latest.
        registry.publish_table(-table, fingerprint)
        with OnlineLearningLoop(registry, tmp_path / "wd",
                                fleet_config=config, resume=True) as loop:
            assert loop.server.active_version == vetted
        assert json.loads(
            (tmp_path / "wd" / STATE_NAME).read_text())["version"] == vetted

    def test_corrupt_state_file_is_structured(self, tmp_path, policy):
        registry = self._seeded_registry(tmp_path, policy)
        config = FleetConfig(vehicles=16, steps=5, seed=3)
        workdir = tmp_path / "wd"
        with OnlineLearningLoop(registry, workdir, fleet_config=config):
            pass
        (workdir / STATE_NAME).write_text('{"version": "three"}')
        with pytest.raises(PersistenceError, match="state"):
            OnlineLearningLoop(registry, workdir, fleet_config=config,
                               resume=True)

    def test_empty_registry_is_a_serve_error(self, tmp_path):
        with pytest.raises(ServeError, match="publish one first"):
            OnlineLearningLoop(PolicyRegistry(tmp_path / "empty"),
                               tmp_path / "wd")

    def test_invalid_loop_configs_are_structured(self, tmp_path, policy):
        registry = self._seeded_registry(tmp_path, policy)
        with pytest.raises(ExperienceError):
            OnlineLearningLoop(registry, tmp_path / "wd", promote_every=0)
        with OnlineLearningLoop(registry, tmp_path / "wd") as loop:
            with pytest.raises(ExperienceError):
                loop.run(0)
