"""Tests of the resilient online-learning loop (:mod:`repro.learn`).

Covers the acceptance criteria of the online-learning tentpole: the
Hypothesis fuzz guarantee that any truncation, column drop, ragged or
mistyped column, or non-finite value in an experience batch line
surfaces as a structured :class:`~repro.errors.ExperienceError` naming
the bad row (never a crash, never silent garbage); journal torn-tail
amputation and its idempotence; content-hash cursors that re-read
nothing twice and refuse a journal rewritten underneath them;
oldest-row-first backpressure shedding; the learner's all-or-nothing
ingest and kill-and-resume bit-identity contract; the regression
watchdog; the guarded promotion pipeline — including the canary edge
cases (zero-decision cohort, starved rollout, a no-op swap of an
identical candidate that must NOT reset the watchdog baseline) — and
the loop's vetted-incumbent pinning across restarts.
"""

import json
import math
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from perfbench.stages import WORKLOADS
from repro.artifact import write_table
from repro.control.rl_controller import build_rl_controller
from repro.cycles import standard_cycle
from repro.errors import ExperienceError, PersistenceError, ServeError
from repro.learn import (
    COLUMNS,
    ExperienceStream,
    OnlineLearner,
    OnlineLearnerConfig,
    OnlineLearningLoop,
    PromotionPipeline,
    RegressionWatchdog,
    decode_batch,
    read_journal,
)
from repro.learn.journal import (DEFAULT_BUFFER_LIMIT, REWARD_REPR_CACHE,
                                 VALUE_BOUND)
from repro.learn.loop import STATE_NAME
from repro.powertrain import PowertrainSolver
from repro.rl.persistence import _fingerprint
from repro.rl.td_lambda import TDLambdaConfig, TDLambdaLearner
from repro.safety import SafetySupervisor
from repro.serve import (
    CanaryConfig,
    FleetConfig,
    FleetSimulator,
    PolicyRegistry,
    PolicyServer,
)
from repro.sim import Simulator, train
from repro.vehicle import default_vehicle
from tests.reference_journal import ReferenceStream
from tests.reference_learner import reference_apply


@pytest.fixture(scope="module")
def policy():
    """``(table, fingerprint)`` of one deterministic non-trivial policy."""
    solver = PowertrainSolver(default_vehicle())
    agent = build_rl_controller(solver, seed=23).agent
    rng = np.random.default_rng(23)
    agent.learner.qtable.values[:] = rng.normal(
        size=agent.learner.qtable.values.shape)
    return agent.learner.qtable.values.copy(), _fingerprint(agent)


class _FrozenTwin(ExperienceStream):
    """A stream that also feeds every batch to the frozen writer and
    collects the lines it would have written, flush for flush."""

    def __init__(self, directory):
        super().__init__(directory)
        self.reference = ReferenceStream(DEFAULT_BUFFER_LIMIT)
        self.frozen_lines = []

    def offer_batch(self, *columns, step):
        self.reference.offer_batch(*columns, step=step)
        return super().offer_batch(*columns, step=step)

    def flush(self):
        self.frozen_lines += self.reference.lines()
        return super().flush()


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def perfbench_journal(request, tmp_path_factory):
    """One perfbench workload's fleet journal and ingest stage.

    ``table`` is the workload's trained table as the fleet serves it,
    ``columns`` the ``(state, action, reward, next_state)`` columns of
    the experience its fleet journals, in ingest order, ``written`` the
    journal's bytes and ``frozen`` the bytes the frozen writer of
    ``tests/reference_journal.py`` makes of the same batches.
    """
    workload, seed = WORKLOADS[request.param], 1
    root = tmp_path_factory.mktemp(f"perfbench-{request.param}")
    solver = PowertrainSolver(default_vehicle())
    controller = build_rl_controller(solver, seed=seed)
    train(Simulator(solver), SafetySupervisor(controller, solver),
          standard_cycle(workload.cycle).repeat(workload.repeats),
          episodes=workload.episodes, evaluate_after=False, seed=seed)
    registry = PolicyRegistry(root / "registry")
    server = PolicyServer(registry)
    server.activate(registry.load(registry.publish(controller.agent)))
    fleet = FleetConfig(vehicles=workload.vehicles, steps=workload.steps,
                        seed=seed)
    with _FrozenTwin(root / "journals") as stream:
        FleetSimulator(server, fleet, experience=stream).run()
    piece = read_journal(stream.path)
    written = stream.path.read_bytes()
    header = written[:written.index(b"\n") + 1]
    return SimpleNamespace(
        table=np.array(server.active_artifact.table),
        columns=tuple(piece.columns[name] for name in (
            "state", "action", "reward", "next_state")),
        written=written,
        frozen=header + "".join(f"{line}\n" for line in
                                stream.frozen_lines).encode())


def _assert_same_bytes(fast, ref):
    assert (fast.dtype, fast.shape) == (ref.dtype, ref.shape)
    assert fast.tobytes() == ref.tobytes(), (fast, ref)


def _registry(root, table, fingerprint, versions=1, bump=0.25):
    registry = PolicyRegistry(root / "registry")
    for i in range(versions):
        registry.publish_table(table + bump * i, fingerprint)
    return registry


_OFFER = ("state", "action", "reward", "next_state", "policy_version",
          "vehicle_id")
"""The columns in :meth:`ExperienceStream.offer_batch` argument order."""


def _records(n, num_states=12, num_actions=4, seed=0, version=1):
    """``n`` random transitions as columns."""
    rng = np.random.default_rng(seed)
    return {"state": rng.integers(num_states, size=n),
            "action": rng.integers(num_actions, size=n),
            "reward": np.round(rng.normal(size=n), 6),
            "next_state": rng.integers(num_states, size=n),
            "policy_version": np.full(n, version),
            "vehicle_id": np.arange(n)}


def _rows(columns, lo=0, hi=None):
    """Rows ``lo:hi`` of ``columns``."""
    return {name: np.asarray(columns[name])[lo:hi] for name in _OFFER}


def _join(*parts):
    return {name: np.concatenate([p[name] for p in parts]) for name in _OFFER}


def _offer(stream, columns, step=0):
    return stream.offer_batch(*(columns[name] for name in _OFFER), step=step)


def _write_journal(directory, records, shard=0, sizes=None):
    """Journal ``records`` as batches of ``sizes`` rows (default: one)."""
    total = len(records["state"])
    sizes = [total] if sizes is None else sizes
    with ExperienceStream(directory, shard=shard) as stream:
        lo = 0
        for step, size in enumerate(sizes):
            _offer(stream, _rows(records, lo, lo + size), step=step)
            lo += size
        stream.flush()
        return stream.path


def _same(piece, records):
    """The slice holds exactly ``records``, row for row, bit for bit."""
    return piece.records == len(records["state"]) and all(
        piece.columns[name].tobytes()
        == np.asarray(records[name], dtype=piece.columns[name].dtype)
        .tobytes() for name in _OFFER)


_BATCH = {"state": [3, 5, 0], "action": [1, 0, 2], "reward": [0.5, -1.25, 2.0],
          "next_state": [4, 4, 1], "policy_version": [2, 2, 3],
          "vehicle_id": [7, 8, 9]}


def _line(step, columns):
    """One batch line as the stream writes it."""
    return json.dumps({"v": 2, "step": step, **{
        name: np.asarray(columns[name]).tolist() for name in COLUMNS}},
        sort_keys=True)


_VALID = _line(11, _BATCH)


def _mutated(column, row, value):
    payload = json.loads(_VALID)
    payload[column][row] = value
    return json.dumps(payload)


class TestRecordCodec:
    def test_round_trip(self):
        columns = decode_batch(_VALID)
        assert set(columns) == set(COLUMNS) | {"step"}
        for name in COLUMNS:
            assert columns[name].tolist() == _BATCH[name]
            assert columns[name].dtype == (np.float64 if name == "reward"
                                           else np.int64)
        assert columns["step"].tolist() == [11, 11, 11]

    def test_rewards_round_trip_bit_exactly(self, tmp_path):
        rewards = np.array([-0.0, 5e-324, 0.1, -VALUE_BOUND, 1 / 3])
        batch = {name: np.resize(col, 5) for name, col in _BATCH.items()}
        path = _write_journal(tmp_path, dict(batch, reward=rewards))
        decoded = read_journal(path).columns["reward"]
        assert decoded.tobytes() == rewards.tobytes()

    def test_reward_is_coerced_to_float(self):
        decoded = decode_batch(_mutated("reward", 1, 3))["reward"]
        assert decoded.dtype == np.float64 and decoded[1] == 3.0

    def test_version_mismatch_is_structured(self):
        for version in (1, 3, 2.0, "2", True, None):
            payload = json.loads(_VALID)
            payload["v"] = version
            with pytest.raises(ExperienceError, match="version"):
                decode_batch(json.dumps(payload))

    def test_unknown_fields_are_structured(self):
        payload = json.loads(_VALID)
        payload["extra"] = [1, 2, 3]
        with pytest.raises(ExperienceError, match="unknown"):
            decode_batch(json.dumps(payload))

    def test_empty_batch_is_structured(self):
        payload = {name: [] for name in COLUMNS}
        payload.update(v=2, step=0)
        with pytest.raises(ExperienceError, match="at least one row"):
            decode_batch(json.dumps(payload))

    @pytest.mark.parametrize("field,value", [
        ("state", -1), ("action", 1.5), ("next_state", True),
        ("policy_version", 0), ("vehicle_id", "x"), ("step", -3),
        ("reward", float("nan")), ("reward", float("inf")),
        ("reward", 1.7e308), ("reward", -1e101), ("reward", "much"),
    ])
    def test_invalid_fields_are_structured(self, tmp_path, field, value):
        # Offering validates the whole batch; the bad row is named and
        # nothing is buffered.
        batch = {name: list(column) for name, column in _BATCH.items()}
        step = value if field == "step" else 0
        if field != "step":
            batch[field][1] = value
        with ExperienceStream(tmp_path) as stream:
            with pytest.raises(ExperienceError,
                               match="step" if field == "step" else "row 1"):
                _offer(stream, batch, step=step)
            assert stream.offered == stream.buffered == 0


_INT_COLUMNS = [name for name in COLUMNS if name != "reward"]
_BAD_INTS = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3), st.floats(),
    st.integers(max_value=-1), st.integers(min_value=2 ** 63),
    st.lists(st.integers(), max_size=2))
_BAD_REWARDS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans(),
    st.none(), st.text(max_size=3), st.integers(min_value=10 ** 309),
    st.floats(min_value=VALUE_BOUND, exclude_min=True),
    st.floats(max_value=-VALUE_BOUND, exclude_max=True),
    st.lists(st.floats(), max_size=2))


class TestRecordCodecFuzz:
    """Any mangling of a valid batch line must surface as ExperienceError
    naming what is wrong — never an unstructured crash, never a
    silently-wrong batch."""

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=len(_VALID) - 1))
    def test_any_truncation_is_structured(self, cut):
        with pytest.raises(ExperienceError):
            decode_batch(_VALID[:cut])

    @settings(max_examples=30, deadline=None)
    @given(dropped=st.sampled_from(sorted(json.loads(_VALID))))
    def test_any_field_drop_is_structured(self, dropped):
        payload = json.loads(_VALID)
        del payload[dropped]
        with pytest.raises(ExperienceError):
            decode_batch(json.dumps(payload))

    @settings(max_examples=40, deadline=None)
    @given(column=st.sampled_from(COLUMNS), keep=st.integers(0, 4))
    def test_ragged_columns_name_the_first_missing_row(self, column, keep):
        payload = json.loads(_VALID)
        payload[column] = (payload[column] * 2)[:keep]
        if keep == 3:
            return
        # A short or long vehicle_id column makes every other one ragged.
        with pytest.raises(ExperienceError, match=f"row {min(keep, 3)}"):
            decode_batch(json.dumps(payload))

    @settings(max_examples=40, deadline=None)
    @given(column=st.sampled_from(COLUMNS),
           value=st.one_of(st.none(), st.integers(), st.text(max_size=3),
                           st.dictionaries(st.text(max_size=2),
                                           st.integers(), max_size=2)))
    def test_non_list_columns_are_structured(self, column, value):
        payload = json.loads(_VALID)
        payload[column] = value
        with pytest.raises(ExperienceError, match="must be a list"):
            decode_batch(json.dumps(payload))

    @settings(max_examples=80, deadline=None)
    @given(field=st.sampled_from(COLUMNS), row=st.integers(0, 2),
           value=st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                           st.floats(), st.lists(st.integers(), max_size=2)))
    def test_any_type_mutation_is_structured_or_equivalent(self, field, row,
                                                           value):
        try:
            columns = decode_batch(_mutated(field, row, value))
        except ExperienceError:
            return
        # The only acceptable non-error: a float reward within the bound,
        # decoded to the same value; everything else would be silent
        # garbage.
        assert field == "reward" and isinstance(value, float)
        assert abs(value) <= VALUE_BOUND and columns["reward"][row] == value

    @settings(max_examples=120, deadline=None)
    @given(column=st.sampled_from(_INT_COLUMNS), row=st.integers(0, 2),
           value=_BAD_INTS)
    def test_bad_integer_names_its_row(self, column, row, value):
        with pytest.raises(ExperienceError, match=f"'{column}' row {row}"):
            decode_batch(_mutated(column, row, value))

    @settings(max_examples=30, deadline=None)
    @given(row=st.integers(0, 2))
    def test_policy_version_zero_names_its_row(self, row):
        with pytest.raises(ExperienceError,
                           match=f"'policy_version' row {row}"):
            decode_batch(_mutated("policy_version", row, 0))

    @settings(max_examples=80, deadline=None)
    @given(row=st.integers(0, 2), value=_BAD_REWARDS)
    def test_bad_reward_names_its_row(self, row, value):
        with pytest.raises(ExperienceError, match=f"'reward' row {row}"):
            decode_batch(_mutated("reward", row, value))

    @settings(max_examples=60, deadline=None)
    @given(row=st.integers(0, 2),
           value=st.one_of(st.integers(-2 ** 70, 2 ** 70),
                           st.floats(-VALUE_BOUND, VALUE_BOUND)))
    def test_any_finite_real_reward_decodes_exactly(self, row, value):
        # Any real within the bound the learner's updates stay finite
        # under (beyond it, test_bad_reward_names_its_row).
        decoded = decode_batch(_mutated("reward", row, value))["reward"]
        assert decoded[row] == float(value)
        assert math.copysign(1.0, decoded[row]) \
            == math.copysign(1.0, float(value))

    @settings(max_examples=60, deadline=None)
    @given(line=st.text(max_size=80))
    def test_random_garbage_is_structured(self, line):
        try:
            columns = decode_batch(line)
        except ExperienceError:
            return
        assert len({len(column) for column in columns.values()}) == 1

    def test_nonfinite_json_tokens_are_structured(self):
        for token in ("NaN", "Infinity", "-Infinity"):
            with pytest.raises(ExperienceError, match="row 0"):
                decode_batch(_VALID.replace("0.5", token))


class TestJournal:
    def test_write_read_round_trip(self, tmp_path):
        records = _records(9)
        path = _write_journal(tmp_path, records, sizes=[4, 5])
        piece = read_journal(path)
        assert _same(piece, records) and piece.lines == 2
        assert piece.columns["step"].tolist() == [0] * 4 + [1] * 5
        assert piece.quarantined == 0 and piece.amputated_bytes == 0
        assert piece.cursor["offset"] == path.stat().st_size

    def test_cursor_resumes_exactly_once(self, tmp_path):
        records = _records(10)
        path = _write_journal(tmp_path, _rows(records, 0, 6), sizes=[2, 4])
        first = read_journal(path)
        assert _same(first, _rows(records, 0, 6))
        # Nothing new: the cursor consumes nothing twice.
        again = read_journal(path, first.cursor)
        assert again.records == again.lines == 0
        _write_journal(tmp_path, _rows(records, 6))
        rest = read_journal(path, again.cursor)
        assert _same(rest, _rows(records, 6))

    def test_torn_tail_is_amputated_idempotently(self, tmp_path):
        records = _records(5)
        path = _write_journal(tmp_path, records, sizes=[2, 3])
        intact = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(_line(2, _records(3, seed=9))[:17]
                     .encode("utf-8"))
        with pytest.warns(RuntimeWarning, match="amputating"):
            piece = read_journal(path)
        assert _same(piece, records) and piece.amputated_bytes == 17
        assert path.stat().st_size == intact
        # Second read: physically truncated already, nothing to warn about.
        import warnings as warnings_module
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            again = read_journal(path, piece.cursor)
        assert again.records == 0 and again.amputated_bytes == 0

    def test_interior_corruption_is_quarantined(self, tmp_path):
        records = _records(6)
        path = _write_journal(tmp_path, _rows(records, 0, 3))
        with open(path, "ab") as fh:
            fh.write(b'{"not": "an experience batch"}\n')
            fh.write(_line(5, _records(4, seed=2)).replace(
                '"policy_version": [1', '"policy_version": [true')
                .encode() + b"\n")
            fh.write(b"\x80\xffgarbage\n")
        _write_journal(tmp_path, _rows(records, 3), sizes=[1, 2])
        piece = read_journal(path)
        assert _same(piece, records)
        assert piece.quarantined == 3 and piece.lines == 3

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

    def test_version_one_journal_is_refused(self, tmp_path):
        # Record v2 is a deliberate format break: no converter.
        old = tmp_path / "shard-0000.jsonl"
        old.write_text(
            '{"format": "repro-experience-journal", "shard": 0, "v": 1}\n'
            '{"action": 1, "next_state": 4, "policy_version": 2, '
            '"reward": 0.5, "state": 3, "step": 11, "v": 1, '
            '"vehicle_id": 7}\n')
        with pytest.raises(ExperienceError, match="unsupported version 1"):
            read_journal(old)

    def test_backpressure_sheds_oldest_first(self, tmp_path):
        records = _records(8)
        with ExperienceStream(tmp_path, buffer_limit=4) as stream:
            _offer(stream, _rows(records, 0, 3), step=0)
            _offer(stream, _rows(records, 3, 6), step=1)
            # Six rows, room for four: batch 0 is cut to its last row.
            assert stream.shed == 2 and stream.buffered == 4
            _offer(stream, _rows(records, 6, 8), step=2)
            # Batch 0's last row goes whole, batch 1 is cut by one.
            assert stream.offered == 8 and stream.shed == 4
            assert stream.buffered == 4
            assert stream.flush() == 4 and stream.written == 4
            path = stream.path
        # The freshest experience survived; the stalest was dropped.
        piece = read_journal(path)
        assert _same(piece, _rows(records, 4)) and piece.lines == 2
        assert piece.columns["step"].tolist() == [1, 1, 2, 2]

    def test_invalid_stream_configs_are_structured(self, tmp_path):
        with pytest.raises(ExperienceError):
            ExperienceStream(tmp_path, shard=-1)
        with pytest.raises(ExperienceError):
            ExperienceStream(tmp_path, buffer_limit=0)


_REWARDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320,
                     2.2250738585072014e-308, VALUE_BOUND, -VALUE_BOUND,
                     1e99, 1 / 3, -1 / 3, 0.1]),
    st.floats(-VALUE_BOUND, VALUE_BOUND))
"""Signed zeros, subnormals, the bound, repeats and any double within
it."""


@st.composite
def _offers(draw):
    """One tick's offer: ``int64``, ``uint64`` or list id columns, each
    up to a largest id on either side of the writer's 4096-entry text
    table, and a ``float64`` or list reward column."""
    n = draw(st.integers(1, 6))
    ids = draw(st.sampled_from([np.int64, np.uint64, list]))
    rewards = draw(st.sampled_from([np.float64, list]))

    def column(kind, values):
        return list(values) if kind is list else np.array(values, kind)

    batch = {}
    for name in _OFFER:
        if name == "reward":
            values = st.lists(_REWARDS, min_size=n, max_size=n)
            batch[name] = column(rewards, draw(values))
            continue
        top = draw(st.sampled_from([1, 9, 4095, 4096, 2 ** 63 - 1]))
        low = int(name == "policy_version")
        values = st.lists(st.one_of(st.just(top), st.integers(low, top)),
                          min_size=n, max_size=n)
        batch[name] = column(ids, draw(values))
    return batch


def _corrupt(batch, name, kind, row):
    """``batch`` with column ``name`` made invalid at ``row`` (an array)."""
    good = np.asarray(batch[name])
    at = np.arange(len(good)) == row
    bad = {
        "bool": lambda: good.astype(bool),
        "float": lambda: np.where(at, 0.5, good),
        "object": lambda: np.where(at, "x", good.astype(object)),
        "short": lambda: good[:row],
        "2d": lambda: good.reshape(-1, 1),
        "negative": lambda: np.where(at, -row - 1, good).astype(np.int32),
        "zero": lambda: np.where(at, 0, good),
        "huge": lambda: np.where(at, np.uint64(2 ** 63 + row),
                                 good.astype(np.uint64)),
        "nan": lambda: np.where(at, np.nan, good),
        "inf": lambda: np.where(at, -np.inf, good),
        "float32": lambda: np.where(at, np.inf, good).astype(np.float32),
    }[kind]()
    return dict(batch, **{name: bad})


_INVALID = ([(name, kind) for name in _INT_COLUMNS
             for kind in ("bool", "float", "object", "short", "2d",
                          "negative", "huge")]
            + [("policy_version", "zero")]
            + [("reward", kind) for kind in ("bool", "object", "short",
                                             "nan", "inf", "float32")])
"""Invalid array columns: ``(column, corruption)`` pairs."""


class TestJournalWriter:
    """The array writer against the frozen list writer of
    ``tests/reference_journal.py``: the same bytes for any valid batches,
    the same error for any invalid one."""

    @settings(max_examples=200, deadline=None)
    @given(offers=st.lists(_offers(), min_size=1, max_size=6),
           flushes=st.lists(st.booleans(), min_size=6, max_size=6),
           limit=st.integers(1, 24),
           cache=st.sampled_from([1, 2, 5, REWARD_REPR_CACHE]))
    def test_flush_matches_the_frozen_writer(self, offers, flushes, limit,
                                             cache):
        # Small caches fill and clear within and across lines; a small
        # buffer sheds cut batches between flushes.
        with tempfile.TemporaryDirectory() as root, \
                mock.patch("repro.learn.journal.REWARD_REPR_CACHE", cache):
            reference = ReferenceStream(limit)
            frozen = []
            widest = max(len(batch["state"]) for batch in offers)
            with ExperienceStream(root, buffer_limit=limit) as stream:
                for step, (batch, flush) in enumerate(zip(offers, flushes)):
                    assert _offer(stream, batch, step) \
                        == _offer(reference, batch, step)
                    if flush or step == len(offers) - 1:
                        stream.flush()
                        frozen += reference.lines()
                    assert len(stream._reprs) <= max(cache, widest)
                written = stream.path.read_text().splitlines()[1:]
            assert written == frozen
            assert (stream.offered, stream.shed, stream.written) \
                == (reference.offered, reference.shed, reference.written)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), invalid=st.sampled_from(_INVALID))
    def test_invalid_arrays_raise_the_frozen_error(self, data, invalid):
        name, kind = invalid
        rows = data.draw(st.integers(1, 5))
        row = data.draw(st.integers(0, rows - 1))
        batch = _corrupt(_records(rows, seed=rows + row), name, kind, row)
        reference = ReferenceStream(DEFAULT_BUFFER_LIMIT)
        with pytest.raises(ExperienceError) as frozen:
            _offer(reference, batch)
        with tempfile.TemporaryDirectory() as root, \
                ExperienceStream(root) as stream:
            with pytest.raises(ExperienceError) as error:
                _offer(stream, batch)
            assert str(error.value) == str(frozen.value)
            assert stream.offered == stream.buffered == 0

    def test_a_batch_is_kept_as_offered(self, tmp_path):
        # The fleet reuses its arrays; a buffered batch must not follow.
        batch = {name: np.array(column) for name, column in _BATCH.items()}
        with ExperienceStream(tmp_path) as stream:
            _offer(stream, batch)
            for column in batch.values():
                column[0] = column[1]
            stream.flush()
        assert _same(read_journal(stream.path), _BATCH)

    def test_an_integer_reward_is_written_as_a_float(self, tmp_path):
        batch = dict(_BATCH, reward=[3, -1, 2 ** 70])
        reference = ReferenceStream(DEFAULT_BUFFER_LIMIT)
        _offer(reference, batch)
        frozen = reference.lines()[0]
        path = _write_journal(tmp_path, batch)
        line = path.read_text().splitlines()[1]
        assert '"reward": [3, -1, 1180591620717411303424]' in frozen
        assert '"reward": [3.0, -1.0, 1.1805916207174113e+21]' in line
        assert decode_batch(line)["reward"].tobytes() \
            == decode_batch(frozen)["reward"].tobytes()

    def test_fleet_journal_matches_the_frozen_writer(self,
                                                     perfbench_journal):
        assert perfbench_journal.written.count(b"\n") > 1
        assert perfbench_journal.written == perfbench_journal.frozen


class TestLearner:
    _FP = {"kind": "test", "seed": 1}

    def _table(self, num_states=12, num_actions=4, seed=3):
        return np.random.default_rng(seed).normal(
            size=(num_states, num_actions))

    def test_ingest_applies_q_updates(self, tmp_path):
        table = self._table()
        _write_journal(tmp_path / "j", _records(20), sizes=[8, 12])
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
            _write_journal(tmp_path / "live", _rows(records, lo, hi),
                           sizes=[2, hi - lo - 2])
            learner.ingest(tmp_path / "live")
            learner = OnlineLearner.resume(ckpt)
        assert np.array_equal(learner.table, reference.table)
        assert learner.records == 30

    def test_failed_ingest_commits_nothing(self, tmp_path):
        # A later shard that cannot be read must not leave the table or
        # the earlier shards' cursors advanced behind stale counters.
        table = self._table()
        ckpt = tmp_path / "ckpt.rpa"
        learner = OnlineLearner(self._FP, table, checkpoint_path=ckpt)
        _write_journal(tmp_path / "j", _records(5))
        bad = tmp_path / "j" / "shard-0001.jsonl"
        bad.write_text('{"format": "something-else", "v": 2}\n')
        with pytest.raises(ExperienceError, match="format"):
            learner.ingest(tmp_path / "j")
        assert np.array_equal(learner.table, table)
        assert learner.cursors == {} and not ckpt.exists()
        assert (learner.records, learner.quarantined, learner.excluded,
                learner.ingests) == (0, 0, 0, 0)
        bad.unlink()
        assert learner.ingest(tmp_path / "j").records == 5
        resumed = OnlineLearner.resume(ckpt)
        assert resumed.records == 5 and resumed.ingests == 1
        assert np.array_equal(resumed.table, learner.table)

    def test_failed_checkpoint_commits_nothing(self, tmp_path,
                                               monkeypatch):
        def _full_disk(*args, **kwargs):
            raise PersistenceError("cannot persist: no space left")

        table = self._table()
        learner = OnlineLearner(self._FP, table,
                                checkpoint_path=tmp_path / "c.rpa")
        _write_journal(tmp_path / "j", _records(5))
        monkeypatch.setattr("repro.learn.learner.write_table", _full_disk)
        with pytest.raises(PersistenceError, match="no space"):
            learner.ingest(tmp_path / "j")
        assert np.array_equal(learner.table, table)
        assert learner.cursors == {} and learner.records == 0
        assert learner.ingests == 0

    def test_an_overflow_to_nan_commits_nothing(self, tmp_path,
                                                monkeypatch):
        # Bounded rewards and seed values keep every update finite; an
        # update that still stored a NaN would leave a table resume()
        # refuses, so the ingest must commit nothing.
        ckpt = tmp_path / "ckpt.rpa"
        learner = OnlineLearner(self._FP, np.zeros((4, 2)),
                                checkpoint_path=ckpt)
        _write_journal(tmp_path / "j", _records(5, num_states=4,
                                                num_actions=2))
        learner.ingest(tmp_path / "j")
        table, cursors, saved = learner.table, learner.cursors, \
            ckpt.read_bytes()
        _write_journal(tmp_path / "j", _records(3, num_states=4,
                                                num_actions=2), shard=1)

        def overflowing(q, *columns):
            q[0, 0] = np.nan

        monkeypatch.setattr(learner, "_apply", overflowing)
        with pytest.raises(ExperienceError, match=r"\(state 0, action 0\)"):
            learner.ingest(tmp_path / "j")
        _assert_same_bytes(learner.table, table)
        assert learner.cursors == cursors and ckpt.read_bytes() == saved
        assert (learner.records, learner.quarantined, learner.excluded,
                learner.ingests) == (5, 0, 0, 1)
        _assert_same_bytes(OnlineLearner.resume(ckpt).table, table)

    def test_rewards_beyond_the_bound_are_quarantined(self, tmp_path):
        # A batch whose rewards could overflow the table costs only that
        # batch; the learner applies the rest and stays finite.
        zeros = np.zeros(60, dtype=np.int64)
        huge = {"state": zeros, "action": zeros,
                "reward": np.full(60, 1.7e308), "next_state": zeros,
                "policy_version": zeros + 1, "vehicle_id": np.arange(60)}
        sound = _records(5, num_states=4, num_actions=2)
        with mock.patch("repro.learn.journal.VALUE_BOUND", math.inf):
            _write_journal(tmp_path / "j", _join(huge, sound),
                           sizes=[60, 5])
        learner = OnlineLearner(self._FP, np.zeros((4, 2)))
        report = learner.ingest(tmp_path / "j")
        assert (report.records, report.quarantined) == (5, 1)
        reference = OnlineLearner(self._FP, np.zeros((4, 2)))
        _write_journal(tmp_path / "ref", sound)
        reference.ingest(tmp_path / "ref")
        _assert_same_bytes(learner.table, reference.table)

    def test_a_table_grown_past_the_reward_bound_resumes(self, tmp_path):
        # Rewards at the bound drive a cell towards B / (1 - discount),
        # past B itself; the checkpoint must still resume.
        ckpt = tmp_path / "ckpt.rpa"
        learner = OnlineLearner(self._FP, np.zeros((4, 2)),
                                checkpoint_path=ckpt)
        zeros = np.zeros(60, dtype=np.int64)
        _write_journal(tmp_path / "j", {
            "state": zeros, "action": zeros,
            "reward": np.full(60, VALUE_BOUND), "next_state": zeros,
            "policy_version": zeros + 1, "vehicle_id": np.arange(60)})
        learner.ingest(tmp_path / "j")
        assert VALUE_BOUND < learner.table.max() <= VALUE_BOUND / (
            1.0 - learner.config.discount)
        _assert_same_bytes(OnlineLearner.resume(ckpt).table, learner.table)

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
        # step size, bit for bit, whatever the records, seed table and
        # batch partition of the journal.
        num_states = data.draw(st.integers(1, 6), label="states")
        num_actions = data.draw(st.integers(1, 4), label="actions")
        finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        table = data.draw(hnp.arrays(np.float64, (num_states, num_actions),
                                     elements=finite), label="table")
        rows = data.draw(st.lists(
            st.tuples(st.integers(0, num_states - 1),
                      st.integers(0, num_actions - 1), finite,
                      st.integers(0, num_states - 1)),
            max_size=40), label="records")
        cuts = sorted(data.draw(st.sets(st.integers(1, max(len(rows) - 1, 1)),
                                        max_size=8), label="cuts")
                      & set(range(1, len(rows))))
        bounds = [0] + cuts + [len(rows)] if rows else [0]
        sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        records = {"state": [r[0] for r in rows],
                   "action": [r[1] for r in rows],
                   "reward": [r[2] for r in rows],
                   "next_state": [r[3] for r in rows],
                   "policy_version": [1] * len(rows),
                   "vehicle_id": list(range(len(rows)))}
        lr = data.draw(st.floats(1e-3, 1.0), label="learning_rate")
        gamma = data.draw(st.floats(1e-3, 0.999), label="discount")

        learner = OnlineLearner(self._FP, table, config=OnlineLearnerConfig(
            learning_rate=lr, discount=gamma))
        with tempfile.TemporaryDirectory() as tmp:
            _write_journal(Path(tmp), records, sizes=sizes)
            assert learner.ingest(tmp).records == len(rows)
        offline = TDLambdaLearner(num_states, num_actions, TDLambdaConfig(
            learning_rate=lr, discount=gamma, trace_decay=0.0,
            learning_rate_decay=0.0))
        offline.qtable.values[:] = table
        for state, action, reward, next_state in rows:
            offline.update(state, action, reward, next_state)
        _assert_same_bytes(learner.table, offline.qtable.values)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_apply_matches_the_frozen_numpy_loop(self, data):
        # Byte for byte against the numpy-scalar loop it replaced, over
        # tables and rewards full of signed zeros and of values near the
        # double range, so that with a unit step size updates overflow to
        # infinity and later max reads meet inf and NaN.  Where the frozen
        # loop ends finite the bytes match; where it does not, both
        # tables are non-finite, so an ingest commits neither.
        num_states = data.draw(st.integers(1, 5), label="states")
        num_actions = data.draw(st.integers(1, 4), label="actions")
        edgy = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.7e308, -1.7e308]) \
            | st.floats(-1e3, 1e3)
        table = data.draw(hnp.arrays(np.float64, (num_states, num_actions),
                                     elements=edgy), label="table")
        rows = data.draw(st.lists(
            st.tuples(st.integers(0, num_states - 1),
                      st.integers(0, num_actions - 1), edgy,
                      st.integers(0, num_states - 1)),
            max_size=40), label="records")
        cut = data.draw(st.integers(0, len(rows)), label="cut")
        lr = data.draw(st.sampled_from([1.0, 0.5]) | st.floats(1e-3, 1.0),
                       label="learning_rate")
        gamma = data.draw(st.sampled_from([0.0, 0.5, 0.999])
                          | st.floats(0.0, 0.999), label="discount")
        columns = [np.array([r[i] for r in rows], dtype=dtype) for i, dtype
                   in enumerate((np.int64, np.int64, np.float64, np.int64))]

        learner = OnlineLearner(self._FP, np.zeros_like(table),
                                config=OnlineLearnerConfig(
                                    learning_rate=lr, discount=gamma))
        fast, ref = table.copy(), table.copy()
        # Two calls, so the second may start on a table that already
        # holds an infinity or a NaN.
        learner._apply(fast, *(c[:cut] for c in columns))
        learner._apply(fast, *(c[cut:] for c in columns))
        reference_apply(ref, *columns, learning_rate=lr, discount=gamma)
        if np.isfinite(ref).all():
            _assert_same_bytes(fast, ref)
        else:
            assert not np.isfinite(fast).all()

    def test_apply_matches_the_frozen_loop_on_perfbench_journals(
            self, perfbench_journal):
        table, columns = perfbench_journal.table, perfbench_journal.columns
        learner = OnlineLearner({}, table)
        config = learner.config
        fast, ref = table.copy(), table.copy()
        learner._apply(fast, *columns)
        reference_apply(ref, *columns, learning_rate=config.learning_rate,
                        discount=config.discount)
        assert not np.array_equal(fast, table)
        _assert_same_bytes(fast, ref)

    def test_out_of_table_records_are_excluded(self, tmp_path):
        table = self._table(num_states=4, num_actions=2)
        good = _records(6, num_states=4, num_actions=2)
        foreign = _records(3, num_states=50, num_actions=9, seed=8)
        _write_journal(tmp_path / "j", _join(good, foreign), sizes=[4, 5])
        learner = OnlineLearner(self._FP, table)
        report = learner.ingest(tmp_path / "j")
        assert report.records + report.excluded == 9
        assert report.excluded >= 3

    def test_non_finite_seed_table_is_refused(self):
        table = self._table()
        table[0, 0] = np.nan
        with pytest.raises(ExperienceError, match="non-finite"):
            OnlineLearner(self._FP, table)
        table[0, 0] = 1.7e308  # finite, but updates could overflow it
        with pytest.raises(ExperienceError, match="beyond"):
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
        dog = RegressionWatchdog()
        dog.observe(_Run(1.0))
        assert dog.check(_Run(-100.0)) is None

    def test_reward_collapse_alerts(self):
        dog = RegressionWatchdog()
        for reward in (1.00, 1.01, 0.99, 1.02):
            dog.observe(_Run(reward))
        assert dog.check(_Run(1.0)) is None
        alert = dog.check(_Run(0.2))
        assert alert is not None and "sigma" in alert

    def test_intervention_excess_alerts(self):
        dog = RegressionWatchdog()
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
