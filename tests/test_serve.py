"""Tests of the policy serving layer (:mod:`repro.serve`).

Covers the acceptance criteria of the serving tentpole: artifact
compile/load round-trips and the Hypothesis fuzz guarantee that any
truncation, header corruption, or digest mismatch surfaces as a
structured :class:`~repro.errors.PersistenceError` (never a ValueError
or numpy traceback); registry version monotonicity; the golden promise
that hot-swapping a bit-identical artifact changes no decision; refusal
of corrupt or incompatible candidates with the incumbent untouched; the
degradation ladder down to the rule-based fallback; canary rollback
within the decision budget; bounded-queue load shedding; fleet-run
determinism; and the bit-identical disabled-telemetry guarantee.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.artifact import (MAGIC, _aligned, _header_digest, read_table,
                            write_table)
from repro.control.rl_controller import build_rl_controller
from repro.errors import CheckpointError, PersistenceError, ServeError
from repro.learn import PromotionPipeline
from repro.powertrain import PowertrainSolver
from repro.rl.discretize import StateDiscretizer
from repro.rl.persistence import _fingerprint
from repro.serve import (
    CanaryConfig,
    FleetConfig,
    FleetSimulator,
    PolicyArtifact,
    PolicyRegistry,
    PolicyServer,
    compile_table,
    run_fleet_sharded,
)
from repro.serve import server as server_module
from repro.serve.server import QUEUE_LIMIT
from repro.telemetry import Telemetry, read_events
from repro.vehicle import default_vehicle


@pytest.fixture(scope="module")
def policy():
    """``(table, fingerprint)`` of one deterministic non-trivial policy."""
    solver = PowertrainSolver(default_vehicle())
    agent = build_rl_controller(solver, seed=11).agent
    rng = np.random.default_rng(11)
    agent.learner.qtable.values[:] = rng.normal(
        size=agent.learner.qtable.values.shape)
    return agent.learner.qtable.values.copy(), _fingerprint(agent)


def _registry(root, table, fingerprint, versions=1, bump=0.25):
    """A registry holding ``versions`` policies, each ``bump`` apart."""
    registry = PolicyRegistry(Path(root) / "registry")
    for i in range(versions):
        registry.publish_table(table + bump * i, fingerprint)
    return registry


class _ManualClock:
    """A controllable clock for deadline tests (starts at 0, no drift)."""

    def __init__(self, tick: float = 0.0):
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


class TestArtifact:
    def test_round_trip(self, policy, tmp_path):
        table, fingerprint = policy
        path = tmp_path / "p.rpa"
        digest = compile_table(table, fingerprint, path, version=3)
        artifact = PolicyArtifact.load(path)
        assert artifact.version == 3
        assert artifact.digest == digest
        assert artifact.fingerprint == fingerprint
        assert artifact.num_states, artifact.num_actions == table.shape
        assert np.array_equal(np.array(artifact.table), table)

    def test_compile_is_deterministic(self, policy, tmp_path):
        table, fingerprint = policy
        compile_table(table, fingerprint, tmp_path / "a.rpa", version=1)
        compile_table(table, fingerprint, tmp_path / "b.rpa", version=1)
        assert (tmp_path / "a.rpa").read_bytes() \
            == (tmp_path / "b.rpa").read_bytes()

    def test_table_is_read_only(self, policy, tmp_path):
        table, fingerprint = policy
        compile_table(table, fingerprint, tmp_path / "p.rpa")
        artifact = PolicyArtifact.load(tmp_path / "p.rpa")
        with pytest.raises(ValueError):
            artifact.table[0, 0] = 1.0

    def test_bad_tables_are_refused_at_compile(self, policy, tmp_path):
        _, fingerprint = policy
        with pytest.raises(ServeError):
            compile_table(np.zeros(5), fingerprint, tmp_path / "p.rpa")
        with pytest.raises(ServeError):
            compile_table(np.zeros((0, 4)), fingerprint, tmp_path / "p.rpa")

    def test_missing_file_is_structured(self, tmp_path):
        with pytest.raises(PersistenceError):
            PolicyArtifact.load(tmp_path / "absent.rpa")


class TestArtifactFuzz:
    """Property-style corruption resilience, mirroring the manifest fuzz:
    a damaged artifact must refuse loudly with a PersistenceError or load
    a provably intact table — never raise an unstructured error, never
    serve scrambled bytes.  Every property runs over both kinds of
    ``.rpa`` file: a serving artifact, and a training checkpoint carrying
    a ``state`` header over a stacked ``(2, S, A)`` table."""

    _KINDS = st.sampled_from(["artifact", "checkpoint"])

    @staticmethod
    def _compiled(tmp, table, fingerprint, kind="artifact"):
        path = Path(tmp) / "p.rpa"
        if kind == "artifact":
            compile_table(table, fingerprint, path, version=1)
        else:
            write_table(path, np.stack([table, -table]), fingerprint,
                        state={"episode": 3, "soc_price": 0.1,
                               "cursors": {"shard-0000.jsonl": {
                                   "offset": 120, "lines": 4}}})
        return path

    @staticmethod
    def _load(path, kind):
        """The verified table of ``path``, through its kind's reader."""
        if kind == "artifact":
            return np.array(PolicyArtifact.load(path).table)
        return np.array(read_table(path)[1])

    @settings(max_examples=25, deadline=None)
    @given(cut=st.floats(0.0, 0.999), kind=_KINDS)
    def test_any_truncation_is_structured(self, policy, cut, kind):
        table, fingerprint = policy
        with tempfile.TemporaryDirectory() as tmp:
            path = self._compiled(tmp, table, fingerprint, kind)
            blob = path.read_bytes()
            path.write_bytes(blob[:int(len(blob) * cut)])
            with pytest.raises(PersistenceError):
                self._load(path, kind)

    def test_header_bitflips_never_unstructured(self, policy, tmp_path):
        # Exhaustive: every bit of the prefix and header, over both kinds
        # of file.  Each flip is refused with a PersistenceError or reads
        # back the identical header and table — never a silently
        # different header (the header digest covers every field a
        # loader uses) and never an unstructured exception.
        table, fingerprint = policy
        for kind in ("artifact", "checkpoint"):
            path = self._compiled(tmp_path, table[:4, :3], fingerprint, kind)
            intact = path.read_bytes()
            header, expected = read_table(path)
            header, expected = dict(header), np.array(expected)
            header_end = 8 + int.from_bytes(intact[4:8], "little")
            loaded = 0
            for index in range(header_end):
                for bit in range(8):
                    blob = bytearray(intact)
                    blob[index] ^= 1 << bit
                    path.write_bytes(bytes(blob))
                    try:
                        got_header, got = read_table(path)
                        if kind == "artifact":
                            PolicyArtifact.load(path)
                    except PersistenceError:
                        continue
                    assert got_header == header, (kind, index, bit)
                    assert np.array_equal(got, expected), (kind, index, bit)
                    loaded += 1
            # Only flips that leave the JSON text equivalent can load.
            assert loaded < header_end

    @settings(max_examples=25, deadline=None)
    @given(fraction=st.floats(0.0, 1.0), bit=st.integers(0, 7),
           kind=_KINDS)
    def test_table_bitflips_always_fail_the_digest(self, policy,
                                                   fraction, bit, kind):
        table, fingerprint = policy
        with tempfile.TemporaryDirectory() as tmp:
            path = self._compiled(tmp, table, fingerprint, kind)
            blob = bytearray(path.read_bytes())
            header_len = int.from_bytes(blob[4:8], "little")
            table_offset = _aligned(8 + header_len)
            span = len(blob) - table_offset
            index = table_offset + min(int(fraction * span), span - 1)
            blob[index] ^= 1 << bit
            path.write_bytes(bytes(blob))
            with pytest.raises(PersistenceError):
                self._load(path, kind)

    def test_recorded_digest_mismatch_is_structured(self, policy, tmp_path):
        table, fingerprint = policy
        for kind in ("artifact", "checkpoint"):
            path = self._compiled(tmp_path, table, fingerprint, kind)
            old = read_table(path)[0]["table_sha256"].encode("ascii")
            new = old[:-1] + (b"0" if old[-1:] != b"0" else b"1")
            path.write_bytes(path.read_bytes().replace(old, new, 1))
            with pytest.raises(PersistenceError, match="SHA-256"):
                self._load(path, kind)

    @pytest.mark.parametrize("dtype", [",f8", "<f7", 8])
    def test_bad_dtype_with_a_valid_digest_is_structured(self, policy,
                                                         tmp_path, dtype):
        # np.dtype raises SyntaxError, TypeError or ValueError on these;
        # the reader must turn every one into a PersistenceError.
        table, fingerprint = policy
        path = self._compiled(tmp_path, table[:4, :3], fingerprint)
        blob = path.read_bytes()
        length = int.from_bytes(blob[4:8], "little")
        header = json.loads(blob[8:8 + length])
        header["dtype"] = dtype
        header["header_sha256"] = _header_digest(header)
        head = json.dumps(header, sort_keys=True).encode().ljust(length)
        path.write_bytes(blob[:8] + head + blob[8 + length:])
        with pytest.raises(PersistenceError, match="dtype"):
            read_table(path)

    def test_stacked_table_is_not_servable(self, policy, tmp_path):
        table, fingerprint = policy
        path = self._compiled(tmp_path, table, fingerprint, "checkpoint")
        assert read_table(path)[0]["state"]["episode"] == 3
        with pytest.raises(PersistenceError, match="2-D"):
            PolicyArtifact.load(path)

    @settings(max_examples=20, deadline=None)
    @given(garbage=st.binary(max_size=256))
    def test_garbage_files_are_structured(self, garbage):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.rpa"
            path.write_bytes(MAGIC + garbage)
            with pytest.raises(PersistenceError):
                PolicyArtifact.load(path)
            with pytest.raises(PersistenceError):
                read_table(path)


class TestRegistry:
    def test_versions_are_monotonic(self, policy, tmp_path):
        table, fingerprint = policy
        registry = PolicyRegistry(tmp_path / "registry")
        assert registry.latest_version() is None
        assert [registry.publish_table(table, fingerprint)
                for _ in range(3)] == [1, 2, 3]
        assert registry.versions() == [1, 2, 3]
        assert registry.load().version == 3
        assert registry.load(2).version == 2

    def test_unknown_and_empty_lookups_are_serve_errors(self, policy,
                                                        tmp_path):
        table, fingerprint = policy
        registry = PolicyRegistry(tmp_path / "registry")
        with pytest.raises(ServeError, match="empty"):
            registry.load()
        registry.publish_table(table, fingerprint)
        with pytest.raises(ServeError, match="no version 9"):
            registry.load(9)
        with pytest.raises(ServeError):
            registry.path_for(0)

    def test_renamed_artifact_cannot_impersonate(self, policy, tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint, versions=2)
        registry.path_for(2).unlink()
        registry.path_for(1).rename(registry.path_for(2))
        with pytest.raises(PersistenceError, match="renamed"):
            registry.load(2)


class TestHotSwap:
    def test_identical_swap_is_bit_identical(self, policy, tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint, versions=2,
                             bump=0.0)  # v2 is byte-identical to v1
        states = np.arange(table.shape[0])
        plain = PolicyServer(registry)
        plain.activate(registry.load(1))
        unswapped = plain.decide(states)
        swapped_server = PolicyServer(registry)
        swapped_server.activate(registry.load(1))
        first = swapped_server.decide(states[: len(states) // 2])
        report = swapped_server.swap(version=2)
        assert report.activated and report.probe_disagreement == 0.0
        second = swapped_server.decide(states)
        assert np.array_equal(second, unswapped)
        assert np.array_equal(first, unswapped[: len(states) // 2])

    def test_corrupt_candidate_is_refused_not_raised(self, policy, tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint, versions=2)
        server = PolicyServer(registry)
        server.activate(registry.load(1))
        before = server.decide(np.arange(64))
        blob = bytearray(registry.path_for(2).read_bytes())
        blob[-1] ^= 0x40
        registry.path_for(2).write_bytes(bytes(blob))
        report = server.swap(version=2)
        assert not report.activated
        assert "SHA-256" in report.reason
        assert server.active_version == 1 and server.refused_swaps == 1
        assert np.array_equal(server.decide(np.arange(64)), before)

    def test_incompatible_fingerprint_is_refused(self, policy, tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        foreign = dict(fingerprint, gamma=0.123456)
        registry.publish_table(table, foreign)
        server = PolicyServer(registry)
        server.activate(registry.load(1))
        report = server.swap(version=2)
        assert not report.activated and "gamma" in report.reason
        assert server.active_version == 1

    def test_non_finite_candidate_fails_the_probe(self, policy, tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        poisoned = table.copy()
        poisoned[:, 0] = np.nan  # every probed row is non-finite
        registry.publish_table(poisoned, fingerprint)
        server = PolicyServer(registry)
        server.activate(registry.load(1))
        report = server.swap(version=2)
        assert not report.activated and "golden probe" in report.reason

    def test_staging_deadline_sheds_the_swap(self, policy, tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint, versions=2)
        server = PolicyServer(registry, clock=_ManualClock(tick=0.05))
        server.activate(registry.load(1))
        report = server.swap(version=2, deadline_s=0.01)
        assert not report.activated and "deadline" in report.reason
        assert server.stage_sheds == 1 and server.active_version == 1

    def test_rollback_reverts_one_step(self, policy, tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint, versions=2)
        server = PolicyServer(registry)
        server.activate(registry.load(1))
        with pytest.raises(ServeError, match="roll back"):
            server.rollback()
        assert server.swap(version=2).activated
        assert server.rollback() == 1
        assert server.active_version == 1 and server.rollbacks == 1

    def test_misuse_still_raises(self, policy, tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        server = PolicyServer(registry)
        with pytest.raises(ServeError, match="active incumbent"):
            server.begin_canary(version=1)
        for misuse in (lambda: server.canary_decide(np.arange(3)),
                       lambda: server.observe(True, np.zeros(3)),
                       server.abort_canary):
            with pytest.raises(ServeError, match="no canary rollout"):
                misuse()


class TestDegradation:
    def test_ladder_skips_corrupt_versions(self, policy, tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint, versions=3)
        blob = bytearray(registry.path_for(3).read_bytes())
        blob[-5] ^= 0x08
        registry.path_for(3).write_bytes(bytes(blob))
        server = PolicyServer(registry)
        assert server.activate_latest() == 2
        assert server.degraded_loads == 1 and not server.degraded

    def test_empty_or_all_corrupt_registry_falls_back(self, policy,
                                                      tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        registry.path_for(1).write_bytes(b"not an artifact")
        server = PolicyServer(registry)
        assert server.activate_latest() == 0
        assert server.degraded
        actions = server.decide(np.arange(10))
        assert np.all(actions == actions[0])
        assert server.fallback_decisions == 10

    def test_fallback_action_is_the_zero_current_level(self, policy,
                                                       tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        server = PolicyServer(registry)
        server.activate_latest()
        registry.path_for(1).write_bytes(b"rot")
        assert server.activate_latest() == 0  # ladder bottoms out
        levels = np.asarray(fingerprint["current_levels"], dtype=float)
        expected = int(np.argmin(np.abs(levels)))
        assert server.decide(np.array([5]))[0] == expected

    def test_fallback_recovers_current_levels_from_a_corrupt_table(
            self, policy, tmp_path):
        # A server that never loaded anything healthy can still pick the
        # zero-current fallback: the ladder peeks the (intact) header of
        # the table-corrupt artifact for the current levels.
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        path = registry.path_for(1)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0x40  # table bytes only; the header stays readable
        path.write_bytes(bytes(blob))
        server = PolicyServer(registry)
        assert server.activate_latest() == 0
        levels = np.asarray(fingerprint["current_levels"], dtype=float)
        expected = int(np.argmin(np.abs(levels)))
        assert server.decide(np.array([7]))[0] == expected
        assert expected != 0  # the hint genuinely changed the action


class TestCanary:
    def test_forced_regression_rolls_back_within_budget(self, policy,
                                                        tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        registry.publish_table(np.zeros_like(table) - 5.0, fingerprint)
        server = PolicyServer(registry)
        server.activate(registry.load(1))
        budget = 512
        server.begin_canary(version=2, canary_config=CanaryConfig(
            fraction=0.25, min_samples=32, sigmas=2.0,
            decision_budget=budget))
        rng = np.random.default_rng(0)
        verdict = None
        for _ in range(64):
            server.observe(False, rng.normal(1.0, 0.1, size=16))
            verdict = server.observe(True, np.full(16, -3.0))
            if verdict is not None:
                break
        assert verdict == "rollback"
        assert server.canary is None and server.active_version == 1
        assert server.rollbacks == 1
        assert server.last_rollback["decisions"] <= budget
        assert "sigma" in server.last_rollback["reason"]

    def test_intervention_rate_excess_rolls_back(self, policy, tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint, versions=2)
        server = PolicyServer(registry)
        server.activate(registry.load(1))
        server.begin_canary(version=2, canary_config=CanaryConfig(
            fraction=0.25, min_samples=32, decision_budget=512,
            intervention_margin=0.05))
        rng = np.random.default_rng(1)
        verdict = None
        for _ in range(8):
            server.observe(False, rng.normal(1.0, 0.1, size=16))
            verdict = server.observe(True, rng.normal(1.0, 0.1, size=16),
                                     interventions=8)
            if verdict is not None:
                break
        assert verdict == "rollback"
        assert "intervention rate" in server.last_rollback["reason"]

    def test_healthy_candidate_is_promoted(self, policy, tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint, versions=2,
                             bump=0.0)
        server = PolicyServer(registry)
        server.activate(registry.load(1))
        server.begin_canary(version=2, canary_config=CanaryConfig(
            fraction=0.25, min_samples=8, decision_budget=64))
        rewards = np.ones(16)
        verdict = None
        while verdict is None:
            server.observe(False, rewards)
            verdict = server.observe(True, rewards)
        assert verdict == "promote"
        assert server.active_version == 2 and server.rollbacks == 0

    def test_abort_leaves_the_bookkeeping_of_a_rollback_verdict(
            self, policy, tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        registry.publish_table(np.zeros_like(table) - 5.0, fingerprint)
        config = CanaryConfig(fraction=0.25, min_samples=32, sigmas=2.0,
                              decision_budget=512)
        outcomes = {}
        for path in ("verdict", "abort"):
            events = tmp_path / f"{path}.jsonl"
            with Telemetry(events) as telemetry:
                server = PolicyServer(registry, telemetry=telemetry,
                                      clock=_ManualClock(tick=1.0))
                server.activate(registry.load(1))
                server.begin_canary(version=2, canary_config=config)
                rng = np.random.default_rng(0)
                if path == "verdict":
                    verdict = None
                    while verdict is None:
                        server.observe(False, rng.normal(1.0, 0.1, size=16))
                        verdict = server.observe(True, np.full(16, -3.0))
                    assert verdict == "rollback"
                    groups = server.last_rollback["decisions"] // 16
                    reason = server.last_rollback["reason"]
                else:
                    # A healthy canary of the same size, aborted before
                    # any verdict, with the verdict's reason.
                    for _ in range(groups):
                        server.observe(False, rng.normal(1.0, 0.1, size=16))
                        assert server.observe(
                            True, rng.normal(1.0, 0.1, size=16)) is None
                    server.abort_canary(reason)
                counter = telemetry.metrics.counter("serve.rollback").value
            rolled = [{k: v for k, v in e.items() if k not in ("seq", "wall")}
                      for e in read_events(events)
                      if e["type"] == "serve_rollback"]
            outcomes[path] = (server.rollbacks, counter,
                              server.last_rollback, rolled,
                              server.canary, server.active_version)
        assert outcomes["verdict"] == outcomes["abort"]
        rollbacks, counter, last, rolled, canary, active = outcomes["abort"]
        assert (rollbacks, counter, canary, active) == (1, 1, None, 1)
        assert len(rolled) == 1 and rolled[0]["version"] == last["version"]
        assert rolled[0]["decisions"] == last["decisions"]

    def test_only_one_rollout_at_a_time(self, policy, tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint, versions=3,
                             bump=0.0)
        server = PolicyServer(registry)
        server.activate(registry.load(1))
        server.begin_canary(version=2)
        with pytest.raises(ServeError, match="already in flight"):
            server.begin_canary(version=3)


class TestCanaryVerdictOnIncumbentBatch:
    """The rollout re-evaluates after either group's batch, so a rollback
    can land on the incumbent's.  That verdict must reach the fleet (the
    canary cohort goes back to the incumbent) and the promotion pipeline
    (which must report the rollback, not a promotion)."""

    CANARY = CanaryConfig(fraction=0.5, min_samples=2, sigmas=0.5,
                          decision_budget=100_000, intervention_margin=1.0)

    @staticmethod
    def _server(policy, tmp_path, seed):
        table, fingerprint = policy
        rng = np.random.default_rng(seed)
        incumbent = rng.normal(size=table.shape)
        registry = PolicyRegistry(tmp_path / "registry")
        registry.publish_table(incumbent, fingerprint)
        registry.publish_table(incumbent + rng.normal(size=table.shape),
                               fingerprint)
        server = PolicyServer(registry)
        server.activate(registry.load(1))
        return registry, server

    @pytest.mark.parametrize("seed", [18, 21, 42, 46])
    def test_fleet_reports_the_verdict_and_serves_everyone(
            self, policy, tmp_path, seed):
        _, server = self._server(policy, tmp_path, seed)
        server.begin_canary(version=2, canary_config=self.CANARY)
        config = FleetConfig(vehicles=64, steps=10, seed=seed)
        result = FleetSimulator(server, config).run()
        assert server.rollbacks == 1 and server.canary is None
        assert result.canary_verdict == "rollback"
        assert result.rollback is not None
        assert result.decisions == 64 * 10
        assert result.limp_decisions == 0

    @pytest.mark.parametrize("seed", [18, 21, 42, 46])
    def test_promotion_reports_the_rollback(self, policy, tmp_path, seed):
        registry, server = self._server(policy, tmp_path, seed)
        pipeline = PromotionPipeline(
            server, registry,
            fleet_config=FleetConfig(vehicles=64, steps=10, seed=seed),
            canary_config=self.CANARY)
        runs = pipeline.watchdog.runs
        report = pipeline.promote(2)
        assert report.outcome == "rolled_back"
        assert report.incumbent_intact
        assert server.active_version == 1
        assert pipeline.watchdog.runs == runs


class TestBoundedQueue:
    def test_admission_beyond_limit_is_shed(self, policy, tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        server = PolicyServer(registry)
        server.activate_latest()
        states = np.arange(4)
        assert all(server.submit(states) for _ in range(QUEUE_LIMIT))
        assert not server.submit(states)
        assert server.shed_count == 1
        outcomes = server.pump()
        assert [o.shed for o in outcomes] == [False] * QUEUE_LIMIT
        assert server.pump() == []

    def test_expired_deadlines_are_shed_at_pump(self, policy, tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        clock = _ManualClock()
        server = PolicyServer(registry, clock=clock)
        server.activate_latest()
        server.submit(np.arange(3), deadline_s=1.0, key="late")
        server.submit(np.arange(3), key="patient")
        clock.now += 5.0
        outcomes = {o.key: o for o in server.pump()}
        assert outcomes["late"].shed
        assert outcomes["late"].reason == "deadline exceeded"
        assert not outcomes["patient"].shed
        assert server.shed_count == 1


class TestFleet:
    @pytest.mark.parametrize("field, value", [
        ("dt", 0.0), ("dt", -1.0), ("dt", float("nan")),
        ("dt", float("inf")), ("sensor_noise", -0.02),
        ("sensor_noise", float("nan")), ("sensor_noise", float("inf")),
    ])
    def test_config_rejects_bad_dt_and_noise(self, field, value):
        with pytest.raises(ServeError, match=field):
            FleetConfig(vehicles=16, steps=3, fault_fraction=1.0,
                        **{field: value})

    @pytest.mark.parametrize("steps", [0, -3, 2.7, 2.0, True, "5",
                                       np.float64(3.0)])
    def test_steps_must_be_an_integer_of_at_least_one(self, policy,
                                                      tmp_path, steps):
        table, fingerprint = policy
        server = PolicyServer(_registry(tmp_path, table, fingerprint))
        server.activate_latest()
        fleet = FleetSimulator(server, FleetConfig(vehicles=8, steps=3))
        with pytest.raises(ServeError, match="step"):
            fleet.run(steps=steps)
        with pytest.raises(ServeError, match="step"):
            FleetConfig(vehicles=8, steps=steps)

    def test_steps_accept_numpy_integers(self, policy, tmp_path):
        table, fingerprint = policy
        server = PolicyServer(_registry(tmp_path, table, fingerprint))
        server.activate_latest()
        config = FleetConfig(vehicles=8, steps=np.int64(2))
        fleet = FleetSimulator(server, config, record_trace=True)
        assert fleet.run().actions.shape == (2, 8)
        assert fleet.run(steps=np.int32(3)).actions.shape == (3, 8)

    def test_state_of_batch_matches_scalar_golden(self):
        disc = StateDiscretizer()
        rng = np.random.default_rng(5)
        p = rng.uniform(-40_000.0, 40_000.0, size=300)
        v = rng.uniform(0.0, 35.0, size=300)
        soc = rng.uniform(0.0, 1.0, size=300)
        batch = disc.state_of_batch(p, v, soc)
        assert batch.tolist() == [disc.state_of(p[i], v[i], soc[i])
                                  for i in range(300)]

    def test_runs_are_deterministic(self, policy, tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        results = []
        for _ in range(2):
            server = PolicyServer(registry)
            server.activate_latest()
            config = FleetConfig(vehicles=48, steps=10, seed=3)
            results.append(FleetSimulator(server, config,
                                          record_trace=True).run())
        assert np.array_equal(results[0].actions, results[1].actions)
        assert np.array_equal(results[0].final_soc, results[1].final_soc)
        assert results[0].decisions == results[1].decisions == 48 * 10

    def test_queue_pressure_degrades_to_limp_not_crash(self, policy,
                                                       tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr(server_module, "QUEUE_LIMIT", 1)
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        server = PolicyServer(registry)
        server.activate_latest()
        config = FleetConfig(vehicles=64, steps=5, request_batch=8, seed=2)
        result = FleetSimulator(server, config).run()
        assert result.shed_requests > 0
        assert result.limp_decisions > 0
        assert result.decisions + result.limp_decisions == 64 * 5

    def test_fleet_canary_regression_rolls_back(self, policy, tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        registry.publish_table(np.zeros_like(table) - 5.0, fingerprint)
        server = PolicyServer(registry)
        server.activate(registry.load(1))
        budget = 2000
        server.begin_canary(version=2, canary_config=CanaryConfig(
            fraction=0.3, min_samples=64, sigmas=2.0,
            decision_budget=budget))
        result = FleetSimulator(server, FleetConfig(vehicles=256, steps=30,
                                                    seed=1)).run()
        assert result.canary_verdict == "rollback"
        assert result.rollback is not None
        assert result.rollback["decisions"] <= budget
        assert server.active_version == 1

    def test_fleet_requires_an_activated_policy(self, tmp_path):
        server = PolicyServer(PolicyRegistry(tmp_path / "registry"))
        with pytest.raises(ServeError, match="activate a"):
            FleetSimulator(server)

    def test_sharded_run_aggregates(self, policy, tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        config = FleetConfig(vehicles=40, steps=5, seed=4)
        aggregate = run_fleet_sharded(registry.root, config, shards=2)
        assert aggregate["shards"] == 2 and aggregate["failures"] == 0
        assert aggregate["vehicles"] == 40
        assert aggregate["decisions"] == 40 * 5

    def test_shards_run_in_isolated_workers(self, policy, tmp_path,
                                            monkeypatch):
        import repro.exec

        built = []

        class _Spy(repro.exec.Supervisor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(repro.exec, "Supervisor", _Spy)
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        config = FleetConfig(vehicles=16, steps=3, seed=4)
        aggregate = run_fleet_sharded(registry.root, config, shards=4)
        assert aggregate["shards"] == 4 and aggregate["failures"] == 0
        assert [(s.jobs, s.isolated) for s in built] == [(4, True)]

    def test_shard_count_is_bit_invariant(self, policy, tmp_path):
        # Regression test: per-vehicle draws and noise streams are keyed
        # by GLOBAL vehicle id, and rewards are reduced with fsum, so
        # splitting the same population across any shard count yields
        # bit-identical aggregates (absent queue shedding).
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        config = FleetConfig(vehicles=48, steps=12, seed=6)
        one = run_fleet_sharded(registry.root, config, shards=1)
        four = run_fleet_sharded(registry.root, config, shards=4)
        assert four["failures"] == 0
        for key in ("decisions", "interventions", "limp_decisions",
                    "shed_requests"):
            assert one[key] == four[key], key
        assert one["mean_reward"] == four["mean_reward"]

    def test_streaming_experience_changes_no_decision(self, policy,
                                                      tmp_path):
        from repro.learn import ExperienceStream, read_journal

        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        config = FleetConfig(vehicles=32, steps=10, seed=7)

        def _run(experience=None):
            server = PolicyServer(registry)
            server.activate_latest()
            return FleetSimulator(server, config,
                                  experience=experience).run()

        silent = _run()
        stream = ExperienceStream(tmp_path / "journals")
        streamed = _run(experience=stream)
        stream.close()
        # Streaming is decision-read-only: the fleet behaves identically.
        assert streamed.decisions == silent.decisions
        assert streamed.mean_reward == silent.mean_reward
        assert streamed.interventions == silent.interventions
        assert streamed.experience_records > 0
        assert streamed.stream_errors == 0
        piece = read_journal(stream.path)
        assert piece.records == streamed.experience_records
        assert np.all(piece.columns["policy_version"] == 1)
        # One batch line per tick with served vehicles, ticks in order.
        steps = piece.columns["step"]
        assert piece.lines == len(np.unique(steps)) <= config.steps - 1
        assert np.all(np.diff(steps) >= 0)

    def test_fully_faulty_fleet_streams_nothing(self, policy, tmp_path):
        from repro.learn import ExperienceStream

        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        server = PolicyServer(registry)
        server.activate_latest()
        stream = ExperienceStream(tmp_path / "journals")
        config = FleetConfig(vehicles=16, steps=8, seed=7,
                             fault_fraction=1.0)
        result = FleetSimulator(server, config, experience=stream).run()
        stream.close()
        assert result.decisions > 0  # degraded vehicles are still served
        assert result.experience_records == 0

    def test_stream_failure_freezes_streaming_not_serving(self, policy,
                                                          tmp_path):
        from repro.errors import ExperienceError
        from repro.learn import ExperienceStream

        class _BrokenStream(ExperienceStream):
            def flush(self):
                raise ExperienceError("journal disk on fire")

        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        server = PolicyServer(registry)
        server.activate_latest()
        config = FleetConfig(vehicles=24, steps=10, seed=7)
        broken = _BrokenStream(tmp_path / "journals")
        result = FleetSimulator(server, config, experience=broken).run()
        broken.close()
        # One structured failure froze streaming; serving never noticed.
        assert result.stream_errors == 1
        assert result.experience_records == 0
        assert result.decisions + result.limp_decisions == 24 * 10
        ref_server = PolicyServer(registry)
        ref_server.activate_latest()
        ref = FleetSimulator(ref_server, config).run()
        assert result.mean_reward == ref.mean_reward


class TestServeTelemetryGolden:
    def test_disabled_telemetry_is_bit_identical(self, policy, tmp_path):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint, versions=2,
                             bump=0.0)
        traces = []
        with Telemetry(tmp_path / "t.jsonl") as telemetry:
            for instrument in (telemetry, None):
                server = PolicyServer(registry, telemetry=instrument)
                server.activate(registry.load(1))
                server.swap(version=2)
                config = FleetConfig(vehicles=32, steps=8, seed=6)
                traces.append(FleetSimulator(server, config,
                                             record_trace=True).run())
        assert np.array_equal(traces[0].actions, traces[1].actions)
        assert np.array_equal(traces[0].final_soc, traces[1].final_soc)

    def test_serve_metrics_and_events_are_emitted(self, policy, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(server_module, "QUEUE_LIMIT", 1)
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint, versions=2,
                             bump=0.0)
        with Telemetry(tmp_path / "t.jsonl") as telemetry:
            server = PolicyServer(registry, telemetry=telemetry)
            server.activate(registry.load(1))
            assert server.swap(version=2).activated
            server.rollback()
            server.submit(np.arange(3))
            server.submit(np.arange(3))
            server.pump()
            server.decide(np.arange(5))
            metrics = telemetry.metrics
            assert metrics.counter("serve.swap").value == 2
            assert metrics.counter("serve.rollback").value == 1
            assert metrics.counter("serve.shed").value == 1
            assert metrics.gauge("serve.active_version").value == 1.0
