"""Tests of policy save/load in :mod:`repro.rl.persistence`."""

import json

import numpy as np
import pytest

from repro.artifact import write_table
from repro.chaos.shims import EnospcShim
from repro.control.rl_controller import build_rl_controller
from repro.cycles import CycleSpec, synthesize
from repro.fsio import FilesystemShim, shimmed
from repro.powertrain import PowertrainSolver
from repro.errors import CheckpointError, PersistenceError
from repro.rl.agent import JointControlAgent
from repro.rl.persistence import (
    _fingerprint,
    load_checkpoint,
    load_policy,
    save_checkpoint,
    save_policy,
)
from repro.sim import Simulator, evaluate, train
from repro.vehicle import default_vehicle


@pytest.fixture(scope="module")
def cycle():
    return synthesize(CycleSpec("p", duration=120, mean_speed_kmh=25.0,
                                max_speed_kmh=50.0, stop_count=2, seed=41))


@pytest.fixture(scope="module")
def trained_agent(cycle):
    solver = PowertrainSolver(default_vehicle())
    controller = build_rl_controller(solver, seed=2)
    train(Simulator(solver), controller, cycle, episodes=5,
          evaluate_after=False)
    return controller.agent


class TestRoundTrip:
    def test_qtable_restored_exactly(self, trained_agent, tmp_path):
        save_policy(trained_agent, tmp_path / "policy")
        solver = PowertrainSolver(default_vehicle())
        fresh = build_rl_controller(solver, seed=99).agent
        load_policy(fresh, tmp_path / "policy")
        assert np.array_equal(fresh.learner.qtable.values,
                              trained_agent.learner.qtable.values)

    def test_loaded_policy_reproduces_behaviour(self, trained_agent, cycle,
                                                tmp_path):
        save_policy(trained_agent, tmp_path / "policy")
        solver = PowertrainSolver(default_vehicle())
        fresh_ctrl = build_rl_controller(solver, seed=99)
        load_policy(fresh_ctrl.agent, tmp_path / "policy")

        sim = Simulator(solver)
        a = evaluate(sim, fresh_ctrl, cycle)

        solver2 = PowertrainSolver(default_vehicle())
        sim2 = Simulator(solver2)
        from repro.control.rl_controller import RLController
        b = evaluate(sim2, RLController(trained_agent), cycle)
        assert a.total_fuel == pytest.approx(b.total_fuel)
        assert np.array_equal(a.gear, b.gear)

    def test_double_q_checkpoint_round_trips(self, tmp_path):
        # Both estimators persist as one stacked (2, S, A) table.
        solver = PowertrainSolver(default_vehicle())
        saved = JointControlAgent(solver, algorithm="double_q", seed=0)
        for i in range(40):
            saved.learner.update(i % 7, i % 3, float(i), (i + 1) % 7)
        save_checkpoint(saved, tmp_path / "ckpt", episode=2)
        fresh = JointControlAgent(solver, algorithm="double_q", seed=1)
        assert load_checkpoint(fresh, tmp_path / "ckpt") == 2
        # The same next update (coin flip included) on both learners.
        for agent in (saved, fresh):
            agent.learner.update(1, 1, 5.0, 2)
        assert np.array_equal(fresh.learner.checkpoint_table(),
                              saved.learner.checkpoint_table())
        assert np.array_equal(fresh.learner.qtable.values,
                              saved.learner.qtable.values)

    def test_one_file_written(self, trained_agent, tmp_path):
        save_policy(trained_agent, tmp_path / "pol")
        assert [p.name for p in tmp_path.iterdir()] == ["pol.rpa"]


class TestCompatibilityGuard:
    def test_rejects_different_variant(self, trained_agent, tmp_path):
        save_policy(trained_agent, tmp_path / "policy")
        solver = PowertrainSolver(default_vehicle())
        other = build_rl_controller(solver, variant="baseline13").agent
        with pytest.raises(ValueError, match="incompatible"):
            load_policy(other, tmp_path / "policy")

    def test_rejects_different_action_levels(self, trained_agent, tmp_path):
        from repro.rl.agent import ActionSpaceConfig
        save_policy(trained_agent, tmp_path / "policy")
        solver = PowertrainSolver(default_vehicle())
        other = build_rl_controller(
            solver,
            action_config=ActionSpaceConfig(
                current_levels=(-50.0, 0.0, 50.0))).agent
        with pytest.raises(ValueError, match="incompatible"):
            load_policy(other, tmp_path / "policy")

    def test_missing_file_raises(self, trained_agent, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_policy(trained_agent, tmp_path / "nothing")

    def test_rejects_mismatched_table_shape(self, trained_agent, tmp_path):
        write_table(tmp_path / "policy.rpa", np.zeros((3, 3)),
                    _fingerprint(trained_agent))
        with pytest.raises(CheckpointError, match="shape"):
            load_policy(trained_agent, tmp_path / "policy")

    def test_rejects_checkpoint_of_other_learner(self, tmp_path):
        solver = PowertrainSolver(default_vehicle())
        double = JointControlAgent(solver, algorithm="double_q", seed=0)
        save_checkpoint(double, tmp_path / "ckpt", episode=1)
        plain = JointControlAgent(solver, seed=0)
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(plain, tmp_path / "ckpt")


class TestIntegrity:
    """On-disk corruption must surface as structured PersistenceError."""

    def test_bit_flip_is_detected_with_digests(self, trained_agent, tmp_path):
        save_policy(trained_agent, tmp_path / "policy")
        rpa = tmp_path / "policy.rpa"
        blob = bytearray(rpa.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        rpa.write_bytes(bytes(blob))
        fresh = build_rl_controller(PowertrainSolver(default_vehicle()),
                                    seed=99).agent
        with pytest.raises(PersistenceError, match="SHA-256"):
            load_policy(fresh, tmp_path / "policy")

    def test_truncated_archive_without_digest_is_structured(
            self, trained_agent, tmp_path):
        # Cut inside the header, before the recorded digest.
        save_policy(trained_agent, tmp_path / "policy")
        rpa = tmp_path / "policy.rpa"
        rpa.write_bytes(rpa.read_bytes()[:40])
        fresh = build_rl_controller(PowertrainSolver(default_vehicle()),
                                    seed=99).agent
        with pytest.raises(PersistenceError, match="truncated"):
            load_policy(fresh, tmp_path / "policy")

    def test_corrupt_sidecar_is_structured(self, trained_agent, tmp_path):
        save_policy(trained_agent, tmp_path / "policy")
        rpa = tmp_path / "policy.rpa"
        blob = bytearray(rpa.read_bytes())
        blob[8:8 + 27] = b'{"format_version": 1, trunc'
        rpa.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError, match="JSON"):
            load_policy(trained_agent, tmp_path / "policy")

    @pytest.mark.parametrize("garbage", [b"", b"PK\x03\x04zipfile",
                                         b"\x00" * 4096])
    def test_garbage_file_is_structured(self, trained_agent, tmp_path,
                                        garbage):
        (tmp_path / "policy.rpa").write_bytes(garbage)
        with pytest.raises(PersistenceError):
            load_policy(trained_agent, tmp_path / "policy")

    def test_header_without_digest_is_refused(self, trained_agent,
                                              tmp_path):
        # No unverified load path exists: a header that records no
        # digest is refused, not loaded on trust.
        save_policy(trained_agent, tmp_path / "policy")
        rpa = tmp_path / "policy.rpa"
        blob = rpa.read_bytes()
        length = int.from_bytes(blob[4:8], "little")
        header = json.loads(blob[8:8 + length])
        del header["table_sha256"]
        head = json.dumps(header, sort_keys=True).encode().ljust(length)
        rpa.write_bytes(blob[:8] + head + blob[8 + length:])
        with pytest.raises(PersistenceError, match="table_sha256"):
            load_policy(trained_agent, tmp_path / "policy")

    def test_checkpoint_bit_flip_is_detected(self, trained_agent, tmp_path):
        save_checkpoint(trained_agent, tmp_path / "ckpt", episode=3)
        rpa = tmp_path / "ckpt.rpa"
        blob = bytearray(rpa.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        rpa.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError, match="SHA-256"):
            load_checkpoint(trained_agent, tmp_path / "ckpt")


class _CountingShim(FilesystemShim):
    def __init__(self):
        self.writes = 0

    def write(self, path, data, default):
        self.writes += 1
        return default(data)


def _random_agent(seed):
    agent = build_rl_controller(PowertrainSolver(default_vehicle()),
                                seed=seed).agent
    agent.learner.qtable.values[:] = np.random.default_rng(seed).normal(
        size=agent.learner.qtable.values.shape)
    return agent


class TestFailedSaveKeepsPrevious:
    """A save that fails at any of its writes (ENOSPC) leaves the
    previous save loadable and unchanged."""

    @pytest.mark.parametrize("kind", ["policy", "checkpoint"])
    def test_enospc_at_every_write_keeps_previous(self, tmp_path, kind):
        def save(agent, stem):
            if kind == "policy":
                save_policy(agent, stem)
            else:
                save_checkpoint(agent, stem, episode=1)

        def load(stem):
            fresh = _random_agent(99)
            if kind == "policy":
                load_policy(fresh, stem)
            else:
                assert load_checkpoint(fresh, stem) == 1
            return fresh.learner.qtable.values

        agent = _random_agent(5)
        stem = tmp_path / kind
        save(agent, stem)
        previous = agent.learner.qtable.values.copy()
        agent.learner.qtable.values[:] += 1.0
        counter = _CountingShim()
        with shimmed(counter):
            save(agent, tmp_path / "count")
        assert counter.writes >= 1
        for k in range(1, counter.writes + 1):
            with shimmed(EnospcShim(fail_after_writes=k)):
                with pytest.raises(PersistenceError, match="cannot persist"):
                    save(agent, stem)
            assert np.array_equal(load(stem), previous), \
                f"an ENOSPC at write {k} damaged the previous {kind}"
