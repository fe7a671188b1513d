"""Tests of the training callbacks in :mod:`repro.sim.callbacks` and of
how :func:`repro.sim.train` honours :class:`StopTraining`."""

import dataclasses

import numpy as np
import pytest

from repro.control.rl_controller import build_rl_controller
from repro.cycles import CycleSpec, synthesize
from repro.powertrain import PowertrainSolver
from repro.rl.persistence import load_policy
from repro.sim import Simulator, train
from repro.sim.callbacks import (
    BestPolicyCheckpoint,
    CallbackList,
    EarlyStopping,
    ProgressPrinter,
    StopTraining,
)
from repro.vehicle import default_vehicle


@pytest.fixture(scope="module")
def cycle():
    return synthesize(CycleSpec("cb", duration=90, mean_speed_kmh=24.0,
                                max_speed_kmh=45.0, stop_count=1, seed=71))


def fresh(seed=5):
    solver = PowertrainSolver(default_vehicle())
    return Simulator(solver), build_rl_controller(solver, seed=seed)


class TestProgressPrinter:
    def test_prints_on_interval(self, cycle):
        lines = []
        sim, ctrl = fresh()
        train(sim, ctrl, cycle, episodes=4,
              callback=ProgressPrinter(every=2, printer=lines.append))
        assert len(lines) == 2
        assert "episode    2" in lines[0]

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            ProgressPrinter(every=0)


class TestEarlyStopping:
    def test_stops_on_plateau(self, cycle):
        sim, ctrl = fresh()
        stopper = EarlyStopping(patience=2, min_delta=1e9)  # never improves
        run = train(sim, ctrl, cycle, episodes=20, callback=stopper)
        # First episode sets best; 2 stale episodes then stop -> 3 total.
        assert len(run.episodes) == 3
        assert stopper.stopped_at == 2
        assert run.evaluation is not None

    def test_continues_while_improving(self, cycle):
        sim, ctrl = fresh()
        stopper = EarlyStopping(patience=3, min_delta=0.0)
        run = train(sim, ctrl, cycle, episodes=6, callback=stopper)
        assert len(run.episodes) >= 3

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)
        with pytest.raises(ValueError):
            EarlyStopping(min_delta=-1.0)


class TestBestPolicyCheckpoint:
    def test_saves_and_reloads(self, cycle, tmp_path):
        sim, ctrl = fresh()
        ckpt = BestPolicyCheckpoint(ctrl.agent, tmp_path / "best")
        train(sim, ctrl, cycle, episodes=3, callback=ckpt)
        assert ckpt.saves >= 1
        assert (tmp_path / "best.rpa").exists()
        # Reload into a fresh compatible agent.
        solver = PowertrainSolver(default_vehicle())
        fresh_agent = build_rl_controller(solver, seed=9).agent
        load_policy(fresh_agent, tmp_path / "best")


class TestCallbackList:
    def test_invokes_all_in_order(self, cycle):
        order = []
        sim, ctrl = fresh()
        train(sim, ctrl, cycle, episodes=1,
              callback=CallbackList([lambda e, r: order.append("a"),
                                     lambda e, r: order.append("b")]))
        assert order == ["a", "b"]

    def test_stop_training_propagates(self, cycle):
        def bomb(episode, result):
            raise StopTraining("now")

        sim, ctrl = fresh()
        run = train(sim, ctrl, cycle, episodes=10,
                    callback=CallbackList([bomb]))
        assert len(run.episodes) == 1


def assert_same_episode(a, b):
    """Every field of two episode results is byte-identical."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


class TestStopTraining:
    @pytest.mark.parametrize("jitter", [0.0, 0.10])
    def test_stopped_run_equals_shorter_run(self, cycle, tmp_path, jitter):
        def stop_after(k):
            def callback(episode, result):
                if episode == k:
                    raise StopTraining("enough")
            return callback

        def run(episodes, callback, stem):
            sim, ctrl = fresh()
            out = train(sim, ctrl, cycle, episodes=episodes,
                        initial_soc_jitter=jitter, callback=callback,
                        seed=4, checkpoint_path=tmp_path / stem,
                        checkpoint_every=2)
            return out, ctrl.agent.learner.qtable.values.tobytes()

        k = 3
        stopped, stopped_q = run(10, stop_after(k), "stopped")
        straight, straight_q = run(k + 1, None, "straight")
        assert len(stopped.episodes) == k + 1
        assert stopped_q == straight_q
        for a, b in zip(stopped.episodes, straight.episodes):
            assert_same_episode(a, b)
        assert_same_episode(stopped.evaluation, straight.evaluation)
        # Episode k + 1 = 4 is a checkpoint boundary: written on the stop.
        assert ((tmp_path / "stopped.rpa").read_bytes()
                == (tmp_path / "straight.rpa").read_bytes())

    def test_other_callback_errors_propagate(self, cycle):
        def boom(episode, result):
            raise RuntimeError("callback bug")

        sim, ctrl = fresh()
        with pytest.raises(RuntimeError, match="callback bug"):
            train(sim, ctrl, cycle, episodes=3, callback=boom)
