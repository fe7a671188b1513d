"""Tests of the training callbacks in :mod:`repro.sim.callbacks`."""

import pytest

from repro.control.rl_controller import build_rl_controller
from repro.cycles import CycleSpec, synthesize
from repro.powertrain import PowertrainSolver
from repro.rl.persistence import load_policy
from repro.sim import Simulator
from repro.sim.callbacks import (
    BestPolicyCheckpoint,
    CallbackList,
    EarlyStopping,
    ProgressPrinter,
    StopTraining,
    train_with_callbacks,
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
        train_with_callbacks(sim, ctrl, cycle, episodes=4,
                             callbacks=[ProgressPrinter(
                                 every=2, printer=lines.append)])
        assert len(lines) == 2
        assert "episode    2" in lines[0]

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            ProgressPrinter(every=0)


class TestEarlyStopping:
    def test_stops_on_plateau(self, cycle):
        sim, ctrl = fresh()
        stopper = EarlyStopping(patience=2, min_delta=1e9)  # never improves
        run = train_with_callbacks(sim, ctrl, cycle, episodes=20,
                                   callbacks=[stopper])
        # First episode sets best; 2 stale episodes then stop -> 3 total.
        assert len(run.episodes) == 3
        assert stopper.stopped_at == 2
        assert run.evaluation is not None

    def test_continues_while_improving(self, cycle):
        sim, ctrl = fresh()
        stopper = EarlyStopping(patience=3, min_delta=0.0)
        run = train_with_callbacks(sim, ctrl, cycle, episodes=6,
                                   callbacks=[stopper])
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
        train_with_callbacks(sim, ctrl, cycle, episodes=3, callbacks=[ckpt])
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
        train_with_callbacks(
            sim, ctrl, cycle, episodes=1,
            callbacks=[lambda e, r: order.append("a"),
                       lambda e, r: order.append("b")])
        assert order == ["a", "b"]

    def test_stop_training_propagates(self, cycle):
        def bomb(episode, result):
            raise StopTraining("now")

        sim, ctrl = fresh()
        run = train_with_callbacks(sim, ctrl, cycle, episodes=10,
                                   callbacks=[bomb])
        assert len(run.episodes) == 1
