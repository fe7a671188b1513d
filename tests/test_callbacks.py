"""Tests of the per-episode ``callback`` of :func:`repro.sim.train` and of
the progress printer ``repro train`` passes to it."""

import pytest

from repro.cli import _progress_printer
from repro.control.rl_controller import build_rl_controller
from repro.cycles import CycleSpec, synthesize
from repro.powertrain import PowertrainSolver
from repro.sim import Simulator, train
from repro.vehicle import default_vehicle


@pytest.fixture(scope="module")
def cycle():
    return synthesize(CycleSpec("cb", duration=90, mean_speed_kmh=24.0,
                                max_speed_kmh=45.0, stop_count=1, seed=71))


def fresh(seed=5):
    solver = PowertrainSolver(default_vehicle())
    return Simulator(solver), build_rl_controller(solver, seed=seed)


class TestProgressPrinter:
    def test_prints_on_interval(self, cycle, capsys):
        sim, ctrl = fresh()
        train(sim, ctrl, cycle, episodes=4, callback=_progress_printer(2))
        lines = capsys.readouterr().out.splitlines()
        progress = [line for line in lines if line.startswith("episode")]
        assert len(progress) == 2
        assert "episode    2" in progress[0]


class TestTrainCallback:
    def test_callback_errors_propagate(self, cycle):
        def boom(episode, result):
            raise RuntimeError("callback bug")

        sim, ctrl = fresh()
        with pytest.raises(RuntimeError, match="callback bug"):
            train(sim, ctrl, cycle, episodes=3, callback=boom)
