"""Tests of training-loop options (exploring starts, seeding)."""

import numpy as np
import pytest

from repro.control import RuleBasedController
from repro.control.rl_controller import build_rl_controller
from repro.cycles import CycleSpec, synthesize
from repro.powertrain import PowertrainSolver
from repro.sim import Simulator, train
from repro.vehicle import default_vehicle


@pytest.fixture(scope="module")
def cycle():
    return synthesize(CycleSpec("tr", duration=90, mean_speed_kmh=24.0,
                                max_speed_kmh=45.0, stop_count=1, seed=91))


class TestExploringStarts:
    def test_jittered_starts_vary(self, cycle):
        solver = PowertrainSolver(default_vehicle())
        run = train(Simulator(solver), RuleBasedController(solver), cycle,
                    episodes=6, initial_soc_jitter=0.1,
                    evaluate_after=False)
        starts = {e.initial_soc for e in run.episodes}
        assert len(starts) > 1

    def test_zero_jitter_fixed_start(self, cycle):
        solver = PowertrainSolver(default_vehicle())
        run = train(Simulator(solver), RuleBasedController(solver), cycle,
                    episodes=4, initial_soc_jitter=0.0,
                    evaluate_after=False)
        assert all(e.initial_soc == 0.60 for e in run.episodes)

    def test_starts_respect_window_margin(self, cycle):
        solver = PowertrainSolver(default_vehicle())
        p = solver.params.battery
        run = train(Simulator(solver), RuleBasedController(solver), cycle,
                    episodes=10, initial_soc=0.78, initial_soc_jitter=0.2,
                    evaluate_after=False)
        assert all(p.soc_min + 0.029 <= e.initial_soc <= p.soc_max - 0.029
                   for e in run.episodes)

    def test_evaluation_uses_nominal_start(self, cycle):
        solver = PowertrainSolver(default_vehicle())
        run = train(Simulator(solver), RuleBasedController(solver), cycle,
                    episodes=3, initial_soc=0.65, initial_soc_jitter=0.1)
        assert run.evaluation.initial_soc == 0.65

    def test_seed_reproducible(self, cycle):
        def starts(seed):
            solver = PowertrainSolver(default_vehicle())
            run = train(Simulator(solver), RuleBasedController(solver),
                        cycle, episodes=4, seed=seed, evaluate_after=False)
            return [e.initial_soc for e in run.episodes]

        assert starts(5) == starts(5)
        assert starts(5) != starts(6)

    def test_rejects_negative_jitter(self, cycle):
        solver = PowertrainSolver(default_vehicle())
        with pytest.raises(ValueError):
            train(Simulator(solver), RuleBasedController(solver), cycle,
                  episodes=1, initial_soc_jitter=-0.1)

    def test_rl_training_covers_soc_bins(self, cycle):
        # With exploring starts, the trained Q-table must be touched across
        # several SoC bins, not just around the nominal start.
        solver = PowertrainSolver(default_vehicle())
        controller = build_rl_controller(solver, seed=4)
        train(Simulator(solver), controller, cycle, episodes=12,
              initial_soc_jitter=0.15, evaluate_after=False)
        agent = controller.agent
        q = agent.learner.qtable.values
        touched_socs = set()
        for state in range(agent.discretizer.num_states):
            if abs(q[state]).max() > 1e-4:
                touched_socs.add(
                    np.unravel_index(state, agent.discretizer.shape)[2])
        assert len(touched_socs) >= 4
