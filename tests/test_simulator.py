"""Tests of the episode simulator and training loop."""

import numpy as np
import pytest

from repro.control import RuleBasedController, build_rl_controller
from repro.cycles import CycleSpec, DriveCycle, synthesize
from repro.powertrain import PowertrainSolver
from repro.sim import Simulator, evaluate, train
from repro.vehicle import default_vehicle


@pytest.fixture(scope="module")
def solver():
    return PowertrainSolver(default_vehicle())


@pytest.fixture(scope="module")
def sim(solver):
    return Simulator(solver)


@pytest.fixture(scope="module")
def short_cycle():
    return synthesize(CycleSpec("short", duration=100, mean_speed_kmh=25.0,
                                max_speed_kmh=50.0, stop_count=2, seed=11))


class TestRunEpisode:
    def test_trace_lengths(self, sim, short_cycle):
        rb = RuleBasedController(sim.solver)
        result = sim.run_episode(rb, short_cycle)
        assert len(result.fuel_rate) == len(short_cycle) - 1
        assert len(result.soc) == len(result.fuel_rate)

    def test_soc_trace_follows_coulomb_counting(self, sim, short_cycle):
        rb = RuleBasedController(sim.solver)
        result = sim.run_episode(rb, short_cycle, initial_soc=0.6)
        battery = sim.solver.battery
        state = battery.initial_state(0.6)
        for t in range(len(result.current)):
            state = battery.step(state, float(result.current[t]),
                                 short_cycle.dt)
            assert result.soc[t] == pytest.approx(battery.soc(state),
                                                  abs=1e-9)

    def test_soc_respects_window_with_slack(self, sim, short_cycle):
        rb = RuleBasedController(sim.solver)
        result = sim.run_episode(rb, short_cycle)
        p = sim.solver.params.battery
        assert np.all(result.soc >= p.soc_min - 0.02)
        assert np.all(result.soc <= p.soc_max + 0.02)

    def test_distance_matches_cycle(self, sim, short_cycle):
        rb = RuleBasedController(sim.solver)
        result = sim.run_episode(rb, short_cycle)
        assert result.distance == pytest.approx(short_cycle.distance)

    def test_initial_soc_recorded(self, sim, short_cycle):
        rb = RuleBasedController(sim.solver)
        result = sim.run_episode(rb, short_cycle, initial_soc=0.7)
        assert result.initial_soc == 0.7


class TestEpisodeResultAggregates:
    @pytest.fixture(scope="class")
    def result(self, sim, short_cycle):
        return sim.run_episode(RuleBasedController(sim.solver), short_cycle)

    def test_total_fuel_is_integral(self, result):
        assert result.total_fuel == pytest.approx(
            float(np.sum(result.fuel_rate)) * result.dt)

    def test_rewards_negative(self, result):
        assert result.total_paper_reward < 0.0

    def test_mpg_positive_finite(self, result):
        assert 0.0 < result.mpg < 300.0

    def test_corrected_fuel_charges_deficit(self, sim, short_cycle):
        result = sim.run_episode(RuleBasedController(sim.solver), short_cycle,
                                 initial_soc=0.6)
        if result.final_soc < result.initial_soc:
            assert result.corrected_fuel() > result.total_fuel
        elif result.final_soc > result.initial_soc:
            assert result.corrected_fuel() < result.total_fuel

    def test_corrected_fuel_rejects_bad_efficiency(self, result):
        with pytest.raises(ValueError):
            result.corrected_fuel(0.0)

    def test_corrected_reward_tracks_fuel_correction(self, result):
        delta = result.corrected_fuel() - result.total_fuel
        assert result.corrected_paper_reward() == pytest.approx(
            result.total_paper_reward - delta)

    def test_corrected_reward_charges_deficit(self, result):
        if result.final_soc < result.initial_soc:
            assert (result.corrected_paper_reward()
                    < result.total_paper_reward)

    def test_mode_fractions_sum_to_one(self, result):
        assert sum(result.mode_fractions().values()) == pytest.approx(1.0)

    def test_summary_mentions_cycle(self, result):
        assert result.cycle_name in result.summary()

    def test_mean_aux_power_in_range(self, sim, result):
        aux = sim.solver.auxiliary
        assert aux.min_power <= result.mean_aux_power <= aux.max_power


class TestTraining:
    def test_training_runs_and_evaluates(self, solver, short_cycle):
        sim = Simulator(solver)
        ctrl = build_rl_controller(solver, seed=7)
        run = train(sim, ctrl, short_cycle, episodes=3)
        assert len(run.episodes) == 3
        assert run.evaluation is not None
        assert len(run.learning_curve) == 3

    def test_callback_invoked(self, solver, short_cycle):
        sim = Simulator(solver)
        ctrl = build_rl_controller(solver, seed=7)
        seen = []
        train(sim, ctrl, short_cycle, episodes=2,
              callback=lambda ep, res: seen.append(ep), evaluate_after=False)
        assert seen == [0, 1]

    def test_rejects_zero_episodes(self, solver, short_cycle):
        sim = Simulator(solver)
        ctrl = build_rl_controller(solver, seed=7)
        with pytest.raises(ValueError):
            train(sim, ctrl, short_cycle, episodes=0)

    def test_learning_improves_reward(self, solver):
        # On a tiny repetitive cycle, the trained greedy policy must beat
        # the untrained greedy policy.
        cycle = synthesize(CycleSpec("tiny", duration=90, mean_speed_kmh=22.0,
                                     max_speed_kmh=45.0, stop_count=1,
                                     seed=3)).repeat(2)
        sim = Simulator(solver)
        ctrl = build_rl_controller(solver, seed=13)
        before = evaluate(sim, ctrl, cycle)
        run = train(sim, ctrl, cycle, episodes=25)
        assert (run.evaluation.total_reward
                >= before.total_reward - 1e-6)

    def test_evaluation_deterministic(self, solver, short_cycle):
        sim = Simulator(solver)
        ctrl = build_rl_controller(solver, seed=7)
        train(sim, ctrl, short_cycle, episodes=2, evaluate_after=False)
        a = evaluate(sim, ctrl, short_cycle)
        b = evaluate(sim, ctrl, short_cycle)
        assert a.total_fuel == pytest.approx(b.total_fuel)
        assert np.array_equal(a.current, b.current)
