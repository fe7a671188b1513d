"""Tests of the baseline controllers (rule-based, ECMS, DP)."""

import numpy as np
import pytest

from repro.control import (
    DPConfig,
    DPController,
    ECMSConfig,
    ECMSController,
    RuleBasedConfig,
    RuleBasedController,
    build_rl_controller,
    solve_dp,
)
from repro.control.base import gear_order
from repro.cycles import CycleSpec, synthesize
from repro.powertrain import PowertrainSolver
from repro.sim import Simulator, evaluate
from repro.vehicle import default_vehicle


@pytest.fixture(scope="module")
def solver():
    return PowertrainSolver(default_vehicle())


@pytest.fixture(scope="module")
def short_cycle():
    return synthesize(CycleSpec("short", duration=120, mean_speed_kmh=28.0,
                                max_speed_kmh=55.0, stop_count=2, seed=5))


class TestRuleBasedConfig:
    def test_defaults_valid(self):
        RuleBasedConfig()

    def test_rejects_bad_soc_order(self):
        with pytest.raises(ValueError):
            RuleBasedConfig(soc_critical=0.6, soc_charge_threshold=0.5)

    def test_rejects_positive_charge_current(self):
        with pytest.raises(ValueError):
            RuleBasedConfig(charge_current=5.0)

    def test_rejects_negative_assist_current(self):
        with pytest.raises(ValueError):
            RuleBasedConfig(assist_current=-5.0)


class TestRuleBasedDecisions:
    def test_braking_commands_regen(self, solver):
        rb = RuleBasedController(solver)
        assert rb._target_current(-5000.0, 10.0, 0.6) < 0.0

    def test_low_soc_charges(self, solver):
        rb = RuleBasedController(solver)
        assert rb._target_current(5000.0, 10.0, 0.42) < 0.0

    def test_ev_mode_discharges(self, solver):
        rb = RuleBasedController(solver)
        i = rb._target_current(5000.0, 8.0, 0.65)
        assert i > 0.0

    def test_high_power_assists(self, solver):
        rb = RuleBasedController(solver)
        cfg = rb.config
        i = rb._target_current(cfg.assist_power_threshold + 1000.0, 20.0, 0.65)
        assert i == cfg.assist_current

    def test_aux_shed_at_critical_soc(self, solver):
        rb = RuleBasedController(solver)
        assert rb._aux_power(0.42) == solver.auxiliary.min_power
        assert rb._aux_power(0.6) == pytest.approx(600.0)

    def test_gear_schedule_monotone(self, solver):
        shift_speeds = RuleBasedController(solver).config.shift_speeds
        gears = solver.transmission.num_gears
        preferred = [int(gear_order(shift_speeds, gears, v)[0])
                     for v in (2.0, 6.0, 10.0, 16.0, 25.0)]
        assert preferred == sorted(preferred)

    def test_full_episode_runs(self, solver, short_cycle):
        rb = RuleBasedController(solver)
        result = evaluate(Simulator(solver), rb, short_cycle)
        assert result.total_fuel > 0.0
        assert result.fallback_steps <= 2
        assert np.all(result.soc >= 0.38)


class TestECMS:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ECMSConfig(equivalence_factor=0.0)
        with pytest.raises(ValueError):
            ECMSConfig(soc_target=1.5)
        with pytest.raises(ValueError):
            ECMSConfig(current_levels=2)

    def test_equivalence_factor_feedback(self, solver):
        ec = ECMSController(solver)
        # Low SoC inflates s (discharge expensive), high SoC deflates it.
        assert (ec.equivalence_factor(0.45)
                > ec.equivalence_factor(0.60)
                > ec.equivalence_factor(0.75))

    def test_equivalence_factor_floor(self, solver):
        ec = ECMSController(solver)
        assert ec.equivalence_factor(5.0) >= 0.1

    def test_full_episode_charge_sustaining(self, solver, short_cycle):
        ec = ECMSController(solver)
        result = evaluate(Simulator(solver), ec, short_cycle)
        assert abs(result.final_soc - 0.60) < 0.08
        assert result.total_fuel > 0.0

    def test_beats_rule_based_on_fuel(self, solver, short_cycle):
        # The model-based optimiser should not lose to threshold rules on
        # SoC-corrected fuel.
        sim = Simulator(solver)
        ec = evaluate(sim, ECMSController(solver), short_cycle)
        rb = evaluate(sim, RuleBasedController(solver), short_cycle)
        assert ec.corrected_fuel() <= rb.corrected_fuel() * 1.02


class TestDP:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DPConfig(soc_nodes=2)
        with pytest.raises(ValueError):
            DPConfig(conversion_efficiency=0.0)

    def test_value_function_shape(self, solver, short_cycle):
        cfg = DPConfig(soc_nodes=7, current_levels=5, aux_levels=2)
        sol = solve_dp(solver, short_cycle, config=cfg)
        assert sol.values.shape == (len(short_cycle), 7)

    def test_terminal_cost_charges_deficit_only(self, solver, short_cycle):
        cfg = DPConfig(soc_nodes=7, current_levels=5, aux_levels=2)
        sol = solve_dp(solver, short_cycle, initial_soc=0.6, config=cfg)
        terminal = sol.values[-1]
        # Nodes above initial SoC have zero terminal cost.
        assert terminal[-1] == 0.0
        # Nodes below are charged, monotonically in the deficit.
        assert terminal[0] > terminal[1] > 0.0

    def test_cost_to_go_decreases_with_charge(self, solver, short_cycle):
        cfg = DPConfig(soc_nodes=7, current_levels=5, aux_levels=2)
        sol = solve_dp(solver, short_cycle, config=cfg)
        # More stored energy can never make the optimal future worse.
        v = sol.values[0]
        assert v[0] >= v[-1] - 1e-9

    def test_dp_controller_runs_and_scores_well(self, solver, short_cycle):
        cfg = DPConfig(soc_nodes=9, current_levels=7, aux_levels=3)
        sol = solve_dp(solver, short_cycle, config=cfg)
        sim = Simulator(solver)
        dp = evaluate(sim, DPController(solver, sol, config=cfg), short_cycle)
        rb = evaluate(sim, RuleBasedController(solver), short_cycle)
        # The offline optimum must not lose to the rule baseline on the
        # joint objective (paper reward with charge correction).
        dp_cost = dp.corrected_fuel()
        rb_cost = rb.corrected_fuel()
        assert dp_cost <= rb_cost * 1.05


class TestRLFactory:
    def test_variants_build(self, solver):
        for variant in ("proposed", "no_prediction", "baseline13"):
            build_rl_controller(solver, variant=variant)

    def test_unknown_variant_raises(self, solver):
        with pytest.raises(ValueError):
            build_rl_controller(solver, variant="nope")

    def test_proposed_has_predictor(self, solver):
        ctrl = build_rl_controller(solver, variant="proposed")
        assert ctrl.agent.predictor is not None

    def test_baseline13_fixed_aux(self, solver):
        ctrl = build_rl_controller(solver, variant="baseline13")
        assert ctrl.agent.predictor is None
        assert len(ctrl.agent.aux_levels) == 1
