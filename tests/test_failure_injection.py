"""Failure-injection tests: pathological inputs must degrade gracefully.

The simulator's promise is that *something* physically sensible executes on
every step, no matter how hostile the drive profile or battery state — the
fallback machinery absorbs infeasible demands instead of crashing or
producing unphysical outputs.  The fault subsystem extends the promise to
deliberately degraded vehicles: every fault model, schedule, and the
harness itself must keep episodes finite and leave the solver healthy
afterwards, the numerical watchdog must trip loudly on non-finite values,
and a killed-and-resumed training run must replay bit-identically.
"""

import numpy as np
import pytest

from repro.control import (
    ECMSController,
    RuleBasedController,
    ThermostatController,
    build_rl_controller,
)
from repro.control.base import Controller
from repro.cycles import DriveCycle
from repro.errors import (
    ConfigurationError,
    FaultScenarioError,
    NumericalError,
)
from repro.faults import (
    AuxLoadSpike,
    BatteryFade,
    EnginePowerLoss,
    FaultHarness,
    FaultSchedule,
    MotorDerating,
    ScheduledFault,
    SensorFault,
    builtin_scenarios,
    get_scenario,
    load_scenario,
    save_scenario,
)
from repro.powertrain import PowertrainSolver
from repro.rl.agent import ExecutedStep
from repro.sim import Simulator, train
from repro.vehicle import default_vehicle


@pytest.fixture(scope="module")
def solver():
    return PowertrainSolver(default_vehicle())


def brutal_cycle() -> DriveCycle:
    """A cycle with accelerations beyond the powertrain's ability."""
    speeds = np.array([0.0, 4.0, 12.0, 22.0, 30.0, 34.0, 20.0, 4.0, 0.0,
                       0.0, 8.0, 18.0, 28.0, 34.0, 16.0, 0.0])
    return DriveCycle("brutal", speeds)


def crawling_cycle() -> DriveCycle:
    """Low-speed stop-and-go where the engine cannot couple in any gear."""
    speeds = np.tile(np.array([0.0, 0.6, 1.2, 0.8, 0.3, 0.0]), 10)
    return DriveCycle("crawl", speeds)


class TestBrutalDemands:
    @pytest.mark.parametrize("make", [
        RuleBasedController, ECMSController, ThermostatController,
        lambda s: build_rl_controller(s, seed=1),
    ])
    def test_every_controller_survives(self, solver, make):
        controller = make(solver)
        result = Simulator(solver).run_episode(controller, brutal_cycle())
        # The run completes, fuel stays physical, SoC stays in [0, 1].
        assert np.all(result.fuel_rate >= 0.0)
        assert np.all((result.soc >= 0.0) & (result.soc <= 1.0))
        # Infeasible steps are marked, not hidden.
        assert result.fallback_steps >= 1

    def test_fallback_currents_physical(self, solver):
        result = Simulator(solver).run_episode(
            RuleBasedController(solver), brutal_cycle())
        imax = solver.params.battery.max_current
        assert np.all(np.abs(result.current) <= imax + 1e-6)


class TestCrawl:
    def test_ev_only_operation(self, solver):
        result = Simulator(solver).run_episode(
            RuleBasedController(solver), crawling_cycle(), initial_soc=0.7)
        # The engine cannot couple below idle speed in any gear: no fuel.
        assert result.total_fuel == pytest.approx(0.0)
        assert result.final_soc < 0.7  # aux + traction drain the pack


class TestBoundarySoc:
    def test_start_at_window_floor(self, solver):
        result = Simulator(solver).run_episode(
            RuleBasedController(solver), brutal_cycle(),
            initial_soc=solver.params.battery.soc_min)
        assert np.all(result.soc >= solver.params.battery.soc_min - 0.02)

    def test_start_at_window_ceiling(self, solver):
        result = Simulator(solver).run_episode(
            RuleBasedController(solver), brutal_cycle(),
            initial_soc=solver.params.battery.soc_max)
        assert np.all(result.soc <= solver.params.battery.soc_max + 0.02)

    def test_rl_agent_at_floor_never_deadlocks(self, solver):
        controller = build_rl_controller(solver, seed=2)
        cycle = crawling_cycle()
        result = Simulator(solver).run_episode(
            controller, cycle, initial_soc=solver.params.battery.soc_min)
        assert len(result.fuel_rate) == len(cycle) - 1


class TestDegenerateCycles:
    def test_all_idle_cycle(self, solver):
        cycle = DriveCycle("parked", np.zeros(30))
        result = Simulator(solver).run_episode(
            RuleBasedController(solver), cycle)
        assert result.total_fuel == 0.0
        assert result.distance == 0.0
        # Auxiliaries keep draining the pack while parked.
        assert result.final_soc < result.initial_soc

    def test_constant_speed_cycle(self, solver):
        cycle = DriveCycle("cruise", np.full(60, 20.0))
        result = Simulator(solver).run_episode(
            RuleBasedController(solver), cycle)
        assert result.total_fuel > 0.0
        assert result.fallback_steps == 0


# --------------------------------------------------------- fault injection ---

@pytest.fixture()
def fresh_solver():
    """Function-scoped solver: fault tests mutate it in place."""
    return PowertrainSolver(default_vehicle())


def gentle_cycle(steps: int = 60) -> DriveCycle:
    """A mild drive the powertrain can always serve, even degraded."""
    half = steps // 2
    speeds = np.concatenate([np.linspace(0.0, 12.0, half),
                             np.linspace(12.0, 0.0, steps - half)])
    return DriveCycle("gentle", speeds)


class TestPlantFaultModels:
    def test_severity_zero_is_identity(self):
        params = default_vehicle()
        for fault in (BatteryFade(), MotorDerating(), EnginePowerLoss()):
            assert fault.apply(params, 0.0) == params

    def test_battery_fade_scales_capacity_and_resistance(self):
        params = default_vehicle()
        fault = BatteryFade(capacity_loss=0.2, resistance_growth=0.5)
        degraded = fault.apply(params, 1.0).battery
        base = params.battery
        assert degraded.capacity == pytest.approx(0.8 * base.capacity)
        assert degraded.discharge_resistance == pytest.approx(
            1.5 * base.discharge_resistance)
        assert degraded.charge_resistance == pytest.approx(
            1.5 * base.charge_resistance)
        # Half severity degrades half as far.
        half = fault.apply(params, 0.5).battery
        assert half.capacity == pytest.approx(0.9 * base.capacity)

    def test_motor_and_engine_derating(self):
        params = default_vehicle()
        motor = MotorDerating(power_derate=0.4, torque_derate=0.3).apply(
            params, 1.0).motor
        assert motor.max_power == pytest.approx(0.6 * params.motor.max_power)
        assert motor.max_torque == pytest.approx(0.7 * params.motor.max_torque)
        engine = EnginePowerLoss(power_loss=0.25).apply(params, 1.0).engine
        assert engine.max_power == pytest.approx(
            0.75 * params.engine.max_power)

    def test_plant_faults_compose_and_do_not_mutate(self):
        params = default_vehicle()
        degraded = MotorDerating(power_derate=0.5).apply(
            BatteryFade(capacity_loss=0.1).apply(params, 1.0), 1.0)
        assert degraded.battery.capacity < params.battery.capacity
        assert degraded.motor.max_power < params.motor.max_power
        assert params == default_vehicle()  # inputs untouched

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            BatteryFade(capacity_loss=1.5)
        with pytest.raises(ConfigurationError):
            SensorFault(target="fuel")
        with pytest.raises(ConfigurationError):
            AuxLoadSpike(extra_power=-1.0)


class TestSchedule:
    def test_ramp_profile(self):
        entry = ScheduledFault(BatteryFade(), start=10.0, end=100.0,
                               ramp=20.0)
        assert entry.severity(0.0) == 0.0
        assert entry.severity(10.0) == 0.0  # ramp starts from zero
        assert entry.severity(20.0) == pytest.approx(0.5)
        assert entry.severity(30.0) == 1.0
        assert entry.severity(60.0) == 1.0
        assert entry.severity(100.0) == 0.0  # cleared at end
        assert entry.severity(200.0) == 0.0

    def test_step_activation_without_ramp(self):
        entry = ScheduledFault(MotorDerating(), start=5.0)
        assert entry.severity(4.99) == 0.0
        assert entry.severity(5.0) == 1.0

    def test_bad_timing_rejected(self):
        with pytest.raises(FaultScenarioError):
            ScheduledFault(BatteryFade(), start=-1.0)
        with pytest.raises(FaultScenarioError):
            ScheduledFault(BatteryFade(), start=10.0, end=10.0)
        with pytest.raises(FaultScenarioError):
            FaultSchedule([BatteryFade()])  # unwrapped model

    def test_plant_signature_ignores_signal_faults(self):
        schedule = FaultSchedule([
            ScheduledFault(BatteryFade(), start=0.0),
            ScheduledFault(SensorFault(target="soc", noise_std=0.01),
                           start=0.0),
        ])
        assert len(schedule.plant_signature(1.0)) == 1
        assert schedule.active(1.0)


class TestSignalFaultModels:
    def test_bias_and_noise_scale_with_severity(self):
        fault = SensorFault(target="speed", bias=2.0)
        rng = np.random.default_rng(0)
        observed, held = fault.distort(10.0, 0.5, rng, None)
        assert observed == pytest.approx(11.0)
        assert held == 10.0
        # Severity zero is transparent.
        assert fault.distort(10.0, 0.0, rng, None)[0] == 10.0

    def test_dropout_holds_last_sample(self):
        fault = SensorFault(target="soc", dropout=1.0)
        rng = np.random.default_rng(0)
        first, held = fault.distort(0.6, 1.0, rng, None)
        assert first == 0.6  # nothing to hold yet
        stale, _ = fault.distort(0.4, 1.0, rng, held)
        assert stale == 0.6  # certain dropout: stale value served

    def test_aux_spike_scales_and_clips(self):
        spike = AuxLoadSpike(extra_power=800.0)
        assert spike.extra_load(0.0) == 0.0
        assert spike.extra_load(0.5) == pytest.approx(400.0)
        assert spike.extra_load(2.0) == pytest.approx(800.0)


class TestHarnessMidCycle:
    def test_mid_cycle_activation_and_restore(self, fresh_solver):
        base_capacity = fresh_solver.params.battery.capacity
        schedule = FaultSchedule([ScheduledFault(
            BatteryFade(capacity_loss=0.3), start=20.0)])
        harness = FaultHarness(fresh_solver, schedule, seed=0)
        cycle = gentle_cycle(60)
        result = Simulator(fresh_solver).run_episode(
            RuleBasedController(fresh_solver), cycle, faults=harness)
        # The fault struck exactly at its scheduled step.
        assert not result.fault_active[:20].any()
        assert result.fault_active[20:].all()
        assert harness.activations == 1
        # SoC is continuous across the capacity change and traces finite.
        assert np.all(np.isfinite(result.soc))
        assert np.max(np.abs(np.diff(result.soc))) < 0.02
        # The solver is healthy again after the episode.
        assert fresh_solver.params.battery.capacity == base_capacity

    def test_schedule_accepted_directly(self, fresh_solver):
        schedule = FaultSchedule([ScheduledFault(
            MotorDerating(power_derate=0.5), start=0.0)])
        result = Simulator(fresh_solver).run_episode(
            RuleBasedController(fresh_solver), gentle_cycle(30),
            faults=schedule)
        assert result.faulted_steps == 29

    def test_derated_motor_actually_bites(self, fresh_solver):
        """Full-severity EM derating must change the executed drive.

        On a demanding cycle the engine runs wide open either way, so the
        EM's lost contribution shows up in the battery current trace (and
        the pack drains less), not necessarily in fuel.
        """
        healthy = Simulator(fresh_solver).run_episode(
            RuleBasedController(fresh_solver), brutal_cycle())
        schedule = FaultSchedule([ScheduledFault(
            MotorDerating(power_derate=0.8, torque_derate=0.8), start=0.0)])
        degraded = Simulator(fresh_solver).run_episode(
            RuleBasedController(fresh_solver), brutal_cycle(),
            faults=schedule)
        assert not np.allclose(degraded.current, healthy.current)
        assert np.max(np.abs(degraded.current)) < np.max(
            np.abs(healthy.current))

    def test_harness_bound_elsewhere_rejected(self, fresh_solver):
        other = PowertrainSolver(default_vehicle())
        harness = FaultHarness(other, FaultSchedule([ScheduledFault(
            BatteryFade(), start=0.0)]))
        with pytest.raises(ConfigurationError):
            Simulator(fresh_solver).run_episode(
                RuleBasedController(fresh_solver), gentle_cycle(10),
                faults=harness)


class _NaNController(Controller):
    """Misbehaving controller: emits a NaN current after a few steps."""

    def __init__(self, poison_after: int = 5):
        self._poison_after = poison_after
        self._step = 0

    def begin_episode(self) -> None:
        self._step = 0

    def act(self, speed, acceleration, soc, dt, grade=0.0, learn=True,
            greedy=False) -> ExecutedStep:
        self._step += 1
        current = float("nan") if self._step > self._poison_after else 0.0
        return ExecutedStep(state=0, rl_action=0, current=current, gear=0,
                            aux_power=100.0, fuel_rate=0.0, soc_next=soc,
                            reward=0.0, paper_reward=0.0, feasible=True,
                            mode=0, power_demand=0.0, shortfall=0.0)

    def finish_episode(self, learn=True) -> None:
        pass


class TestNumericalWatchdog:
    def test_nan_current_trips_immediately(self, fresh_solver):
        with pytest.raises(NumericalError, match="step 5"):
            Simulator(fresh_solver).run_episode(
                _NaNController(poison_after=5), gentle_cycle(30))

    def test_solver_restored_after_watchdog_trip(self, fresh_solver):
        base_capacity = fresh_solver.params.battery.capacity
        schedule = FaultSchedule([ScheduledFault(
            BatteryFade(capacity_loss=0.3), start=0.0)])
        with pytest.raises(NumericalError):
            Simulator(fresh_solver).run_episode(
                _NaNController(), gentle_cycle(30), faults=schedule)
        assert fresh_solver.params.battery.capacity == base_capacity


class TestScenarioIO:
    def test_builtin_catalogue(self):
        scenarios = builtin_scenarios()
        assert len(scenarios) >= 4
        for name, scenario in scenarios.items():
            assert scenario.name == name
            assert scenario.description
            assert len(scenario.schedule) >= 1

    def test_json_round_trip(self, tmp_path):
        scenario = get_scenario("limp_home")
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        assert loaded.to_dict() == scenario.to_dict()

    def test_malformed_scenarios_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FaultScenarioError):
            load_scenario(bad)
        with pytest.raises(FaultScenarioError, match="unknown kind"):
            from repro.faults.scenarios import scenario_from_dict
            scenario_from_dict({"name": "x",
                                "faults": [{"kind": "gremlins"}]})
        with pytest.raises(FaultScenarioError, match="bad parameters"):
            from repro.faults.scenarios import scenario_from_dict
            scenario_from_dict({"name": "x", "faults": [
                {"kind": "battery_fade", "bogus_knob": 1}]})
        with pytest.raises(FaultScenarioError):
            get_scenario("no_such_scenario")


class TestCrashSafeTraining:
    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        """A run killed after 2 episodes and resumed into a fresh process
        must finish with exactly the policy of an uninterrupted run."""
        cycle = gentle_cycle(40)
        ckpt = tmp_path / "ckpt"

        solver_a = PowertrainSolver(default_vehicle())
        straight = build_rl_controller(solver_a, seed=11)
        train(Simulator(solver_a), straight, cycle, episodes=4, seed=3,
              evaluate_after=False)

        solver_b = PowertrainSolver(default_vehicle())
        killed = build_rl_controller(solver_b, seed=11)
        train(Simulator(solver_b), killed, cycle, episodes=2, seed=3,
              evaluate_after=False, checkpoint_path=ckpt)
        # "Process death": everything about `killed` is discarded; only the
        # checkpoint files survive into the resumed run.
        solver_c = PowertrainSolver(default_vehicle())
        resumed = build_rl_controller(solver_c, seed=11)
        train(Simulator(solver_c), resumed, cycle, episodes=4, seed=3,
              evaluate_after=False, resume_from=ckpt)

        assert np.array_equal(resumed.agent.learner.qtable.values,
                              straight.agent.learner.qtable.values)
