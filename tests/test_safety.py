"""Tests of the runtime safety supervisor (:mod:`repro.safety`)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.control import RuleBasedController
from repro.control.base import Controller
from repro.control.rl_controller import build_rl_controller
from repro.cycles import CycleSpec, synthesize
from repro.errors import (ConfigurationError, NumericalError,
                          SafetyHaltError)
from repro.faults import FaultHarness, builtin_scenarios
from repro.powertrain import PowertrainSolver
from repro.rl.agent import ExecutedStep
from repro.safety import (
    AlarmLevel,
    FeasibilityEnvelope,
    HealthState,
    HealthStateMachine,
    InfeasibilityMonitor,
    QTableMonitor,
    RewardCollapseMonitor,
    SafetyLog,
    SafetySupervisor,
    SoCWindowMonitor,
    StepContext,
    SupervisorConfig,
)
from repro.sim import Simulator, evaluate, train
from repro.vehicle import default_vehicle
from tests.reference_step import ReferenceCollapseMonitor


@pytest.fixture(scope="module")
def cycle():
    return synthesize(CycleSpec("guard", duration=120, mean_speed_kmh=25.0,
                                max_speed_kmh=50.0, stop_count=2, seed=7))


@pytest.fixture()
def solver():
    return PowertrainSolver(default_vehicle())


def _ctx(step=0, feasible=True, intervened=False, soc_outside=False,
         reward=-1.0, q_finite=None, q_max_abs=0.0):
    return StepContext(step=step, feasible=feasible, intervened=intervened,
                       soc_outside=soc_outside, reward=reward,
                       q_finite=q_finite, q_max_abs=q_max_abs)


class _ScriptedController(Controller):
    """Stub returning pre-built steps (and journaling the learn flags)."""

    def __init__(self, steps, error=None):
        self._steps = list(steps)
        self._error = error
        self.learn_flags = []
        self._i = 0

    def begin_episode(self):
        self._i = 0

    def act(self, speed, acceleration, soc, dt, grade=0.0, learn=True,
            greedy=False):
        if self._error is not None:
            raise self._error
        self.learn_flags.append(learn)
        step = self._steps[min(self._i, len(self._steps) - 1)]
        self._i += 1
        return step

    def finish_episode(self, learn=True):
        pass


def _step(current=0.0, gear=0, aux_power=None, soc_next=0.60, feasible=True,
          solver=None):
    if aux_power is None:
        aux_power = float(solver.auxiliary.min_power) if solver else 300.0
    return ExecutedStep(state=0, rl_action=0, current=current, gear=gear,
                        aux_power=aux_power, fuel_rate=0.5,
                        soc_next=soc_next, reward=-1.0, paper_reward=-1.0,
                        feasible=feasible, mode=0, power_demand=5000.0,
                        shortfall=0.0)


class TestHealthStateMachine:
    def test_escalation_requires_dwell(self):
        m = HealthStateMachine(escalate_after=3, recover_after=5)
        assert m.step(AlarmLevel.WARN, "w") is None
        assert m.step(AlarmLevel.WARN, "w") is None
        assert m.state is HealthState.NOMINAL
        transition = m.step(AlarmLevel.WARN, "w")
        assert transition == (HealthState.NOMINAL, HealthState.DEGRADED, "w")
        assert m.state is HealthState.DEGRADED

    def test_severe_escalates_one_level_at_a_time(self):
        m = HealthStateMachine(escalate_after=1, recover_after=5)
        assert m.step(AlarmLevel.SEVERE, "s")[1] is HealthState.DEGRADED
        assert m.step(AlarmLevel.SEVERE, "s")[1] is HealthState.LIMP_HOME
        # SEVERE demands LIMP_HOME, never HALT: the machine stays put.
        assert m.step(AlarmLevel.SEVERE, "s") is None
        assert m.state is HealthState.LIMP_HOME

    def test_fatal_halts_immediately_and_terminally(self):
        m = HealthStateMachine(escalate_after=10, recover_after=10)
        transition = m.step(AlarmLevel.FATAL, "nan")
        assert transition == (HealthState.NOMINAL, HealthState.HALT, "nan")
        assert m.step(AlarmLevel.OK, "") is None
        assert m.state is HealthState.HALT

    def test_recovery_hysteresis(self):
        m = HealthStateMachine(escalate_after=1, recover_after=3)
        m.step(AlarmLevel.WARN, "w")
        assert m.state is HealthState.DEGRADED
        assert m.step(AlarmLevel.OK, "") is None
        assert m.step(AlarmLevel.OK, "") is None
        transition = m.step(AlarmLevel.OK, "")
        assert transition[0] is HealthState.DEGRADED
        assert transition[1] is HealthState.NOMINAL
        assert "recovered" in transition[2]

    def test_matching_alarm_resets_clean_streak(self):
        m = HealthStateMachine(escalate_after=1, recover_after=2)
        m.step(AlarmLevel.WARN, "w")
        assert m.state is HealthState.DEGRADED
        m.step(AlarmLevel.OK, "")
        m.step(AlarmLevel.WARN, "w")  # still degraded: streak must restart
        m.step(AlarmLevel.OK, "")
        assert m.step(AlarmLevel.OK, "") is not None  # 2 clean in a row now
        assert m.state is HealthState.NOMINAL

    def test_force_is_monotone(self):
        m = HealthStateMachine()
        assert m.force(HealthState.LIMP_HOME, "crash") is not None
        assert m.force(HealthState.DEGRADED, "later") is None
        assert m.state is HealthState.LIMP_HOME

    def test_rejects_bad_dwell(self):
        with pytest.raises(ConfigurationError):
            HealthStateMachine(escalate_after=0)


class TestMonitors:
    def test_q_monitor_without_table_is_silent(self):
        assert QTableMonitor().observe(_ctx(q_finite=None)) == \
            (AlarmLevel.OK, "")

    def test_q_monitor_nan_is_fatal(self):
        level, _ = QTableMonitor().observe(_ctx(q_finite=False))
        assert level is AlarmLevel.FATAL

    def test_q_monitor_divergence_warns(self):
        monitor = QTableMonitor(divergence_threshold=100.0)
        level, detail = monitor.observe(_ctx(q_finite=True, q_max_abs=1e4))
        assert level is AlarmLevel.WARN and "diverging" in detail
        assert monitor.observe(_ctx(q_finite=True, q_max_abs=50.0)) == \
            (AlarmLevel.OK, "")

    def test_infeasibility_streak_and_reset(self):
        monitor = InfeasibilityMonitor(warn_after=2, severe_after=3)
        assert monitor.observe(_ctx(feasible=False))[0] is AlarmLevel.OK
        assert monitor.observe(_ctx(feasible=False))[0] is AlarmLevel.WARN
        assert monitor.observe(_ctx(intervened=True))[0] is AlarmLevel.SEVERE
        assert monitor.observe(_ctx())[0] is AlarmLevel.OK  # streak broken
        assert monitor.observe(_ctx(feasible=False))[0] is AlarmLevel.OK

    def test_soc_window_streak(self):
        monitor = SoCWindowMonitor(warn_after=2, severe_after=4)
        votes = [monitor.observe(_ctx(soc_outside=True))[0]
                 for _ in range(4)]
        assert votes == [AlarmLevel.OK, AlarmLevel.WARN, AlarmLevel.WARN,
                         AlarmLevel.SEVERE]
        assert monitor.observe(_ctx(soc_outside=False))[0] is AlarmLevel.OK

    def test_reward_collapse_fires_on_cliff(self):
        monitor = RewardCollapseMonitor(window=5, sigmas=4.0, min_history=40)
        rng = np.random.default_rng(0)
        for i in range(60):
            vote = monitor.observe(_ctx(step=i,
                                        reward=float(rng.normal(0.0, 1.0))))
            assert vote[0] is AlarmLevel.OK
        for i in range(5):
            vote = monitor.observe(_ctx(step=60 + i, reward=-100.0))
        assert vote[0] is AlarmLevel.WARN
        assert "collapsed" in vote[1]

    def test_reward_collapse_ignores_nonfinite(self):
        monitor = RewardCollapseMonitor(window=2, sigmas=1.0, min_history=3)
        assert monitor.observe(_ctx(reward=float("nan")))[0] is AlarmLevel.OK

    @given(st.integers(2, 30), st.lists(st.one_of(
        st.floats(-50.0, 50.0), st.sampled_from([np.nan, np.inf])),
        max_size=150))
    def test_reward_collapse_matches_the_seed_monitor(self, window, rewards):
        """Same votes and bit-identical statistics as the seed monitor (a
        deque averaged by ``np.mean``)."""
        fast = RewardCollapseMonitor(window, sigmas=0.5,
                                     min_history=window + 3)
        seed = ReferenceCollapseMonitor(window, sigmas=0.5,
                                        min_history=window + 3)
        for i, r in enumerate(rewards):
            ctx = _ctx(step=i, reward=r)
            assert fast.observe(ctx) == seed.observe(ctx)
            baseline = fast._baseline
            assert (baseline.count, baseline.mean, baseline._m2) == (
                seed._count, seed._mean, seed._m2)
            if len(seed._recent) == window:
                assert fast._recent_mean() == float(np.mean(seed._recent))

    def test_reward_collapse_window_mean_is_np_mean(self):
        """The recent-window mean rounds exactly like the seed's
        ``np.mean`` over a deque, step after step."""
        fast = RewardCollapseMonitor(window=25, min_history=30)
        seed = ReferenceCollapseMonitor(window=25, min_history=30)
        rewards = np.random.default_rng(1).normal(-1.5, 0.7, 400)
        for i, r in enumerate(rewards.tolist()):
            fast.observe(_ctx(step=i, reward=r))
            seed.observe(_ctx(step=i, reward=r))
            if i >= 24:
                assert fast._recent_mean() == float(np.mean(seed._recent))

    def test_monitor_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            InfeasibilityMonitor(warn_after=5, severe_after=2)
        with pytest.raises(ConfigurationError):
            SoCWindowMonitor(warn_after=0)
        with pytest.raises(ConfigurationError):
            RewardCollapseMonitor(window=1)


class TestEnvelope:
    def test_clean_action_has_no_violations(self, solver):
        envelope = FeasibilityEnvelope(solver)
        assert envelope.check(0.0, 0, solver.auxiliary.min_power, 0.60) == []

    def test_violation_kinds(self, solver):
        envelope = FeasibilityEnvelope(solver)
        lim = envelope.limits()
        kinds = [k for k, _ in envelope.check(
            lim.max_current * 10, lim.num_gears + 3, lim.aux_max + 1e4,
            0.99)]
        assert kinds == ["current_limit", "gear_range", "aux_limit",
                        "soc_window"]

    def test_nonfinite_short_circuits(self, solver):
        envelope = FeasibilityEnvelope(solver)
        kinds = [k for k, _ in envelope.check(float("nan"), 0, 300.0, 0.6)]
        assert kinds == ["nonfinite_action"]

    def test_clamp_projects_and_sanitises(self, solver):
        envelope = FeasibilityEnvelope(solver)
        lim = envelope.limits()
        c, g, a = envelope.clamp(1e9, 99, float("inf"))
        assert c == pytest.approx(lim.max_current)
        assert g == lim.num_gears - 1
        assert a == pytest.approx(lim.aux_min)
        c, g, a = envelope.clamp(float("nan"), -5, -1e9)
        assert c == 0.0 and g == 0 and a == pytest.approx(lim.aux_min)

    def test_clamp_honours_derate(self, solver):
        envelope = FeasibilityEnvelope(solver)
        lim = envelope.limits()
        c, _, _ = envelope.clamp(lim.max_current, 0, 300.0, derate=0.5)
        assert c == pytest.approx(0.5 * lim.max_current)

    def test_resolve_returns_in_envelope_substitute(self, solver):
        envelope = FeasibilityEnvelope(solver)
        lim = envelope.limits()
        batch, row = envelope.resolve(
            speed=10.0, acceleration=0.0, soc=0.60, dt=1.0, grade=0.0,
            current=1e5, gear=2, aux_power=solver.auxiliary.min_power)
        assert abs(batch.battery_current[row]) <= lim.max_current + 1e-6
        assert np.isfinite(batch.fuel_rate[row])
        assert np.isfinite(batch.soc_next[row])

    def test_limits_track_live_solver_mutation(self, solver):
        import dataclasses
        envelope = FeasibilityEnvelope(solver)
        before = envelope.limits().max_current
        battery = dataclasses.replace(solver.params.battery,
                                      max_current=before / 2)
        degraded = dataclasses.replace(solver.params, battery=battery)
        # The fault harness degrades the shared solver by re-running its
        # __init__ in place; the envelope must see the new limits live.
        PowertrainSolver.__init__(solver, degraded)
        assert envelope.limits().max_current == pytest.approx(before / 2)


class TestSafetyLog:
    def test_bounded_events_honest_counts(self):
        log = SafetyLog(max_events=2)
        from repro.safety import GuardEvent
        for i in range(4):
            log.record_event(GuardEvent(step=i, time=float(i),
                                        kind="current_limit", detail="x"))
        log.record_mode(0)
        report = log.report("NOMINAL")
        assert len(report.events) == 2
        assert report.events_dropped == 2
        assert report.interventions == 4

    def test_time_in_mode_lists_every_mode(self):
        log = SafetyLog()
        for mode_id in (0, 0, 1, 2):
            log.record_mode(mode_id)
        counts = log.report("LIMP_HOME").time_in_mode()
        assert counts == {"NOMINAL": 2, "DEGRADED": 1, "LIMP_HOME": 1,
                          "HALT": 0}

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            SafetyLog(max_events=0)


class TestSupervisorUnit:
    def test_fallback_must_differ_from_controller(self, solver):
        controller = RuleBasedController(solver)
        with pytest.raises(ConfigurationError):
            SafetySupervisor(controller, solver, fallback=controller)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SupervisorConfig(degraded_current_fraction=0.0)
        with pytest.raises(ConfigurationError):
            SupervisorConfig(escalate_after=0)
        with pytest.raises(ConfigurationError):
            SupervisorConfig(q_check_every=0)

    def test_clean_step_passes_through_unchanged(self, solver):
        scripted = _ScriptedController([_step(solver=solver)])
        supervisor = SafetySupervisor(scripted, solver)
        supervisor.begin_episode()
        returned = supervisor.act(10.0, 0.0, 0.60, 1.0)
        assert returned is scripted._steps[0]  # the very same object
        assert supervisor.mode is HealthState.NOMINAL

    def test_bad_action_is_substituted_and_journaled(self, solver):
        scripted = _ScriptedController([_step(current=1e5, solver=solver)])
        supervisor = SafetySupervisor(scripted, solver)
        supervisor.begin_episode()
        returned = supervisor.act(10.0, 0.0, 0.60, 1.0)
        lim = supervisor.envelope.limits()
        assert abs(returned.current) <= lim.max_current + 1e-6
        supervisor.finish_episode(learn=False)
        report = supervisor.episode_safety_report()
        assert report.interventions == 1
        assert report.events[0].kind == "current_limit"
        assert report.events[0].action_before["current"] == pytest.approx(1e5)

    @pytest.mark.parametrize("speed, acceleration",
                             [(30.0, 3.0), (35.0, 4.0), (20.0, 5.0)])
    def test_substitute_keeps_its_shortfall(self, solver, speed,
                                            acceleration):
        # A hard launch the substitute cannot fully deliver: the mediated
        # step must record the torque shortfall its reward was charged for.
        scripted = _ScriptedController([_step(current=1e4, solver=solver)])
        supervisor = SafetySupervisor(scripted, solver)
        supervisor.begin_episode()
        returned = supervisor.act(speed, acceleration, 0.60, 1.0)
        batch, row = supervisor.envelope.resolve(
            speed, acceleration, 0.60, 1.0, 0.0, 1e4, 0,
            solver.auxiliary.min_power)
        assert batch.shortfall[row] > 100.0
        assert returned.shortfall == batch.shortfall[row]
        assert returned.current == batch.battery_current[row]
        reward = supervisor._reward(
            batch.fuel_rate[row], batch.aux_power[row], 1.0,
            soc_next=batch.soc_next[row], soc_prev=0.60,
            shortfall=batch.shortfall[row])
        assert returned.reward == float(reward)

    def test_sustained_infeasibility_escalates_to_limp_home(self, solver):
        scripted = _ScriptedController(
            [_step(feasible=False, solver=solver)])
        config = SupervisorConfig(escalate_after=1, recover_after=1000,
                                  infeasible_warn_after=1,
                                  infeasible_severe_after=2)
        supervisor = SafetySupervisor(scripted, solver, config=config)
        supervisor.begin_episode()
        for _ in range(4):
            supervisor.act(10.0, 0.0, 0.60, 1.0)
        assert supervisor.mode is HealthState.LIMP_HOME
        supervisor.finish_episode(learn=False)
        report = supervisor.episode_safety_report()
        targets = [t.target for t in report.transitions]
        assert targets == ["DEGRADED", "LIMP_HOME"]
        # In LIMP_HOME the fallback acts: the scripted controller is idle.
        calls = len(scripted.learn_flags)
        supervisor.act(10.0, 0.0, 0.60, 1.0)
        assert len(scripted.learn_flags) == calls

    def test_degraded_freezes_learning(self, solver):
        scripted = _ScriptedController(
            [_step(feasible=False, solver=solver)] * 2
            + [_step(solver=solver)] * 10)
        config = SupervisorConfig(escalate_after=1, recover_after=1000,
                                  infeasible_warn_after=1,
                                  infeasible_severe_after=100)
        supervisor = SafetySupervisor(scripted, solver, config=config)
        supervisor.begin_episode()
        for _ in range(4):
            supervisor.act(10.0, 0.0, 0.60, 1.0, learn=True)
        assert supervisor.mode is HealthState.DEGRADED
        assert scripted.learn_flags[0] is True
        assert scripted.learn_flags[-1] is False

    def test_degraded_recovery_restores_nominal(self, solver):
        scripted = _ScriptedController(
            [_step(feasible=False, solver=solver)] * 2
            + [_step(solver=solver)] * 10)
        config = SupervisorConfig(escalate_after=1, recover_after=3,
                                  infeasible_warn_after=1,
                                  infeasible_severe_after=100)
        supervisor = SafetySupervisor(scripted, solver, config=config)
        supervisor.begin_episode()
        for _ in range(8):
            supervisor.act(10.0, 0.0, 0.60, 1.0)
        assert supervisor.mode is HealthState.NOMINAL
        supervisor.finish_episode(learn=False)
        transitions = supervisor.episode_safety_report().transitions
        assert transitions[-1].target == "NOMINAL"
        assert "recovered" in transitions[-1].reason

    def test_controller_error_engages_fallback_same_step(self, solver):
        scripted = _ScriptedController([], error=NumericalError("exploded"))
        supervisor = SafetySupervisor(scripted, solver)
        supervisor.begin_episode()
        returned = supervisor.act(10.0, 0.0, 0.60, 1.0)
        assert np.isfinite(returned.fuel_rate)
        assert supervisor.mode is HealthState.LIMP_HOME
        supervisor.finish_episode(learn=False)
        report = supervisor.episode_safety_report()
        kinds = [e.kind for e in report.events]
        assert "controller_error" in kinds and "fallback_engaged" in kinds
        assert any("NumericalError" in t.reason for t in report.transitions)

    def test_act_while_halted_raises(self, solver):
        supervisor = SafetySupervisor(RuleBasedController(solver), solver)
        supervisor.begin_episode()
        supervisor._machine.force(HealthState.HALT, "test")
        with pytest.raises(SafetyHaltError):
            supervisor.act(10.0, 0.0, 0.60, 1.0)


class TestSupervisorEndToEnd:
    def test_nominal_passthrough_is_bit_identical(self, cycle):
        def drive(guard):
            solver = PowertrainSolver(default_vehicle())
            controller = RuleBasedController(solver)
            if guard:
                controller = SafetySupervisor(controller, solver)
            return evaluate(Simulator(solver), controller, cycle)

        plain, guarded = drive(False), drive(True)
        assert np.array_equal(plain.fuel_rate, guarded.fuel_rate)
        assert np.array_equal(plain.soc, guarded.soc)
        assert np.array_equal(plain.current, guarded.current)
        report = guarded.safety
        assert report is not None
        assert report.interventions == 0
        assert report.final_mode == "NOMINAL"
        assert report.steps == len(plain.fuel_rate)
        assert plain.safety is None  # unguarded runs carry no report

    def test_poisoned_q_table_halts_structurally(self, cycle):
        solver = PowertrainSolver(default_vehicle())
        controller = build_rl_controller(solver, seed=3)
        simulator = Simulator(solver)
        train(simulator, controller, cycle, episodes=1,
              evaluate_after=False)
        controller.agent.learner.qtable.values[0, 0] = np.nan
        supervisor = SafetySupervisor(controller, solver)
        with pytest.raises(SafetyHaltError) as excinfo:
            evaluate(simulator, supervisor, cycle)
        err = excinfo.value
        assert err.report is not None and err.report.halted
        assert err.report.final_mode == "HALT"
        assert "Q-table" in err.reason

    @pytest.mark.parametrize("scenario_name",
                             sorted(builtin_scenarios().keys()))
    def test_any_builtin_fault_completes_or_halts(self, cycle,
                                                  scenario_name):
        """The robustness promise: under the supervisor, every built-in
        fault scenario either finishes the drive or raises a structured
        SafetyHaltError — never an unstructured exception, never NaN."""
        solver = PowertrainSolver(default_vehicle())
        simulator = Simulator(solver)
        supervisor = SafetySupervisor(RuleBasedController(solver), solver)
        scenario = builtin_scenarios()[scenario_name]
        harness = FaultHarness(solver, scenario.schedule, seed=11)
        try:
            result = evaluate(simulator, supervisor, cycle, faults=harness)
        except SafetyHaltError as err:
            assert err.report is not None and err.report.halted
            return
        assert result.safety is not None
        assert result.safety.steps == len(result.fuel_rate)
        for trace in (result.fuel_rate, result.soc, result.current,
                      result.reward):
            assert np.all(np.isfinite(trace))
        assert result.safety.final_mode in ("NOMINAL", "DEGRADED",
                                            "LIMP_HOME")
