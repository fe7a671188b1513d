"""The runtime safety supervisor mediating every controller action.

:class:`SafetySupervisor` wraps any :class:`repro.control.base.Controller`
and speaks the same protocol, so the simulator drives it unchanged.  Per
step it

1. decides which controller acts from the current health mode (the
   wrapped controller in NOMINAL/DEGRADED, the fallback in LIMP_HOME),
2. validates the executed action against the physical feasibility
   envelope and substitutes the nearest feasible action when it violates
   (journaling a :class:`~repro.safety.events.GuardEvent`),
3. feeds the health monitors and steps the
   ``NOMINAL -> DEGRADED -> LIMP_HOME -> HALT`` state machine, and
4. journals every transition; reaching HALT raises
   :class:`repro.errors.SafetyHaltError` with the report so far.

Pass-through guarantee
----------------------
In NOMINAL mode with a feasible, envelope-clean action the supervisor
returns the wrapped controller's :class:`ExecutedStep` object *unchanged*:
it consumes no randomness, issues no solver calls, and forwards
``learn``/``greedy`` verbatim — a guarded run on a healthy cycle is
bit-identical to an unguarded one.

Mode semantics
--------------
* **DEGRADED** freezes learning (``learn=False`` to the wrapped
  controller, pending TD transition dropped on entry) and derates the
  admissible current magnitude to ``degraded_current_fraction`` of the
  pack bound.
* **LIMP_HOME** hands control to the fallback controller, the
  rule-based baseline, in pure-exploitation mode.
* **HALT** is terminal: the episode stops with a structured error.

Recovery is hysteretic: sustained clean operation steps the mode back
toward NOMINAL one level at a time (never out of HALT).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.control.base import Controller
from repro.errors import ConfigurationError, ReproError, SafetyHaltError
from repro.powertrain.solver import PowertrainSolver
from repro.rl.agent import ExecutedStep
from repro.rl.reward import build_reward_function
from repro.safety.envelope import FeasibilityEnvelope
from repro.safety.events import (GuardEvent, ModeTransition, SafetyLog,
                                 SafetyReport)
from repro.safety.monitors import (InfeasibilityMonitor, Monitor,
                                   QTableMonitor, RewardCollapseMonitor,
                                   SoCWindowMonitor, StepContext)
from repro.safety.state_machine import (AlarmLevel, HealthState,
                                        HealthStateMachine)

_TOL = 1e-6


@dataclass(frozen=True)
class SupervisorConfig:
    """Thresholds and dwell times of the safety supervisor."""

    escalate_after: int = 3
    """Consecutive alarmed steps before the mode escalates one level."""

    recover_after: int = 40
    """Consecutive clean steps before the mode recovers one level."""

    degraded_current_fraction: float = 0.6
    """Fraction of the pack current bound admissible while DEGRADED."""

    q_divergence_threshold: float = 1e6
    """Q-table magnitude beyond which the divergence warning fires."""

    q_check_every: int = 5
    """Steps between full Q-table health scans (the scan touches every
    table entry; checking each step would dominate small-step cycles)."""

    infeasible_warn_after: int = 5
    """Consecutive infeasible/guarded steps before a DEGRADED vote."""

    infeasible_severe_after: int = 20
    """Consecutive infeasible/guarded steps before a LIMP_HOME vote."""

    soc_warn_after: int = 10
    """Consecutive out-of-window steps before a DEGRADED vote."""

    soc_severe_after: int = 60
    """Consecutive out-of-window steps before a LIMP_HOME vote."""

    reward_window: int = 25
    """Recent-step window of the reward-collapse statistic."""

    reward_sigmas: float = 6.0
    """Collapse threshold in episode-level standard deviations."""

    reward_min_history: int = 120
    """Baseline steps (older than the window) before the collapse detector
    votes at all."""

    max_events: int = 256
    """Guard events journaled per episode before counting-only overflow."""

    def __post_init__(self) -> None:
        if self.escalate_after < 1 or self.recover_after < 1:
            raise ConfigurationError("dwell counts must be >= 1")
        if not 0.0 < self.degraded_current_fraction <= 1.0:
            raise ConfigurationError(
                "degraded current fraction must be in (0, 1]")
        if self.q_check_every < 1:
            raise ConfigurationError("q_check_every must be >= 1")


class SafetySupervisor(Controller):
    """Wraps a controller with envelope guarding and health supervision."""

    def __init__(self, controller: Controller, solver: PowertrainSolver,
                 config: Optional[SupervisorConfig] = None,
                 telemetry=None):
        """The rule-based baseline on the same solver takes over in
        LIMP_HOME, mirroring the paper's conventional comparison
        strategy.  ``telemetry`` (a :class:`repro.telemetry.Telemetry`,
        opt-in) streams every guard intervention and health transition
        into the event sink as they happen — the in-memory
        :class:`~repro.safety.events.SafetyLog` journal is unchanged
        either way."""
        from repro.control.rule_based import RuleBasedController
        self.controller = controller
        self.solver = solver
        self.telemetry = telemetry
        self.fallback = RuleBasedController(solver)
        self.config = config or SupervisorConfig()
        self.envelope = FeasibilityEnvelope(solver)
        cfg = self.config
        self._machine = HealthStateMachine(cfg.escalate_after,
                                           cfg.recover_after)
        self._monitors: List[Monitor] = [
            QTableMonitor(cfg.q_divergence_threshold),
            InfeasibilityMonitor(cfg.infeasible_warn_after,
                                 cfg.infeasible_severe_after),
            SoCWindowMonitor(cfg.soc_warn_after, cfg.soc_severe_after),
            RewardCollapseMonitor(cfg.reward_window, cfg.reward_sigmas,
                                  cfg.reward_min_history),
        ]
        self._log = SafetyLog(cfg.max_events)
        # Reward used to score substituted steps identically to the wrapped
        # controller's own scoring (duck-typed off the controller/agent).
        reward = getattr(controller, "reward", None)
        if reward is None:
            reward = getattr(getattr(controller, "agent", None), "reward",
                             None)
        self._reward = reward if reward is not None else \
            build_reward_function(solver)
        self._step = 0
        self._time = 0.0
        self._q_cache: Tuple[Optional[bool], float] = (None, 0.0)
        self._last_report: Optional[SafetyReport] = None

    # ------------------------------------------------------------ telemetry ---

    def _record_guard(self, event: GuardEvent,
                      intervention: bool = True) -> None:
        """Journal one guard event; mirror it into the telemetry sink."""
        self._log.record_event(event, intervention=intervention)
        if self.telemetry is not None:
            self.telemetry.event(
                "guard_intervention", step=event.step, time=event.time,
                kind=event.kind, detail=event.detail)
            self.telemetry.metrics.counter("safety.guard_events").inc()

    # ------------------------------------------------------------- protocol ---

    @property
    def mode(self) -> HealthState:
        """The supervisor's current health mode."""
        return self._machine.state

    def begin_episode(self) -> None:
        """Reset supervision state and both controllers for a new drive."""
        self._machine.reset()
        for monitor in self._monitors:
            monitor.reset()
        self._log.reset()
        self._step = 0
        self._time = 0.0
        self._q_cache = (None, 0.0)
        self._last_report = None
        self.controller.begin_episode()
        self.fallback.begin_episode()

    def finish_episode(self, learn: bool = True) -> None:
        """Close the episode and freeze the safety report.

        The wrapped controller only flushes its terminal learning update
        when the episode *ends* NOMINAL — anything else means its last
        transitions were taken under supervision and must not train.
        """
        inner_learn = learn and self._machine.state is HealthState.NOMINAL
        self.controller.finish_episode(learn=inner_learn)
        self.fallback.finish_episode(learn=False)
        self._last_report = self._log.report(self._machine.state.name)

    def episode_safety_report(self) -> Optional[SafetyReport]:
        """The report of the last finished episode (None before any)."""
        return self._last_report

    def act(self, speed: float, acceleration: float, soc: float, dt: float,
            grade: float = 0.0, learn: bool = True,
            greedy: bool = False) -> ExecutedStep:
        """Mediate one step (see the module docstring for the pipeline)."""
        mode = self._machine.state
        if mode is HealthState.HALT:
            raise SafetyHaltError(
                "the supervisor is halted; begin a new episode to reset",
                step=self._step, reason="acted while halted",
                report=self._log.report(HealthState.HALT.name))
        self._log.record_mode(int(mode))

        step, intervened, envelope_clean = self._decide(
            mode, speed, acceleration, soc, dt, grade, learn, greedy)
        mode = self._machine.state  # a controller crash may have forced it

        self._observe_and_escalate(step, intervened, envelope_clean, soc,
                                   learn)
        self._step += 1
        self._time += dt
        return step

    # -------------------------------------------------------------- deciding ---

    def _decide(self, mode: HealthState, speed: float, acceleration: float,
                soc: float, dt: float, grade: float, learn: bool,
                greedy: bool) -> Tuple[ExecutedStep, bool, bool]:
        """Pick the acting controller, run it, and mediate the result.

        Returns ``(executed step, intervened, envelope_clean)``.
        """
        if mode is HealthState.LIMP_HOME:
            step = self.fallback.act(speed, acceleration, soc, dt, grade,
                                     learn=False, greedy=True)
            return self._mediate(step, speed, acceleration, soc, dt, grade,
                                 derate=1.0, intervened=False)

        inner_learn = learn and mode is HealthState.NOMINAL
        try:
            step = self.controller.act(speed, acceleration, soc, dt, grade,
                                       learn=inner_learn, greedy=greedy)
        except SafetyHaltError:
            raise
        except ReproError as exc:
            # The controller itself failed structurally: journal it, force
            # LIMP_HOME (repeating the crash to satisfy a dwell count would
            # be absurd), and let the fallback carry this very step.
            self._record_guard(GuardEvent(
                step=self._step, time=self._time, kind="controller_error",
                detail=f"{type(exc).__name__}: {exc}"))
            transition = self._machine.force(
                HealthState.LIMP_HOME,
                f"controller raised {type(exc).__name__}")
            self._handle_transition(transition)
            step = self.fallback.act(speed, acceleration, soc, dt, grade,
                                     learn=False, greedy=True)
            self._record_guard(GuardEvent(
                step=self._step, time=self._time, kind="fallback_engaged",
                detail="fallback controller engaged after controller error"),
                intervention=False)
            return self._mediate(step, speed, acceleration, soc, dt, grade,
                                 derate=1.0, intervened=True)

        derate = (self.config.degraded_current_fraction
                  if mode is HealthState.DEGRADED else 1.0)
        return self._mediate(step, speed, acceleration, soc, dt, grade,
                             derate=derate, intervened=False)

    def _mediate(self, step: ExecutedStep, speed: float, acceleration: float,
                 soc: float, dt: float, grade: float, derate: float,
                 intervened: bool) -> Tuple[ExecutedStep, bool, bool]:
        """Envelope-check one executed step, substituting if it violates."""
        violations = self.envelope.check(step.current, step.gear,
                                         step.aux_power, step.soc_next)
        if derate < 1.0 and not violations:
            i_max = self.envelope.limits().max_current * derate
            if abs(step.current) > i_max + _TOL:
                violations = [(
                    "degraded_clamp",
                    f"|{step.current:.1f} A| exceeds the DEGRADED derate "
                    f"bound {i_max:.1f} A")]
        if not violations:
            return step, intervened, True

        batch, row = self.envelope.resolve(
            speed, acceleration, soc, dt, grade, step.current, step.gear,
            step.aux_power, derate)
        mediated = ExecutedStep.of_row(
            batch, row, self._reward, soc, dt, step.power_demand,
            state=step.state, rl_action=step.rl_action)
        self._record_guard(GuardEvent(
            step=self._step, time=self._time, kind=violations[0][0],
            detail="; ".join(d for _, d in violations),
            action_before={"current": float(step.current),
                           "gear": int(step.gear),
                           "aux_power": float(step.aux_power)},
            action_after={"current": mediated.current,
                          "gear": mediated.gear,
                          "aux_power": mediated.aux_power}))
        return mediated, True, False

    # ------------------------------------------------------------ monitoring ---

    def _q_health(self) -> Tuple[Optional[bool], float]:
        """Cached Q-table health of the wrapped controller (duck-typed)."""
        if self._step % self.config.q_check_every == 0:
            agent = getattr(self.controller, "agent", self.controller)
            probe = getattr(agent, "q_health", None)
            self._q_cache = probe() if callable(probe) else (None, 0.0)
        return self._q_cache

    def _observe_and_escalate(self, step: ExecutedStep, intervened: bool,
                              envelope_clean: bool, soc: float,
                              learn: bool) -> None:
        """Feed the monitors and step the health state machine."""
        battery = self.solver.params.battery
        q_finite, q_max_abs = self._q_health()
        ctx = StepContext(
            step=self._step,
            feasible=bool(step.feasible) and envelope_clean,
            intervened=intervened,
            soc_outside=not battery.soc_min <= soc <= battery.soc_max,
            reward=float(step.reward),
            q_finite=q_finite, q_max_abs=q_max_abs)
        worst: Tuple[AlarmLevel, str] = (AlarmLevel.OK, "")
        for monitor in self._monitors:
            vote = monitor.observe(ctx)
            if vote[0] > worst[0]:
                worst = vote
        transition = self._machine.step(worst[0], worst[1])
        self._handle_transition(transition)

    def _handle_transition(self, transition) -> None:
        """Journal a state-machine transition and apply its side effects."""
        if transition is None:
            return
        source, target, reason = transition
        self._log.record_transition(ModeTransition(
            step=self._step, time=self._time, source=source.name,
            target=target.name, reason=reason))
        if self.telemetry is not None:
            self.telemetry.event(
                "health_transition", step=self._step, time=self._time,
                source=source.name, target=target.name, reason=reason)
            metrics = self.telemetry.metrics
            metrics.counter("safety.transitions").inc()
            metrics.gauge("safety.mode").set(int(target))
        if source is HealthState.NOMINAL and target > source:
            # Leaving NOMINAL freezes learning; the wrapped agent's pending
            # TD transition would otherwise train on a stale step pair
            # after recovery.
            agent = getattr(self.controller, "agent", self.controller)
            drop = getattr(agent, "drop_pending", None)
            if callable(drop):
                drop()
        if target is HealthState.HALT:
            self._log.record_halt()
            report = self._log.report(HealthState.HALT.name)
            self._last_report = report
            raise SafetyHaltError(
                f"safety supervisor halted at step {self._step}: {reason}",
                step=self._step, reason=reason, report=report)
