"""Step-by-step episode simulation.

The simulator owns the physical truth: it replays the drive cycle, hands
the controller only what is observable, applies the executed action to the
battery by Coulomb counting, and collects the traces into an
:class:`EpisodeResult`.

Traces are written into preallocated struct-of-arrays episode buffers
(:class:`repro.sim.buffers.EpisodeBuffers`) that the simulator reuses
across episodes; the returned :class:`EpisodeResult` owns independent
copies, so results remain valid across training loops (see
``docs/PERFORMANCE.md``).

Two robustness layers run inside the step loop:

* **Fault injection** — ``run_episode(..., faults=...)`` drives a
  :class:`repro.faults.harness.FaultHarness` in lockstep with the cycle:
  plant faults degrade the shared solver in place, sensor faults distort
  the observations handed to the controller, and load spikes add an
  unsheddable draw.  When the controller acted on distorted observations
  (or an extra load is present), its resolved step is re-resolved on the
  *true* plant state, so the recorded traces are what physically happened
  rather than what the controller believed.
* **Numerical watchdog** — every executed step is checked for NaN/Inf
  before it is allowed to advance the battery state; a non-finite value
  raises :class:`repro.errors.NumericalError` immediately instead of
  silently poisoning the downstream traces and Q-values.

A third, optional layer is **telemetry**
(:class:`repro.telemetry.Telemetry`): when attached, each drive emits an
``sim.episode`` span, sampled per-step events, an episode summary event,
and step-latency/reward/SoC/shortfall metrics.  Disabled (the default),
the step loop runs the seed code path bit-identically.
"""

from __future__ import annotations

import math
import time

from repro.control.base import Controller
from repro.cycles.cycle import DriveCycle
from repro.errors import ConfigurationError, NumericalError
from repro.powertrain.solver import PowertrainSolver
from repro.sim.buffers import EpisodeBuffers
from repro.sim.results import EpisodeResult
from repro.vehicle.battery import BatteryState


class Simulator:
    """Replays drive cycles against a controller.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`, opt-in) streams
    an ``sim.episode`` span, sampled ``step`` events, and an ``episode``
    summary event per drive, plus step-latency/reward/SoC/shortfall
    metrics.  ``None`` (the default) is a no-op fast path: the step loop
    pays one predictable branch and the traces stay bit-identical to an
    uninstrumented run.
    """

    def __init__(self, solver: PowertrainSolver, telemetry=None):
        self._solver = solver
        self.telemetry = telemetry
        # Struct-of-arrays episode storage, reused across episodes (the
        # step loop writes slots; EpisodeResult gets copies at the end).
        self._buffers = EpisodeBuffers()
        # Harnesses built from bare FaultSchedules, keyed by schedule
        # identity: repeated degraded episodes over the same schedule then
        # reuse one harness instead of re-instantiating it per episode
        # (begin_episode re-seeds the fault RNG, so reuse is reproducible).
        # The stored schedule reference keeps the id stable.
        self._harness_cache = {}

    @property
    def solver(self) -> PowertrainSolver:
        """The shared powertrain solver."""
        return self._solver

    def _fault_harness(self, faults):
        """Normalise the ``faults`` argument to a bound harness (or None)."""
        if faults is None:
            return None
        from repro.faults.harness import FaultHarness
        from repro.faults.schedule import FaultSchedule
        if isinstance(faults, FaultSchedule):
            cached = self._harness_cache.get(id(faults))
            if cached is not None and cached[0] is faults:
                return cached[1]
            harness = FaultHarness(self._solver, faults)
            self._harness_cache[id(faults)] = (faults, harness)
            return harness
        if isinstance(faults, FaultHarness):
            if faults.solver is not self._solver:
                raise ConfigurationError(
                    "the fault harness is bound to a different solver than "
                    "this simulator")
            return faults
        raise ConfigurationError(
            "faults must be a FaultSchedule or a FaultHarness; got "
            f"{type(faults).__name__}")

    @staticmethod
    def _watchdog(t: int, **values: float) -> None:
        """Raise :class:`NumericalError` if any step quantity is non-finite."""
        for name, value in values.items():
            if not math.isfinite(value):
                raise NumericalError(
                    f"numerical watchdog: {name} became non-finite "
                    f"({value!r}) at step {t}")

    def run_episode(self, controller: Controller, cycle: DriveCycle,
                    initial_soc: float = 0.60, learn: bool = True,
                    greedy: bool = False,
                    faults=None) -> EpisodeResult:
        """Drive ``cycle`` once under ``controller``.

        ``learn`` lets learning controllers update their policy during the
        drive; ``greedy`` forces pure exploitation (evaluation runs use
        ``learn=False, greedy=True``).  ``faults`` injects a
        :class:`~repro.faults.schedule.FaultSchedule` or a pre-built
        :class:`~repro.faults.harness.FaultHarness`; the solver is restored
        to its healthy parameters when the episode ends, even on error.
        """
        harness = self._fault_harness(faults)
        battery = self._solver.battery
        state = battery.initial_state(initial_soc)

        steps = len(cycle) - 1
        buffers = self._buffers
        buffers.reserve(steps)

        telemetry = self.telemetry
        span = None
        step_hist = None
        sample_every = 0
        if telemetry is not None:
            from repro.telemetry.metrics import LATENCY_BUCKETS_S
            span = telemetry.tracer.start(
                "sim.episode", cycle=cycle.name, steps=steps,
                initial_soc=float(initial_soc), learn=bool(learn),
                greedy=bool(greedy), faulted=harness is not None)
            step_hist = telemetry.metrics.histogram(
                "sim.step_seconds", buckets=LATENCY_BUCKETS_S)
            from repro.telemetry.runtime import STEP_SAMPLE_EVERY
            sample_every = STEP_SAMPLE_EVERY

        controller.begin_episode()
        if harness is not None:
            harness.begin_episode()
        completed = False
        try:
            for t, (speed, accel, grade) in enumerate(cycle.steps()):
                step_start = (time.perf_counter() if step_hist is not None
                              else 0.0)
                if harness is not None:
                    capacity_before = self._solver.battery.params.capacity
                    harness.advance(t * cycle.dt)
                    battery = self._solver.battery
                    capacity = battery.params.capacity
                    if capacity != capacity_before:
                        # Capacity fade rescales the charge so the SoC
                        # *fraction* is continuous: the gauge (and the
                        # operating window, defined in fractions) shrink
                        # with the pack.
                        state = BatteryState(
                            charge=state.charge * capacity / capacity_before)
                    buffers.fault_active[t] = harness.active
                soc = battery.soc(state)

                obs_speed, obs_soc = speed, soc
                if harness is not None and harness.signals_active:
                    obs_speed = harness.observe_speed(speed)
                    obs_soc = harness.observe_soc(soc)

                step = controller.act(obs_speed, accel, obs_soc, cycle.dt,
                                      grade, learn=learn, greedy=greedy)

                exec_current = step.current
                exec_fuel = step.fuel_rate
                exec_aux = step.aux_power
                exec_mode = step.mode
                exec_feasible = step.feasible
                exec_shortfall = step.shortfall
                if harness is not None and harness.signals_active:
                    # The controller resolved its action against distorted
                    # observations (and without the parasitic load); what
                    # physically executes is its commanded action resolved
                    # on the true state with the true bus load.
                    point = self._solver.evaluate(
                        speed, accel, soc, step.current, step.gear,
                        step.aux_power + harness.extra_aux_power(),
                        cycle.dt, grade)
                    exec_current = point.battery_current
                    exec_fuel = point.fuel_rate
                    exec_aux = point.aux_power
                    exec_mode = int(point.mode)
                    exec_feasible = bool(point.feasible)
                    exec_shortfall = float(point.shortfall)

                self._watchdog(t, current=exec_current, fuel_rate=exec_fuel,
                               reward=step.reward, soc=soc)
                state = battery.step(state, exec_current, cycle.dt)
                self._watchdog(t, charge=state.charge)

                buffers.speeds[t] = speed
                buffers.power_demand[t] = step.power_demand
                buffers.fuel_rate[t] = exec_fuel
                buffers.reward[t] = step.reward
                buffers.paper_reward[t] = step.paper_reward
                buffers.soc[t] = battery.soc(state)
                buffers.current[t] = exec_current
                buffers.gear[t] = step.gear
                buffers.aux_power[t] = exec_aux
                buffers.mode[t] = exec_mode
                buffers.feasible[t] = exec_feasible
                buffers.shortfall[t] = exec_shortfall
                if telemetry is not None:
                    step_hist.observe(time.perf_counter() - step_start)
                    if t % sample_every == 0:
                        telemetry.event(
                            "step", t=t, speed=float(speed),
                            soc=float(buffers.soc[t]),
                            reward=float(step.reward),
                            current=float(exec_current))
            controller.finish_episode(learn=learn)
            completed = True
        finally:
            if harness is not None:
                harness.restore()
            if span is not None:
                telemetry.tracer.end(
                    span, outcome="ok" if completed else "error")

        # A safety-supervised controller exposes the episode's guard/mode
        # journal after finish_episode; attach it so the CLI, robustness
        # harness, and analysis layers see it (duck-typed so the simulator
        # stays import-independent of repro.safety).
        safety_report = None
        report_hook = getattr(controller, "episode_safety_report", None)
        if callable(report_hook):
            safety_report = report_hook()

        battery = self._solver.battery
        params = battery.params
        nominal_voltage = float(battery.open_circuit_voltage(
            0.5 * (params.soc_min + params.soc_max)))
        # The buffers are reused by the next episode; the result owns copies.
        result = EpisodeResult(
            cycle_name=cycle.name, dt=cycle.dt, distance=cycle.distance,
            speeds=buffers.take("speeds", steps),
            power_demand=buffers.take("power_demand", steps),
            fuel_rate=buffers.take("fuel_rate", steps),
            reward=buffers.take("reward", steps),
            paper_reward=buffers.take("paper_reward", steps),
            soc=buffers.take("soc", steps),
            current=buffers.take("current", steps),
            gear=buffers.take("gear", steps),
            aux_power=buffers.take("aux_power", steps),
            mode=buffers.take("mode", steps),
            feasible=buffers.take("feasible", steps),
            initial_soc=initial_soc, battery_capacity=params.capacity,
            nominal_voltage=nominal_voltage,
            fuel_energy_density=self._solver.engine.fuel_energy_density,
            fault_active=(buffers.take("fault_active", steps)
                          if harness is not None else None),
            shortfall=buffers.take("shortfall", steps),
            safety=safety_report)
        if telemetry is not None:
            self._record_episode(telemetry, result)
        return result

    @staticmethod
    def _record_episode(telemetry, result: EpisodeResult) -> None:
        """Emit the episode summary event and update the run metrics."""
        steps = len(result.soc)
        telemetry.event(
            "episode", cycle=result.cycle_name, steps=int(steps),
            initial_soc=float(result.initial_soc),
            total_reward=float(result.total_reward),
            total_fuel_g=float(result.total_fuel),
            final_soc=float(result.final_soc),
            total_shortfall=float(result.total_shortfall))
        metrics = telemetry.metrics
        metrics.counter("sim.episodes").inc()
        metrics.counter("sim.steps").inc(steps)
        metrics.counter("sim.fallback_steps").inc(result.fallback_steps)
        metrics.counter("sim.total_shortfall").inc(result.total_shortfall)
        if result.fault_active is not None:
            metrics.counter("sim.faulted_steps").inc(result.faulted_steps)
        metrics.gauge("sim.last_episode_reward").set(result.total_reward)
        metrics.gauge("sim.final_soc").set(result.final_soc)
