"""Stage timers and per-layer self time for the loop benchmark.

The benchmark times each stage of the loop (train, compile, serve,
ingest, promote, rollback) from its own code.  In a traced iteration it
also wraps the program's layer entry points — class methods and module
functions listed in :data:`LAYERS` — with timers that keep a span stack
in memory, so each call's *self* time (its duration minus the time its
wrapped callees took) is charged to ``<stage>.<layer>``.  Time inside a
stage that no wrapped layer covers is charged to ``<stage>.other``.

The wrappers are installed only for traced iterations and removed after
them, so an untraced iteration runs the program's code unchanged.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute path, layer).  An attribute path "Class.method"
# wraps the method on the class; a bare name wraps a module function
# where its caller looks it up.
LAYERS = (
    # The 1 Hz training step.
    ("repro.rl.agent", "JointControlAgent.observe_state", "predict"),
    ("repro.prediction.exponential", "ExponentialPredictor.update",
     "predict"),
    ("repro.powertrain.solver", "PowertrainSolver.evaluate_grid", "kernel"),
    ("repro.rl.reward", "RewardFunction.__call__", "rank"),
    ("repro.rl.reward", "RewardFunction.paper_reward", "rank"),
    ("repro.rl.agent", "JointControlAgent._reduce", "rank"),
    ("repro.rl.exploration", "EpsilonGreedy.select", "rank"),
    ("repro.rl.td_lambda", "TDLambdaLearner.update", "td"),
    ("repro.rl.td_lambda", "TDLambdaLearner.update_terminal", "td"),
    ("repro.rl.traces", "EligibilityTraces.visit", "traces"),
    ("repro.rl.traces", "EligibilityTraces.decay", "traces"),
    ("repro.safety.supervisor", "SafetySupervisor.act", "guard"),
    ("repro.rl.agent", "JointControlAgent.act", "agent"),
    ("repro.sim.simulator", "Simulator.run_episode", "sim"),
    # Artifacts.
    ("repro.serve.registry", "compile_table", "compile"),
    ("repro.serve.artifact", "PolicyArtifact.load", "verify"),
    # Fleet serving and journaling.
    ("repro.rl.discretize", "StateDiscretizer.state_of_batch",
     "discretise"),
    ("repro.serve.server", "PolicyServer.submit", "queue"),
    ("repro.serve.server", "PolicyServer.pump", "queue"),
    ("repro.serve.server", "PolicyServer.decide", "decide"),
    ("repro.serve.server", "PolicyServer.canary_decide", "canary"),
    ("repro.serve.server", "PolicyServer.observe", "canary"),
    ("repro.learn.journal", "ExperienceStream.offer_batch", "journal"),
    ("repro.learn.journal", "ExperienceStream.flush", "journal"),
    ("repro.serve.fleet", "FleetSimulator.run", "fleet"),
    # Learning and promotion.
    ("repro.learn.learner", "read_journal", "decode"),
    ("repro.learn.learner", "OnlineLearner._apply", "update"),
    ("repro.learn.learner", "OnlineLearner.checkpoint", "checkpoint"),
    ("repro.serve.server", "PolicyServer.begin_canary", "stage"),
    # The incumbent's decision probe, taken before a canary and again to
    # verify the fleet is healthy after a rollback.
    ("repro.learn.promotion", "PromotionPipeline._probe", "probe"),
)


class Spans:
    """Stage durations of the current iteration plus per-layer totals."""

    def __init__(self):
        self.stage_s = {}
        """Seconds each stage of the current iteration took."""
        self.self_s = defaultdict(float)
        """Accumulated self seconds per ``<stage>.<layer>`` key."""
        self.calls = defaultdict(int)
        """Accumulated calls per ``<stage>.<layer>`` key."""
        self._stack = []
        self._stage = None
        self._installed = []

    @contextmanager
    def stage(self, name: str):
        """Time one stage; traced layers called inside are charged to it."""
        frame = [0.0]
        self._stack.append(frame)
        self._stage = name
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self._stage = None
            self.stage_s[name] = elapsed
            if self._installed:
                self.self_s[f"{name}.other"] += elapsed - frame[0]

    def _timed(self, fn, layer: str):
        stack = self._stack

        def timed(*args, **kwargs):
            if self._stage is None:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                key = f"{self._stage}.{layer}"
                self.self_s[key] += elapsed - frame[0]
                self.calls[key] += 1
                stack[-1][0] += elapsed
        return timed

    @contextmanager
    def traced(self):
        """Install the layer wrappers for the duration of the block."""
        try:
            for module_name, path, layer in LAYERS:
                owner = importlib.import_module(module_name)
                *outer, name = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, name)
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self._timed(raw.__func__, layer))
                else:
                    wrapped = self._timed(raw, layer)
                self._installed.append((owner, name, raw))
                setattr(owner, name, wrapped)
            yield
        finally:
            while self._installed:
                owner, name, raw = self._installed.pop()
                setattr(owner, name, raw)
