"""RL controller wrapper and factory presets.

:class:`JointControlAgent` already speaks the controller protocol;
:class:`RLController` pins that contract nominally and the factory builds
the three configurations the paper's evaluation uses:

* ``proposed`` — prediction-enhanced joint control of powertrain and
  auxiliaries (the paper's contribution),
* ``no_prediction`` — same joint control without the prediction state
  dimension (isolates the Fig. 2 prediction gain),
* ``baseline13`` — RL powertrain control only, prediction off and
  auxiliaries pinned at their preferred draw (the ICCAD'14 policy [13]).
"""

from __future__ import annotations

from typing import Optional

from repro.control.base import Controller
from repro.powertrain.solver import PowertrainSolver
from repro.prediction.exponential import ExponentialPredictor
from repro.prediction.base import Predictor
from repro.rl.agent import ActionSpaceConfig, ExecutedStep, JointControlAgent
from repro.rl.exploration import EpsilonGreedy
from repro.rl.reward import RewardConfig
from repro.rl.td_lambda import TDLambdaConfig


class RLController(Controller):
    """Controller-protocol adapter around a :class:`JointControlAgent`."""

    def __init__(self, agent: JointControlAgent):
        self.agent = agent

    def begin_episode(self) -> None:
        """Delegate to the wrapped agent."""
        self.agent.begin_episode()

    def act(self, speed: float, acceleration: float, soc: float, dt: float,
            grade: float = 0.0, learn: bool = True,
            greedy: bool = False) -> ExecutedStep:
        """Delegate to the wrapped agent."""
        return self.agent.act(speed, acceleration, soc, dt, grade,
                              learn=learn, greedy=greedy)

    def finish_episode(self, learn: bool = True) -> None:
        """Delegate to the wrapped agent."""
        self.agent.finish_episode(learn=learn)


def build_rl_controller(solver: PowertrainSolver, variant: str = "proposed",
                        td_config: Optional[TDLambdaConfig] = None,
                        reward_config: Optional[RewardConfig] = None,
                        action_config: Optional[ActionSpaceConfig] = None,
                        predictor: Optional[Predictor] = None,
                        seed: int = 42) -> RLController:
    """Build one of the paper's RL controller configurations.

    ``variant`` is ``"proposed"``, ``"no_prediction"``, or ``"baseline13"``.
    Pass ``predictor`` to override the default exponential predictor of the
    proposed variant (the predictor ablation does).
    """
    if variant == "proposed":
        predictor = predictor or ExponentialPredictor()
        action = action_config or ActionSpaceConfig(control_aux=True)
    elif variant == "no_prediction":
        predictor = None
        action = action_config or ActionSpaceConfig(control_aux=True)
    elif variant == "baseline13":
        predictor = None
        action = action_config or ActionSpaceConfig(control_aux=False)
    else:
        raise ValueError(
            f"unknown variant {variant!r}; expected 'proposed', "
            f"'no_prediction', or 'baseline13'")
    agent = JointControlAgent(
        solver,
        td_config=td_config,
        reward_config=reward_config,
        action_config=action,
        predictor=predictor,
        exploration=EpsilonGreedy(seed=seed),
        seed=seed)
    return RLController(agent)
