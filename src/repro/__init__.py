"""repro: reproduction of "Joint Automatic Control of the Powertrain and
Auxiliary Systems to Enhance the Electromobility in Hybrid Electric
Vehicles" (Wang, Lin, Pedram, Chang — DAC 2015).

The package implements the paper's full stack from scratch:

* :mod:`repro.vehicle` — quasi-static parallel-HEV component models,
* :mod:`repro.powertrain` — the backward-looking solver,
* :mod:`repro.cycles` — drive-cycle synthesis and I/O,
* :mod:`repro.prediction` — driving-profile predictors (Eq. 12 and
  alternatives),
* :mod:`repro.rl` — the TD(lambda) joint control framework (the paper's
  contribution),
* :mod:`repro.control` — baselines: rule-based [5], ECMS, offline DP,
* :mod:`repro.sim` — episode simulation and training loops,
* :mod:`repro.exec` — supervised parallel execution (worker isolation,
  timeouts, retries, resumable sweep manifests),
* :mod:`repro.faults` — fault injection for degraded-mode studies,
* :mod:`repro.analysis` — metrics and report rendering.

Quickstart::

    from repro import quick_agent
    from repro.cycles import standard_cycle
    from repro.sim import train

    controller, simulator = quick_agent()
    run = train(simulator, controller, standard_cycle("UDDS"), episodes=20)
    print(run.evaluation.summary())
"""

from typing import Optional, Tuple

from repro.control.rl_controller import RLController, build_rl_controller
from repro.powertrain.solver import PowertrainSolver
from repro.sim.simulator import Simulator
from repro.vehicle.params import VehicleParams, default_vehicle

__version__ = "1.0.0"

__all__ = ["quick_agent", "__version__"]


def quick_agent(params: Optional[VehicleParams] = None,
                variant: str = "proposed",
                seed: int = 42) -> Tuple[RLController, Simulator]:
    """One-call setup: default vehicle, solver, RL controller, simulator.

    Returns the ``(controller, simulator)`` pair ready for
    :func:`repro.sim.train`.
    """
    solver = PowertrainSolver(params or default_vehicle())
    controller = build_rl_controller(solver, variant=variant, seed=seed)
    return controller, Simulator(solver)
