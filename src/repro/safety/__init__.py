"""Runtime safety supervision: envelope guarding, health monitoring, and
graceful controller degradation (NOMINAL -> DEGRADED -> LIMP_HOME -> HALT).
"""

from repro.safety.envelope import EnvelopeLimits, FeasibilityEnvelope
from repro.safety.events import (GuardEvent, ModeTransition, SafetyLog,
                                 SafetyReport)
from repro.safety.monitors import (InfeasibilityMonitor, Monitor,
                                   QTableMonitor, RewardCollapseMonitor,
                                   SoCWindowMonitor, StepContext)
from repro.safety.state_machine import (AlarmLevel, HealthState,
                                        HealthStateMachine)
from repro.safety.supervisor import SafetySupervisor, SupervisorConfig

__all__ = [
    "AlarmLevel",
    "EnvelopeLimits",
    "FeasibilityEnvelope",
    "GuardEvent",
    "HealthState",
    "HealthStateMachine",
    "InfeasibilityMonitor",
    "ModeTransition",
    "Monitor",
    "QTableMonitor",
    "RewardCollapseMonitor",
    "SafetyLog",
    "SafetyReport",
    "SafetySupervisor",
    "SoCWindowMonitor",
    "StepContext",
    "SupervisorConfig",
]
