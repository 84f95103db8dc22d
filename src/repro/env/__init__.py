"""Gym-style VM rescheduling simulator.

* :mod:`repro.env.observation` — the paper's PM (8-dim) and VM (14-dim) features
* :mod:`repro.env.objectives` — FR, min-migration and mixed objectives
* :mod:`repro.env.vmr_env` — :class:`VMRescheduleEnv`, the deterministic simulator
* :mod:`repro.env.vector_env` — :class:`SyncVectorEnv`, N envs stepped in lock-step
"""

from .objectives import (
    FragmentRateObjective,
    MigrationMinimizationObjective,
    MixedFragmentObjective,
    MixedResourceObjective,
    Objective,
    available_objectives,
    make_objective,
)
from .observation import (
    Observation,
    ObservationBuilder,
    PM_FEATURE_DIM,
    VM_FEATURE_DIM,
)
from .vector_env import SyncVectorEnv
from .vmr_env import StepRecord, VMRescheduleEnv

__all__ = [
    "FragmentRateObjective",
    "MigrationMinimizationObjective",
    "MixedFragmentObjective",
    "MixedResourceObjective",
    "Objective",
    "Observation",
    "ObservationBuilder",
    "PM_FEATURE_DIM",
    "StepRecord",
    "SyncVectorEnv",
    "VMRescheduleEnv",
    "VM_FEATURE_DIM",
    "available_objectives",
    "make_objective",
]
