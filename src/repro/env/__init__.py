"""Gym-style VM rescheduling simulator.

* :mod:`repro.env.spaces` — Discrete / Box / MultiDiscrete / Tuple spaces
* :mod:`repro.env.observation` — the paper's PM (8-dim) and VM (14-dim) features
* :mod:`repro.env.objectives` — FR, min-migration and mixed objectives
* :mod:`repro.env.vmr_env` — :class:`VMRescheduleEnv`, the deterministic simulator
* :mod:`repro.env.wrappers` — episode statistics / reward scaling / time limits
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
from .spaces import Box, Discrete, MultiDiscrete, Space, Tuple
from .vector_env import SyncVectorEnv
from .vmr_env import StepRecord, VMRescheduleEnv
from .wrappers import (
    EnvWrapper,
    EpisodeStats,
    RecordEpisodeStatistics,
    RewardScaling,
    TimeLimit,
)

__all__ = [
    "Box",
    "Discrete",
    "EnvWrapper",
    "EpisodeStats",
    "FragmentRateObjective",
    "MigrationMinimizationObjective",
    "MixedFragmentObjective",
    "MixedResourceObjective",
    "MultiDiscrete",
    "Objective",
    "Observation",
    "ObservationBuilder",
    "PM_FEATURE_DIM",
    "RecordEpisodeStatistics",
    "RewardScaling",
    "Space",
    "StepRecord",
    "SyncVectorEnv",
    "TimeLimit",
    "Tuple",
    "VMRescheduleEnv",
    "VM_FEATURE_DIM",
    "available_objectives",
    "make_objective",
]
