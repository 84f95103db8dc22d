"""VMR2L: the paper's primary contribution.

* :mod:`repro.core.config` — model / PPO / risk-seeking configuration
* :mod:`repro.core.features` — observation → tensors + per-tree attention groups
* :mod:`repro.core.attention` — sparse, vanilla and MLP feature extractors (§3.3, §5.3)
* :mod:`repro.core.actors` — VM actor, PM actor, value head (§3.2–3.3)
* :mod:`repro.core.policy` — two-stage policy + Penalty / Full-Mask ablations (§5.4)
* :mod:`repro.core.rollout` / :mod:`repro.core.ppo` — PPO training (§4)
* :mod:`repro.core.risk_seeking` — risk-seeking evaluation + thresholding (§3.4)
* :mod:`repro.core.agent` — the high-level :class:`VMR2LAgent`
"""

from .actors import PMActor, ValueHead, VMActor
from .agent import VMR2LAgent
from .attention import (
    ExtractorOutput,
    MLPExtractor,
    SparseAttentionExtractor,
    VanillaAttentionExtractor,
    build_extractor,
)
from .config import ModelConfig, PPOConfig, RiskSeekingConfig, VMR2LConfig
from .features import (
    FeatureBatch,
    build_feature_batch,
    stack_feature_batches,
)
from .policy import PolicyOutput, TwoStagePolicy
from .ppo import PPOTrainer, TrainingLogEntry
from .risk_seeking import (
    RiskSeekingOutcome,
    TrajectoryResult,
    risk_seeking_evaluate,
    rollout_trajectory,
    vm_selection_probability_histogram,
)
from .rollout import RolloutBuffer, Transition

__all__ = [
    "ExtractorOutput",
    "FeatureBatch",
    "MLPExtractor",
    "ModelConfig",
    "PMActor",
    "PPOConfig",
    "PPOTrainer",
    "PolicyOutput",
    "RiskSeekingConfig",
    "RiskSeekingOutcome",
    "RolloutBuffer",
    "SparseAttentionExtractor",
    "TrainingLogEntry",
    "TrajectoryResult",
    "Transition",
    "TwoStagePolicy",
    "VMActor",
    "VMR2LAgent",
    "VMR2LConfig",
    "ValueHead",
    "VanillaAttentionExtractor",
    "build_extractor",
    "build_feature_batch",
    "risk_seeking_evaluate",
    "rollout_trajectory",
    "stack_feature_batches",
    "vm_selection_probability_histogram",
]
