"""Configuration dataclasses for the VMR2L agent and its PPO trainer.

Defaults follow the CleanRL-style PPO setup the paper builds on (§4) scaled to
CPU-sized experiments; the architecture knobs (embedding width, attention
heads, number of blocks) control the sparse-attention feature extractor of
§3.3.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Optional


@dataclass
class ModelConfig:
    """Architecture of the two-stage policy (§3.2–3.3)."""

    embed_dim: int = 32
    num_heads: int = 4
    num_blocks: int = 2
    feedforward_dim: int = 64
    #: "sparse" (tree-level attention, the paper's design), "vanilla"
    #: (encoder-decoder without tree features) or "mlp" (flat concatenation).
    extractor: str = "sparse"
    #: "two_stage" (mask per stage), "penalty" (no masks, env penalizes) or
    #: "full_joint" (joint VM×PM action with a full mask) — the §5.4 ablation.
    action_mode: str = "two_stage"
    #: Precision of the *no-grad* extractor forward (rollout collection and
    #: serving): "float64" (default — the training forward's numbers, bit for
    #: bit) or "float32" (the whole inference attention stack runs in single
    #: precision with cached float32 weight copies — roughly halves
    #: collection time; sampled actions can differ from the float64 path
    #: within ~1e-5 probability mass).  Gradient-tracking forwards are always
    #: float64.  Attention has no other knob: training and inference run the
    #: one tiled kernel ``repro.nn.attention._attention_array``, whose tiles
    #: are sized from the shapes.
    inference_dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")
        if self.extractor not in ("sparse", "vanilla", "mlp"):
            raise ValueError(f"unknown extractor {self.extractor!r}")
        if self.action_mode not in ("two_stage", "penalty", "full_joint"):
            raise ValueError(f"unknown action_mode {self.action_mode!r}")
        if self.inference_dtype not in ("float64", "float32"):
            raise ValueError(f"unknown inference_dtype {self.inference_dtype!r}")
        if self.num_blocks <= 0:
            raise ValueError("num_blocks must be positive")


@dataclass
class PPOConfig:
    """PPO hyper-parameters (CleanRL defaults adapted to VMR)."""

    learning_rate: float = 3e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_coef: float = 0.2
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    max_grad_norm: float = 0.5
    update_epochs: int = 4
    minibatch_size: int = 64
    rollout_steps: int = 256
    anneal_lr: bool = True
    normalize_advantages: bool = True
    target_kl: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("gae_lambda must be in [0, 1]")
        if self.clip_coef <= 0:
            raise ValueError("clip_coef must be positive")
        if self.rollout_steps <= 0 or self.minibatch_size <= 0 or self.update_epochs <= 0:
            raise ValueError("rollout_steps, minibatch_size and update_epochs must be positive")


@dataclass
class RiskSeekingConfig:
    """Risk-seeking evaluation settings (§3.4)."""

    num_trajectories: int = 8
    vm_quantile: float = 0.98
    pm_quantile: float = 0.98
    use_thresholding: bool = True

    def __post_init__(self) -> None:
        if self.num_trajectories <= 0:
            raise ValueError("num_trajectories must be positive")
        for value in (self.vm_quantile, self.pm_quantile):
            if not 0.0 <= value < 1.0:
                raise ValueError("quantiles must be in [0, 1)")


@dataclass
class VMR2LConfig:
    """Top-level configuration bundling model, PPO and evaluation settings."""

    model: ModelConfig = field(default_factory=ModelConfig)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    risk_seeking: RiskSeekingConfig = field(default_factory=RiskSeekingConfig)
    migration_limit: int = 50

    def __post_init__(self) -> None:
        if self.migration_limit <= 0:
            raise ValueError("migration_limit must be positive")

    @classmethod
    def compact(cls, migration_limit: int, **model_overrides) -> "VMR2LConfig":
        """The compact agent ``repro train`` and the paper table train.

        ``model_overrides`` replace :class:`ModelConfig` fields (extractor,
        embedding width, ...); the PPO and risk-seeking settings are fixed.
        """
        return cls(
            model=ModelConfig(**{"embed_dim": 16, "num_heads": 2, "num_blocks": 1,
                                 "feedforward_dim": 32, **model_overrides}),
            ppo=PPOConfig(rollout_steps=128, minibatch_size=32, update_epochs=2,
                          learning_rate=2.5e-3, entropy_coef=0.005),
            risk_seeking=RiskSeekingConfig(num_trajectories=4),
            migration_limit=migration_limit,
        )

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "VMR2LConfig":
        # Checkpoints record the config they were trained with; options
        # retired since then (the PPO path switches; the attention
        # implementation, chunk width and float32 VM↔VM stage, now one
        # kernel; risk-seeking's greedy-first switch, now always on) never
        # changed the weights, so they are dropped and old checkpoints keep
        # loading.  The activation did shape the weights:
        # the network is ReLU throughout, so a checkpoint trained with any
        # other is refused rather than loaded into the wrong function.
        activation = payload.get("model", {}).get("activation", "relu")
        if activation != "relu":
            raise ValueError(f"checkpoint trained with activation {activation!r}; the network is ReLU")

        def current(section: str, config_cls):
            names = {spec.name for spec in fields(config_cls)}
            options = payload.get(section, {})
            return config_cls(**{key: value for key, value in options.items() if key in names})

        return cls(
            model=current("model", ModelConfig),
            ppo=current("ppo", PPOConfig),
            risk_seeking=current("risk_seeking", RiskSeekingConfig),
            migration_limit=int(payload.get("migration_limit", 50)),
        )
