"""repro — a from-scratch reproduction of VMR2L (EuroSys '25).

"Towards VM Rescheduling Optimization Through Deep Reinforcement Learning"
proposes VMR2L, a two-stage deep-RL agent with sparse tree-level attention and
risk-seeking evaluation that reschedules VMs across physical machines to
minimize the fragment rate under a strict latency budget.

Subpackages
-----------
``repro.nn``
    Numpy autograd, layers, attention and optimizers (the PyTorch substitute).
``repro.cluster``
    The data-center model: PMs, NUMAs, VMs, fragmentation, constraints,
    migrations and dynamic arrival/exit events.
``repro.env``
    The Gym-style deterministic rescheduling simulator and objectives.
``repro.datasets``
    Synthetic trace generation (Medium/Large/Multi-Resource analogues,
    workload levels) and dataset persistence.
``repro.baselines``
    HA, α-VBPP, MIP, POP, MCTS, NeuPlan-style and random
    baselines behind a common ``Rescheduler`` interface.
``repro.core``
    VMR2L itself: feature extraction, two-stage actors, PPO training,
    risk-seeking evaluation and the high-level agent API.
``repro.analysis``
    The potential-FR ratio and relative gap, the inference-decay
    experiment, table formatting and the migration-trace visualizer.
``repro.serve``
    The unified planning service: request/response schemas, the planner
    registry, the micro-batching ``ReschedulingService`` and the HTTP
    frontend behind ``repro serve`` (see docs/serving.md).
"""

from . import analysis, baselines, cluster, core, datasets, env, nn, serve

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "baselines",
    "cluster",
    "core",
    "datasets",
    "env",
    "nn",
    "serve",
    "__version__",
]
