"""Train / validation / test splitting and end-to-end dataset building.

The paper splits each dataset's 4400 mappings into 4000 train / 200 validation
/ 200 test (§4).  :func:`build_dataset` reproduces that pipeline at any scale:
generate snapshots with :class:`~repro.datasets.generator.SnapshotGenerator`,
split them, and persist them with :class:`~repro.datasets.loader.DatasetWriter`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster import ClusterState
from .generator import ClusterSpec, SnapshotGenerator
from .loader import DatasetWriter
from .schema import DatasetMetadata

#: The paper's split proportions (4000 / 200 / 200 out of 4400 mappings).
PAPER_SPLIT_FRACTIONS = {"train": 4000 / 4400, "validation": 200 / 4400, "test": 200 / 4400}


def split_mappings(
    states: Sequence[ClusterState],
    fractions: Optional[Dict[str, float]] = None,
    seed: int = 0,
) -> Dict[str, List[ClusterState]]:
    """Shuffle snapshots by ``seed`` and split them into subsets by ``fractions``.

    Fractions must sum to 1 (within tolerance).  Remainder mappings after
    rounding are assigned to the training split.
    """
    fractions = dict(fractions or PAPER_SPLIT_FRACTIONS)
    total_fraction = sum(fractions.values())
    if abs(total_fraction - 1.0) > 1e-6:
        raise ValueError(f"split fractions must sum to 1, got {total_fraction}")
    if "train" not in fractions:
        raise ValueError("splits must include a 'train' entry")

    states = list(states)
    indices = np.arange(len(states))
    np.random.default_rng(seed).shuffle(indices)

    counts = {name: int(len(states) * fraction) for name, fraction in fractions.items()}
    assigned = sum(counts.values())
    counts["train"] += len(states) - assigned
    # Small datasets: make sure every requested split receives at least one
    # mapping (rounding the paper's 4000/200/200 fractions down would otherwise
    # leave validation/test empty), as long as the train split stays non-empty.
    for name in fractions:
        if name != "train" and counts[name] == 0 and counts["train"] > 1:
            counts[name] = 1
            counts["train"] -= 1

    splits: Dict[str, List[ClusterState]] = {}
    cursor = 0
    for name in fractions:
        size = counts[name]
        chosen = indices[cursor : cursor + size]
        splits[name] = [states[i] for i in chosen]
        cursor += size
    return splits


def build_dataset(
    spec: ClusterSpec,
    num_mappings: int,
    root: Optional[str | Path] = None,
    seed: int = 0,
    fractions: Optional[Dict[str, float]] = None,
    workload_level: str = "high",
    notes: str = "",
) -> Tuple[Dict[str, List[ClusterState]], Optional[Path]]:
    """Generate, split and (optionally) persist a dataset.

    Returns the in-memory splits and the directory written (``None`` when
    ``root`` is not given).
    """
    if num_mappings <= 0:
        raise ValueError("num_mappings must be positive")
    generator = SnapshotGenerator(spec, seed=seed)
    states = generator.generate_many(num_mappings)
    splits = split_mappings(states, fractions=fractions, seed=seed)

    written: Optional[Path] = None
    if root is not None:
        approx_vms = int(np.mean([state.num_vms for state in states])) if states else 0
        metadata = DatasetMetadata(
            name=spec.name,
            num_mappings=num_mappings,
            num_pms=spec.num_pms,
            approx_num_vms=approx_vms,
            workload_level=workload_level,
            fragment_cores=spec.fragment_cores,
            multi_resource=spec.multi_resource,
            seed=seed,
            notes=notes,
        )
        written = DatasetWriter(root, metadata).write(splits)
    return splits, written
