"""Dataset persistence: JSON-lines mapping files plus metadata.

A dataset directory contains::

    metadata.json        # DatasetMetadata
    train.jsonl          # one mapping document per line
    validation.jsonl
    test.jsonl

Mappings round-trip through :class:`repro.cluster.ClusterState` via the schema
defined in :mod:`repro.datasets.schema`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..cluster import ClusterState
from .schema import DatasetMetadata, SchemaError, validate_mapping

SPLIT_FILES = {"train": "train.jsonl", "validation": "validation.jsonl", "test": "test.jsonl"}


def save_mappings(states: Sequence[ClusterState], path: str | Path) -> Path:
    """Write mapping snapshots to a JSON-lines file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for state in states:
            handle.write(json.dumps(state.to_dict(), sort_keys=True) + "\n")
    return path


def load_mappings(path: str | Path, limit: Optional[int] = None, validate: bool = True) -> List[ClusterState]:
    """Load mapping snapshots from a JSON-lines file."""
    path = Path(path)
    states: List[ClusterState] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if limit is not None and len(states) >= limit:
                break
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{line_number}: invalid JSON: {exc}") from exc
            if validate:
                validate_mapping(payload)
            states.append(ClusterState.from_dict(payload))
    return states


class DatasetWriter:
    """Write a dataset directory (metadata plus per-split mapping files)."""

    def __init__(self, root: str | Path, metadata: DatasetMetadata) -> None:
        self.root = Path(root)
        self.metadata = metadata

    def write(self, splits: Dict[str, Sequence[ClusterState]]) -> Path:
        unknown = set(splits) - set(SPLIT_FILES)
        if unknown:
            raise ValueError(f"unknown split names: {sorted(unknown)}")
        self.root.mkdir(parents=True, exist_ok=True)
        split_sizes = {}
        for split, states in splits.items():
            save_mappings(states, self.root / SPLIT_FILES[split])
            split_sizes[split] = len(states)
        self.metadata.splits = split_sizes
        self.metadata.num_mappings = sum(split_sizes.values())
        with (self.root / "metadata.json").open("w", encoding="utf-8") as handle:
            json.dump(self.metadata.to_dict(), handle, indent=2, sort_keys=True)
        return self.root


class DatasetReader:
    """Read a dataset directory written by :class:`DatasetWriter`."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        metadata_path = self.root / "metadata.json"
        if not metadata_path.exists():
            raise FileNotFoundError(f"no metadata.json under {self.root}")
        with metadata_path.open("r", encoding="utf-8") as handle:
            self.metadata = DatasetMetadata.from_dict(json.load(handle))

    def available_splits(self) -> List[str]:
        return [split for split, filename in SPLIT_FILES.items() if (self.root / filename).exists()]

    def load_split(self, split: str, limit: Optional[int] = None) -> List[ClusterState]:
        if split not in SPLIT_FILES:
            raise ValueError(f"unknown split {split!r}")
        path = self.root / SPLIT_FILES[split]
        if not path.exists():
            raise FileNotFoundError(f"split {split!r} not present under {self.root}")
        return load_mappings(path, limit=limit)
