"""Dataset schema for VM–PM mapping snapshots.

The paper's released datasets are collections of *mappings*: each mapping is a
snapshot of all VMs and PMs at the moment a VMR request is created (§4
"Datasets").  This module defines the on-disk JSON schema used by this
reproduction, validation helpers and the metadata describing a whole dataset
(name, cluster scale, workload level, split sizes).

A mapping document looks like::

    {
      "fragment_cores": 16,
      "pms": [{"pm_id": 0, "type": "pm-128c-512g", "cpu": 128, "memory": 512}, ...],
      "vms": [{"vm_id": 0, "type": "4xlarge", "cpu": 16, "memory": 32,
               "numa_count": 1, "pm_id": 3, "numa_id": 1,
               "anti_affinity_group": null}, ...]
    }

Datasets are stored as JSON-lines files (one mapping per line) next to a
``metadata.json`` describing the generator parameters.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict

SCHEMA_VERSION = 1

REQUIRED_PM_FIELDS = ("pm_id", "cpu", "memory")
REQUIRED_VM_FIELDS = ("vm_id", "cpu", "memory", "numa_count")


class SchemaError(ValueError):
    """Raised when a mapping document violates the dataset schema."""


@dataclass
class DatasetMetadata:
    """Describes one generated dataset (the paper's Medium/Large/... analogues)."""

    name: str
    num_mappings: int
    num_pms: int
    approx_num_vms: int
    workload_level: str = "high"
    fragment_cores: int = 16
    multi_resource: bool = False
    seed: int = 0
    schema_version: int = SCHEMA_VERSION
    splits: Dict[str, int] = field(default_factory=dict)
    notes: str = ""

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "DatasetMetadata":
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        return cls(**{k: v for k, v in payload.items() if k in known})


def validate_mapping(mapping: Dict) -> None:
    """Validate a mapping document, raising :class:`SchemaError` on problems."""
    if not isinstance(mapping, dict):
        raise SchemaError("mapping must be a dict")
    for key in ("pms", "vms"):
        if key not in mapping or not isinstance(mapping[key], list):
            raise SchemaError(f"mapping is missing list field {key!r}")
    if not mapping["pms"]:
        raise SchemaError("mapping has no PMs")

    pm_ids = set()
    for pm in mapping["pms"]:
        for field_name in REQUIRED_PM_FIELDS:
            if field_name not in pm:
                raise SchemaError(f"PM entry missing field {field_name!r}: {pm}")
        if pm["cpu"] <= 0 or pm["memory"] <= 0:
            raise SchemaError(f"PM {pm['pm_id']} has non-positive capacity")
        if pm["pm_id"] in pm_ids:
            raise SchemaError(f"duplicate pm_id {pm['pm_id']}")
        pm_ids.add(pm["pm_id"])

    vm_ids = set()
    for vm in mapping["vms"]:
        for field_name in REQUIRED_VM_FIELDS:
            if field_name not in vm:
                raise SchemaError(f"VM entry missing field {field_name!r}: {vm}")
        if vm["cpu"] <= 0 or vm["memory"] <= 0:
            raise SchemaError(f"VM {vm['vm_id']} has non-positive request")
        if vm["numa_count"] not in (1, 2):
            raise SchemaError(f"VM {vm['vm_id']} has invalid numa_count {vm['numa_count']}")
        if vm["vm_id"] in vm_ids:
            raise SchemaError(f"duplicate vm_id {vm['vm_id']}")
        vm_ids.add(vm["vm_id"])
        placed = vm.get("pm_id") is not None
        if placed and vm["pm_id"] not in pm_ids:
            raise SchemaError(f"VM {vm['vm_id']} placed on unknown PM {vm['pm_id']}")
        if placed:
            numa_id = vm.get("numa_id")
            if vm["numa_count"] == 2 and numa_id not in (-1, None):
                raise SchemaError(f"double-NUMA VM {vm['vm_id']} must use numa_id -1")
            if vm["numa_count"] == 1 and numa_id not in (0, 1):
                raise SchemaError(f"single-NUMA VM {vm['vm_id']} must use numa_id 0 or 1")
