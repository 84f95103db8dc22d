"""Dataset substrate: synthetic trace generation, workload levels and persistence.

The paper evaluates on anonymized production snapshots (Medium / Large /
Multi-Resource, plus Low/Middle/High workload variants).  This subpackage
substitutes a calibrated synthetic generator for them and provides the same
dataset mechanics the paper describes: 4000/200/200 train/validation/test
splits of mapping snapshots, stored as JSON-lines files.
"""

from .generator import (
    ClusterSpec,
    DEFAULT_VM_TYPE_WEIGHTS,
    PRESETS,
    SnapshotGenerator,
    get_spec,
    large_spec,
    medium_spec,
    multi_resource_spec,
    small_spec,
)
from .loader import (
    DatasetReader,
    DatasetWriter,
    load_mappings,
    save_mappings,
)
from .schema import DatasetMetadata, SchemaError, validate_mapping
from .splits import PAPER_SPLIT_FRACTIONS, build_dataset, split_mappings
from .workloads import (
    WORKLOAD_BANDS,
    WORKLOAD_FAMILIES,
    WorkloadLevel,
    abnormal_rate_profile,
    cpu_usage_cdf,
    cpu_usage_samples,
    daily_arrival_exit_series,
    diurnal_rate_profile,
    family_rate_profile,
    flash_crowd_rate_profile,
    generate_workload_snapshots,
    get_workload_level,
    offpeak_minute,
    spec_for_workload,
)

__all__ = [
    "ClusterSpec",
    "DEFAULT_VM_TYPE_WEIGHTS",
    "DatasetMetadata",
    "DatasetReader",
    "DatasetWriter",
    "PAPER_SPLIT_FRACTIONS",
    "PRESETS",
    "SchemaError",
    "SnapshotGenerator",
    "WORKLOAD_BANDS",
    "WORKLOAD_FAMILIES",
    "WorkloadLevel",
    "abnormal_rate_profile",
    "build_dataset",
    "cpu_usage_cdf",
    "cpu_usage_samples",
    "daily_arrival_exit_series",
    "diurnal_rate_profile",
    "family_rate_profile",
    "flash_crowd_rate_profile",
    "generate_workload_snapshots",
    "get_spec",
    "get_workload_level",
    "large_spec",
    "load_mappings",
    "medium_spec",
    "multi_resource_spec",
    "offpeak_minute",
    "save_mappings",
    "small_spec",
    "spec_for_workload",
    "split_mappings",
    "validate_mapping",
]
