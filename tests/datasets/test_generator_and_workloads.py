"""Tests for synthetic snapshot generation, workload levels and dataset I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterState
from repro.datasets import (
    ClusterSpec,
    DatasetMetadata,
    DatasetReader,
    SchemaError,
    SnapshotGenerator,
    WORKLOAD_BANDS,
    build_dataset,
    cpu_usage_cdf,
    cpu_usage_samples,
    daily_arrival_exit_series,
    generate_workload_snapshots,
    get_spec,
    get_workload_level,
    load_mappings,
    offpeak_minute,
    save_mappings,
    small_spec,
    spec_for_workload,
    split_mappings,
    validate_mapping,
)


class TestClusterSpec:
    def test_presets_exist(self):
        assert get_spec("small").num_pms == 24
        assert get_spec("medium").num_pms == 280
        assert get_spec("large").num_pms == 1176
        assert get_spec("multi_resource").multi_resource

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_spec("gigantic")

    def test_invalid_spec_values(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_pms=0)
        with pytest.raises(ValueError):
            ClusterSpec(target_utilization=1.5)
        with pytest.raises(ValueError):
            ClusterSpec(best_fit_fraction=2.0)


class TestSnapshotGenerator:
    @pytest.fixture(scope="class")
    def snapshot(self):
        return SnapshotGenerator(small_spec(), seed=0).generate()

    def test_generates_valid_cluster(self, snapshot):
        assert snapshot.num_pms == 24
        assert snapshot.num_vms > 0
        assert 0.0 <= snapshot.fragment_rate() <= 1.0

    def test_resource_conservation(self, snapshot):
        total_capacity = sum(pm.cpu_capacity for pm in snapshot.pms.values())
        total_free = sum(pm.free_cpu for pm in snapshot.pms.values())
        total_used = sum(vm.cpu for vm in snapshot.vms.values() if vm.is_placed)
        assert total_free + total_used == pytest.approx(total_capacity)

    def test_utilization_near_target(self):
        spec = small_spec(target_utilization=0.6)
        states = SnapshotGenerator(spec, seed=1).generate_many(3)
        for state in states:
            assert 0.4 <= state.cpu_utilization() <= 0.8

    def test_snapshots_are_reproducible_across_seeds(self):
        a = SnapshotGenerator(small_spec(), seed=7).generate()
        b = SnapshotGenerator(small_spec(), seed=7).generate()
        assert a.to_dict() == b.to_dict()

    def test_different_seeds_differ(self):
        a = SnapshotGenerator(small_spec(), seed=1).generate()
        b = SnapshotGenerator(small_spec(), seed=2).generate()
        assert a.to_dict() != b.to_dict()

    def test_multi_resource_snapshot_has_two_pm_flavors(self):
        spec = get_spec("multi_resource", num_pms=30)
        state = SnapshotGenerator(spec, seed=0).generate()
        capacities = {pm.pm_type.name for pm in state.pms.values()}
        assert capacities == {"pm-88c-256g", "pm-128c-364g"}

    def test_affinity_groups_generated(self):
        spec = ClusterSpec(num_pms=12, affinity_groups=3, affinity_group_size=2)
        state = SnapshotGenerator(spec, seed=0).generate()
        grouped = [vm for vm in state.vms.values() if vm.anti_affinity_group is not None]
        assert len(grouped) == 6

    def test_generate_many_count_validation(self):
        with pytest.raises(ValueError):
            SnapshotGenerator(small_spec(), seed=0).generate_many(0)

    def test_snapshot_has_fragmentation_to_repair(self, snapshot):
        """The generator must leave fragments, otherwise VMR has nothing to do."""
        assert snapshot.fragment_rate() > 0.05


class TestWorkloads:
    def test_bands_are_non_overlapping(self):
        bands = sorted(WORKLOAD_BANDS.values())
        for (lo1, hi1), (lo2, hi2) in zip(bands[:-1], bands[1:]):
            assert hi1 < lo2

    def test_get_workload_level_aliases(self):
        assert get_workload_level("L").name == "low"
        assert get_workload_level("medium").name == "middle"
        assert get_workload_level("H").name == "high"
        with pytest.raises(KeyError):
            get_workload_level("extreme")

    def test_spec_for_workload_targets_band(self):
        for level in ("low", "middle", "high"):
            spec = spec_for_workload(level)
            band = get_workload_level(level)
            assert band.min_utilization <= spec.target_utilization <= band.max_utilization

    def test_generated_workloads_separate(self):
        """Fig. 15: low < middle < high, with no overlap at cluster level."""
        levels = [generate_workload_snapshots(level, 2, seed=0) for level in ("low", "middle", "high")]
        for lower, higher in zip(levels, levels[1:]):
            assert max(s.cpu_utilization() for s in lower) < min(s.cpu_utilization() for s in higher)

    def test_cpu_usage_cdf_monotone(self):
        states = generate_workload_snapshots("middle", 2, seed=0)
        cdf = cpu_usage_cdf(states)
        assert np.all(np.diff(cdf["cdf"]) >= -1e-12)
        assert cdf["cdf"][-1] == pytest.approx(1.0)

    def test_cpu_usage_samples_counts(self):
        states = generate_workload_snapshots("low", 2, seed=0)
        samples = cpu_usage_samples(states)
        assert samples.size == sum(s.num_pms for s in states)

    def test_daily_series_peak_and_offpeak(self):
        series = daily_arrival_exit_series(seed=0, days=3)
        assert series["total"].shape == (24 * 60,)
        trough_minute = offpeak_minute(series)
        # The off-peak minute should fall in the early morning (before 9 am),
        # matching the paper's statement that VMR runs in early mornings.
        assert trough_minute < 9 * 60 or trough_minute > 22 * 60
        assert series["total"].max() > 4 * series["total"].min()

    def test_daily_series_invalid_days(self):
        with pytest.raises(ValueError):
            daily_arrival_exit_series(days=0)


class TestSchemaAndIO:
    def test_validate_mapping_accepts_generated(self):
        state = SnapshotGenerator(small_spec(), seed=0).generate()
        validate_mapping(state.to_dict())

    def test_validate_mapping_rejects_bad_docs(self):
        with pytest.raises(SchemaError):
            validate_mapping({"pms": []})
        with pytest.raises(SchemaError):
            validate_mapping({"pms": [{"pm_id": 0, "cpu": 10, "memory": 10}], "vms": [{"vm_id": 0}]})

    def test_save_load_roundtrip(self, tmp_path):
        states = SnapshotGenerator(small_spec(), seed=0).generate_many(3)
        path = save_mappings(states, tmp_path / "maps.jsonl")
        loaded = load_mappings(path)
        assert len(loaded) == 3
        assert loaded[0].fragment_rate() == pytest.approx(states[0].fragment_rate())

    def test_load_with_limit(self, tmp_path):
        states = SnapshotGenerator(small_spec(), seed=0).generate_many(3)
        path = save_mappings(states, tmp_path / "maps.jsonl")
        assert len(load_mappings(path, limit=2)) == 2


class TestSplitsAndDatasetBuild:
    def test_split_fractions(self):
        states = SnapshotGenerator(small_spec(), seed=0).generate_many(10)
        splits = split_mappings(states, {"train": 0.8, "validation": 0.1, "test": 0.1}, seed=0)
        assert len(splits["train"]) == 8
        assert len(splits["validation"]) == 1
        assert len(splits["test"]) == 1

    def test_split_fractions_must_sum_to_one(self):
        states = SnapshotGenerator(small_spec(), seed=0).generate_many(2)
        with pytest.raises(ValueError):
            split_mappings(states, {"train": 0.5, "test": 0.1})

    def test_split_requires_train(self):
        states = SnapshotGenerator(small_spec(), seed=0).generate_many(2)
        with pytest.raises(ValueError):
            split_mappings(states, {"validation": 0.5, "test": 0.5})

    def test_build_dataset_roundtrip(self, tmp_path):
        splits, root = build_dataset(
            small_spec(),
            num_mappings=6,
            root=tmp_path / "ds",
            seed=0,
            fractions={"train": 0.5, "validation": 0.25, "test": 0.25},
        )
        assert root is not None
        reader = DatasetReader(root)
        assert set(reader.available_splits()) == {"train", "validation", "test"}
        train = reader.load_split("train")
        assert len(train) == len(splits["train"])
        assert isinstance(reader.metadata, DatasetMetadata)
        assert reader.metadata.num_mappings == 6

    def test_build_dataset_in_memory_only(self):
        splits, root = build_dataset(small_spec(), num_mappings=4, seed=0,
                                     fractions={"train": 0.75, "test": 0.25})
        assert root is None
        assert len(splits["train"]) + len(splits["test"]) == 4

    def test_reader_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DatasetReader(tmp_path / "nonexistent")


class TestPropertyBased:
    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_any_seed_produces_valid_snapshot(self, seed):
        state = SnapshotGenerator(ClusterSpec(num_pms=8), seed=seed).generate()
        validate_mapping(state.to_dict())
        assert 0.0 <= state.fragment_rate() <= 1.0
        roundtrip = ClusterState.from_dict(state.to_dict())
        assert roundtrip.fragment_rate() == pytest.approx(state.fragment_rate())
