"""Tests for the versioned PlanRequest / PlanResponse / PlanError schemas."""

import json

import pytest

from repro.cluster import MigrationPlan, Migration
from repro.serve import (
    SCHEMA_VERSION,
    PlanError,
    PlanRequest,
    PlanResponse,
    SchemaError,
    response_from_dict,
)

from clusters import small_state


class TestPlanRequest:
    def test_json_round_trip(self):
        state = small_state()
        request = PlanRequest.from_state(
            state, planner="vmr2l", migration_limit=5, objective="fragment_rate",
            greedy=False, seed=7, deadline_ms=250.0,
        )
        restored = PlanRequest.from_json(request.to_json())
        assert restored.to_dict() == request.to_dict()
        restored.validate()

    def test_snapshot_materializes_identical_state(self):
        state = small_state()
        request = PlanRequest.from_state(state)
        rebuilt = request.state()
        assert rebuilt.to_dict() == state.to_dict()
        assert rebuilt.fragment_rate() == pytest.approx(state.fragment_rate())

    def test_request_id_assigned(self):
        request = PlanRequest.from_state(small_state())
        assert request.request_id
        another = PlanRequest.from_state(small_state())
        assert another.request_id != request.request_id

    def test_validate_rejects_negative_limit(self):
        request = PlanRequest.from_state(small_state(), migration_limit=-1)
        with pytest.raises(SchemaError):
            request.validate()

    def test_validate_rejects_unknown_objective(self):
        request = PlanRequest.from_state(small_state(), objective="profit")
        with pytest.raises(SchemaError) as excinfo:
            request.validate()
        assert excinfo.value.code == "unknown_objective"

    def test_validate_rejects_future_version(self):
        request = PlanRequest.from_state(small_state())
        request.version = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError):
            request.validate()

    def test_from_dict_rejects_unknown_fields(self):
        payload = PlanRequest.from_state(small_state()).to_dict()
        payload["frobnicate"] = True
        with pytest.raises(SchemaError):
            PlanRequest.from_dict(payload)

    def test_from_json_rejects_garbage(self):
        with pytest.raises(SchemaError):
            PlanRequest.from_json("{not json")

    def test_from_dict_coerces_numeric_deadline_strings(self):
        payload = PlanRequest.from_state(small_state()).to_dict()
        payload["deadline_ms"] = "100"
        request = PlanRequest.from_dict(payload)
        assert request.deadline_ms == pytest.approx(100.0)
        request.validate()

    def test_from_dict_rejects_non_numeric_deadline(self):
        payload = PlanRequest.from_state(small_state()).to_dict()
        payload["deadline_ms"] = "soon"
        with pytest.raises(SchemaError):
            PlanRequest.from_dict(payload)

    def test_validate_rejects_non_numeric_deadline(self):
        request = PlanRequest.from_state(small_state())
        request.deadline_ms = "100"  # constructed directly, bypassing from_dict
        with pytest.raises(SchemaError):
            request.validate()

    @pytest.mark.parametrize(
        "name,value", [("migration_limit", True), ("deadline_ms", True), ("greedy", "false")]
    )
    def test_rejects_json_booleans_and_truthy_strings(self, name, value):
        """``true`` is no limit or deadline (``float(True)`` would be a 1 ms
        budget) and ``"false"`` is no boolean (``bool("false")`` is True)."""
        payload = PlanRequest.from_state(small_state()).to_dict()
        payload[name] = value
        with pytest.raises(SchemaError) as excinfo:
            PlanRequest.from_dict(payload).validate()
        assert excinfo.value.code == "invalid_request"

    def test_bad_snapshot_surfaces_as_schema_error(self):
        request = PlanRequest(snapshot={"pms": [], "vms": []})
        with pytest.raises(SchemaError):
            request.state()


class TestPlanResponse:
    def test_round_trip_and_plan_reconstruction(self):
        plan = MigrationPlan([Migration(3, 1, 0), Migration(5, 2, None)])
        response = PlanResponse(
            request_id="abc",
            planner="HA",
            migrations=PlanResponse.migrations_payload(plan),
            initial_objective=0.5,
            final_objective=0.25,
            num_applied=2,
            metrics={"latency_ms": 1.0, "batch_size": 1},
        )
        payload = json.loads(response.to_json())
        assert payload["ok"] is True
        assert payload["num_migrations"] == 2
        restored = response_from_dict(payload)
        assert isinstance(restored, PlanResponse)
        rebuilt = restored.plan()
        assert [m.as_tuple() for m in rebuilt] == [(3, 1), (5, 2)]
        assert rebuilt.migrations[0].dest_numa_id == 0
        assert rebuilt.migrations[1].dest_numa_id is None
        assert restored.initial_objective - restored.final_objective == pytest.approx(0.25)

    def test_error_round_trip(self):
        error = PlanError(request_id="abc", code="unknown_planner", message="nope")
        payload = json.loads(error.to_json())
        assert payload["ok"] is False
        restored = response_from_dict(payload)
        assert isinstance(restored, PlanError)
        assert restored.code == "unknown_planner"
