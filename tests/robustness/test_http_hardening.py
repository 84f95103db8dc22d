"""HTTP-boundary chaos: malformed/oversized payloads, traceback containment,
and the end-to-end deadline path (queue-expired → 408, mid-plan-expired → 200
with a partial plan)."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.serve import (
    PlanningServer,
    PlanRequest,
    ReschedulingService,
    ServiceConfig,
    build_default_registry,
)

from faults import FaultyPlanner, malformed_http_payloads, oversized_body
from gate import GatePlanner


def small_state(num_pms=5, seed=0):
    spec = ClusterSpec(num_pms=num_pms, target_utilization=0.7, best_fit_fraction=0.2)
    return SnapshotGenerator(spec, seed=seed).generate()


def post_raw(url, body: bytes, timeout=60):
    """POST raw bytes; returns (status, parsed JSON body) without raising."""
    request = urllib.request.Request(
        url + "/v1/plan", data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        payload = json.load(error)
        return error.code, payload


@pytest.fixture(scope="module")
def server():
    registry = build_default_registry(include_slow=False, seed=0)
    faulty = FaultyPlanner(registry.get("ha"), fail_calls=(0,))
    registry.register("faulty", faulty)
    service = ReschedulingService(registry, ServiceConfig(max_batch_size=4))
    with PlanningServer(
        service, host="127.0.0.1", port=0, max_body_bytes=256 * 1024
    ) as running:
        yield running


class TestMalformedPayloads:
    @pytest.mark.parametrize(
        "name,body", malformed_http_payloads(), ids=[n for n, _ in malformed_http_payloads()]
    )
    def test_malformed_bodies_yield_stable_400(self, server, name, body):
        status, payload = post_raw(server.url, body)
        assert status == 400, f"{name}: expected 400, got {status}"
        assert payload["ok"] is False
        assert payload["code"] == "invalid_request"
        assert "Traceback" not in payload.get("message", "")

    def test_empty_body_yields_400(self, server):
        status, payload = post_raw(server.url, b"")
        assert status == 400
        assert payload["code"] == "invalid_request"

    def test_oversized_body_yields_400(self, server):
        status, payload = post_raw(server.url, oversized_body(256 * 1024))
        assert status == 400
        assert payload["code"] == "invalid_request"
        assert "exceeds" in payload["message"]

    def test_within_limit_body_is_accepted(self, server):
        request = PlanRequest.from_state(small_state(), planner="ha", migration_limit=2)
        status, payload = post_raw(server.url, request.to_json().encode())
        assert status == 200
        assert payload["ok"] is True


class TestErrorContainment:
    def test_planner_exception_yields_500_without_traceback(self, server):
        request = PlanRequest.from_state(small_state(), planner="faulty", migration_limit=2)
        status, payload = post_raw(server.url, request.to_json().encode())
        assert status == 500
        assert payload["code"] == "internal_error"
        assert "Traceback" not in payload["message"]
        assert "\n" not in payload["message"]

    def test_unknown_planner_maps_to_404(self, server):
        request = PlanRequest.from_state(small_state(), planner="nope", migration_limit=2)
        status, payload = post_raw(server.url, request.to_json().encode())
        assert status == 404
        assert payload["code"] == "unknown_planner"

    def test_stopped_service_yields_503(self):
        registry = build_default_registry(include_slow=False, seed=0)
        service = ReschedulingService(registry, ServiceConfig())
        server = PlanningServer(service, host="127.0.0.1", port=0)
        server.start()
        try:
            service.stop()  # service down, HTTP front still up
            request = PlanRequest.from_state(small_state(), planner="ha", migration_limit=1)
            status, payload = post_raw(server.url, request.to_json().encode())
            assert status == 503
            assert payload["code"] == "service_unavailable"
        finally:
            server.stop()


class TestDeadlineOverHTTP:
    def test_queue_expired_deadline_maps_to_408(self):
        registry = build_default_registry(include_slow=False, seed=0)
        gate = registry.register("gate", GatePlanner(registry.get("ha")))
        service = ReschedulingService(registry, ServiceConfig(max_batch_size=4))
        with PlanningServer(service, host="127.0.0.1", port=0) as server:
            held = service.submit(
                PlanRequest.from_state(small_state(), planner="gate", migration_limit=1)
            )
            gate.wait_entered()
            request = PlanRequest.from_state(
                small_state(), planner="ha", migration_limit=1, deadline_ms=1.0
            )
            result = {}
            client = threading.Thread(
                target=lambda: result.update(
                    reply=post_raw(server.url, request.to_json().encode())
                )
            )
            client.start()
            # Once the request is queued behind the held worker, wait well past
            # its 1 ms deadline before letting the worker dequeue it.
            deadline = time.monotonic() + 30.0
            while service.pending_count() < 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.02)
            gate.open()
            client.join(timeout=30.0)
            held.result(timeout=30.0)
        status, payload = result["reply"]
        assert status == 408
        assert payload["code"] == "deadline_exceeded"
        assert "queue" in payload["message"]

    def test_partial_policy_over_http_returns_200_with_partial_flag(self):
        registry = build_default_registry(include_slow=False, seed=0)
        service = ReschedulingService(registry, ServiceConfig(max_batch_size=4))
        with PlanningServer(service, host="127.0.0.1", port=0) as server:
            request = PlanRequest.from_state(
                small_state(num_pms=8, seed=1),
                planner="vmr2l",
                migration_limit=64,
                deadline_ms=40.0,
            )
            status, payload = post_raw(server.url, request.to_json().encode())
        assert status == 200
        assert payload["partial"] is True
        assert payload["num_migrations"] < 64
