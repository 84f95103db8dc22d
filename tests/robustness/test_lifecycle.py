"""Lifecycle tests: stop/drain/signal paths for the service, the HTTP
frontend, and the fleet behind it.

The contract under test: shutdown paths are idempotent, draining components
answer probes with an immediate 503 (never a hang), and every admitted
request still gets exactly one terminal reply on the way down.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import (
    DefaultRegistryFactory,
    FleetConfig,
    PlanResponse,
    PlanningServer,
    ReplicaFleet,
    ReschedulingService,
    RetryPolicy,
    ServiceConfig,
    build_default_registry,
)

from clusters import plan_request


def make_service(**config_overrides):
    return ReschedulingService(
        build_default_registry(include_slow=False, seed=0),
        ServiceConfig(**config_overrides),
    )


def get_json(url, timeout=30):
    """GET returning (status, payload) without raising on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


class TestServiceLifecycle:
    def test_double_stop_is_idempotent(self):
        service = make_service()
        service.start()
        assert service.is_serving
        service.stop()
        assert not service.is_serving
        service.stop()  # second stop must be a no-op, not an error

    def test_stop_without_start_is_a_noop(self):
        make_service().stop()

    def test_drain_completes_queued_work_then_stops(self):
        service = make_service()
        service.start()
        futures = [service.submit(plan_request(seed=i)) for i in range(4)]
        service.drain(timeout=30.0)
        assert not service.is_serving
        for future in futures:
            assert isinstance(future.result(timeout=1.0), PlanResponse)

    def test_begin_drain_flips_serving_and_sheds(self):
        service = make_service()
        service.start()
        try:
            service.begin_drain()
            assert service.is_draining and not service.is_serving
            reply = service.submit(plan_request()).result(timeout=5.0)
            assert reply.code == "service_unavailable"
            assert reply.retry_after_s is not None
        finally:
            service.stop()

    def test_restart_after_stop_clears_draining(self):
        service = make_service()
        service.start()
        service.begin_drain()
        service.stop()
        service.start()
        try:
            assert service.is_serving and not service.is_draining
            assert isinstance(service.handle(plan_request()), PlanResponse)
        finally:
            service.stop()

    def test_state_after_drain_reports_stopped_not_draining(self):
        service = make_service()
        service.start()
        service.drain(timeout=5.0)
        state = service.state()
        assert not service.is_draining
        assert state["draining"] is False and state["serving"] is False

    def test_state_shape(self):
        service = make_service()
        with service:
            assert isinstance(service.handle(plan_request()), PlanResponse)
        state = service.state()  # read after the context exits
        assert state["serving"] is False
        assert set(state) >= {"serving", "draining", "queue_depth", "latency", "stats"}
        assert state["latency"]["p50_ms"] >= 0.0


class TestHealthzDuringShutdown:
    def test_healthz_503_while_draining_and_after_stop(self):
        service = make_service()
        server = PlanningServer(service, host="127.0.0.1", port=0)
        server.start()
        try:
            status, payload = get_json(server.url + "/healthz")
            assert status == 200 and payload["status"] == "ok"

            service.begin_drain()
            start = time.perf_counter()
            status, payload = get_json(server.url + "/healthz")
            elapsed = time.perf_counter() - start
            assert status == 503
            assert payload["status"] == "draining"
            assert elapsed < 5.0, "a draining probe must answer, not hang"

            service.stop()
            status, payload = get_json(server.url + "/healthz")
            assert status == 503
            assert payload["status"] == "stopped"
        finally:
            server.stop()

    def test_healthz_503_carries_retry_after_header(self):
        service = make_service()
        server = PlanningServer(service, host="127.0.0.1", port=0)
        server.start()
        try:
            service.begin_drain()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url + "/healthz", timeout=30)
            assert excinfo.value.code == 503
            assert int(excinfo.value.headers["Retry-After"]) >= 1
        finally:
            server.stop()

    def test_server_drain_is_graceful_and_double_stop_safe(self):
        service = make_service()
        server = PlanningServer(service, host="127.0.0.1", port=0)
        server.start()
        future = service.submit(plan_request())
        server.drain(timeout=30.0)
        assert isinstance(future.result(timeout=1.0), PlanResponse)
        server.stop()  # drain already stopped everything; must not raise


class TestFleetBackendOverHTTP:
    @pytest.fixture()
    def fleet_server(self):
        fleet = ReplicaFleet(
            DefaultRegistryFactory(),
            config=FleetConfig(
                num_replicas=2,
                start_method="fork",
                heartbeat_interval_s=0.05,
                supervise_interval_s=0.02,
                retry=RetryPolicy(max_retries=2, backoff_s=0.02),
            ),
        )
        fleet.start(timeout=60.0)
        server = PlanningServer(fleet, host="127.0.0.1", port=0)
        server.start()  # fleet.start() is idempotent under the hood
        try:
            yield server, fleet
        finally:
            server.stop()

    def test_fleet_state_endpoint_over_http(self, fleet_server):
        server, fleet = fleet_server
        request = plan_request()
        http_request = urllib.request.Request(
            server.url + "/v1/plan",
            data=request.to_json().encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(http_request, timeout=60) as response:
            assert response.status == 200
        status, state = get_json(server.url + "/v1/state")
        assert status == 200
        assert state["serving"] is True
        assert len(state["replicas"]) == 2
        assert all(r["healthy"] for r in state["replicas"])

    def test_fleet_healthz_503_after_drain(self, fleet_server):
        server, fleet = fleet_server
        fleet.drain(timeout=60.0)
        status, payload = get_json(server.url + "/healthz")
        assert status == 503
        assert payload["status"] == "stopped"
        # /v1/state agrees with /healthz: stopped, not still draining.
        state = fleet.state()
        assert state["draining"] is False and state["serving"] is False
