"""Tests for the retrying HTTP client against a scripted stub server.

The stub answers each request from a fixed script of (status, headers, body)
entries — or drops the connection — so every retry decision the client makes
is asserted against known server behavior, with an injected ``sleep``
recording the backoff schedule instead of waiting it out.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.serve import (
    PlanError,
    PlanRequest,
    PlanResponse,
    PlanningClient,
    RetryPolicy,
)
from repro.serve.client import _parse_retry_after


def make_request():
    # The stub never parses the snapshot — an empty dict keeps bodies tiny.
    return PlanRequest(
        snapshot={}, planner="ha", migration_limit=1, request_id="req-1"
    )


def ok_body(request_id="req-1"):
    return json.dumps(
        PlanResponse(request_id=request_id, planner="HA").to_dict()
    ).encode()


def error_body(code, message, retry_after_s=None, request_id="req-1"):
    return json.dumps(
        PlanError(request_id, code, message, retry_after_s=retry_after_s).to_dict()
    ).encode()


class _ScriptedHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with self.server.lock:
            index = self.server.hits
            self.server.hits += 1
        script = self.server.script
        entry = script[min(index, len(script) - 1)]
        if entry == "drop":
            # Slam the connection shut before any response bytes: the client
            # sees a reset/EOF, which must be treated as transient.
            self.connection.close()
            return
        status, headers, body = entry
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


@pytest.fixture()
def stub_server():
    servers = []

    def _start(script):
        httpd = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
        httpd.script = script
        httpd.hits = 0
        httpd.lock = threading.Lock()
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        servers.append(httpd)
        host, port = httpd.server_address[:2]
        return httpd, f"http://{host}:{port}"

    yield _start
    for httpd in servers:
        httpd.shutdown()
        httpd.server_close()


def make_client(url, max_retries=3, sleeps=None):
    return PlanningClient(
        url,
        retry=RetryPolicy(max_retries=max_retries, backoff_s=0.01),
        timeout_s=30.0,
        sleep=sleeps.append if sleeps is not None else (lambda s: None),
    )


class TestRetrySchedule:
    def test_503_retried_until_success(self, stub_server):
        httpd, url = stub_server(
            [
                (503, {}, error_body("service_unavailable", "shed")),
                (503, {}, error_body("service_unavailable", "shed")),
                (200, {}, ok_body()),
            ]
        )
        sleeps = []
        reply = make_client(url, sleeps=sleeps).plan(make_request())
        assert isinstance(reply, PlanResponse)
        assert httpd.hits == 3
        assert len(sleeps) == 2
        assert all(delay > 0.0 for delay in sleeps)

    def test_retry_after_header_is_the_backoff_floor(self, stub_server):
        httpd, url = stub_server(
            [
                (503, {"Retry-After": "2"}, error_body("service_unavailable", "shed")),
                (200, {}, ok_body()),
            ]
        )
        sleeps = []
        reply = make_client(url, sleeps=sleeps).plan(make_request())
        assert isinstance(reply, PlanResponse)
        assert len(sleeps) == 1
        assert sleeps[0] >= 2.0

    def test_body_retry_after_honored_without_header(self, stub_server):
        httpd, url = stub_server(
            [
                (503, {}, error_body("service_unavailable", "shed", retry_after_s=1.5)),
                (200, {}, ok_body()),
            ]
        )
        sleeps = []
        reply = make_client(url, sleeps=sleeps).plan(make_request())
        assert isinstance(reply, PlanResponse)
        assert sleeps[0] >= 1.5

    def test_budget_exhaustion_returns_last_error(self, stub_server):
        httpd, url = stub_server(
            [(503, {}, error_body("service_unavailable", "still shedding"))]
        )
        sleeps = []
        reply = make_client(url, max_retries=2, sleeps=sleeps).plan(make_request())
        assert isinstance(reply, PlanError)
        assert reply.code == "service_unavailable"
        assert httpd.hits == 3  # initial attempt + 2 retries, then give up
        assert len(sleeps) == 2


class TestTerminalErrors:
    @pytest.mark.parametrize(
        "status,code",
        [
            (400, "invalid_request"),
            (404, "unknown_planner"),
            (408, "deadline_exceeded"),
            (500, "internal_error"),
        ],
    )
    def test_non_retryable_statuses_get_one_attempt(self, stub_server, status, code):
        httpd, url = stub_server([(status, {}, error_body(code, "terminal"))])
        sleeps = []
        reply = make_client(url, sleeps=sleeps).plan(make_request())
        assert isinstance(reply, PlanError)
        assert reply.code == code
        assert httpd.hits == 1, "terminal errors must never be retried"
        assert sleeps == []

    def test_unreadable_503_body_still_retries(self, stub_server):
        httpd, url = stub_server(
            [(503, {}, b"<html>gateway</html>"), (200, {}, ok_body())]
        )
        reply = make_client(url).plan(make_request())
        assert isinstance(reply, PlanResponse)
        assert httpd.hits == 2


class TestConnectionFailures:
    def test_dropped_connection_is_retried(self, stub_server):
        httpd, url = stub_server(["drop", (200, {}, ok_body())])
        sleeps = []
        reply = make_client(url, sleeps=sleeps).plan(make_request())
        assert isinstance(reply, PlanResponse)
        assert httpd.hits == 2
        assert len(sleeps) == 1

    def test_connection_refused_returns_stable_error(self, stub_server):
        # Bind a port, then close the server so nothing is listening there.
        httpd, url = stub_server([(200, {}, ok_body())])
        httpd.shutdown()
        httpd.server_close()
        sleeps = []
        reply = make_client(url, max_retries=2, sleeps=sleeps).plan(make_request())
        assert isinstance(reply, PlanError)
        assert reply.code == "service_unavailable"
        assert "connection" in reply.message.lower()
        assert len(sleeps) == 2


class FakeTime:
    """A clock+sleep pair: sleeping advances the clock, nothing waits."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, delay):
        self.sleeps.append(delay)
        self.now += delay


def make_budgeted_client(url, fake, max_retries=8, max_elapsed_s=None):
    return PlanningClient(
        url,
        retry=RetryPolicy(max_retries=max_retries, backoff_s=0.01),
        timeout_s=30.0,
        sleep=fake.sleep,
        clock=fake.clock,
        max_elapsed_s=max_elapsed_s,
    )


class TestElapsedBudget:
    def test_max_elapsed_s_stops_retrying_before_count_budget(self, stub_server):
        # The server sheds forever with a 1s Retry-After floor; an elapsed
        # budget of 2.5s admits exactly two backoffs (at t=1 and t=2) — the
        # third would land at t=3, past the budget, so the client gives up
        # with retries left on the count budget.
        httpd, url = stub_server(
            [(503, {"Retry-After": "1"}, error_body("service_unavailable", "shed"))]
        )
        fake = FakeTime()
        reply = make_budgeted_client(url, fake, max_elapsed_s=2.5).plan(
            make_request()
        )
        assert isinstance(reply, PlanError)
        assert reply.code == "service_unavailable"
        assert httpd.hits == 3
        assert len(fake.sleeps) == 2

    def test_deadline_ms_is_the_default_budget(self, stub_server):
        # Without an explicit max_elapsed_s, a request's own deadline_ms caps
        # the retry loop: waiting past the caller's deadline to deliver an
        # answer it can no longer use is worse than giving up.
        httpd, url = stub_server(
            [(503, {"Retry-After": "1"}, error_body("service_unavailable", "shed"))]
        )
        request = PlanRequest(
            snapshot={},
            planner="ha",
            migration_limit=1,
            request_id="req-1",
            deadline_ms=1500.0,
        )
        fake = FakeTime()
        reply = make_budgeted_client(url, fake).plan(request)
        assert isinstance(reply, PlanError)
        assert httpd.hits == 2  # initial + the one retry that fits in 1.5s
        assert len(fake.sleeps) == 1

    def test_explicit_budget_overrides_deadline(self, stub_server):
        httpd, url = stub_server(
            [
                (503, {"Retry-After": "1"}, error_body("service_unavailable", "shed")),
                (503, {"Retry-After": "1"}, error_body("service_unavailable", "shed")),
                (200, {}, ok_body()),
            ]
        )
        request = PlanRequest(
            snapshot={},
            planner="ha",
            migration_limit=1,
            request_id="req-1",
            deadline_ms=100.0,  # would forbid any retry on its own
        )
        fake = FakeTime()
        reply = make_budgeted_client(url, fake, max_elapsed_s=10.0).plan(request)
        assert isinstance(reply, PlanResponse)
        assert httpd.hits == 3

    def test_no_budget_keeps_count_only_semantics(self, stub_server):
        # No deadline, no max_elapsed_s: behavior is exactly the old
        # count-bounded loop — however long Retry-After floors stretch it.
        httpd, url = stub_server(
            [(503, {"Retry-After": "60"}, error_body("service_unavailable", "shed"))]
        )
        fake = FakeTime()
        reply = make_budgeted_client(url, fake, max_retries=2).plan(make_request())
        assert isinstance(reply, PlanError)
        assert httpd.hits == 3
        assert fake.sleeps == [60.0, 60.0]


class TestNonFiniteRetryAfter:
    def test_infinite_header_without_budget_returns_a_reply(self, stub_server):
        # The real time.sleep: an ``inf`` floor would raise OverflowError
        # instead of retrying on the client's own backoff.
        httpd, url = stub_server(
            [(503, {"Retry-After": "inf"}, error_body("service_unavailable", "shed"))]
        )
        client = PlanningClient(
            url, retry=RetryPolicy(max_retries=1, backoff_s=0.01), timeout_s=30.0
        )
        reply = client.plan(make_request())
        assert isinstance(reply, PlanError)
        assert reply.code == "service_unavailable"
        assert httpd.hits == 2

    @pytest.mark.parametrize("hint", [float("inf"), float("nan")])
    def test_non_finite_body_hint_is_ignored(self, stub_server, hint):
        httpd, url = stub_server(
            [
                (503, {}, error_body("service_unavailable", "shed", retry_after_s=hint)),
                (200, {}, ok_body()),
            ]
        )
        sleeps = []
        reply = make_client(url, sleeps=sleeps).plan(make_request())
        assert isinstance(reply, PlanResponse)
        assert len(sleeps) == 1
        assert 0.0 < sleeps[0] < 1.0  # the client's own jittered backoff

    @pytest.mark.parametrize(
        "header,expected",
        [("inf", None), ("nan", None), ("-1", 0.0), ("abc", None), ("2.5", 2.5), (None, None)],
    )
    def test_parse_retry_after(self, header, expected):
        assert _parse_retry_after(header) == expected


class TestProbes:
    def test_healthz_and_state_helpers(self):
        import urllib.error

        client = PlanningClient("http://127.0.0.1:9")  # discard port: refused
        with pytest.raises((urllib.error.URLError, OSError)):
            client.healthz()  # probes do NOT retry or mask failures
