"""A thin stdlib client for the why-not service.

Used by the test suite and the CI smoke driver; also a reasonable
starting point for real callers.  Every call returns a
:class:`ServiceResponse` -- status code, parsed JSON body, and the
``Retry-After`` header when the server sent one -- and *never* raises
on HTTP error status: shedding and quota refusals are expected
behaviour of a robust service, so the caller inspects
``response.status`` instead of catching exceptions.  Transport-level
failures (connection refused, reset) do raise ``OSError`` and friends;
:meth:`ServiceClient.wait_ready` wraps the retry loop callers need at
startup.

A client built with a :class:`~repro.robustness.RetryPolicy` also
retries *pushback* responses -- 429 (quota / shedding) and 503
(starting / draining / breaker-open) -- waiting the larger of the server's
``Retry-After`` and the policy's backoff between attempts.  The wait
runs on the ambient clock (:func:`repro.obs.clock.current_clock`), so
tests drive it with a :class:`~repro.obs.clock.ManualClock` and never
sleep for real.  Other statuses are returned immediately: only
pushback is a promise that retrying can help.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..obs.clock import current_clock
from ..robustness import RetryPolicy

__all__ = ["RETRY_STATUSES", "ServiceClient", "ServiceResponse"]

#: response statuses the retry policy treats as server pushback
RETRY_STATUSES = (429, 503)


@dataclass(frozen=True)
class ServiceResponse:
    """One HTTP exchange: status, parsed body, selected headers."""

    status: int
    body: dict = field(default_factory=dict)
    retry_after_s: float | None = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def error(self) -> dict | None:
        """The server's error envelope, or ``None`` on success."""
        value = self.body.get("error")
        return value if isinstance(value, dict) else None

    def __repr__(self) -> str:
        suffix = (
            f", error={self.error['type']}" if self.error else ""
        )
        return f"ServiceResponse(status={self.status}{suffix})"


class ServiceClient:
    """HTTP client bound to one server address (and one tenant)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        tenant: str | None = None,
        timeout_s: float = 30.0,
        retry: RetryPolicy | None = None,
    ):
        self.base = f"http://{host}:{port}"
        self.tenant = tenant
        self.timeout_s = timeout_s
        #: when set, 429/503 responses are retried (bounded by
        #: ``retry.max_attempts``), honouring ``Retry-After``
        self.retry = retry

    # -- transport -----------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> ServiceResponse:
        """One logical request: a single exchange, plus the bounded
        pushback-retry loop when a :class:`RetryPolicy` is set.

        The wait before retry *k* is the larger of the server's
        ``Retry-After`` and the policy's backoff for *k* -- the server
        knows how loaded it is, the policy knows how patient the
        caller can afford to be.
        """
        response = self._send(method, path, body, headers)
        if self.retry is None:
            return response
        retry_index = 0
        while (
            response.status in RETRY_STATUSES
            and retry_index < self.retry.max_attempts - 1
        ):
            delay = self.retry.delay_s(retry_index, key=path)
            if response.retry_after_s is not None:
                delay = max(delay, response.retry_after_s)
            if delay > 0:
                current_clock().sleep(delay)
            retry_index += 1
            response = self._send(method, path, body, headers)
        return response

    def _send(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> ServiceResponse:
        data = (
            json.dumps(body).encode("utf-8")
            if body is not None
            else None
        )
        request = urllib.request.Request(
            self.base + path, data=data, method=method
        )
        if data is not None:
            request.add_header("Content-Type", "application/json")
        if self.tenant is not None:
            request.add_header("X-Tenant", self.tenant)
        for key, value in (headers or {}).items():
            request.add_header(key, value)
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                return self._wrap(
                    response.status,
                    response.read(),
                    response.headers.get("Retry-After"),
                )
        except urllib.error.HTTPError as exc:
            # 4xx/5xx are still JSON envelopes, not exceptions
            return self._wrap(
                exc.code,
                exc.read(),
                exc.headers.get("Retry-After"),
            )

    @staticmethod
    def _wrap(
        status: int, raw: bytes, retry_after: str | None
    ) -> ServiceResponse:
        try:
            body = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            body = {"raw": raw.decode("utf-8", "replace")}
        if not isinstance(body, dict):
            body = {"value": body}
        return ServiceResponse(
            status=status,
            body=body,
            retry_after_s=(
                float(retry_after) if retry_after is not None else None
            ),
        )

    # -- lifecycle -----------------------------------------------------
    def wait_ready(self, timeout_s: float = 20.0) -> ServiceResponse:
        """Poll ``/readyz`` until the server reports ready.

        Raises ``TimeoutError`` (carrying the last observed state) if
        readiness never arrives -- a started-but-stuck server should
        fail the caller loudly, not hang it.
        """
        deadline = time.monotonic() + timeout_s
        last: str = "no response yet"
        while time.monotonic() < deadline:
            try:
                response = self.readyz()
            except OSError as exc:
                last = f"transport: {exc}"
            else:
                if response.ok:
                    return response
                last = f"status {response.status}: {response.body}"
            time.sleep(0.05)
        raise TimeoutError(
            f"server at {self.base} not ready after {timeout_s}s "
            f"(last: {last})"
        )

    # -- endpoints -----------------------------------------------------
    def healthz(self) -> ServiceResponse:
        return self.request("GET", "/healthz")

    def readyz(self) -> ServiceResponse:
        return self.request("GET", "/readyz")

    def metrics(self) -> ServiceResponse:
        return self.request("GET", "/metrics")

    def metrics_prometheus(self) -> ServiceResponse:
        return self.request("GET", "/metrics?format=prometheus")

    def databases(self) -> ServiceResponse:
        return self.request("GET", "/v1/databases")

    def register_database(
        self, body: Mapping[str, Any]
    ) -> ServiceResponse:
        return self.request("POST", "/v1/databases", body=body)

    def explain(
        self,
        body: Mapping[str, Any],
        deadline_ms: float | None = None,
    ) -> ServiceResponse:
        headers = (
            {"X-Deadline-Ms": str(deadline_ms)}
            if deadline_ms is not None
            else None
        )
        return self.request(
            "POST", "/v1/explain", body=body, headers=headers
        )

    def explain_batch(
        self, body: Mapping[str, Any]
    ) -> ServiceResponse:
        return self.request("POST", "/v1/explain_batch", body=body)

    def batch_result(self, request_id: str) -> ServiceResponse:
        return self.request("GET", f"/v1/batches/{request_id}")
