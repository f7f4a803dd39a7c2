"""Why-not-as-a-service: quotas, admission, the HTTP surface, chaos.

Four layers of proof, mirroring how the service is built:

1. **units** -- quota parsing/token buckets on a ManualClock, the
   admission gate, request-budget parsing, config validation;
2. **state** -- the socket-free application core: registration,
   journaled batches, idempotent retries, recovery, readiness;
3. **live server** -- a real ``ThreadingHTTPServer`` on an ephemeral
   port driven through :class:`repro.service.client.ServiceClient`:
   happy paths, error envelopes, deterministic overload (429 +
   ``Retry-After`` while ``/healthz`` stays 200), per-tenant quota
   refusal, degraded 206 answers, drain semantics, and seeded
   :class:`~repro.robustness.FaultPlan` chaos over the socket;
4. **subprocess** -- the acceptance proofs: a ``workers=4`` batch over
   HTTP SIGKILLed mid-run resumes on restart *byte-identical* to an
   uninterrupted run (under ``REPRO_MANUAL_CLOCK``), and SIGTERM
   drains to exit code 0 with an empty pending queue.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from contextlib import contextmanager
from io import StringIO
from pathlib import Path

import pytest

import repro
from repro.errors import (
    ConfigurationError,
    JournalError,
    LoadShedError,
    QuotaExceededError,
    ServiceError,
)
from repro.obs import ManualClock, use_clock
from repro.robustness import Budget, FaultPlan, inject
from repro.service import (
    AdmissionGate,
    QuotaRegistry,
    QuotaSpec,
    ServiceConfig,
    ServiceState,
    TokenBucket,
    serve,
)
from repro.relational.evalcache import CACHE_MAXSIZE
from repro.service.client import ServiceClient
from repro.service.quota import QUOTA_BUCKETS
from repro.service.state import ENGINE_CAPACITY

_SRC = str(Path(repro.__file__).resolve().parents[1])

SQL = "SELECT Person.name FROM Person WHERE Person.hair = 'brown'"
REGISTER = {"name": "crime", "use_case_db": "crime"}


def _explain_body(question="(Person.name: Roger)", **extra):
    body = {"database": "crime", "sql": SQL, "why_not": question}
    body.update(extra)
    return body


def _batch_body(questions=None, **extra):
    return _explain_body(
        questions
        if questions is not None
        else ["(Person.name: Roger)", "(Person.name: Hannah)"],
        **extra,
    )


# ---------------------------------------------------------------------------
# quotas
# ---------------------------------------------------------------------------
class TestQuotaSpec:
    @pytest.mark.parametrize(
        "text, rate, burst",
        [
            ("10/s", 10.0, 10),
            ("120/min", 2.0, 2),
            ("5/s:20", 5.0, 20),
            ("0.5/s", 0.5, 1),
            ("30/minute:3", 0.5, 3),
            (" 2 / sec : 7 ", 2.0, 7),
        ],
    )
    def test_parse_grammar(self, text, rate, burst):
        spec = QuotaSpec.parse(text)
        assert spec.rate_per_s == pytest.approx(rate)
        assert spec.burst == burst

    @pytest.mark.parametrize(
        "text", ["", "10", "/s", "10/h", "10/s:", "-1/s", "ten/s", "0/s"]
    )
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ConfigurationError):
            QuotaSpec.parse(text)

    def test_invalid_spec_values_rejected(self):
        with pytest.raises(ConfigurationError):
            QuotaSpec(rate_per_s=0.0, burst=1)
        with pytest.raises(ConfigurationError):
            QuotaSpec(rate_per_s=1.0, burst=0)


class TestTokenBucket:
    def test_burst_then_refusal_with_exact_retry_after(self):
        clock = ManualClock()
        with use_clock(clock):
            bucket = TokenBucket(QuotaSpec(rate_per_s=2.0, burst=3))
            assert [bucket.try_acquire() for _ in range(3)] == [
                0.0,
                0.0,
                0.0,
            ]
            # empty: one token arrives after 1/rate seconds
            assert bucket.try_acquire() == pytest.approx(0.5)

    def test_refill_is_lazy_and_capped_at_burst(self):
        clock = ManualClock()
        with use_clock(clock):
            bucket = TokenBucket(QuotaSpec(rate_per_s=1.0, burst=2))
            assert bucket.try_acquire() == 0.0
            assert bucket.try_acquire() == 0.0
            clock.advance(100.0)  # far past burst: capped, not banked
            assert bucket.try_acquire() == 0.0
            assert bucket.try_acquire() == 0.0
            assert bucket.try_acquire() == pytest.approx(1.0)

    def test_manual_clock_never_refills(self):
        """Under REPRO_MANUAL_CLOCK the clock never moves on its own:
        the burst is the whole budget, deterministically."""
        with use_clock(ManualClock()):
            bucket = TokenBucket(QuotaSpec(rate_per_s=1000.0, burst=1))
            assert bucket.try_acquire() == 0.0
            assert bucket.try_acquire() > 0.0


class TestQuotaRegistry:
    def test_disabled_registry_admits_everything(self):
        registry = QuotaRegistry(None)
        for _ in range(100):
            registry.check("anyone")
        assert len(registry) == 0

    def test_tenants_are_isolated(self):
        clock = ManualClock()
        with use_clock(clock):
            registry = QuotaRegistry(QuotaSpec(1.0, 1))
            registry.check("alice")
            with pytest.raises(QuotaExceededError):
                registry.check("alice")
            registry.check("bob")  # bob's bucket is untouched
        assert len(registry) == 2

    def test_error_carries_tenant_and_retry_after(self):
        with use_clock(ManualClock()):
            registry = QuotaRegistry(QuotaSpec(2.0, 1))
            registry.check("alice")
            with pytest.raises(QuotaExceededError) as excinfo:
                registry.check("alice")
        assert excinfo.value.tenant == "alice"
        assert excinfo.value.retry_after_s == pytest.approx(0.5)

    def test_fresh_tenant_stream_stays_bounded(self):
        clock = ManualClock()
        with use_clock(clock):
            registry = QuotaRegistry(QuotaSpec(rate_per_s=10.0, burst=2))
            for i in range(5000):
                registry.check(f"burst-{i}")
            # every bucket spent a token this instant: none may go
            assert len(registry) == 5000
            most = 0
            for i in range(3000):
                clock.advance(0.21)  # past a full refill: burst / rate
                registry.check(f"stream-{i}")
                most = max(most, len(registry))
        assert most <= QUOTA_BUCKETS

    def test_prune_keeps_a_spent_bucket(self):
        clock = ManualClock()
        spec = QuotaSpec(rate_per_s=1.0, burst=2)
        with use_clock(clock):
            registry = QuotaRegistry(spec)
            control = TokenBucket(spec)  # same calls, never pruned
            for _ in range(2):
                registry.check("hog")
                control.try_acquire()
            for i in range(QUOTA_BUCKETS - 1):
                registry.check(f"filler-{i}")
            clock.advance(1.5)  # fillers refilled, hog at 1.5 tokens
            registry.check("newcomer")  # at the bound: prunes
            assert len(registry) == 2  # hog and newcomer
            registry.check("hog")
            assert control.try_acquire() == 0.0
            expected = control.try_acquire()
            assert expected > 0.0
            with pytest.raises(QuotaExceededError) as excinfo:
                registry.check("hog")
        assert excinfo.value.retry_after_s == pytest.approx(expected)

    def test_concurrent_checks_never_grant_extra_tokens(self):
        """Threads share the registry while fresh tenants keep it at
        the bound and the clock moves: however checks and prunes
        interleave, one tenant is never admitted more than its burst
        plus what the elapsed time refilled."""
        clock = ManualClock()
        spec = QuotaSpec(rate_per_s=1.0, burst=3)
        registry = QuotaRegistry(spec)
        admitted: list[int] = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            count = 0
            with use_clock(clock):  # context vars do not cross threads
                for step in range(400):
                    registry.check(f"w{index}-{step}")
                    if step % 7 == 0:
                        clock.advance(0.01)
                        try:
                            registry.check("hog")
                            count += 1
                        except QuotaExceededError:
                            pass
            with lock:
                admitted.append(count)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(admitted) == 8
        elapsed = clock.monotonic()
        assert sum(admitted) <= spec.burst + spec.rate_per_s * elapsed


# ---------------------------------------------------------------------------
# admission gate
# ---------------------------------------------------------------------------
class TestAdmissionGate:
    def test_unlimited_gate_counts(self):
        gate = AdmissionGate(None)
        gate.acquire()
        gate.acquire()
        assert gate.active == 2
        gate.release()
        gate.release()
        assert gate.active == 0

    def test_sheds_past_the_limit_immediately(self):
        gate = AdmissionGate(2)
        gate.acquire()
        gate.acquire()
        with pytest.raises(LoadShedError):
            gate.acquire()
        assert gate.shed_total == 1
        gate.release()
        gate.acquire()  # a freed slot admits again

    def test_context_manager_releases_on_error(self):
        gate = AdmissionGate(1)
        with pytest.raises(RuntimeError):
            with gate:
                raise RuntimeError("boom")
        assert gate.active == 0

    def test_release_underflow_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionGate(None).release()

    def test_limit_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionGate(0)


# ---------------------------------------------------------------------------
# request budgets and config
# ---------------------------------------------------------------------------
class TestBudgetFromRequest:
    def test_none_and_empty_mean_no_budget(self):
        assert Budget.from_request(None) is None
        assert Budget.from_request({}) is None

    def test_deadline_ms_becomes_seconds(self):
        budget = Budget.from_request(
            {"deadline_ms": 1500, "max_rows": 10}
        )
        assert budget.deadline_s == pytest.approx(1.5)
        assert budget.max_rows == 10
        assert budget.max_comparisons is None

    @pytest.mark.parametrize(
        "spec",
        [
            "fast",
            {"deadline_s": 1},
            {"deadline_ms": "soon"},
            {"max_rows": True},
            {"max_rows": -5},
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            Budget.from_request(spec)


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(workers=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(shed_after=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(port=70000)
        with pytest.raises(ConfigurationError):
            ServiceConfig(drain_timeout_s=0)

    def test_journal_dir_coerced_to_path(self, tmp_path):
        config = ServiceConfig(journal_dir=str(tmp_path))
        assert isinstance(config.journal_dir, Path)


# ---------------------------------------------------------------------------
# the socket-free application core
# ---------------------------------------------------------------------------
class TestServiceState:
    def _state(self, tmp_path=None, **kw):
        if tmp_path is not None:
            kw.setdefault("journal_dir", tmp_path / "journal")
        state = ServiceState(ServiceConfig(**kw))
        state.ready.set()
        return state

    def test_register_validates_name_and_source(self):
        state = self._state()
        with pytest.raises(ConfigurationError, match="name"):
            state.register_database({"use_case_db": "crime"})
        with pytest.raises(ConfigurationError, match="exactly one"):
            state.register_database({"name": "x"})
        with pytest.raises(ConfigurationError, match="exactly one"):
            state.register_database(
                {"name": "x", "use_case_db": "crime", "csv_dir": "y"}
            )
        with pytest.raises(ConfigurationError, match="unknown use-case"):
            state.register_database({"name": "x", "use_case_db": "nope"})

    def test_unknown_database_is_404(self):
        state = self._state()
        with pytest.raises(ServiceError) as excinfo:
            state.explain_single(_explain_body())
        assert excinfo.value.status == 404

    def test_explain_single_full_report(self):
        state = self._state()
        state.register_database(REGISTER)
        document = state.explain_single(_explain_body())
        assert document["degradation_level"] == "full"
        assert document["report"]["answers"]

    def test_engine_cache_is_shared_per_database(self):
        state = self._state()
        state.register_database(REGISTER)
        state.explain_single(_explain_body())
        state.explain_single(_explain_body("(Person.name: Hannah)"))
        stats = state._caches["crime"].stats
        assert stats.evaluations == 1  # second question hit the cache

    def test_engine_registry_is_a_bounded_lru(self):
        state = self._state()
        state.register_database(REGISTER)
        extra = 3
        texts = [
            f"SELECT Person.name FROM Person WHERE Person.hair = 'h{i}'"
            for i in range(ENGINE_CAPACITY + extra + 1)
        ]
        for sql in texts[:-1]:
            state.engine_for("crime", sql)
        assert len(state._engines) == ENGINE_CAPACITY
        evicted = state.metrics.counter("service.engines.evicted")
        assert evicted.value == extra
        # least recently used goes first, and a hit refreshes recency
        assert ("crime", texts[extra - 1]) not in state._engines
        state.engine_for("crime", texts[extra])
        state.engine_for("crime", texts[-1])
        assert ("crime", texts[extra]) in state._engines
        assert ("crime", texts[extra + 1]) not in state._engines
        metrics = state.metrics_document()["metrics"]
        assert metrics["service.engines.held"]["value"] == ENGINE_CAPACITY

    def test_evaluation_cache_is_bounded(self):
        """Unseen SQL per request never hits an old evaluation again;
        the database's cache keeps at most CACHE_MAXSIZE of them."""
        state = self._state()
        state.register_database(REGISTER)
        for i in range(CACHE_MAXSIZE + 8):
            state.explain_single(
                _explain_body(
                    sql="SELECT Person.name FROM Person "
                    f"WHERE Person.hair = 'h{i}'"
                )
            )
        cache = state._caches["crime"]
        assert cache.stats.evaluations == CACHE_MAXSIZE + 8
        assert len(cache) <= CACHE_MAXSIZE

    def test_batch_journals_and_is_idempotent(self, tmp_path):
        state = self._state(tmp_path)
        state.register_database(REGISTER)
        body = _batch_body(request_id="b1", workers=2)
        document, fresh = state.explain_batch(body)
        assert fresh
        assert document["degradation_level"] == "full"
        journal_dir = state.config.journal_dir
        assert (journal_dir / "b1.request.json").exists()
        assert (journal_dir / "b1.journal.jsonl").exists()
        assert (journal_dir / "b1.result.json").exists()
        again, fresh = state.explain_batch(body)
        assert not fresh  # served from the stored result, no re-run
        assert again["outcomes"] == document["outcomes"]
        assert state.batch_result("b1")["outcomes"] == document[
            "outcomes"
        ]

    def test_batch_result_distinguishes_unknown_from_in_flight(
        self, tmp_path
    ):
        state = self._state(tmp_path)
        with pytest.raises(ServiceError) as excinfo:
            state.batch_result("nope")
        assert excinfo.value.status == 404
        # a manifest without a result means in flight / crashed: 409
        (state.config.journal_dir / "hang.request.json").write_text(
            "{}"
        )
        with pytest.raises(ServiceError) as excinfo:
            state.batch_result("hang")
        assert excinfo.value.status == 409

    def test_recover_reruns_unfinished_manifests(self, tmp_path):
        state = self._state(tmp_path)
        state.register_database(REGISTER)
        manifest = _batch_body(request_id="crashed")
        manifest_path = (
            state.config.journal_dir / "crashed.request.json"
        )
        manifest_path.write_text(json.dumps(manifest))

        # a fresh state (the restarted process) sees the registration
        # (persisted databases.json) and finishes the batch
        fresh = self._state(tmp_path)
        recovered = fresh.recover()
        assert recovered == ["crashed"]
        result = fresh.batch_result("crashed")
        assert len(result["outcomes"]) == 2
        assert fresh.recover() == []  # second recovery: nothing to do

    def test_recovery_failure_never_blocks_startup(self, tmp_path):
        state = self._state(tmp_path)
        (state.config.journal_dir / "bad.request.json").write_text(
            "{not json"
        )
        assert state.recover() == []
        ready, document = state.ready_document()
        assert ready  # degraded info is reported, not fatal
        assert any("bad" in e for e in document["recovery_errors"])

    def test_readiness_states(self):
        state = ServiceState(ServiceConfig())
        ready, document = state.ready_document()
        assert not ready and document["status"] == "starting"
        state.ready.set()
        ready, document = state.ready_document()
        assert ready and document["status"] == "ready"
        assert set(document) == {
            "status",
            "draining",
            "open_breakers",
            "storage",
        }
        # an open breaker flips readiness off (stop routing here)
        breaker = state.breakers.breaker("evaluator.operator")
        for _ in range(4):
            breaker.record_failure()
        ready, document = state.ready_document()
        assert not ready and document["status"] == "breaker-open"
        assert document["open_breakers"] == ["evaluator.operator"]
        breaker._results.clear()
        breaker._transition("closed")
        assert state.begin_drain("test")
        assert not state.begin_drain("again")  # idempotent
        ready, document = state.ready_document()
        assert not ready and document["status"] == "draining"

    def test_invalid_request_id_rejected(self, tmp_path):
        state = self._state(tmp_path)
        state.register_database(REGISTER)
        with pytest.raises(ConfigurationError, match="request_id"):
            state.explain_batch(
                _batch_body(request_id="../escape")
            )
        with pytest.raises(ConfigurationError):
            state.batch_result("../escape")


# ---------------------------------------------------------------------------
# live in-process server
# ---------------------------------------------------------------------------
@contextmanager
def _live_server(**config_kw):
    config_kw.setdefault("port", 0)
    config = ServiceConfig(**config_kw)
    started: dict = {}
    ready = threading.Event()
    result: dict = {}

    def _on_started(httpd):
        started["httpd"] = httpd
        ready.set()

    thread = threading.Thread(
        target=lambda: result.setdefault(
            "code",
            serve(
                config,
                stdout=StringIO(),
                install_signal_handlers=False,
                on_started=_on_started,
            ),
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(20), "server never started"
    httpd = started["httpd"]
    client = ServiceClient(port=httpd.server_address[1])
    client.wait_ready(20)
    try:
        yield httpd, client
    finally:
        httpd.state.begin_drain("test teardown")
        threading.Thread(target=httpd.shutdown, daemon=True).start()
        thread.join(20)
        assert result.get("code") == 0


class TestLiveServer:
    def test_health_routes_and_envelopes(self):
        with _live_server() as (httpd, client):
            assert client.healthz().status == 200
            assert client.readyz().body["status"] == "ready"
            missing = client.request("GET", "/nope")
            assert missing.status == 404
            assert set(missing.error) == {"type", "message", "status"}
            no_body = client.request("POST", "/v1/explain")
            assert no_body.status == 400
            bad_json = client.request("POST", "/v1/databases")
            assert bad_json.status == 400

    def test_keep_alive_responses_are_not_held_back(self):
        # headers and body leave in two writes: without TCP_NODELAY a
        # reused connection waits out the client's delayed ACK (~40 ms)
        with _live_server() as (httpd, _client):
            host, port = httpd.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                start = time.perf_counter()
                for _ in range(20):
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 200
                elapsed = time.perf_counter() - start
            finally:
                conn.close()
        assert elapsed < 20 * 0.040 / 2

    def test_explain_and_batch_over_http(self):
        with _live_server(workers=2) as (httpd, client):
            assert client.register_database(REGISTER).ok
            single = client.explain(_explain_body())
            assert single.status == 200
            assert single.body["degradation_level"] == "full"
            batch = client.explain_batch(_batch_body(workers=2))
            assert batch.status == 200
            assert len(batch.body["outcomes"]) == 2
            assert batch.body["cached_result"] is False
            listed = client.databases()
            assert "crime" in listed.body["databases"]

    def test_degraded_answer_is_206_not_a_hang(self):
        with _live_server() as (httpd, client):
            client.register_database(REGISTER)
            degraded = client.explain(
                _explain_body(budget={"max_comparisons": 1})
            )
            assert degraded.status == 206
            assert degraded.body["degradation_level"] == "partial"
            assert degraded.body["report"]["partial"] is True

    def test_deadline_header_feeds_the_budget(self):
        with _live_server() as (httpd, client):
            client.register_database(REGISTER)
            bad = client.explain(_explain_body(), deadline_ms=-5)
            assert bad.status == 400  # validated, not silently ignored
            ok = client.explain(_explain_body(), deadline_ms=60_000)
            assert ok.status == 200

    def test_overload_sheds_429_while_healthz_stays_200(self):
        """The acceptance criterion, deterministically: with both
        admission slots held, new work is refused with 429 +
        Retry-After while liveness stays green; freed slots admit
        again and those requests complete."""
        with _live_server(shed_after=2) as (httpd, client):
            client.register_database(REGISTER)
            gate = httpd.state.gate
            gate.acquire()
            gate.acquire()
            try:
                shed = client.explain(_explain_body())
                assert shed.status == 429
                assert shed.error["type"] == "LoadShedError"
                assert shed.retry_after_s >= 1
                assert client.healthz().status == 200
                assert httpd.state.gate.shed_total >= 1
            finally:
                gate.release()
                gate.release()
            admitted = client.explain(_explain_body())
            assert admitted.status == 200  # admitted work completes

    def test_tenant_quota_yields_429_with_retry_after(self):
        with _live_server(quota=QuotaSpec.parse("1/min:2")) as (
            httpd,
            client,
        ):
            client.register_database(REGISTER)
            alice = ServiceClient(
                port=httpd.server_address[1], tenant="alice"
            )
            bob = ServiceClient(
                port=httpd.server_address[1], tenant="bob"
            )
            assert alice.explain(_explain_body()).status == 200
            assert alice.explain(_explain_body()).status == 200
            refused = alice.explain(_explain_body())
            assert refused.status == 429
            assert refused.error["type"] == "QuotaExceededError"
            assert refused.retry_after_s >= 1
            # bob is unaffected by alice's exhaustion
            assert bob.explain(_explain_body()).status == 200

    def test_draining_refuses_work_but_stays_alive(self):
        with _live_server() as (httpd, client):
            client.register_database(REGISTER)
            httpd.state.begin_drain("test drain")
            refused = client.explain(_explain_body())
            assert refused.status == 503
            assert refused.retry_after_s >= 1
            assert client.healthz().status == 200
            not_ready = client.readyz()
            assert not_ready.status == 503
            assert not_ready.body["status"] == "draining"

    def test_metrics_json_and_prometheus(self):
        with _live_server() as (httpd, client):
            client.register_database(REGISTER)
            client.explain(_explain_body())
            snapshot = client.metrics().body["metrics"]
            assert snapshot["service.responses"]["value"] >= 2
            assert snapshot["service.route.explain"]["value"] == 1
            text = client.metrics_prometheus().body["raw"]
            assert "# TYPE service_responses counter" in text
            assert "service_route_explain 1" in text

    def test_batch_result_lifecycle_over_http(self, tmp_path):
        with _live_server(journal_dir=tmp_path / "journal") as (
            httpd,
            client,
        ):
            client.register_database(REGISTER)
            assert client.batch_result("nope").status == 404
            first = client.explain_batch(
                _batch_body(request_id="http-batch")
            )
            assert first.status == 200
            replay = client.explain_batch(
                _batch_body(request_id="http-batch")
            )
            assert replay.body["cached_result"] is True
            stored = client.batch_result("http-batch")
            assert stored.body["outcomes"] == first.body["outcomes"]


# ---------------------------------------------------------------------------
# chaos over the socket
# ---------------------------------------------------------------------------
CHAOS_SEEDS = range(0, 10)


class TestChaosOverSocket:
    """Seeded fault plans against a *live* server: injected operator /
    cache / compatibility faults must surface as structured degraded
    envelopes, never as hung sockets or dead processes."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_seeded_faults_yield_envelopes_not_crashes(self, seed):
        plan = FaultPlan.random(seed, faults=1 + seed % 3)
        with _live_server(workers=2) as (httpd, client):
            client.register_database(REGISTER)
            questions = [
                "(Person.name: Roger)",
                "(Person.name: Hannah)",
                "(Person.name: Zo)",
            ]
            with inject(plan):
                response = client.explain_batch(
                    _batch_body(questions, workers=2)
                )
            # totality: one outcome per question, 200 or 206, never a
            # connection reset
            assert response.status in (200, 206)
            outcomes = response.body["outcomes"]
            assert len(outcomes) == len(questions)
            for outcome in outcomes:
                assert outcome["degradation_level"] in (
                    "full",
                    "partial",
                    "failed",
                )
            # the process survived: liveness green, and a clean batch
            # right after the chaos one still answers in full
            assert client.healthz().status == 200
            clean = client.explain_batch(_batch_body(questions))
            assert clean.status in (200, 206)
            assert all(
                o["degradation_level"] == "full"
                for o in clean.body["outcomes"]
            )


# ---------------------------------------------------------------------------
# subprocess acceptance: kill/resume byte-identity and SIGTERM drain
# ---------------------------------------------------------------------------
KILL_QUESTIONS = [
    "(Person.name: Roger)",
    "(Person.name: Hannah)",
    "(Person.name: Ana)",
    "(Person.name: Zo)",
    "(Person.name: Ofelia)",
    "(Person.name: Milo)",
]


class _ServerProcess:
    """One ``repro.cli serve`` subprocess bound to an ephemeral port."""

    def __init__(self, journal_dir: Path, env_extra=None, extra_args=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        env["REPRO_MANUAL_CLOCK"] = "1"
        env.pop("REPRO_JOURNAL_CRASH_AFTER", None)
        env.pop("REPRO_JOURNAL_SIGINT_AFTER", None)
        env.update(env_extra or {})
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--workers",
                "4",
                "--journal-dir",
                str(journal_dir),
                *(extra_args or []),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        assert self.proc.stdout is not None
        first = self.proc.stdout.readline()
        assert "listening on" in first, first
        self.port = int(first.rsplit(":", 1)[1])
        self.client = ServiceClient(port=self.port)
        self.client.wait_ready(30)

    def kill_wait(self) -> int:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        return self.proc.returncode


def _artifact_dir(tmp_path: Path, name: str) -> Path:
    configured = os.environ.get("REPRO_CHAOS_ARTIFACT_DIR")
    root = Path(configured) if configured else tmp_path
    path = root / name
    path.mkdir(parents=True, exist_ok=True)
    return path


class TestServiceKillResume:
    """The service-level resume proof: a journaled workers=4 batch over
    HTTP, SIGKILLed mid-run by the deterministic crash hook, converges
    after restart to outcomes byte-identical to an uninterrupted run."""

    def test_sigkilled_batch_resumes_byte_identical(self, tmp_path):
        clean_dir = _artifact_dir(tmp_path, "service-clean")
        killed_dir = _artifact_dir(tmp_path, "service-killed")
        body = {
            "request_id": "kill-batch",
            "database": "crime",
            "sql": SQL,
            "why_not": KILL_QUESTIONS,
            "workers": 4,
        }

        # 1. the uninterrupted oracle run
        server = _ServerProcess(clean_dir)
        try:
            assert server.client.register_database(REGISTER).ok
            clean = server.client.explain_batch(body)
            assert clean.status in (200, 206)
            clean_outcomes = clean.body["outcomes"]
            assert len(clean_outcomes) == len(KILL_QUESTIONS)
        finally:
            server.kill_wait()

        # 2. same batch, server SIGKILLed right after the second
        #    journal record is durable (a power cut, not a shutdown)
        server = _ServerProcess(
            killed_dir, env_extra={"REPRO_JOURNAL_CRASH_AFTER": "2"}
        )
        assert server.client.register_database(REGISTER).ok
        with pytest.raises(
            (urllib.request.HTTPError, OSError, ConnectionError)
        ):
            server.client.explain_batch(body)
        assert server.kill_wait() == -signal.SIGKILL
        # the durable prefix survived: manifest + exactly 2 records
        assert (killed_dir / "kill-batch.request.json").exists()
        journal_lines = (
            (killed_dir / "kill-batch.journal.jsonl")
            .read_text()
            .splitlines()
        )
        assert len(journal_lines) == 2
        assert not (killed_dir / "kill-batch.result.json").exists()

        # 3. restart on the same journal dir: recovery resumes the
        #    journal (replaying the durable records) before ready
        server = _ServerProcess(killed_dir)
        try:
            recovered = server.client.batch_result("kill-batch")
            assert recovered.status == 200
            assert recovered.body["replayed"] == 2
            # 4. byte-identical to the uninterrupted run
            assert json.dumps(
                recovered.body["outcomes"], sort_keys=True
            ) == json.dumps(clean_outcomes, sort_keys=True)
        finally:
            server.kill_wait()

    def test_registrations_survive_restart(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir()
        server = _ServerProcess(journal_dir)
        try:
            assert server.client.register_database(REGISTER).ok
        finally:
            server.kill_wait()
        server = _ServerProcess(journal_dir)
        try:
            # no re-registration: the persisted databases.json was
            # reloaded, so explains work immediately after restart
            assert server.client.explain(_explain_body()).status == 200
        finally:
            server.kill_wait()


class TestServiceDrain:
    def test_sigterm_drains_to_exit_zero_with_empty_queue(
        self, tmp_path
    ):
        server = _ServerProcess(tmp_path / "journal")
        assert server.client.register_database(REGISTER).ok
        assert server.client.explain(_explain_body()).status == 200
        server.proc.send_signal(signal.SIGTERM)
        output, _ = server.proc.communicate(timeout=30)
        assert server.proc.returncode == 0, output
        assert "draining: SIGTERM received" in output
        assert "active_requests=0" in output

    def test_serve_rejects_bad_config_with_exit_2(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--quota",
                "not-a-quota",
                "--json",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 2
        document = json.loads(result.stdout)
        assert document["error"]["type"] == "ConfigurationError"
        assert "quota" in document["error"]["message"]


# ---------------------------------------------------------------------------
# storage backends behind the service
# ---------------------------------------------------------------------------
class TestStorageKinds:
    def test_storage_config_validation(self, tmp_path):
        with pytest.raises(ConfigurationError, match="storage"):
            ServiceConfig(storage="floppy")
        with pytest.raises(ConfigurationError, match="journal"):
            ServiceConfig(storage="local")
        assert ServiceConfig().resolved_storage == "none"
        assert (
            ServiceConfig(journal_dir=tmp_path / "j").resolved_storage
            == "local"
        )
        assert ServiceConfig(storage="memory").resolved_storage == "memory"
        assert (
            ServiceConfig(
                storage="none", journal_dir=tmp_path / "j"
            ).resolved_storage
            == "none"
        )

    def test_memory_storage_batches_without_touching_disk(self):
        state = ServiceState(ServiceConfig(storage="memory"))
        state.ready.set()
        state.register_database(REGISTER)
        body = _batch_body(request_id="m1", workers=2)
        document, fresh = state.explain_batch(body)
        assert fresh
        again, fresh = state.explain_batch(body)
        assert not fresh  # idempotency via the in-memory result doc
        assert again["request_id"] == document["request_id"]
        assert again["outcomes"] == document["outcomes"]
        names = state.backend.list_documents()
        assert "m1.request.json" in names
        assert "m1.result.json" in names

    def test_memory_storage_over_http(self):
        with _live_server(storage="memory") as (httpd, client):
            client.register_database(REGISTER)
            first = client.explain_batch(
                _batch_body(request_id="mem-http")
            )
            assert first.status == 200
            replay = client.explain_batch(
                _batch_body(request_id="mem-http")
            )
            assert replay.body["cached_result"] is True
            ready = client.readyz()
            assert ready.body["storage"]["kind"] == "memory"

    def test_readyz_reports_storage_recovery(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir()
        # a temp file stranded by a crash mid-atomic-write: recovery
        # quarantines it before the service flips ready
        (journal_dir / "junk.json.tmp").write_text("half a doc")
        state = ServiceState(ServiceConfig(journal_dir=journal_dir))
        _ready, document = state.ready_document()
        assert document["storage"]["kind"] == "local"
        assert document["storage_recovery"]["quarantined"] == [
            "junk.json.tmp"
        ]
        assert (journal_dir / "quarantine" / "junk.json.tmp").exists()


# ---------------------------------------------------------------------------
# request timeouts: a stalled client must not hold a worker forever
# ---------------------------------------------------------------------------
class TestRequestTimeout:
    def test_config_rejects_non_positive_timeout(self):
        with pytest.raises(ConfigurationError, match="timeout"):
            ServiceConfig(request_timeout_s=0)
        with pytest.raises(ConfigurationError, match="timeout"):
            ServiceConfig(request_timeout_s=-1)
        assert ServiceConfig(request_timeout_s=None).request_timeout_s is None

    def test_stalled_body_gets_408_and_connection_close(self):
        with _live_server(request_timeout_s=0.4) as (httpd, client):
            client.register_database(REGISTER)
            port = httpd.server_address[1]
            with socket.create_connection(("127.0.0.1", port)) as sock:
                sock.settimeout(15)
                # promise 4096 body bytes, deliver 8, then stall: the
                # read blocks until the socket timeout fires
                sock.sendall(
                    b"POST /v1/explain HTTP/1.1\r\n"
                    b"Host: t\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 4096\r\n"
                    b"\r\n"
                    b'{"data":'
                )
                chunks = []
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break  # server closed the connection: good
                    chunks.append(chunk)
            response = b"".join(chunks)
            assert b" 408 " in response.splitlines()[0]
            assert b"RequestTimeout" in response
            # no worker was left hung: the server still answers
            assert client.healthz().status == 200
            assert client.explain(_explain_body()).status == 200
            timeouts = client.metrics().body["metrics"]
            assert timeouts["service.timeouts"]["value"] >= 1


# ---------------------------------------------------------------------------
# quota hot-reload: SIGHUP and POST /v1/admin/reload
# ---------------------------------------------------------------------------
class TestQuotaReload:
    def test_admin_reload_swaps_the_spec(self, tmp_path):
        quota_file = tmp_path / "quota.txt"
        quota_file.write_text("1/min:1\n")
        with _live_server(quota_file=quota_file) as (httpd, client):
            client.register_database(REGISTER)
            assert client.explain(_explain_body()).status == 200
            assert client.explain(_explain_body()).status == 429
            quota_file.write_text("100/s:100\n")
            response = client.request("POST", "/v1/admin/reload")
            assert response.status == 200
            assert response.body["reloaded"] is True
            assert response.body["quota"] == "100/s:100"
            # new spec in force, and the exhausted bucket was dropped
            assert client.explain(_explain_body()).status == 200

    def test_malformed_reload_keeps_the_old_spec(self, tmp_path):
        quota_file = tmp_path / "quota.txt"
        quota_file.write_text("1/min:1\n")
        with _live_server(quota_file=quota_file) as (httpd, client):
            client.register_database(REGISTER)
            assert client.explain(_explain_body()).status == 200
            assert client.explain(_explain_body()).status == 429
            quota_file.write_text("not a quota at all\n")
            response = client.request("POST", "/v1/admin/reload")
            assert response.status == 400
            assert response.body["reloaded"] is False
            assert "error" in response.body
            # a bad reload degrades to "nothing changed", never to
            # "quotas off": the old spec still refuses
            assert client.explain(_explain_body()).status == 429
            failed = client.metrics().body["metrics"]
            assert failed["config.reload_failed"]["value"] >= 1

    def test_empty_quota_file_disables_quotas(self, tmp_path):
        quota_file = tmp_path / "quota.txt"
        quota_file.write_text("1/min:1\n")
        with _live_server(quota_file=quota_file) as (httpd, client):
            client.register_database(REGISTER)
            assert client.explain(_explain_body()).status == 200
            assert client.explain(_explain_body()).status == 429
            quota_file.write_text("")
            response = client.request("POST", "/v1/admin/reload")
            assert response.status == 200
            assert response.body["quota"] is None
            assert client.explain(_explain_body()).status == 200

    def test_reload_without_quota_file_is_400(self):
        with _live_server() as (httpd, client):
            response = client.request("POST", "/v1/admin/reload")
            assert response.status == 400
            assert response.body["reloaded"] is False
            assert "no --quota-file" in response.body["reason"]

    @pytest.mark.skipif(
        not hasattr(signal, "SIGHUP"), reason="no SIGHUP on this OS"
    )
    def test_sighup_reloads_the_quota_file(self, tmp_path):
        quota_file = tmp_path / "quota.txt"
        quota_file.write_text("1/min:1\n")
        server = _ServerProcess(
            tmp_path / "journal",
            extra_args=["--quota-file", str(quota_file)],
        )
        try:
            assert server.client.register_database(REGISTER).ok
            assert server.client.explain(_explain_body()).status == 200
            assert server.client.explain(_explain_body()).status == 429
            quota_file.write_text("100/s:100\n")
            server.proc.send_signal(signal.SIGHUP)
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                metrics = server.client.metrics().body["metrics"]
                if metrics.get("config.reloads", {}).get("value", 0):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("SIGHUP reload never registered in metrics")
            assert server.client.explain(_explain_body()).status == 200
        finally:
            server.kill_wait()


# ---------------------------------------------------------------------------
# client pushback retry (RetryPolicy + Retry-After)
# ---------------------------------------------------------------------------
class _ScriptedClient(ServiceClient):
    """A client whose transport replays a scripted response list."""

    def __init__(self, responses, **kw):
        super().__init__(**kw)
        self.responses = list(responses)
        self.sent = 0

    def _send(self, method, path, body=None, headers=None):
        response = self.responses[
            min(self.sent, len(self.responses) - 1)
        ]
        self.sent += 1
        return response


class TestClientRetry:
    def test_retries_pushback_until_success(self):
        from repro.robustness import RetryPolicy
        from repro.service.client import ServiceResponse

        clock = ManualClock()
        client = _ScriptedClient(
            [
                ServiceResponse(status=429, retry_after_s=2.0),
                ServiceResponse(status=503),
                ServiceResponse(status=200, body={"ok": True}),
            ],
            retry=RetryPolicy(
                max_attempts=5, backoff_ms=100.0, jitter=0.0
            ),
        )
        with use_clock(clock):
            response = client.explain_batch({"why_not": ["(q: x)"]})
        assert response.status == 200
        assert client.sent == 3
        # first wait honours Retry-After (2.0 > 0.1); second falls
        # back to the policy backoff (0.2) -- and no real time passed
        assert clock.monotonic() == pytest.approx(2.2)

    def test_retry_budget_is_bounded(self):
        from repro.robustness import RetryPolicy
        from repro.service.client import ServiceResponse

        client = _ScriptedClient(
            [ServiceResponse(status=429, retry_after_s=0.5)],
            retry=RetryPolicy(max_attempts=3, jitter=0.0),
        )
        with use_clock(ManualClock()):
            response = client.healthz()
        assert response.status == 429  # surfaced after the budget
        assert client.sent == 3

    def test_non_pushback_statuses_return_immediately(self):
        from repro.robustness import RetryPolicy
        from repro.service.client import ServiceResponse

        client = _ScriptedClient(
            [ServiceResponse(status=404)],
            retry=RetryPolicy(max_attempts=5),
        )
        response = client.healthz()
        assert response.status == 404
        assert client.sent == 1

    def test_no_policy_means_single_shot(self):
        from repro.service.client import ServiceResponse

        client = _ScriptedClient([ServiceResponse(status=503)])
        assert client.healthz().status == 503
        assert client.sent == 1
