"""Application state of the why-not service.

The HTTP layer (:mod:`repro.service.server`) is a thin parser; every
decision lives here so it can be unit-tested without a socket:

* :class:`ServiceConfig` -- the ``serve`` knobs (worker pool size,
  admission limit, quota spec, journal directory);
* :class:`AdmissionGate` -- bounded concurrent admission with load
  shedding: past ``shed_after`` in-flight requests, new arrivals are
  refused with :class:`~repro.errors.LoadShedError` (mapped to ``429``
  + ``Retry-After``), never queued unboundedly;
* :class:`ServiceState` -- the registries (databases, warm engines,
  per-database evaluation caches), the shared
  :class:`~repro.obs.MetricsRegistry` behind ``/metrics``, the
  long-lived :class:`~repro.robustness.breaker.CircuitBreakerBoard`,
  the drain token wired to SIGTERM, and the crash-safe request journal.

**Crash-safe request journaling.**  Every ``/v1/explain_batch`` request
is made durable *before* any work starts: a ``<id>.request.json``
manifest (atomic write) plus a per-request
:class:`~repro.robustness.journal.BatchJournal` that records each
question outcome as it completes.  A completed batch gets an atomic
``<id>.result.json``.  On startup, :meth:`ServiceState.recover` re-runs
every manifest without a result, resuming its journal -- already
completed questions replay verbatim, the rest are computed -- so a
SIGKILLed server converges to the same outcomes an uninterrupted run
would have produced (byte-identical under ``REPRO_MANUAL_CLOCK``).
Database registrations are persisted the same way (atomic
``databases.json``), so recovery does not depend on clients
re-registering.
"""

from __future__ import annotations

import json
import threading
import uuid
import re
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from ..baseline import WhyNotBaseline
from ..core import NedExplain
from ..errors import (
    ConfigurationError,
    LoadShedError,
    ReproError,
    ServiceError,
    StorageError,
    UnsupportedQueryError,
)
from ..obs import MetricsRegistry
from ..obs.clock import current_clock
from ..relational import EvaluationCache
from ..relational.csv_io import load_database
from ..relational.database import Database
from ..relational.sql import sql_to_canonical
from ..robustness import (
    Budget,
    CancellationToken,
    CircuitBreakerBoard,
)
from ..storage import StorageBackend, open_backend
from .quota import QuotaRegistry, QuotaSpec

__all__ = [
    "AdmissionGate",
    "DEGRADATION_SEVERITY",
    "ENGINE_CAPACITY",
    "STORAGE_KINDS",
    "ServiceConfig",
    "ServiceState",
]

#: Order of degradation levels from best to worst; a batch envelope
#: reports the *worst* level across its outcomes.
DEGRADATION_SEVERITY: dict[str, int] = {
    "full": 0,
    "partial": 1,
    "baseline": 2,
    "shed": 3,
    "cancelled": 4,
    "failed": 5,
}

#: Request ids become journal file names; keep them boring.
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")

#: Database names key registries and the persisted registration file.
_NAME_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")


#: Warm engines held at once, least recently used evicted first.  One
#: engine keeps its query input instance (about 1.5 MB for Gov5), and
#: every new SQL text a client sends builds one.
ENGINE_CAPACITY = 32

#: Storage backend selections understood by ``--storage``.
STORAGE_KINDS: tuple[str, ...] = ("auto", "local", "memory", "none")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``serve`` needs to run one service process."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: worker threads available to one ``/v1/explain_batch`` request
    #: (a request asking for more is capped, never refused)
    workers: int = 4
    #: admission limit: max concurrently admitted explain requests;
    #: arrivals past it are shed with 429 (``None`` = unlimited)
    shed_after: int | None = None
    #: per-tenant token-bucket quota (``None`` = no quotas)
    quota: QuotaSpec | None = None
    #: directory for request manifests + batch journals (``None``
    #: disables request journaling and crash recovery)
    journal_dir: Path | None = None
    #: storage backend kind (``auto`` picks ``local`` when
    #: ``journal_dir`` is set, ``none`` otherwise; ``memory`` runs the
    #: full journaling/recovery code path without a disk)
    storage: str = "auto"
    #: per-connection socket timeout in seconds: a client that stalls
    #: mid-request gets a clean 408 envelope instead of parking a
    #: worker thread forever (``None`` = wait indefinitely)
    request_timeout_s: float | None = 30.0
    #: optional file holding the quota spec, re-read on SIGHUP /
    #: ``POST /v1/admin/reload`` (``None`` = quotas fixed at startup)
    quota_file: Path | None = None
    #: seconds :func:`~repro.service.server.serve` waits for in-flight
    #: requests after the accept loop stops before giving up
    drain_timeout_s: float = 10.0
    #: ``Retry-After`` seconds reported on shed / draining responses
    retry_after_s: float = 1.0

    def __post_init__(self) -> None:
        if self.storage not in STORAGE_KINDS:
            raise ConfigurationError(
                f"unknown storage kind {self.storage!r}; choose from "
                f"{', '.join(STORAGE_KINDS)}"
            )
        if self.storage == "local" and self.journal_dir is None:
            raise ConfigurationError(
                "--storage local needs a journal directory "
                "(--journal-dir)"
            )
        if (
            self.request_timeout_s is not None
            and self.request_timeout_s <= 0
        ):
            raise ConfigurationError(
                f"request_timeout_s must be positive, got "
                f"{self.request_timeout_s!r}"
            )
        if self.quota_file is not None:
            object.__setattr__(
                self, "quota_file", Path(self.quota_file)
            )
        if self.workers < 1:
            raise ConfigurationError(
                f"service workers must be >= 1, got {self.workers}"
            )
        if self.shed_after is not None and self.shed_after < 1:
            raise ConfigurationError(
                f"service shed_after must be >= 1, got "
                f"{self.shed_after}"
            )
        if self.port < 0 or self.port > 65535:
            raise ConfigurationError(
                f"service port must be in [0, 65535], got {self.port}"
            )
        if self.drain_timeout_s <= 0:
            raise ConfigurationError(
                f"drain_timeout_s must be positive, got "
                f"{self.drain_timeout_s!r}"
            )
        if self.journal_dir is not None:
            object.__setattr__(
                self, "journal_dir", Path(self.journal_dir)
            )

    @property
    def resolved_storage(self) -> str:
        """The concrete backend kind ``auto`` resolves to."""
        if self.storage != "auto":
            return self.storage
        return "local" if self.journal_dir is not None else "none"


class AdmissionGate:
    """Bounded concurrent admission with explicit load shedding.

    ``limit=None`` admits everything (the gate still counts, for
    ``/metrics`` and the drain's idle check).  Past the limit,
    :meth:`acquire` raises :class:`~repro.errors.LoadShedError`
    *immediately* -- the pending "queue" of a thread-per-request server
    is its admitted-but-running request set, and refusing fast beats
    parking client threads without bound (the same never-silently-drop
    policy as :class:`~repro.robustness.executor.ParallelExecutor`).
    """

    def __init__(self, limit: int | None):
        if limit is not None and limit < 1:
            raise ConfigurationError(
                f"admission limit must be >= 1, got {limit}"
            )
        self.limit = limit
        self._active = 0
        self._shed_total = 0
        self._lock = threading.Lock()

    def acquire(self) -> None:
        with self._lock:
            if self.limit is not None and self._active >= self.limit:
                self._shed_total += 1
                raise LoadShedError(
                    f"request shed: {self._active} request(s) already "
                    f"admitted (shed_after={self.limit})"
                )
            self._active += 1

    def release(self) -> None:
        with self._lock:
            if self._active <= 0:
                raise ConfigurationError(
                    "admission gate released more than acquired"
                )
            self._active -= 1

    @property
    def active(self) -> int:
        with self._lock:
            return self._active

    @property
    def shed_total(self) -> int:
        with self._lock:
            return self._shed_total

    def __enter__(self) -> "AdmissionGate":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:
        return (
            f"AdmissionGate(limit={self.limit}, active={self.active})"
        )


class ServiceState:
    """Everything the handlers share; no HTTP types in here."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        #: the ambient clock at construction, re-installed by the HTTP
        #: layer in every handler thread: context vars do not cross
        #: thread boundaries, so without this a server started under
        #: REPRO_MANUAL_CLOCK would still measure handler work on the
        #: system clock -- breaking byte-identical kill/resume runs
        self.clock = current_clock()
        self.metrics = MetricsRegistry()
        self.breakers = CircuitBreakerBoard()
        quota = config.quota
        if (
            quota is None
            and config.quota_file is not None
            and config.quota_file.exists()
        ):
            # the initial spec comes from the reloadable file; a
            # malformed file at *startup* fails loudly (exit 2) --
            # only later reloads degrade to keeping the old spec
            text = config.quota_file.read_text(encoding="utf-8").strip()
            if text:
                quota = QuotaSpec.parse(text)
        self.quotas = QuotaRegistry(quota)
        self.gate = AdmissionGate(config.shed_after)
        self.cancel = CancellationToken()
        self.ready = threading.Event()
        self.draining = False
        self._drain_lock = threading.Lock()
        self._databases: dict[str, dict[str, Any]] = {}
        self._db_objects: dict[str, Database] = {}
        self._caches: dict[str, EvaluationCache] = {}
        self._engines: OrderedDict[
            tuple[str, str], tuple[Any, NedExplain]
        ] = OrderedDict()
        self._registry_lock = threading.RLock()
        #: recovery problems, surfaced on /readyz (the server starts
        #: regardless; a stuck manifest must not block the healthy ones)
        self._recovery_errors: list[str] = []
        #: the persistence layer; ``None`` disables journaling and
        #: recovery entirely (storage kind "none")
        self.backend: StorageBackend | None = None
        #: the :class:`~repro.storage.backend.RecoveryReport` of the
        #: startup storage scan (``None`` without a backend)
        self.storage_recovery = None
        kind = config.resolved_storage
        if kind != "none":
            if config.journal_dir is not None:
                config.journal_dir.mkdir(parents=True, exist_ok=True)
            self.backend = open_backend(
                kind, root=config.journal_dir, metrics=self.metrics
            )
            # storage-level recovery runs before anything reads the
            # directory: stray temp files are quarantined and a corrupt
            # databases.json is repaired from its newest valid snapshot
            self.storage_recovery = self.backend.recover()
            self._load_registrations()

    # ------------------------------------------------------------------
    # Database registry
    # ------------------------------------------------------------------
    def register_database(self, body: Mapping[str, Any]) -> dict:
        """Register (or re-register) a database and warm it.

        ``body`` carries ``name`` plus a source: ``use_case_db`` (one
        of the paper's evaluation databases, optionally scaled) or
        ``csv_dir`` (a directory of CSV files on the server host).
        Optional ``warm``: a list of SQL texts whose canonical trees
        and shared evaluations are primed right now, so the first
        explain against them pays no cold-start cost.
        """
        name = body.get("name")
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ConfigurationError(
                f"database name must match {_NAME_RE.pattern}, got "
                f"{name!r}"
            )
        source = {
            key: body[key]
            for key in ("use_case_db", "csv_dir", "scale")
            if key in body
        }
        database = self._build_database(source)
        with self._registry_lock:
            self._db_objects[name] = database
            self._caches[name] = EvaluationCache()
            # drop engines warmed against a previous registration
            self._engines = OrderedDict(
                (key, value)
                for key, value in self._engines.items()
                if key[0] != name
            )
            self._databases[name] = dict(source)
        warmed = []
        for sql in body.get("warm", ()):  # prime engines eagerly
            canonical, engine = self.engine_for(name, sql)
            engine.cache.get_or_evaluate(
                canonical.root,
                engine.instance,
                canonical.aliases,
            )
            warmed.append(sql)
        self._persist_registrations()
        self.metrics.counter("service.databases.registered").inc()
        return {
            "name": name,
            "source": dict(source),
            "relations": len(database.table_names()),
            "warmed_queries": warmed,
        }

    @staticmethod
    def _build_database(source: Mapping[str, Any]) -> Database:
        use_case_db = source.get("use_case_db")
        csv_dir = source.get("csv_dir")
        if (use_case_db is None) == (csv_dir is None):
            raise ConfigurationError(
                "a database source needs exactly one of use_case_db / "
                "csv_dir"
            )
        if use_case_db is not None:
            from ..workloads.usecases import DATABASES

            builder = DATABASES.get(use_case_db)
            if builder is None:
                raise ConfigurationError(
                    f"unknown use-case database {use_case_db!r}; "
                    f"choose from {', '.join(DATABASES)}"
                )
            return builder(scale=int(source.get("scale", 1)))
        return load_database(csv_dir)

    def database(self, name: str) -> Database:
        with self._registry_lock:
            database = self._db_objects.get(name)
        if database is None:
            raise ServiceError(
                f"unknown database {name!r}; register it via "
                "POST /v1/databases first",
                status=404,
            )
        return database

    def databases_document(self) -> dict:
        with self._registry_lock:
            return {
                name: {
                    "source": dict(source),
                    "relations": len(
                        self._db_objects[name].table_names()
                    ),
                }
                for name, source in sorted(self._databases.items())
            }

    def engine_for(
        self, database_name: str, sql: str
    ) -> tuple[Any, NedExplain]:
        """The warm engine for (database, query), created on first use.

        Engines share their database's :class:`EvaluationCache`, so
        repeated questions against one query hit the shared bottom-up
        evaluation exactly as ``explain_many`` batches do.  The registry
        holds at most :data:`ENGINE_CAPACITY` engines and evicts the
        least recently used (counted by ``service.engines.evicted``).
        """
        if not isinstance(sql, str) or not sql.strip():
            raise ConfigurationError("sql must be a non-empty string")
        database = self.database(database_name)
        key = (database_name, sql)
        with self._registry_lock:
            cached = self._engines.get(key)
            if cached is not None:
                self._engines.move_to_end(key)
                return cached
            canonical = sql_to_canonical(sql, database.schema)
            engine = NedExplain(
                canonical,
                database=database,
                cache=self._caches[database_name],
            )
            self._engines[key] = (canonical, engine)
            self.metrics.counter("service.engines.warmed").inc()
            while len(self._engines) > ENGINE_CAPACITY:
                self._engines.popitem(last=False)
                self.metrics.counter("service.engines.evicted").inc()
            return canonical, engine

    # ------------------------------------------------------------------
    # Registration persistence (storage backend only)
    # ------------------------------------------------------------------
    _REGISTRATIONS_DOC = "databases.json"

    def _persist_registrations(self) -> None:
        if self.backend is None:
            return
        with self._registry_lock:
            snapshot = {
                name: dict(source)
                for name, source in self._databases.items()
            }
        self.backend.write_document(self._REGISTRATIONS_DOC, snapshot)
        # a checksummed generation: startup recovery repairs a corrupt
        # primary databases.json from the newest valid one
        self.backend.write_snapshot("databases", snapshot)

    def _load_registrations(self) -> None:
        if self.backend is None:
            return
        try:
            stored = self.backend.read_document(self._REGISTRATIONS_DOC)
        except StorageError as exc:
            # backend.recover() already tried snapshot repair; with no
            # valid generation left this is genuinely unrecoverable
            raise ConfigurationError(
                f"persisted registrations "
                f"{self.backend.path_of(self._REGISTRATIONS_DOC)} are "
                f"corrupt: {exc}; move the file aside to start fresh"
            ) from exc
        if stored is None:
            return
        for name, source in stored.items():
            self.register_database({"name": name, **source})

    # ------------------------------------------------------------------
    # Explain (single question)
    # ------------------------------------------------------------------
    def explain_single(self, body: Mapping[str, Any]) -> dict:
        """One question, one report; degraded answers are explicit.

        The per-request deadline (``budget.deadline_ms`` or the
        ``X-Deadline-Ms`` header, already folded into ``body`` by the
        HTTP layer) becomes a :class:`~repro.robustness.Budget`: on
        exhaustion the engine returns a *partial* report and the
        envelope says so (``degradation_level: "partial"``), which the
        server maps to a 206 response -- a bounded-latency degraded
        answer, never a hang.
        """
        question = body.get("why_not")
        if not isinstance(question, str) or not question.strip():
            raise ConfigurationError(
                "why_not must be a non-empty predicate string"
            )
        budget = Budget.from_request(body.get("budget"))
        canonical, engine = self.engine_for(
            self._required_str(body, "database"),
            self._required_str(body, "sql"),
        )
        report = engine.explain(question, budget=budget)
        document: dict[str, Any] = {
            "question": question,
            "degradation_level": "partial" if report.partial else "full",
            "report": report.to_dict(),
        }
        if body.get("baseline"):
            try:
                baseline = WhyNotBaseline(
                    canonical,
                    database=self.database(body["database"]),
                    cache=engine.cache,
                )
                document["baseline"] = baseline.explain(
                    question
                ).summary()
            except UnsupportedQueryError as exc:
                document["baseline"] = f"n.a. ({exc})"
        return document

    # ------------------------------------------------------------------
    # Explain (batch, journaled)
    # ------------------------------------------------------------------
    def explain_batch(self, body: Mapping[str, Any]) -> tuple[dict, bool]:
        """A batch request: validate, journal the manifest, run, persist.

        Returns ``(document, fresh)``; ``fresh`` is False when the
        request id already has a completed result (idempotent retry:
        the stored result is served, nothing re-runs).
        """
        questions = body.get("why_not")
        if (
            not isinstance(questions, list)
            or not questions
            or not all(
                isinstance(q, str) and q.strip() for q in questions
            )
        ):
            raise ConfigurationError(
                "why_not must be a non-empty list of predicate strings"
            )
        request_id = body.get("request_id") or uuid.uuid4().hex[:16]
        if not _REQUEST_ID_RE.match(str(request_id)):
            raise ConfigurationError(
                f"request_id must match {_REQUEST_ID_RE.pattern}, got "
                f"{request_id!r}"
            )
        manifest = dict(body)
        manifest["request_id"] = request_id
        # validate the engine inputs before making the request durable
        self.engine_for(
            self._required_str(body, "database"),
            self._required_str(body, "sql"),
        )
        Budget.from_request(body.get("budget"))
        if self.backend is not None:
            existing = self._stored_result(request_id)
            if existing is not None:
                return existing, False
            self.backend.write_document(
                self._manifest_name(request_id), manifest
            )
        document = self._run_batch(manifest)
        return document, True

    @staticmethod
    def _manifest_name(request_id: str) -> str:
        return f"{request_id}.request.json"

    @staticmethod
    def _result_name(request_id: str) -> str:
        return f"{request_id}.result.json"

    @staticmethod
    def _journal_name(request_id: str) -> str:
        return f"{request_id}.journal.jsonl"

    def _stored_result(self, request_id: str) -> dict | None:
        if self.backend is None:
            return None
        try:
            return self.backend.read_document(
                self._result_name(request_id)
            )
        except StorageError:
            # a torn/corrupt result is quarantined (evidence, never
            # deleted); its manifest is still present, so recovery
            # re-runs the batch and writes a fresh result
            self.backend.quarantine(self._result_name(request_id))
            self.metrics.counter("service.results.corrupt").inc()
            return None

    def batch_result(self, request_id: str) -> dict:
        """The stored result of *request_id* (404 when unknown,
        409-shaped answer while it is still in flight)."""
        if not _REQUEST_ID_RE.match(str(request_id)):
            raise ConfigurationError(
                f"request_id must match {_REQUEST_ID_RE.pattern}"
            )
        stored = self._stored_result(request_id)
        if stored is not None:
            return stored
        if self.backend is not None and self.backend.exists(
            self._manifest_name(request_id)
        ):
            raise ServiceError(
                f"batch {request_id} is journaled but not finished -- "
                "in flight, or awaiting crash recovery",
                status=409,
            )
        raise ServiceError(
            f"unknown batch request {request_id!r}", status=404
        )

    def _run_batch(self, manifest: Mapping[str, Any]) -> dict:
        request_id = manifest["request_id"]
        questions = list(manifest["why_not"])
        workers = min(
            int(manifest.get("workers", 1)), self.config.workers
        )
        budget = Budget.from_request(manifest.get("budget"))
        batch_deadline = manifest.get("batch_deadline_ms")
        _, engine = self.engine_for(
            manifest["database"], manifest["sql"]
        )
        journal = None
        if self.backend is not None:
            journal = self.backend.journal(
                self._journal_name(request_id), resume=True
            )
        try:
            outcomes = engine.explain_each(
                questions,
                budget=budget,
                breakers=self.breakers,
                journal=journal,
                workers=workers,
                shed_after=manifest.get("shed_after"),
                batch_deadline_s=(
                    float(batch_deadline) / 1000.0
                    if batch_deadline is not None
                    else None
                ),
                cancel=self.cancel,
            )
            replayed = journal.replayable_count if journal else 0
        finally:
            if journal is not None:
                journal.close()
        levels = [o.degradation_level for o in outcomes]
        worst = max(
            levels, key=lambda level: DEGRADATION_SEVERITY[level]
        )
        stats = engine.cache.stats
        document = {
            "request_id": request_id,
            "questions": questions,
            "workers": workers,
            "degradation_level": worst,
            "replayed": replayed,
            "outcomes": [o.to_dict() for o in outcomes],
            "batch": {
                "questions": len(questions),
                "evaluations": stats.evaluations,
                "hits": stats.hits,
                "misses": stats.misses,
            },
        }
        if self.backend is not None:
            self.backend.write_document(
                self._result_name(request_id), document
            )
        self.metrics.counter("service.batches").inc()
        self.metrics.counter("service.questions").inc(len(questions))
        return document

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def recover(self) -> list[str]:
        """Re-run every journaled batch without a result; the ids.

        Runs before the service flips ready.  Each recovered batch
        resumes its own :class:`BatchJournal` -- completed questions
        replay verbatim, the remainder is computed -- so the stored
        result converges to what an uninterrupted run would have
        written.  A manifest that cannot be recovered (its database
        source vanished, say) is left in place and reported; it never
        blocks the server from starting.
        """
        if self.backend is None:
            return []
        recovered: list[str] = []
        for manifest_name in self.backend.list_documents(
            ".request.json"
        ):
            request_id = manifest_name[: -len(".request.json")]
            if self.backend.exists(
                self._result_name(request_id)
            ):
                continue
            try:
                manifest = self.backend.read_document(manifest_name)
                if manifest is None:
                    continue  # raced away between list and read
                self._run_batch(manifest)
            except (ReproError, OSError, json.JSONDecodeError) as exc:
                self.metrics.counter(
                    "service.recovery.failed"
                ).inc()
                self._recovery_errors.append(
                    f"{request_id}: {type(exc).__name__}: {exc}"
                )
                continue
            recovered.append(request_id)
            self.metrics.counter("service.recovery.batches").inc()
        return recovered

    # ------------------------------------------------------------------
    # Config hot reload
    # ------------------------------------------------------------------
    def reload_config(self) -> dict:
        """Re-read the quota file and swap the registry's spec.

        Triggered by SIGHUP or ``POST /v1/admin/reload``.  A missing,
        unreadable, or malformed quota file keeps the old spec in
        force and bumps ``config.reload_failed`` -- a bad reload must
        degrade to "nothing changed", never to "quotas off".  An
        *empty* quota file is an explicit request to disable quotas.
        """
        if self.config.quota_file is None:
            return {
                "reloaded": False,
                "reason": "no --quota-file configured",
            }
        try:
            text = self.config.quota_file.read_text(
                encoding="utf-8"
            ).strip()
            spec = QuotaSpec.parse(text) if text else None
        except (OSError, ReproError) as exc:
            self.metrics.counter("config.reload_failed").inc()
            return {
                "reloaded": False,
                "error": f"{type(exc).__name__}: {exc}",
                "quota": str(self.quotas.spec)
                if self.quotas.spec
                else None,
            }
        self.quotas.reconfigure(spec)
        self.metrics.counter("config.reloads").inc()
        return {
            "reloaded": True,
            "quota": str(spec) if spec is not None else None,
        }

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def begin_drain(self, reason: str) -> bool:
        """Flip the service into draining; True iff this call did it.

        Readiness goes 503 immediately; in-flight batch executors see
        the shared :class:`CancellationToken` and finish their running
        questions while cancelling unstarted ones (the executor's
        cooperative-drain path); unstarted questions are *not*
        journaled, so a later restart recomputes them.
        """
        with self._drain_lock:
            if self.draining:
                return False
            self.draining = True
        self.cancel.cancel(reason)
        self.metrics.counter("service.drains").inc()
        return True

    def wait_idle(self, timeout_s: float) -> bool:
        """Wait (real time) for admitted requests to finish."""
        import time

        deadline = time.monotonic() + timeout_s
        while self.gate.active > 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.02)
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health_document(self) -> dict:
        return {
            "status": "alive",
            "draining": self.draining,
            "active_requests": self.gate.active,
        }

    def ready_document(self) -> tuple[bool, dict]:
        open_sites = self.breakers.open_sites()
        ready = (
            self.ready.is_set() and not self.draining and not open_sites
        )
        status = "ready"
        if not self.ready.is_set():
            status = "starting"
        elif self.draining:
            status = "draining"
        elif open_sites:
            status = "breaker-open"
        document = {
            "status": status,
            "draining": self.draining,
            "open_breakers": open_sites,
            "storage": (
                self.backend.describe()
                if self.backend is not None
                else {"kind": "none"}
            ),
        }
        if self.storage_recovery is not None and (
            self.storage_recovery.quarantined
            or self.storage_recovery.repaired
        ):
            document["storage_recovery"] = (
                self.storage_recovery.to_dict()
            )
        if self._recovery_errors:
            document["recovery_errors"] = list(self._recovery_errors)
        return ready, document

    def metrics_document(self) -> dict:
        """The /metrics payload: service counters + cache/breaker state."""
        self.metrics.gauge("service.active_requests").set(
            float(self.gate.active)
        )
        self.metrics.gauge("service.shed_total").set(
            float(self.gate.shed_total)
        )
        with self._registry_lock:
            caches = dict(self._caches)
            self.metrics.gauge("service.engines.held").set(
                float(len(self._engines))
            )
        for name, cache in sorted(caches.items()):
            stats = cache.stats
            for stat in ("hits", "misses", "evaluations", "evictions"):
                self.metrics.gauge(
                    f"service.cache.{name}.{stat}"
                ).set(float(getattr(stats, stat)))
        snapshot = self.metrics.snapshot()
        return {
            "metrics": snapshot,
            "breakers": self.breakers.states(),
            "draining": self.draining,
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _required_str(body: Mapping[str, Any], key: str) -> str:
        value = body.get(key)
        if not isinstance(value, str) or not value.strip():
            raise ConfigurationError(
                f"request body needs a non-empty {key!r} string"
            )
        return value
