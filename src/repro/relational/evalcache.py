"""Shared evaluation cache: evaluate once, explain many times.

NedExplain's debugging loop (Alg. 1) re-evaluates the whole query tree
for every why-not question, yet in an interactive session (and in the
paper's own Table 4 workload) many questions target the *same* query
over the *same* instance.  This module provides the shared substrate:

* cache keys combine a **structural fingerprint** of ``(Q, eta_Q)``
  (:func:`repro.relational.algebra.query_fingerprint`) with the data
  identity/version key of the instance
  (:attr:`repro.relational.instance.DatabaseInstance.data_key`), so

  - structurally equal query trees share entries, and
  - any mutation of the underlying data invalidates by key change;

* entries are managed LRU with hit/miss/eviction counters, making the
  "N questions, 1 evaluation" claim *assertable* (the batch benchmark
  and the differential test suite both do);

* cached :class:`~repro.relational.evaluator.EvaluationResult` objects
  hold strong references to their query nodes, so the ``id()``-keyed
  per-node maps stay sound for the lifetime of the entry; a hit against
  a structurally equal but distinct tree is re-keyed via
  :meth:`~repro.relational.evaluator.EvaluationResult.rebind`.

Cached results are shared -- callers must treat them as immutable and
copy tuple lists before modifying them (TabQ does).

The cache is **thread-safe with single-flight misses**: one reentrant
lock guards lookups, LRU mutation, the stats counters, and the miss
evaluation itself, so N worker threads asking for the same key perform
exactly one evaluation (the others block briefly and then hit) and the
hit/miss/store/eviction counters stay exact under any interleaving.
In the repo's locking order (see docs/robustness.md) the cache lock is
the outermost engine lock: code holding it may take the fault-plan and
metrics locks, never the reverse.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ConfigurationError
from ..obs.trace import current_tracer
from ..robustness.faults import fault_point
from .algebra import Query, query_fingerprint
from .evaluator import EvaluationResult, evaluate
from .instance import DatabaseInstance

#: Default entry bound of an :class:`EvaluationCache`.  A service
#: database serving unseen SQL per batch never hits an old entry
#: again, so the bound caps the results it keeps alive; a warm
#: workload's handful of queries stays well inside it.
CACHE_MAXSIZE = 32


@dataclass
class CacheStats:
    """Observable counters of one :class:`EvaluationCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: full query evaluations actually performed (== misses, kept
    #: separate so tests can assert the headline claim directly)
    evaluations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = self.evaluations = 0

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, evaluations={self.evaluations})"
        )


@dataclass
class EvaluationCache:
    """LRU cache of query evaluations, keyed by structure + data.

    Parameters
    ----------
    maxsize:
        Maximum number of retained :class:`EvaluationResult` entries;
        the least recently used entry is evicted beyond that.
    """

    maxsize: int = CACHE_MAXSIZE
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.maxsize < 1:
            raise ConfigurationError("cache maxsize must be at least 1")
        self._entries: OrderedDict[tuple, EvaluationResult] = OrderedDict()
        # Reentrant: a miss evaluation can re-enter get_or_evaluate
        # (nested subquery evaluation through the same cache).
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @staticmethod
    def key_for(
        root: Query,
        instance: DatabaseInstance,
        aliases: Mapping[str, str] | None = None,
    ) -> tuple:
        """The cache key: fingerprint of ``(Q, eta_Q)`` + data key."""
        return (query_fingerprint(root, aliases), instance.data_key)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get_or_evaluate(
        self,
        root: Query,
        instance: DatabaseInstance,
        aliases: Mapping[str, str] | None = None,
    ) -> EvaluationResult:
        """Serve the evaluation of *root* over *instance* from cache.

        On a miss the tree is evaluated (lineage-tracing, exactly as
        :func:`~repro.relational.evaluator.evaluate`) and the result
        retained.  On a hit against a structurally equal but distinct
        tree object, the result is re-keyed onto the caller's nodes.

        Aborted evaluations never pollute the cache: ``evaluate`` may
        raise (budget exhaustion, injected fault) *before* the entry is
        stored, so every retained result is complete and the counters
        stay consistent -- an aborted miss is a miss without an
        evaluation, and a fault at the store site drops the entry but
        keeps the evaluation count honest.

        Misses are **single-flight**: the cache lock is held across the
        evaluation, so concurrent requests for one key produce exactly
        one evaluation -- the first thread in misses and stores, the
        rest hit the stored entry.  (Requests for *different* keys do
        serialize behind a long evaluation; per-question why-not work
        dominates evaluation time in a batch, so the trade keeps the
        "N questions, 1 evaluation" claim exact instead of racy.)
        """
        with self._lock:
            fault_point("cache.lookup")
            tracer = current_tracer()
            key = self.key_for(root, instance, aliases)
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                if tracer is not None:
                    tracer.metrics.counter("cache.hits").inc()
                return self._rebound(cached, root)
            self.stats.misses += 1
            if tracer is None:
                result = evaluate(root, instance)
            else:
                tracer.metrics.counter("cache.misses").inc()
                with tracer.span(
                    "evaluate", category="cache", fingerprint=key[0][:12]
                ):
                    result = evaluate(root, instance)
            self.stats.evaluations += 1
            fault_point("cache.store")
            self._entries[key] = result
            if tracer is not None:
                tracer.metrics.counter("cache.stores").inc()
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                if tracer is not None:
                    tracer.metrics.counter("cache.evictions").inc()
            return self._rebound(result, root)

    @staticmethod
    def _rebound(entry: EvaluationResult, root: Query) -> EvaluationResult:
        """The entry, re-keyed onto the caller's tree if needed."""
        if entry.root is root:
            return entry
        return entry.rebind(root)

    def peek(self, key: tuple) -> EvaluationResult | None:
        """The entry under *key*, without touching LRU order or stats."""
        with self._lock:
            return self._entries.get(key)

    def check_invariants(self) -> None:
        """Assert the cache is in a consistent, uncorrupted state.

        Used by the chaos suite after every seeded fault plan: counter
        arithmetic must add up, the LRU bound must hold, and every
        retained entry must be *complete* (all nodes of its tree were
        evaluated -- no partial result survived an aborted run).
        Raises :class:`AssertionError` on violation.  Takes the cache
        lock, so it sees a consistent point-in-time state even while
        worker threads keep using the cache.
        """
        with self._lock:
            assert (
                self.stats.lookups == self.stats.hits + self.stats.misses
            )
            assert 0 <= self.stats.evaluations <= self.stats.misses
            assert len(self._entries) <= self.maxsize
            entries = list(self._entries.values())
        for entry in entries:
            for node in entry.root.postorder():
                entry.output(node)  # raises EvaluationError if missing

    def clear(self) -> None:
        """Drop all entries (counters are kept; use ``stats.reset()``)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        return (
            f"EvaluationCache({len(self._entries)}/{self.maxsize} "
            f"entries, {self.stats!r})"
        )


#: Process-wide default cache shared by NedExplain, the Why-Not
#: baseline, and ``repro.explain_batch`` unless a private cache is
#: passed explicitly.
DEFAULT_CACHE = EvaluationCache(maxsize=CACHE_MAXSIZE)


def get_default_cache() -> EvaluationCache:
    """The process-wide shared :class:`EvaluationCache`."""
    return DEFAULT_CACHE
