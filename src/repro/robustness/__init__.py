"""Robustness subsystem: execution budgets, fault isolation, chaos.

Production why-not services must fail cleanly and degrade gracefully
(cf. PUG's middleware engineering and the bounded-effort summaries of
Lee et al. 2020).  This package provides the three pieces:

* :mod:`~repro.robustness.budget` -- :class:`Budget` /
  :class:`ExecutionContext`: cooperative wall-clock / row / comparison
  limits threaded through every execution layer; exhaustion raises
  :class:`~repro.errors.BudgetExceededError` and NedExplain turns it
  into an explicit *degraded* report instead of nothing;
* :mod:`~repro.robustness.outcomes` -- :class:`QuestionOutcome` /
  :class:`FailureInfo`: the total, per-question result type of
  fault-isolated batches (``NedExplain.explain_each`` /
  ``repro.explain_batch``);
* :mod:`~repro.robustness.faults` -- :class:`FaultPlan` and the
  :func:`fault_point` sites: deterministic, seedable fault injection
  used by the chaos test suite to prove failure containment.

The resilience layer on top makes failures *recoverable*, not just
contained:

* :mod:`~repro.robustness.resilience` -- :class:`RetryPolicy`
  (exponential backoff, deterministic jitter, clock-injected waits)
  and the :class:`DegradationLadder` (full report -> partial report ->
  Why-Not baseline answer -> structured failure);
* :mod:`~repro.robustness.breaker` -- per-fault-site
  :class:`CircuitBreaker`\\ s that stop retries from hammering a
  persistently failing site;
* :mod:`~repro.robustness.journal` -- :class:`BatchJournal`, the
  fsync-per-record write-ahead log that lets a killed batch resume
  where it died;
* :mod:`~repro.robustness.executor` -- :class:`ParallelExecutor` /
  :class:`CancellationToken`: the supervised worker pool behind
  ``NedExplain.explain_each(workers=N)``, with bounded-queue
  backpressure, deterministic load shedding, batch deadlines, and
  graceful signal-triggered drains.
"""

from ..errors import (
    BatchError,
    BudgetExceededError,
    CancelledError,
    ConfigurationError,
    InjectedFaultError,
    JournalError,
    LoadShedError,
)
from .budget import (
    Budget,
    BudgetSpent,
    ExecutionContext,
    current_context,
    execution_context,
)
from .executor import CancellationToken, ParallelExecutor
from .faults import (
    ALL_FAULT_SITES,
    FAULT_KINDS,
    FAULT_SCOPES,
    FAULT_SITES,
    IO_FAULT_SITES,
    FaultPlan,
    FaultSpec,
    active_plan,
    fault_point,
    fault_scope,
    inject,
)
from .breaker import CircuitBreaker, CircuitBreakerBoard
from .journal import BatchJournal, question_digest
from .outcomes import (
    DEGRADATION_LEVELS,
    FailureInfo,
    QuestionOutcome,
    ReplayedOutcome,
)
from .resilience import DegradationLadder, RetryPolicy

__all__ = [
    "BatchError",
    "BatchJournal",
    "Budget",
    "BudgetExceededError",
    "BudgetSpent",
    "CancellationToken",
    "CancelledError",
    "CircuitBreaker",
    "CircuitBreakerBoard",
    "ConfigurationError",
    "DEGRADATION_LEVELS",
    "DegradationLadder",
    "ExecutionContext",
    "ALL_FAULT_SITES",
    "FAULT_KINDS",
    "FAULT_SCOPES",
    "FAULT_SITES",
    "IO_FAULT_SITES",
    "FailureInfo",
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
    "JournalError",
    "LoadShedError",
    "ParallelExecutor",
    "QuestionOutcome",
    "ReplayedOutcome",
    "RetryPolicy",
    "active_plan",
    "current_context",
    "execution_context",
    "fault_point",
    "fault_scope",
    "inject",
    "question_digest",
]
