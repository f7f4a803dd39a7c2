"""Per-use-case measurement runner for the evaluation harness.

Runs one use case with NedExplain and/or the Why-Not baseline and
collects answers plus phase timings -- the raw material of the paper's
Table 5 (answers), Fig. 5 (NedExplain phase distribution) and Fig. 6
(total runtime comparison).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..baseline import WhyNotBaseline, WhyNotBaselineReport
from ..core import NedExplain, NedExplainConfig, NedExplainReport
from ..errors import (
    BudgetExceededError,
    ConfigurationError,
    UnsupportedQueryError,
)
from ..obs import Tracer, counter_values, tracing
from ..obs.clock import perf_counter
from ..robustness.budget import (
    Budget,
    ExecutionContext,
    execution_context,
)
from ..robustness.resilience import RetryPolicy
from ..workloads.usecases import UseCase, use_case_setup


@dataclass
class UseCaseResult:
    """Measured outcome of one use case."""

    use_case: UseCase
    ned: NedExplainReport
    whynot: WhyNotBaselineReport | None = None
    whynot_na: bool = False

    @property
    def ned_total_ms(self) -> float:
        return self.ned.total_time_ms

    @property
    def whynot_total_ms(self) -> float | None:
        if self.whynot is None:
            return None
        return self.whynot.total_time_ms

    def ned_answer_text(self) -> str:
        parts = []
        for answer in self.ned.answers:
            if answer.no_compatible_data:
                parts.append("{}")
                continue
            rendered = ", ".join(repr(e) for e in answer.detailed)
            parts.append("{" + rendered + "}")
        return " ; ".join(parts)

    def whynot_answer_text(self) -> str:
        if self.whynot_na:
            return "n.a."
        assert self.whynot is not None
        if self.whynot.is_empty():
            return "(none)"
        return ", ".join(self.whynot.answer_labels)


def run_use_case(
    name: str,
    scale: int = 1,
    run_baseline: bool = True,
    config: NedExplainConfig | None = None,
    budget: Budget | None = None,
    retry: RetryPolicy | None = None,
    workers: int = 1,
) -> UseCaseResult:
    """Run one named use case with both algorithms.

    With a *budget*, NedExplain degrades to a partial report on
    exhaustion (``result.ned.partial``); the baseline, which has no
    partial-answer notion, is marked n.a. when its budget runs out so
    a runaway baseline cannot stall a benchmark sweep.  With a *retry*
    policy, the NedExplain run goes through the resilient
    :meth:`~repro.core.nedexplain.NedExplain.explain_each` path --
    transient faults (e.g. an injected chaos plan during a soak sweep)
    are retried instead of aborting the benchmark.  With *workers* > 1
    the same path runs under the supervised parallel executor, which
    sweeps use to sanity-check that parallel answers match sequential
    ones.
    """
    use_case, database, canonical = use_case_setup(name, scale)
    ned_engine = NedExplain(canonical, database=database, config=config)
    if retry is not None or workers > 1:
        (outcome,) = ned_engine.explain_each(
            [use_case.predicate],
            budget=budget,
            retry=retry,
            workers=workers,
        )
        if outcome.report is None:
            assert outcome.error is not None
            raise outcome.error
        ned_report = outcome.report
    else:
        ned_report = ned_engine.explain(use_case.predicate, budget=budget)

    whynot_report: WhyNotBaselineReport | None = None
    whynot_na = False
    if run_baseline:
        try:
            baseline = WhyNotBaseline(canonical, database=database)
            whynot_report = baseline.explain(
                use_case.predicate, budget=budget
            )
        except (UnsupportedQueryError, BudgetExceededError):
            whynot_na = True
    return UseCaseResult(
        use_case=use_case,
        ned=ned_report,
        whynot=whynot_report,
        whynot_na=whynot_na,
    )


@dataclass(frozen=True)
class Measurement:
    """One benchmark's raw measurement: timing samples + counters.

    ``samples_ms`` are the wall-clock repeats (reduce them with
    :func:`reduce_samples`); ``counters`` is the deterministic counter
    snapshot of one dedicated traced run -- exact work accounting
    (``budget.rows``, ``budget.comparisons``, cache hits/misses,
    traversal steps) that does not vary with repeats or host speed.
    """

    name: str
    samples_ms: tuple[float, ...]
    counters: Mapping[str, int]

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)

    @property
    def mad_ms(self) -> float:
        return mad(self.samples_ms)


def mad(samples: "tuple[float, ...] | list[float]") -> float:
    """Median absolute deviation -- the robust noise width the gate
    uses for its bands (a single outlier repeat cannot widen it the
    way it would a standard deviation)."""
    if not samples:
        raise ConfigurationError("mad() of an empty sample set")
    center = statistics.median(samples)
    return statistics.median(abs(s - center) for s in samples)


def reduce_samples(
    samples: "tuple[float, ...] | list[float]",
) -> tuple[float, float]:
    """``(median, MAD)`` of a sample list (the gate's reduction)."""
    noise = mad(samples)  # validates non-emptiness
    return statistics.median(samples), noise


def measure(
    factory: Callable[[], Callable[[], object]],
    *,
    name: str,
    repeats: int = 5,
    warmup: int = 1,
) -> Measurement:
    """Measure one benchmark with warmups, repeats, and a counter run.

    *factory* builds a fresh zero-argument callable per run (a fresh
    engine, so every sample measures the cold path and no state leaks
    between samples).  The protocol is:

    1. *warmup* untimed runs (lazy indexes, interning, import costs);
    2. *repeats* timed runs collected as ``samples_ms``;
    3. one final run under a private tracer and an unlimited budget
       context, whose counter snapshot becomes ``counters``.

    The counter run is separate from the timed runs on purpose: tracing
    costs ~17% wall-clock, and the counters of a deterministic
    benchmark do not change across repeats.
    """
    if repeats < 1:
        raise ConfigurationError(
            f"repeats must be positive, got {repeats!r}"
        )
    if warmup < 0:
        raise ConfigurationError(
            f"warmup must be non-negative, got {warmup!r}"
        )
    for _ in range(warmup):
        factory()()
    samples = []
    for _ in range(repeats):
        call = factory()
        started = perf_counter()
        call()
        samples.append((perf_counter() - started) * 1000.0)
    tracer = Tracer()
    with tracing(tracer):
        # An explicit (unlimited) budget context makes the execution
        # layers mirror row/comparison ticks into the tracer's
        # budget.* counters even for engines that would not install
        # a context themselves.
        with execution_context(ExecutionContext(Budget())):
            factory()()
    counters = counter_values(tracer.metrics.snapshot())
    return Measurement(
        name=name, samples_ms=tuple(samples), counters=counters
    )


def use_case_factory(
    name: str,
    algorithm: str = "ned",
    scale: int = 1,
) -> Callable[[], Callable[[], object]]:
    """A :func:`measure` factory for one Table 4 use case.

    *algorithm* is ``"ned"`` (NedExplain) or ``"whynot"`` (the Why-Not
    baseline; raises :class:`~repro.errors.UnsupportedQueryError` for
    aggregation queries the baseline cannot trace).
    """
    from ..relational import EvaluationCache

    if algorithm not in ("ned", "whynot"):
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; expected 'ned' or "
            "'whynot'"
        )
    use_case, database, canonical = use_case_setup(name, scale)
    if algorithm == "whynot":
        # fail fast (unsupported query shape) at factory-build time
        WhyNotBaseline(canonical, database=database)

    def build() -> Callable[[], object]:
        if algorithm == "ned":
            # a private cache per run: every sample measures the cold
            # path and the counter run cannot be perturbed by whatever
            # the process-global default cache happens to hold
            runner = NedExplain(
                canonical,
                database=database,
                cache=EvaluationCache(),
            )
        else:
            runner = WhyNotBaseline(
                canonical,
                database=database,
                cache=EvaluationCache(),
            )
        return lambda: runner.explain(use_case.predicate)

    return build


def run_all(
    scale: int = 1,
    config: NedExplainConfig | None = None,
    budget: Budget | None = None,
) -> list[UseCaseResult]:
    """Run every use case of Table 4."""
    from ..workloads.usecases import USE_CASES

    return [
        run_use_case(uc.name, scale=scale, config=config, budget=budget)
        for uc in USE_CASES
    ]
