"""Benchmark registry and measurement runner for the evaluation harness.

* :func:`run_use_case` runs one use case with NedExplain and/or the
  Why-Not baseline and collects the answers (Table 5, ``repro.cli
  demo``/``evaluate``);
* :data:`SUITES` is the one list of benchmarks: Figs. 5-6 (every use
  case through NedExplain and through the Why-Not baseline), the
  batch workload and the ablations A1-A4;
* :func:`measure_interleaved` is the one timing loop (:func:`measure`
  is its one-benchmark case).  The regression gate
  (:mod:`repro.bench.gate`) runs it over the registry, and the
  ``BENCH_*`` artifacts (:mod:`repro.bench.artifacts`) are rendered
  from the gate's report, so every published number comes from the
  same measurements.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..baseline import WhyNotBaseline, WhyNotBaselineReport
from ..core import (
    NedExplain,
    NedExplainConfig,
    NedExplainReport,
    canonical_from_tree,
    canonicalize,
)
from ..core.canonical import CanonicalQuery
from ..errors import (
    BudgetExceededError,
    ConfigurationError,
    UnsupportedQueryError,
)
from ..obs import Tracer, counter_values, tracing
from ..obs.clock import perf_counter
from ..relational import (
    Aggregate,
    AggregateCall,
    Database,
    EvaluationCache,
    Join,
    RelationLeaf,
    Renaming,
    Select,
    attr_cmp,
)
from ..robustness.budget import (
    Budget,
    ExecutionContext,
    execution_context,
)
from ..robustness.resilience import RetryPolicy
from ..workloads.generator import (
    chain_database,
    chain_predicate,
    chain_query,
)
from ..workloads.usecases import (
    USE_CASES,
    UseCase,
    get_database,
    use_case_setup,
)


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
    :func:`reduce_samples`); ``phases_ms`` are the per-phase medians
    of those same timed repeats, for benchmarks whose result reports
    ``phase_times_ms`` (the Fig. 5 distribution); ``counters`` is the
    deterministic counter snapshot of one dedicated traced run --
    exact work accounting (``budget.rows``, ``budget.comparisons``,
    cache hits/misses, traversal steps) that does not vary with
    repeats or host speed -- and ``tracer`` holds that run's spans.
    """

    name: str
    samples_ms: tuple[float, ...]
    counters: Mapping[str, int]
    phases_ms: Mapping[str, float] = field(default_factory=dict)
    tracer: Tracer | None = field(default=None, compare=False)

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


#: a :func:`measure` factory: builds a fresh zero-argument run per call
Factory = Callable[[], Callable[[], object]]


def measure(
    factory: Factory,
    *,
    name: str,
    repeats: int = 5,
    warmup: int = 1,
) -> Measurement:
    """Measure one benchmark: :func:`measure_interleaved` of one."""
    (measurement,) = measure_interleaved(
        {name: factory}, repeats=repeats, warmup=warmup
    )
    return measurement


def measure_interleaved(
    factories: Mapping[str, Factory],
    *,
    repeats: int = 5,
    warmup: int = 1,
) -> list[Measurement]:
    """Measure benchmarks with warmups, repeats, and a counter run each.

    Each factory builds a fresh zero-argument callable per run (a
    fresh engine: every sample measures the cold path).  First *warmup*
    untimed runs of every benchmark; then *repeats* rounds, each timing
    one run of every benchmark in turn (``samples_ms``, plus the median
    of each phase the runs' reports time); last, one run of each under
    a private tracer and an unlimited budget context, whose counter
    snapshot becomes ``counters`` -- separate, because tracing costs
    ~17% wall-clock and a deterministic benchmark's counters do not
    change across repeats.

    Interleaving the rounds means a host slowdown lasting seconds (a
    busy neighbour on a shared machine) costs many benchmarks one
    sample each, which their medians absorb, instead of every sample
    of a few; and benchmarks compared with each other sample the same
    stretch of time.
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
        for factory in factories.values():
            factory()()
    samples: dict[str, list[float]] = {name: [] for name in factories}
    phase_samples: dict[str, dict[str, list[float]]] = {
        name: {} for name in factories
    }
    for _ in range(repeats):
        for name, factory in factories.items():
            call = factory()
            started = perf_counter()
            result = call()
            samples[name].append((perf_counter() - started) * 1000.0)
            phases = getattr(result, "phase_times_ms", {})
            for phase, ms in phases.items():
                phase_samples[name].setdefault(phase, []).append(ms)
    measurements = []
    for name, factory in factories.items():
        tracer = Tracer()
        with tracing(tracer):
            # An explicit (unlimited) budget context makes the
            # execution layers mirror row/comparison ticks into the
            # tracer's budget.* counters even for engines that would
            # not install a context themselves.
            with execution_context(ExecutionContext(Budget())):
                factory()()
        measurements.append(
            Measurement(
                name=name,
                samples_ms=tuple(samples[name]),
                counters=counter_values(tracer.metrics.snapshot()),
                phases_ms={
                    phase: statistics.median(values)
                    for phase, values in phase_samples[name].items()
                },
                tracer=tracer,
            )
        )
    return measurements


# ---------------------------------------------------------------------------
# The benchmark registry
# ---------------------------------------------------------------------------
#: Scale factor every registry benchmark runs at unless its name says
#: otherwise (small: the gate must be cheap enough to run on every change).
GATE_SCALE = 1

#: algorithm name -> (engine class, constructor options); the name is
#: the last component of a use-case benchmark's name
ALGORITHMS: dict[str, tuple[type, dict]] = {
    "ned": (NedExplain, {}),
    # ablation A3: Alg. 2's checkEarlyTermination off
    "ned_et_off": (
        NedExplain,
        {"config": NedExplainConfig(early_termination=False)},
    ),
    "whynot": (WhyNotBaseline, {}),
    # ablation A4: the Why-Not baseline's top-down traversal
    "whynot_topdown": (WhyNotBaseline, {"strategy": "top-down"}),
}


@dataclass(frozen=True)
class BenchmarkSpec:
    """One registered benchmark: a suite, a name, a measure() factory."""

    suite: str
    name: str
    factory: Factory


def _explain_factory(
    engine: type,
    canonical: CanonicalQuery,
    database: Database,
    predicate: str,
    **options,
) -> Factory:
    def build() -> Callable[[], object]:
        # a private cache per run: every sample measures the cold
        # path and the counter run cannot be perturbed by whatever
        # the process-global default cache happens to hold
        runner = engine(
            canonical, database=database, cache=EvaluationCache(), **options
        )
        return lambda: runner.explain(predicate)

    return build


def use_case_factory(
    name: str,
    algorithm: str = "ned",
    scale: int = GATE_SCALE,
) -> Factory:
    """A :func:`measure` factory for one Table 4 use case.

    *algorithm* names an :data:`ALGORITHMS` entry.  The Why-Not
    baseline raises :class:`~repro.errors.UnsupportedQueryError` for
    aggregation queries it cannot trace -- here, at factory-build
    time, not mid-measurement.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; expected one of "
            f"{', '.join(ALGORITHMS)}"
        )
    use_case, database, canonical = use_case_setup(name, scale)
    engine, options = ALGORITHMS[algorithm]
    if engine is WhyNotBaseline:
        # fail fast (unsupported query shape) at factory-build time
        engine(canonical, database=database, **options)
    return _explain_factory(
        engine, canonical, database, use_case.predicate, **options
    )


def _use_case_specs(suite: str, algorithm: str) -> list[BenchmarkSpec]:
    """*algorithm* on every Table 4 use case it supports."""
    specs = []
    for uc in USE_CASES:
        try:
            factory = use_case_factory(uc.name, algorithm)
        except UnsupportedQueryError:
            continue
        specs.append(
            BenchmarkSpec(suite, f"{uc.name}.{algorithm}", factory)
        )
    return specs


def _chain_workload(relations: int, rows: int, **options):
    database = chain_database(
        relations, rows_per_relation=rows, **options
    )
    return database, canonicalize(chain_query(relations), database.schema)


def _batch_specs() -> list[BenchmarkSpec]:
    """One shared evaluation for N questions, next to N fresh engines.

    ``batched`` runs ``explain_many`` over one private cache (one
    evaluation, every further question a cache hit);
    ``independent`` answers the same questions with a fresh engine per
    question and no shared evaluation -- the literal per-question
    loop the batch API replaces.  Both build their engines outside the
    timed region.
    """
    relations, rows = 3, 60
    database, canonical = _chain_workload(
        relations, rows, fanout=2, seed=7
    )
    predicates = [f"(R0.label: r0v{i})" for i in range(10)]
    predicates.append(chain_predicate())
    predicates.append(f"(R{relations - 1}.label: r{relations - 1}v0)")
    unshared = NedExplainConfig(use_shared_evaluation=False)

    def batched() -> Callable[[], object]:
        engine = NedExplain(
            canonical, database=database, cache=EvaluationCache()
        )
        return lambda: engine.explain_many(predicates)

    def independent() -> Callable[[], object]:
        engines = [
            NedExplain(canonical, database=database, config=unshared)
            for _ in predicates
        ]
        return lambda: [
            engine.explain(predicate)
            for engine, predicate in zip(engines, predicates)
        ]

    prefix = f"chain{relations}x{rows}"
    return [
        BenchmarkSpec("batch", f"{prefix}.batched", batched),
        BenchmarkSpec("batch", f"{prefix}.independent", independent),
    ]


#: ablation A1: database scale factors and chain-join depths
SCALES = (1, 2, 4, 8)
SCALE_USE_CASES = ("Crime1", "Gov5")
CHAIN_DEPTHS = (2, 3, 4, 5)
_CHAIN_ROWS = 120


def _scaling_specs() -> list[BenchmarkSpec]:
    """Ablation A1: runtime against database scale and chain depth."""
    specs = [
        BenchmarkSpec(
            "scaling",
            f"{name}.x{scale}.ned",
            use_case_factory(name, "ned", scale),
        )
        for name in SCALE_USE_CASES
        for scale in SCALES
    ]
    for depth in CHAIN_DEPTHS:
        database, canonical = _chain_workload(depth, _CHAIN_ROWS)
        specs.append(
            BenchmarkSpec(
                "scaling",
                f"chain_depth{depth}.ned",
                _explain_factory(
                    NedExplain, canonical, database, chain_predicate()
                ),
            )
        )
    return specs


def pushed_down_q8() -> CanonicalQuery:
    """Q8 with ``sigma_{sector>80}`` pushed below the joins.

    The classic optimizer placement, against the paper's canonical
    tree that keeps the selection above the breakpoint V (Sec. 3.1,
    step 2b).  Below V the count never changes between a subquery's
    input and output, so Crime9's ``(null, sigma)`` answer is lost.
    """
    db = get_database("crime")

    def leaf(table: str) -> RelationLeaf:
        return RelationLeaf(db.table(table).schema)

    crime = Select(leaf("Crime"), attr_cmp("Crime.sector", ">", 80))
    join0 = Join(
        leaf("Person"),
        leaf("Saw"),
        Renaming.of(
            ("Person.hair", "Saw.hair", "hair"),
            ("Person.clothes", "Saw.clothes", "clothes"),
        ),
    )
    join1 = Join(
        join0,
        leaf("Witness"),
        Renaming.of(("Saw.witnessName", "Witness.name", "witnessName")),
    )
    join2 = Join(
        join1,
        crime,
        Renaming.of(("Witness.sector", "Crime.sector", "sector")),
    )
    root = Aggregate(
        join2,
        ("Person.name",),
        (AggregateCall("count", "Crime.type", "ct"),),
    )
    return canonical_from_tree(root)


def _pushdown_specs() -> list[BenchmarkSpec]:
    """Ablation A2: Crime9 over the pushed-down Q8 (the canonical
    side is ``usecases:Crime9.ned``)."""
    use_case, database, _ = use_case_setup("Crime9")
    return [
        BenchmarkSpec(
            "pushdown",
            "Crime9.ned_pushdown",
            _explain_factory(
                NedExplain, pushed_down_q8(), database, use_case.predicate
            ),
        )
    ]


#: suite name -> lazy spec builder (building a suite sets up its
#: databases, so only selected suites pay that cost).  Benchmark names
#: are unique across suites: the trajectory keys entries by name.
SUITES: dict[str, Callable[[], list[BenchmarkSpec]]] = {
    # Figs. 5-6: NedExplain and the Why-Not baseline per use case
    "usecases": lambda: _use_case_specs("usecases", "ned"),
    "whynot": lambda: _use_case_specs("whynot", "whynot"),
    "batch": _batch_specs,
    "scaling": _scaling_specs,
    "pushdown": _pushdown_specs,
    "early_term": lambda: _use_case_specs("early_term", "ned_et_off"),
    "topdown": lambda: _use_case_specs("topdown", "whynot_topdown"),
}


def run_all(
    scale: int = 1,
    config: NedExplainConfig | None = None,
    budget: Budget | None = None,
) -> list[UseCaseResult]:
    """Run every use case of Table 4."""
    return [
        run_use_case(uc.name, scale=scale, config=config, budget=budget)
        for uc in USE_CASES
    ]
