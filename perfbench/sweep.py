"""``sweep-cold``: the 19 Table 4 use cases through the library, cold.

Each question pays what a caller with a new question pays:
``canonicalize`` -> ``NedExplain(canonical, database=..., cache=EvaluationCache())``
-> ``explain(predicate)``.  Unlike the gate's ``usecases`` suite, which
builds the engine outside its timed region and times ``explain()``
alone, engine construction (the query input instance ``I_Q``) is inside
the timed region here.
"""

from __future__ import annotations

import resource
import time

from repro import EvaluationCache, NedExplain, canonicalize
from repro.obs import Tracer, tracing
from repro.workloads import DATABASES, QUERIES, USE_CASES

from ledger import Collector, install_library_spans, tree_from_spans
from oracle import answers_key, expectation_failures, literal_answers
from stats import LayerTable
from workloads import sweep_orders

USE_CASE_INDEX = {uc.name: uc for uc in USE_CASES}


def setup():
    """The paper databases at scale 1 and the Table 3 query specs."""
    databases = {name: build(scale=1) for name, build in DATABASES.items()}
    specs = {uc.name: QUERIES[uc.query][1]() for uc in USE_CASES}
    return databases, specs


def _ask(use_case, databases, specs):
    database = databases[use_case.database]
    canonical = canonicalize(specs[use_case.name], database.schema)
    engine = NedExplain(canonical, database=database, cache=EvaluationCache())
    return engine.explain(use_case.predicate)


def _ask_traced(use_case, databases, specs, tracer: Tracer):
    database = databases[use_case.database]
    root = tracer.start_span("bench.request", "bench")
    with tracer.span("canonical.canonicalize", "bench"):
        canonical = canonicalize(specs[use_case.name], database.schema)
    engine = NedExplain(canonical, database=database, cache=EvaluationCache())
    report = engine.explain(use_case.predicate)
    # _ask frees the engine (its copy of I_Q) when it returns; do the
    # same inside the root span so the ledger sees that cost
    with tracer.span("nedexplain.release", "bench"):
        del engine
    tracer.end_span(root)
    return report, root


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _sweeps(seconds: float, orders, ask, rss=None) -> tuple[list, float]:
    """Whole sweeps until *seconds* have passed: every sweep asks all
    19 questions, so every run has the same use-case mix.  With *rss*,
    the peak RSS after the first sweep is appended to it: later sweeps
    only add the reports kept for the answer check, and a faster
    program, which keeps more of them, must not read as a bigger one."""
    results = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        for name in next(orders):
            results.append((name, *ask(USE_CASE_INDEX[name])))
        if rss is not None and not rss:
            rss.append(_peak_rss_mb())
    return results, time.perf_counter() - started


def run(seed: int, seconds: float, traced: bool, collector: Collector):
    databases, specs = setup()
    orders = sweep_orders([uc.name for uc in USE_CASES], seed)

    def timed(use_case):
        t0 = time.perf_counter()
        report = _ask(use_case, databases, specs)
        return time.perf_counter() - t0, report

    table = LayerTable()
    if not traced:
        rss = []
        results, wall = _sweeps(seconds, orders, timed, rss)
        peak_rss_mb = rss[0]
        extra = {}
    else:
        untraced, _ = _sweeps(seconds / 2, orders, timed)
        install_library_spans()
        serial = iter(range(1, 1 << 30))

        def traced_ask(use_case):
            tracer = Tracer()
            with tracing(tracer):
                t0 = time.perf_counter()
                report, root = _ask_traced(use_case, databases, specs, tracer)
                latency = time.perf_counter() - t0
            table.add_request(tree_from_spans(tracer.spans, root.span_id),
                              latency)
            snapshot = tracer.metrics.snapshot()
            table.add_counters(snapshot)
            collector.metrics.absorb(snapshot)
            collector.add(tracer.spans, f"q{next(serial)}")
            return latency, report

        results, wall = _sweeps(seconds / 2, orders, traced_ask)
        mean = lambda rs: sum(r[1] for r in rs) / len(rs)  # noqa: E731
        extra = {"trace.overhead_frac": mean(results) / mean(untraced) - 1}
        peak_rss_mb = 0.0

    # answer checking, outside the timed region
    expected = {}
    for use_case in USE_CASES:
        database = databases[use_case.database]
        canonical = canonicalize(specs[use_case.name], database.schema)
        expected[use_case.name] = literal_answers(
            canonical, database, use_case.predicate
        )
    wrong = []
    for name, _, report in results:
        problems = expectation_failures(report, USE_CASE_INDEX[name].expect)
        if report.partial:
            problems.append("partial")
        if answers_key(report.to_dict()) != expected[name]:
            problems.append("differs from the literal Alg. 1-3 oracle")
        if problems:
            wrong.append(f"{name}: {', '.join(problems)}")
    return {
        "latencies": [latency for _, latency, _ in results],
        "questions": len(results),
        "requests": len(results),
        "correct_in_wall": len(results) - len(wrong),
        "wrong": wrong,
        "failed": len(wrong),
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "table": table,
        "extra": extra,
    }
