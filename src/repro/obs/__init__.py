"""Observability subsystem: tracing, metrics, machine-readable runs.

The paper's evaluation is a phase-wise runtime breakdown of
Algorithm 1 (Fig. 5/6); instrumented provenance systems -- PUG's
inspectable middleware, the provenance-based debugger of
Diestelkämper & Herschel -- treat that kind of visibility as a product
feature, not an afterthought.  This package is the engine's equivalent:

* :mod:`~repro.obs.clock` -- the injectable time source shared by
  budgets, phase accounting, and spans (deterministic tests, one
  consistent clock per run);
* :mod:`~repro.obs.trace` -- :class:`Span` / :class:`Tracer` with an
  ambient context-var hook and a strict no-op fast path when disabled;
* :mod:`~repro.obs.metrics` -- counters, gauges, fixed-bucket
  histograms behind a lazily-populated registry;
* :mod:`~repro.obs.export` -- JSON-lines trace artifacts, Chrome-trace
  conversion, text-tree rendering, metrics snapshots.

Typical use::

    from repro.obs import tracing, write_trace_jsonl

    with tracing() as tracer:
        report = engine.explain("(A.name: Homer)")
    write_trace_jsonl(tracer, "run.trace.jsonl")
"""

from .clock import (
    SYSTEM_CLOCK,
    Clock,
    ManualClock,
    SystemClock,
    current_clock,
    monotonic,
    perf_counter,
    use_clock,
)
from .export import (
    TRACE_FORMAT_VERSION,
    read_trace_jsonl,
    render_trace,
    span_record,
    to_chrome_trace,
    trace_records,
    write_chrome_trace,
    write_metrics_json,
    write_trace_jsonl,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter_values,
    merge_snapshots,
)
from .trace import (
    NOOP_SPAN,
    Span,
    Tracer,
    current_tracer,
    metric_counter,
    metric_observe,
    metrics_snapshot,
    span,
    tracing,
)

__all__ = [
    "Clock",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "ManualClock",
    "MetricsRegistry",
    "NOOP_SPAN",
    "SYSTEM_CLOCK",
    "Span",
    "SystemClock",
    "TRACE_FORMAT_VERSION",
    "Tracer",
    "counter_values",
    "current_clock",
    "current_tracer",
    "merge_snapshots",
    "metric_counter",
    "metric_observe",
    "metrics_snapshot",
    "monotonic",
    "perf_counter",
    "read_trace_jsonl",
    "render_trace",
    "span",
    "span_record",
    "to_chrome_trace",
    "trace_records",
    "tracing",
    "use_clock",
    "write_chrome_trace",
    "write_metrics_json",
    "write_trace_jsonl",
]
