"""Tracing core: :class:`Span`, :class:`Tracer`, and the ambient hook.

The engine's hot layers are wired with lightweight instrumentation
points; when no tracer is installed each point costs one context-var
read and a ``None`` check (the same discipline as
:func:`repro.robustness.faults.fault_point`), so production runs with
tracing off are observationally free.  When a tracer *is* installed --
``with tracing() as tracer:`` -- every instrumented section becomes a
:class:`Span` in a parent/child tree:

======================  =================================================
category                emitted by
======================  =================================================
``run``                 :meth:`repro.core.nedexplain.NedExplain.explain`
                        (one root span per why-not question)
``phase``               each timed section of Algorithm 1, tagged with
                        the Fig. 5 phase name; phase wall-clock totals
                        (``report.phase_times_ms``) are *derived from
                        these spans*, so span sums and reported totals
                        agree by construction
``operator``            one span per algebra node application in
                        :func:`repro.relational.evaluator.evaluate`,
                        tagged with the node fingerprint, postorder
                        index, and input/output cardinalities
``compatible``          :meth:`repro.core.compatibility.CompatibleFinder.find`
``cache``               :meth:`repro.relational.evalcache.EvaluationCache.get_or_evaluate`
======================  =================================================

Each tracer owns a :class:`~repro.obs.metrics.MetricsRegistry`; the
instrumented layers feed it counters/histograms (cache hits, budget
ticks, fault firings) through the same ambient hook.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Mapping

from ..errors import ConfigurationError
from .clock import Clock, current_clock
from .metrics import MetricsRegistry


class Span:
    """One timed, tagged section of a traced run."""

    __slots__ = (
        "name",
        "category",
        "span_id",
        "parent_id",
        "start",
        "end",
        "tags",
    )

    def __init__(
        self,
        name: str,
        category: str,
        span_id: int,
        parent_id: int | None,
        start: float,
        tags: dict | None = None,
    ):
        self.name = name
        self.category = category
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.tags: dict = tags or {}

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration_ms(self) -> float:
        if self.end is None:
            raise ConfigurationError(
                f"span {self.name!r} is still open; no duration yet"
            )
        return (self.end - self.start) * 1000.0

    def set_tag(self, key: str, value) -> None:
        self.tags[key] = value

    def __repr__(self) -> str:
        state = (
            f"{self.duration_ms:.3f}ms" if self.finished else "open"
        )
        return (
            f"Span({self.name!r}, cat={self.category!r}, {state}, "
            f"id={self.span_id}, parent={self.parent_id})"
        )


class Tracer:
    """Collects the spans and metrics of one traced run.

    Not thread-safe (the engine is single-threaded per question, like
    :class:`~repro.robustness.budget.ExecutionContext`): a tracer's
    span stack models *one* thread of execution.  Parallel batches
    therefore give every worker its own private tracer and fold the
    results back with :meth:`absorb` -- never share one tracer across
    threads.  Spans nest through an explicit stack: :meth:`start_span`
    parents the new span under the innermost open one.  Finished spans
    are kept in *completion* order; exporters sort by start time.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.clock = clock if clock is not None else current_clock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def start_span(
        self, name: str, category: str = "", **tags
    ) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            name=name,
            category=category,
            span_id=self._next_id,
            parent_id=parent,
            start=self.clock.perf_counter(),
            tags=tags or None,
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def end_span(self, span: Span) -> Span:
        """Close *span* (and any deeper spans left open by an abort).

        An exception can unwind past open child spans; closing them at
        the same instant keeps the trace well-formed instead of losing
        the whole subtree.
        """
        if span not in self._stack:
            raise ConfigurationError(
                f"span {span.name!r} is not open on this tracer"
            )
        now = self.clock.perf_counter()
        while self._stack:
            top = self._stack.pop()
            top.end = now
            self.spans.append(top)
            if top is span:
                break
        return span

    @contextmanager
    def span(
        self, name: str, category: str = "", **tags
    ) -> Iterator[Span]:
        opened = self.start_span(name, category, **tags)
        try:
            yield opened
        finally:
            self.end_span(opened)

    # ------------------------------------------------------------------
    # Merging (parallel batches)
    # ------------------------------------------------------------------
    def absorb(self, other: "Tracer") -> None:
        """Fold a finished worker tracer into this one.

        The worker's spans are appended with their ids shifted past
        this tracer's id space (parent/child links preserved), and its
        metrics registry is merged through
        :meth:`~repro.obs.metrics.MetricsRegistry.absorb`.  Call this
        from the coordinating thread after the worker has finished --
        absorbing a tracer with open spans is a configuration error.
        """
        if other._stack:
            raise ConfigurationError(
                f"cannot absorb a tracer with {len(other._stack)} "
                "open span(s)"
            )
        offset = self._next_id
        for span in other.spans:
            span.span_id += offset
            if span.parent_id is not None:
                span.parent_id += offset
            self.spans.append(span)
        self._next_id = offset + other._next_id
        self.metrics.absorb(other.metrics.snapshot())

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def open_spans(self) -> tuple[Span, ...]:
        return tuple(self._stack)

    def by_category(self, category: str) -> list[Span]:
        return [s for s in self.spans if s.category == category]

    def total_ms(self, category: str) -> float:
        return sum(s.duration_ms for s in self.by_category(category))

    def phase_totals_ms(self) -> dict[str, float]:
        """Summed duration of ``phase`` spans, keyed by phase name."""
        totals: dict[str, float] = {}
        for span in self.by_category("phase"):
            phase = span.tags.get("phase", span.name)
            totals[phase] = totals.get(phase, 0.0) + span.duration_ms
        return totals

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return (
            f"Tracer({len(self.spans)} finished, "
            f"{len(self._stack)} open, {len(self.metrics)} metrics)"
        )


# ---------------------------------------------------------------------------
# Ambient tracer
# ---------------------------------------------------------------------------
_TRACER: ContextVar[Tracer | None] = ContextVar(
    "repro_tracer", default=None
)


def current_tracer() -> Tracer | None:
    """The ambient :class:`Tracer`, or ``None`` when tracing is off."""
    return _TRACER.get()


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Install a tracer (a fresh one unless given) for the block."""
    installed = tracer if tracer is not None else Tracer()
    token = _TRACER.set(installed)
    try:
        yield installed
    finally:
        _TRACER.reset(token)


class _NoopSpan:
    """Shared do-nothing span for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set_tag(self, key: str, value) -> None:
        return None


NOOP_SPAN = _NoopSpan()


def span(name: str, category: str = "", **tags):
    """Context manager: a span on the ambient tracer, or a no-op.

    The convenience entry point for cool paths; hot loops should hoist
    ``current_tracer()`` out of the loop and branch on ``None`` once.
    """
    tracer = _TRACER.get()
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, category, **tags)


def metric_counter(name: str, n: int = 1) -> None:
    """Increment a counter on the ambient tracer's registry (no-op
    when tracing is off)."""
    tracer = _TRACER.get()
    if tracer is not None:
        tracer.metrics.counter(name).inc(n)


def metric_observe(name: str, value: float) -> None:
    """Observe a histogram value on the ambient registry (no-op when
    tracing is off)."""
    tracer = _TRACER.get()
    if tracer is not None:
        tracer.metrics.histogram(name).observe(value)


def metrics_snapshot() -> dict[str, dict] | None:
    """Snapshot of the ambient registry, or ``None`` if tracing is off."""
    tracer = _TRACER.get()
    if tracer is None:
        return None
    return tracer.metrics.snapshot()
