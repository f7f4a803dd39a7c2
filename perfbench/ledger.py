"""The traced run: spans around each layer's public functions, and the
self-time ledger that splits a request's latency across layers.

Spans live on :class:`repro.obs.Tracer` objects, one per request (a
tracer models one thread; the server handles requests on many), so the
library's own spans (``run``/``phase``/``cache``/``operator``/
``compatible``) and counters nest under the benchmark's spans for free.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Where children overlap in time (the
two workers of a parallel batch), each instant is split equally among
the children active at it, so the self times of one request's span
tree add up to the root's duration exactly.  The reconciliation the
benchmark reports compares that sum with the end-to-end latency the
benchmark measured on its own clock; the tolerance is ``RECONCILE_TOL``.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path

from repro.obs import (
    TRACE_FORMAT_VERSION,
    MetricsRegistry,
    Span,
    current_tracer,
    span_record,
)

#: largest accepted |sum of layer self times - traced latency| / latency
RECONCILE_TOL = 0.01

#: the library's span categories, mapped to ledger rows
_CATEGORY_ROWS = {
    "run": "nedexplain.explain",
    "cache": "evalcache.get_or_evaluate",
    "operator": "evaluator.evaluate",
    "compatible": "compatible.find",
}

#: ledger rows, in reporting order; each becomes a ``<row>_ms`` metric
LEDGER_ROWS = (
    "trace.unattributed",
    "service.http_overhead",
    "service.explain",
    "service.engine_for",
    "service.report_encode",
    "sql.sql_to_canonical",
    "canonical.canonicalize",
    "nedexplain.construct",
    "database.input_instance",
    "nedexplain.release",
    "nedexplain.explain",
    "phase.Initialization",
    "phase.CompatibleFinder",
    "phase.SuccessorsFinder",
    "phase.BottomUp",
    "evalcache.get_or_evaluate",
    "evaluator.evaluate",
    "compatible.find",
    "executor.explain_each",
    "journal.append",
    "storage.write_document",
    "storage.fsync",
    "storage.fsync_dir",
)

#: span names whose self time is HTTP transport, parsing and admission
_ROW_ALIASES = {
    "bench.request": "trace.unattributed",
    "http.exchange": "service.http_overhead",
    "service.handle": "service.http_overhead",
    "service.explain_single": "service.explain",
    "service.explain_batch": "service.explain",
}


def row_of(name: str, category: str, tags: dict) -> str:
    """The ledger row a span's self time is charged to."""
    if category == "phase":
        return "phase." + tags.get("phase", name)
    if category in _CATEGORY_ROWS:
        return _CATEGORY_ROWS[category]
    return _ROW_ALIASES.get(name, name)


# ---------------------------------------------------------------------------
# Wrapping the layers' public functions
# ---------------------------------------------------------------------------
def _wrap(owner, attr: str, name: str) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        tracer = current_tracer()
        if tracer is None:
            return original(*args, **kwargs)
        tracer.metrics.counter(name + ".calls").inc()
        with tracer.span(name, "bench"):
            return original(*args, **kwargs)

    setattr(owner, attr, traced)


def _count_bytes(owner, attr: str) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def counted(self, handle, text):
        tracer = current_tracer()
        if tracer is not None:
            tracer.metrics.counter("storage.bytes_written").inc(
                len(text.encode("utf-8"))
            )
        return original(self, handle, text)

    setattr(owner, attr, counted)


def install_library_spans() -> None:
    """Spans around engine construction (the library workload)."""
    from repro.core.nedexplain import NedExplain
    from repro.relational.database import Database

    _wrap(Database, "input_instance", "database.input_instance")
    _wrap(NedExplain, "__init__", "nedexplain.construct")


def install_service_spans() -> None:
    """Spans around the service, robustness and storage layers, plus
    the library ones (call inside the server process only)."""
    import repro.service.state as state_module
    from repro.core.answers import NedExplainReport
    from repro.core.nedexplain import NedExplain
    from repro.robustness.journal import BatchJournal
    from repro.service.server import ServiceHandler
    from repro.service.state import ServiceState
    from repro.storage.backend import StorageBackend
    from repro.storage.io import LocalIO

    install_library_spans()
    _wrap(state_module, "sql_to_canonical", "sql.sql_to_canonical")
    _wrap(ServiceState, "engine_for", "service.engine_for")
    _wrap(ServiceState, "explain_single", "service.explain_single")
    _wrap(ServiceState, "explain_batch", "service.explain_batch")
    _wrap(NedExplain, "explain_each", "executor.explain_each")
    _wrap(NedExplainReport, "to_dict", "service.report_encode")
    _wrap(ServiceHandler, "_respond", "service.report_encode")
    _wrap(BatchJournal, "record", "journal.append")
    _wrap(StorageBackend, "write_document", "storage.write_document")
    _wrap(LocalIO, "fsync", "storage.fsync")
    _wrap(LocalIO, "fsync_dir", "storage.fsync_dir")
    _count_bytes(LocalIO, "write")


# ---------------------------------------------------------------------------
# The ledger
# ---------------------------------------------------------------------------
class Node:
    """A span reduced to what the ledger needs."""

    __slots__ = ("row", "start", "end", "children")

    def __init__(self, row: str, start: float, end: float):
        self.row = row
        self.start = start
        self.end = end
        self.children: list[Node] = []


#: pseudo-row of charge_request: child time lying outside its parent
CLIPPED = "~clipped"


def _charge(node: Node, weight: float, totals: dict) -> None:
    kids = [
        (max(c.start, node.start), min(c.end, node.end), c)
        for c in node.children
    ]
    for start, end, child in kids:
        outside = (child.end - child.start) - max(0.0, end - start)
        totals[CLIPPED] += weight * outside
    kids = [k for k in kids if k[1] > k[0]]
    points = sorted(
        {node.start, node.end}
        | {k[0] for k in kids}
        | {k[1] for k in kids}
    )
    own = 0.0
    credit = [0.0] * len(kids)
    for a, b in zip(points, points[1:]):
        active = [i for i, k in enumerate(kids) if k[0] <= a and k[1] >= b]
        if not active:
            own += b - a
        else:
            for i in active:
                credit[i] += (b - a) / len(active)
    totals[node.row] += weight * own
    for i, (_, _, child) in enumerate(kids):
        span = child.end - child.start
        if span > 0:
            _charge(child, weight * credit[i] / span, totals)


def charge_request(root: Node) -> dict[str, float]:
    """Self time (seconds) per ledger row for one request's span tree;
    the rows add up to the root's duration.  ``CLIPPED`` holds the time
    child spans spent outside their parent's interval, which a sound
    trace never has (it would mean misaligned clocks or mis-parented
    spans), so the reconciliation counts it as error."""
    totals: dict[str, float] = defaultdict(float)
    _charge(root, 1.0, totals)
    return totals


def tree_from_spans(spans: list[Span], root_id: int) -> Node:
    """The span tree under *root_id*.  Roots other than *root_id* (the
    absorbed tracers of parallel batch workers) hang under the request's
    ``executor.explain_each`` span, whose interval holds them."""
    nodes = {
        s.span_id: Node(row_of(s.name, s.category, s.tags), s.start, s.end)
        for s in spans
    }
    executor = next(
        (s.span_id for s in spans if s.name == "executor.explain_each"),
        root_id,
    )
    for s in spans:
        if s.span_id == root_id:
            continue
        parent = s.parent_id if s.parent_id in nodes else executor
        nodes[parent].children.append(nodes[s.span_id])
    return nodes[root_id]


class Collector:
    """Every span of a traced run, renumbered so ids are unique across
    requests and processes, each tagged with its request id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.metrics = MetricsRegistry()
        self._next_id = 1

    def add(self, spans: list[Span], request_id: str) -> None:
        renumbered = {}
        for span in spans:
            renumbered[span.span_id] = self._next_id
            self._next_id += 1
        for span in spans:
            span.span_id = renumbered[span.span_id]
            span.parent_id = renumbered.get(span.parent_id)
            span.set_tag("rid", request_id)
        self.spans.extend(spans)

    def write(self, path: Path) -> None:
        """The ``repro.obs`` JSONL layout: header, spans in start order,
        metrics footer (readable by ``repro.obs.read_trace_jsonl``)."""
        spans = sorted(self.spans, key=lambda s: (s.start, s.span_id))
        epoch = spans[0].start if spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            header = {"kind": "header", "format": "repro.obs.trace",
                      "version": TRACE_FORMAT_VERSION, "spans": len(spans)}
            handle.write(json.dumps(header) + "\n")
            for span in spans:
                handle.write(
                    json.dumps(span_record(span, epoch), default=str) + "\n"
                )
            footer = {"kind": "metrics", "metrics": self.metrics.snapshot()}
            handle.write(json.dumps(footer) + "\n")
