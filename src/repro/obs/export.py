"""Exporters: JSON-lines traces, Chrome traces, text trees, snapshots.

Four consumers, four formats, one :class:`~repro.obs.trace.Tracer`:

* :func:`write_trace_jsonl` / :func:`read_trace_jsonl` -- the
  machine-readable run artifact.  Line 1 is a header record, then one
  record per span (start order), then one trailing metrics record; the
  reader validates the layout, so "the trace parses" is a real check,
  not just ``json.loads`` succeeding line by line.
* :func:`to_chrome_trace` / :func:`write_chrome_trace` -- the same
  spans as ``chrome://tracing`` / Perfetto complete events (``ph: X``,
  microsecond timestamps).
* :func:`render_trace` -- an indented text tree for terminals, the
  ``--trace``-less quick look.
* :func:`write_metrics_json` -- the flat metrics snapshot.

All durations are wall-clock milliseconds measured on the tracer's
:class:`~repro.obs.clock.Clock`; timestamps are offsets from the
earliest span so artifacts from different runs diff cleanly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..errors import ConfigurationError
from .trace import Span, Tracer

#: JSONL artifact format version (bump on layout changes).
TRACE_FORMAT_VERSION = 1


def _sorted_spans(tracer: Tracer) -> list[Span]:
    open_count = len(tracer.open_spans)
    if open_count:
        raise ConfigurationError(
            f"cannot export a trace with {open_count} open span(s); "
            "close them (or let the tracing() block exit) first"
        )
    return sorted(tracer.spans, key=lambda s: (s.start, s.span_id))


def _epoch(spans: list[Span]) -> float:
    return spans[0].start if spans else 0.0


def span_record(span: Span, epoch: float) -> dict[str, Any]:
    """One span as a JSON-ready record (times relative to *epoch*)."""
    record: dict[str, Any] = {
        "kind": "span",
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "category": span.category,
        "start_ms": (span.start - epoch) * 1000.0,
        "duration_ms": span.duration_ms,
    }
    if span.tags:
        record["tags"] = dict(span.tags)
    return record


def trace_records(tracer: Tracer) -> list[dict[str, Any]]:
    """The records of the JSON-lines trace artifact, in file order: a
    header, one record per span (start order), a metrics footer."""
    spans = _sorted_spans(tracer)
    epoch = _epoch(spans)
    return [
        {
            "kind": "header",
            "format": "repro.obs.trace",
            "version": TRACE_FORMAT_VERSION,
            "spans": len(spans),
        },
        *(span_record(span, epoch) for span in spans),
        {"kind": "metrics", "metrics": tracer.metrics.snapshot()},
    ]


def write_trace_jsonl(tracer: Tracer, path: str | Path) -> Path:
    """Write the JSON-lines trace artifact; returns the path.

    Span tags JSON cannot encode are written as their ``str()``.
    """
    target = Path(path)
    with target.open("w", encoding="utf-8") as handle:
        for record in trace_records(tracer):
            handle.write(json.dumps(record, default=str) + "\n")
    return target


def read_trace_jsonl(
    path: str | Path,
) -> tuple[list[dict], dict[str, dict]]:
    """Parse and validate a JSONL trace; returns (spans, metrics).

    Raises :class:`~repro.errors.ConfigurationError` on a malformed
    artifact: missing/at-wrong-position header, span count mismatch,
    records missing required fields, or a dangling parent reference.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ConfigurationError(f"trace file {path} is empty")
    try:
        records = [json.loads(line) for line in lines]
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"trace file {path} is not valid JSON-lines: {exc}"
        ) from exc
    header = records[0]
    if (
        header.get("kind") != "header"
        or header.get("format") != "repro.obs.trace"
    ):
        raise ConfigurationError(
            f"trace file {path} does not start with a repro.obs.trace "
            "header record"
        )
    if records[-1].get("kind") != "metrics":
        raise ConfigurationError(
            f"trace file {path} does not end with a metrics record"
        )
    spans = records[1:-1]
    if any(r.get("kind") != "span" for r in spans):
        raise ConfigurationError(
            f"trace file {path} contains non-span body records"
        )
    if header.get("spans") != len(spans):
        raise ConfigurationError(
            f"trace file {path} header announces {header.get('spans')} "
            f"spans but carries {len(spans)}"
        )
    required = {"id", "name", "category", "start_ms", "duration_ms"}
    ids = set()
    for record in spans:
        missing = required - record.keys()
        if missing:
            raise ConfigurationError(
                f"span record {record.get('id')!r} is missing "
                f"{sorted(missing)}"
            )
        ids.add(record["id"])
    for record in spans:
        parent = record.get("parent")
        if parent is not None and parent not in ids:
            raise ConfigurationError(
                f"span {record['id']} references unknown parent "
                f"{parent}"
            )
    return spans, records[-1]["metrics"]


# ---------------------------------------------------------------------------
# Chrome trace (chrome://tracing, Perfetto)
# ---------------------------------------------------------------------------
def to_chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """The trace as a Chrome/Perfetto ``traceEvents`` document."""
    spans = _sorted_spans(tracer)
    epoch = _epoch(spans)
    events = []
    for span in spans:
        events.append(
            {
                "name": span.name,
                "cat": span.category or "repro",
                "ph": "X",
                "ts": (span.start - epoch) * 1_000_000.0,
                "dur": span.duration_ms * 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {
                    str(k): v for k, v in sorted(span.tags.items())
                },
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"format": "repro.obs.trace"},
    }


def write_chrome_trace(tracer: Tracer, path: str | Path) -> Path:
    """Write the Chrome/Perfetto trace document; returns the path."""
    target = Path(path)
    target.write_text(
        json.dumps(to_chrome_trace(tracer), indent=1, default=str),
        encoding="utf-8",
    )
    return target


# ---------------------------------------------------------------------------
# Text tree
# ---------------------------------------------------------------------------
def render_trace(
    tracer: Tracer, max_tag_chars: int = 60
) -> str:
    """Indented text tree of the trace (parents before children)."""
    spans = _sorted_spans(tracer)
    if not spans:
        return "(empty trace)"
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)

    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        tags = ", ".join(
            f"{k}={v}" for k, v in sorted(span.tags.items())
        )
        if len(tags) > max_tag_chars:
            tags = tags[: max_tag_chars - 3] + "..."
        suffix = f"  [{tags}]" if tags else ""
        label = (
            f"{span.category}:{span.name}"
            if span.category
            else span.name
        )
        lines.append(
            f"{'  ' * depth}{label}  {span.duration_ms:.3f} ms{suffix}"
        )
        for child in children.get(span.span_id, ()):
            walk(child, depth + 1)

    for root in children.get(None, ()):
        walk(root, 0)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Metrics snapshot
# ---------------------------------------------------------------------------
def _prometheus_name(name: str) -> str:
    """Map a dotted instrument name onto the Prometheus charset."""
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned or "_"


def render_prometheus(snapshot: dict[str, dict]) -> str:
    """A :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` as
    Prometheus text exposition (version 0.0.4).

    Dots become underscores (``service.responses.429`` ->
    ``service_responses_429``); histograms expand into the
    ``_bucket``/``_sum``/``_count`` triple with cumulative ``le``
    labels.  The service's ``/metrics?format=prometheus`` endpoint
    serves exactly this text, so any standard scraper can watch a
    long-lived why-not server without a JSON shim.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        record = snapshot[name]
        kind = record.get("type")
        metric = _prometheus_name(name)
        if kind in ("counter", "gauge"):
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric} {record['value']}")
        elif kind == "histogram":
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            buckets = record.get("buckets", [])
            counts = record.get("bucket_counts", [])
            for bound, count in zip(buckets, counts):
                cumulative += count
                lines.append(
                    f'{metric}_bucket{{le="{bound}"}} {cumulative}'
                )
            lines.append(
                f'{metric}_bucket{{le="+Inf"}} {record["count"]}'
            )
            lines.append(f"{metric}_sum {record['sum']}")
            lines.append(f"{metric}_count {record['count']}")
    return "\n".join(lines) + "\n" if lines else ""


def write_metrics_json(tracer: Tracer, path: str | Path) -> Path:
    """Write the flat metrics snapshot as a JSON document."""
    target = Path(path)
    target.write_text(
        json.dumps(tracer.metrics.snapshot(), indent=2, sort_keys=True),
        encoding="utf-8",
    )
    return target
