"""Summary statistics and the per-layer metric table."""

from __future__ import annotations

import math
from collections import defaultdict

from ledger import CLIPPED, LEDGER_ROWS, charge_request

#: fixed tail percentile per workload, chosen so that a run at the
#: seed commit leaves well over 10 samples beyond it (the count is
#: printed with every run)
TAIL_PERCENTILE = {"sweep-cold": 97.0, "http-warm": 98.0, "http-batch": 90.0}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; failures enter as ``inf``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values: list[float], p: float) -> int:
    """How many samples lie beyond the nearest-rank percentile."""
    return len(values) - max(1, math.ceil(p / 100.0 * len(values)))


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


#: per-request counters: metric name -> counter name on the tracers
COUNTERS = {
    "database.input_instance_calls": "database.input_instance.calls",
    "cache.hits": "cache.hits",
    "cache.misses": "cache.misses",
    "cache.evictions": "cache.evictions",
    "evaluator.operators": "evaluator.operators",
    "budget.rows": "budget.rows",
    "budget.comparisons": "budget.comparisons",
    "compatible.finds": "compatible.finds",
    "successors.steps": "successors.steps",
    "successors.checks": "successors.checks",
    "journal.appends": "journal.append.calls",
    "storage.write_documents": "storage.write_document.calls",
    "storage.fsyncs": "storage.fsync.calls",
    "storage.fsync_dirs": "storage.fsync_dir.calls",
    "storage.bytes_written": "storage.bytes_written",
}

#: every per-layer metric with its unit, in BENCHMARK.json order
PER_LAYER_UNITS: dict[str, str] = {
    **{f"{row}_ms": "ms" for row in LEDGER_ROWS},
    **{name: "count/req" for name in COUNTERS},
    "evalcache.hit_rate": "ratio",
    "service.engines_held": "count",
    "service.shed": "count",
    "storage.bytes_per_question": "bytes/question",
    "loadgen.lag_tail_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.reconcile_error_frac": "ratio",
}


class LayerTable:
    """Accumulates the traced requests of one run."""

    def __init__(self):
        self.requests = 0
        self.latency_s = 0.0
        self.rows: dict[str, float] = defaultdict(float)
        self.clipped_s = 0.0
        self.counters: dict[str, float] = defaultdict(float)

    def add_request(self, tree, latency_s: float) -> None:
        """One traced request: its span tree and the latency the
        benchmark measured for it on its own clock."""
        self.requests += 1
        self.latency_s += latency_s
        charged = charge_request(tree)
        self.clipped_s += charged.pop(CLIPPED, 0.0)
        for row, seconds in charged.items():
            if row not in LEDGER_ROWS:
                raise KeyError(f"span charged to unknown ledger row {row}")
            self.rows[row] += seconds

    def add_counters(self, snapshot: dict) -> None:
        for name, data in snapshot.items():
            if data.get("type") == "counter":
                self.counters[name] += data["value"]

    @property
    def reconcile_error(self) -> float:
        """(|sum of layer self times - measured latency| + time spans
        spent outside their parents) / measured latency."""
        attributed = sum(self.rows.values())
        return (abs(attributed - self.latency_s) + self.clipped_s) / self.latency_s

    def metrics(self, extra: dict[str, float]) -> dict[str, float]:
        n = self.requests
        out = {f"{row}_ms": self.rows[row] * 1000.0 / n for row in LEDGER_ROWS}
        for name, counter in COUNTERS.items():
            out[name] = self.counters[counter] / n
        looked_up = self.counters["cache.hits"] + self.counters["cache.misses"]
        out["evalcache.hit_rate"] = (
            self.counters["cache.hits"] / looked_up if looked_up else 0.0
        )
        out["trace.reconcile_error_frac"] = self.reconcile_error
        out.update(extra)
        missing = set(PER_LAYER_UNITS) - set(out)
        if missing:
            raise KeyError(f"per-layer metrics not measured: {sorted(missing)}")
        return {name: out[name] for name in PER_LAYER_UNITS}

