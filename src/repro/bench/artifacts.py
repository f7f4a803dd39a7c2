"""Machine-readable benchmark artifacts (``BENCH_*.json``).

The evaluation figures were reproduced as rendered text tables from day
one, but nothing machine-readable survived a benchmark run -- CI could
not diff a regression and the repo carried no canonical numbers.  This
module fixes that with one tiny file format:

* :func:`write_bench_artifact` writes ``BENCH_{name}.json`` into the
  benchmark artifact directory (``REPRO_BENCH_DIR`` or the current
  working directory), wrapping the payload with format metadata;
* :func:`phases_payload` / :func:`runtime_payload` shape the Fig. 5 and
  Fig. 6 measurements into stable JSON;
* :func:`collect_phases` / :func:`collect_runtime` produce those
  measurements standalone -- no pytest-benchmark required -- so both
  the benchmark suite and a bare ``python -m repro.bench.artifacts``
  emit identical artifacts;
* :func:`write_sample_trace` runs one use case under tracing and saves
  the JSON-lines span trace alongside the numbers.

Running the module is the CI entry point::

    python -m repro.bench.artifacts --out-dir .

writes ``BENCH_phases.json``, ``BENCH_runtime.json`` and
``BENCH_trace_sample.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..errors import ConfigurationError, UnsupportedQueryError
from ..obs import Tracer, tracing, write_trace_jsonl

BENCH_FORMAT = "repro.bench"
BENCH_FORMAT_VERSION = 1

def bench_dir() -> Path:
    """Artifact directory: ``$REPRO_BENCH_DIR`` or the cwd."""
    return Path(os.environ.get("REPRO_BENCH_DIR", "."))


def write_bench_artifact(
    name: str, payload: Any, directory: Path | str | None = None
) -> Path:
    """Write ``BENCH_{name}.json`` and return its path.

    The payload is wrapped in an envelope carrying the format name and
    version so downstream tooling can validate what it parsed.
    """
    base = Path(directory) if directory is not None else bench_dir()
    base.mkdir(parents=True, exist_ok=True)
    path = base / f"BENCH_{name}.json"
    document = {
        "artifact": name,
        "format": BENCH_FORMAT,
        "version": BENCH_FORMAT_VERSION,
        "data": payload,
    }
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def read_bench_artifact(path: Path | str) -> Any:
    """Parse and validate a ``BENCH_*.json`` file; return its data."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(document, dict) or document.get("format") != (
        BENCH_FORMAT
    ):
        raise ConfigurationError(
            f"{path} is not a {BENCH_FORMAT} artifact"
        )
    if document.get("version") != BENCH_FORMAT_VERSION:
        raise ConfigurationError(
            f"{path}: unsupported artifact version "
            f"{document.get('version')!r}"
        )
    return document["data"]


# ---------------------------------------------------------------------------
# Payload shapes
# ---------------------------------------------------------------------------
def phases_payload(results: Sequence) -> dict:
    """Fig. 5 payload from :class:`~repro.bench.runner.UseCaseResult`s.

    Per use case: absolute per-phase milliseconds and the percentage
    distribution the figure plots.
    """
    use_cases: dict[str, dict] = {}
    for result in results:
        times = dict(result.ned.phase_times_ms)
        total = sum(times.values())
        use_cases[result.use_case.name] = {
            "query": result.use_case.query,
            "phase_times_ms": times,
            "total_ms": total,
            "percent": {
                phase: (100.0 * value / total) if total else 0.0
                for phase, value in times.items()
            },
        }
    return {
        "figure": "5",
        "unit": "ms",
        "use_cases": use_cases,
    }


def runtime_payload(
    medians: Mapping[str, Mapping[str, float]],
    scale: int,
    na_reasons: Mapping[str, str] | None = None,
) -> dict:
    """Fig. 6 payload from per-use-case median runtimes.

    *medians* maps use-case name to ``{"ned": ms, "whynot": ms}``
    (``"whynot"`` absent when the baseline could not run).
    *na_reasons* maps such use cases to *why* the baseline number is
    missing (``"unsupported"`` for aggregation queries the Why-Not
    baseline cannot trace, ``"budget-exhausted"`` for a timed-out
    run) -- a null ``whynot_ms`` without a recorded reason would read
    as a measurement bug, so the serializer refuses to leave it
    unexplained and emits an explicit ``"speedup": null`` alongside.
    """
    na_reasons = na_reasons or {}
    use_cases: dict[str, dict] = {}
    for name, values in medians.items():
        ned = values.get("ned")
        whynot = values.get("whynot")
        entry: dict[str, Any] = {
            "nedexplain_ms": ned,
            "whynot_ms": whynot,
        }
        if ned and whynot is not None:
            entry["speedup"] = whynot / ned
        else:
            entry["speedup"] = None
            entry["whynot_na_reason"] = na_reasons.get(
                name, "not-measured"
            )
        use_cases[name] = entry
    return {
        "figure": "6",
        "unit": "ms",
        "scale": scale,
        "use_cases": use_cases,
    }


# ---------------------------------------------------------------------------
# Standalone collection (no pytest-benchmark required)
# ---------------------------------------------------------------------------
def collect_phases(
    repeats: int = 3,
    scale: int = 1,
    warmup: int = 1,
) -> dict:
    """Measure the Fig. 5 phase distribution over every use case.

    Runs each use case *warmup* untimed times plus *repeats* measured
    times and keeps the per-phase medians, shaped by
    :func:`phases_payload`.
    """
    from ..core import NedExplain
    from ..workloads import USE_CASES, use_case_setup

    from .runner import UseCaseResult

    if repeats < 1:
        raise ConfigurationError(
            f"repeats must be positive, got {repeats!r}"
        )
    if warmup < 0:
        raise ConfigurationError(
            f"warmup must be non-negative, got {warmup!r}"
        )
    results = []
    for uc in USE_CASES:
        use_case, database, canonical = use_case_setup(uc.name, scale)
        ned_engine = NedExplain(canonical, database=database)
        for _ in range(warmup):
            ned_engine.explain(use_case.predicate)
        samples: dict[str, list[float]] = {}
        report = None
        for _ in range(repeats):
            report = ned_engine.explain(use_case.predicate)
            for phase, value in report.phase_times_ms.items():
                samples.setdefault(phase, []).append(value)
        assert report is not None
        report.phase_times_ms = {
            phase: statistics.median(values)
            for phase, values in samples.items()
        }
        results.append(UseCaseResult(use_case=use_case, ned=report))
    payload = phases_payload(results)
    payload["repeats"] = repeats
    payload["warmup"] = warmup
    return payload


def collect_runtime(
    repeats: int = 3,
    scale: int = 2,
    warmup: int = 1,
) -> dict:
    """Measure the Fig. 6 runtime comparison over every use case.

    Measurement goes through the perf-gate protocol
    (:func:`repro.bench.runner.measure`: warmups, repeats, median
    reduction) so the CI bench artifacts and the regression gate share
    one measurement discipline.  A use case whose baseline number is
    missing records *why* (``whynot_na_reason``) instead of silently
    dropping the column.
    """
    from ..errors import BudgetExceededError
    from ..workloads import USE_CASES

    from .runner import measure, use_case_factory

    if repeats < 1:
        raise ConfigurationError(
            f"repeats must be positive, got {repeats!r}"
        )
    medians: dict[str, dict[str, float]] = {}
    na_reasons: dict[str, str] = {}
    for uc in USE_CASES:
        ned = measure(
            use_case_factory(uc.name, "ned", scale),
            name=f"{uc.name}.ned",
            repeats=repeats,
            warmup=warmup,
        )
        medians[uc.name] = {"ned": ned.median_ms}
        try:
            whynot_factory = use_case_factory(
                uc.name, "whynot", scale
            )
        except UnsupportedQueryError:
            na_reasons[uc.name] = "unsupported"
            continue
        try:
            whynot = measure(
                whynot_factory,
                name=f"{uc.name}.whynot",
                repeats=repeats,
                warmup=warmup,
            )
        except BudgetExceededError:
            na_reasons[uc.name] = "budget-exhausted"
            continue
        medians[uc.name]["whynot"] = whynot.median_ms
    payload = runtime_payload(medians, scale, na_reasons)
    payload["repeats"] = repeats
    payload["warmup"] = warmup
    return payload


def write_sample_trace(
    use_case: str = "Crime5",
    path: Path | str | None = None,
    scale: int = 1,
) -> Path:
    """Run one use case under tracing; save the JSON-lines trace."""
    from ..core import NedExplain
    from ..workloads import use_case_setup

    uc, database, canonical = use_case_setup(use_case, scale)
    engine = NedExplain(canonical, database=database)
    tracer = Tracer()
    with tracing(tracer):
        engine.explain(uc.predicate)
    if path is None:
        path = bench_dir() / "BENCH_trace_sample.jsonl"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return write_trace_jsonl(tracer, path)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.artifacts",
        description="regenerate the BENCH_*.json evaluation artifacts",
    )
    parser.add_argument(
        "--out-dir",
        default=None,
        help="artifact directory (default: $REPRO_BENCH_DIR or cwd)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="runs per measurement"
    )
    parser.add_argument(
        "--runtime-scale",
        type=int,
        default=2,
        dest="runtime_scale",
        help="scale factor for the Fig. 6 runtime comparison",
    )
    parser.add_argument(
        "--trace-use-case",
        default="Crime5",
        dest="trace_use_case",
        help="use case recorded in the sample trace",
    )
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir) if args.out_dir else bench_dir()

    phases = write_bench_artifact(
        "phases",
        collect_phases(repeats=args.repeats),
        out_dir,
    )
    print(f"wrote {phases}")
    runtime = write_bench_artifact(
        "runtime",
        collect_runtime(
            repeats=args.repeats,
            scale=args.runtime_scale,
        ),
        out_dir,
    )
    print(f"wrote {runtime}")
    trace = write_sample_trace(
        args.trace_use_case,
        out_dir / "BENCH_trace_sample.jsonl",
    )
    print(f"wrote {trace}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
