"""Machine-readable benchmark artifacts (``BENCH_*``), rendered from a
perf-gate report.

The gate (:mod:`repro.bench.gate`) measures every registry benchmark
through :func:`repro.bench.runner.measure`; this module turns one of
its ``check --report`` documents into the evaluation artifacts without
timing or explaining anything itself:

* ``BENCH_phases.json`` -- Fig. 5, the per-phase medians of every
  ``usecases`` benchmark;
* ``BENCH_runtime.json`` -- Fig. 6, NedExplain (``usecases``) against
  the Why-Not baseline (``whynot``);
* ``BENCH_trace_sample.jsonl`` -- the traced counter run the report
  carries (:data:`repro.bench.gate.TRACE_SAMPLE`);

and prints the Fig. 5/6 tables plus the ablation tables A1-A4 and the
batch comparison.  Regenerating everything is::

    python -m repro.bench.gate check --no-trajectory --report GATE_report.json
    python -m repro.bench.artifacts --report GATE_report.json --out-dir .
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..core.nedexplain import PHASES
from ..errors import ConfigurationError, UnsupportedQueryError
from ..workloads.usecases import USE_CASES
from .runner import (
    CHAIN_DEPTHS,
    GATE_SCALE,
    SCALE_USE_CASES,
    SCALES,
    use_case_factory,
)

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


def read_gate_report(path: Path | str) -> dict:
    """Parse a ``gate check --report`` document.

    Raises :class:`~repro.errors.ConfigurationError` for a file that is
    not a check report or carries no measurements (an ``error`` run).
    """
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(
            f"cannot read gate report {path}: {exc}"
        ) from exc
    if not isinstance(report, dict) or report.get("command") != "check":
        raise ConfigurationError(
            f"{path} is not a `repro.bench.gate check` report"
        )
    if not report.get("results"):
        raise ConfigurationError(
            f"{path} carries no measurements (status "
            f"{report.get('status')!r}: {report.get('errors')})"
        )
    return report


def _medians(report: Mapping) -> dict[str, float]:
    """Benchmark name -> median ms (names are unique across suites)."""
    return {r["name"]: r["median_ms"] for r in report["results"]}


# ---------------------------------------------------------------------------
# Payload shapes
# ---------------------------------------------------------------------------
def phases_payload(report: Mapping) -> dict:
    """Fig. 5 payload: per use case, the absolute per-phase medians and
    the percentage distribution the figure plots."""
    results = {r["name"]: r for r in report["results"]}
    use_cases: dict[str, dict] = {}
    for uc in USE_CASES:
        result = results.get(f"{uc.name}.ned")
        if result is None:
            continue
        times = dict(result["phases_ms"])
        total = sum(times.values())
        use_cases[uc.name] = {
            "query": uc.query,
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
        "repeats": report["repeats"],
        "warmup": report["warmup"],
        "use_cases": use_cases,
    }


def _whynot_na_reason(name: str) -> str:
    try:
        use_case_factory(name, "whynot")
    except UnsupportedQueryError:
        return "unsupported"
    return "not-measured"


def runtime_payload(report: Mapping) -> dict:
    """Fig. 6 payload: per use case, the NedExplain and Why-Not medians.

    A use case without a Why-Not number records *why*
    (``whynot_na_reason``: ``"unsupported"`` for the aggregation
    queries the baseline cannot trace, ``"not-measured"`` when the
    report simply lacks it) next to an explicit ``"speedup": null`` --
    a bare null would read as a measurement bug.
    """
    medians = _medians(report)
    use_cases: dict[str, dict] = {}
    for uc in USE_CASES:
        ned = medians.get(f"{uc.name}.ned")
        if ned is None:
            continue
        whynot = medians.get(f"{uc.name}.whynot")
        entry: dict[str, Any] = {
            "nedexplain_ms": ned,
            "whynot_ms": whynot,
        }
        if ned and whynot is not None:
            entry["speedup"] = whynot / ned
        else:
            entry["speedup"] = None
            entry["whynot_na_reason"] = _whynot_na_reason(uc.name)
        use_cases[uc.name] = entry
    return {
        "figure": "6",
        "unit": "ms",
        "scale": GATE_SCALE,
        "repeats": report["repeats"],
        "warmup": report["warmup"],
        "use_cases": use_cases,
    }


def write_sample_trace(report: Mapping, path: Path | str) -> Path | None:
    """Write the report's trace sample as JSON lines (None: the report
    carries none because its benchmark was filtered out)."""
    sample = report.get("trace_sample")
    if not sample:
        return None
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in sample["records"]),
        encoding="utf-8",
    )
    return path


# ---------------------------------------------------------------------------
# Text tables
# ---------------------------------------------------------------------------
def _cell(value: float | None) -> str:
    return "-" if value is None else f"{value:.3f}"


def _pair_table(
    title: str,
    report: Mapping,
    first: str,
    second: str,
    counter: str,
    rows: Sequence[tuple[str, str, str]],
) -> str:
    """Two benchmarks per row ``(label, first, second)``: both medians
    and both values of the exact *counter*, plus column totals; rows
    the report has neither side of are left out.  No median ratio:
    near 1x it swaps sides between runs on a shared host, while the
    counters say exactly which side does more work."""
    results = {r["name"]: r for r in report["results"]}
    table = []
    for label, a, b in rows:
        if a in results or b in results:
            pair = [results.get(a), results.get(b)]
            table.append(
                (label, [r and r["median_ms"] for r in pair]
                 + [r and r["counters"].get(counter) for r in pair])
            )
    if len(table) > 1:
        columns = zip(*(values for _, values in table))
        table.append(
            ("TOTAL", [sum(v for v in c if v is not None) for c in columns])
        )
    lines = [
        title,
        f"{'':<18}{'median ms':>24}{counter:>24}",
        f"{'':<18}" + f"{first:>12}{second:>12}" * 2,
    ]
    for index, (label, (ma, mb, ca, cb)) in enumerate(table):
        if index == 0 or label == "TOTAL":
            lines.append("-" * 66)
        counts = "".join(f"{'-' if c is None else c:>12}" for c in (ca, cb))
        lines.append(f"{label:<18}{_cell(ma):>12}{_cell(mb):>12}{counts}")
    return "\n".join(lines)


def render_fig5(phases: Mapping) -> str:
    """Fig. 5: phase-wise runtime distribution for NedExplain (%)."""
    lines = [
        "Fig. 5: % time distribution over NedExplain phases",
        f"{'Use case':<10}" + "".join(f"{p:>18}" for p in PHASES),
        "-" * (10 + 18 * len(PHASES)),
    ]
    for name, entry in phases["use_cases"].items():
        lines.append(
            f"{name:<10}"
            + "".join(
                f"{entry['percent'].get(p, 0.0):>17.1f}%" for p in PHASES
            )
        )
    return "\n".join(lines)


def _use_case_rows(
    first: str, second: str
) -> list[tuple[str, str, str]]:
    """``(use case, its *first* benchmark, its *second* benchmark)``
    for every Table 4 use case, by algorithm name."""
    return [
        (uc.name, f"{uc.name}.{first}", f"{uc.name}.{second}")
        for uc in USE_CASES
    ]


def render_fig6(report: Mapping) -> str:
    """Fig. 6: NedExplain vs Why-Not execution time (median ms)."""
    return _pair_table(
        f"Fig. 6: NedExplain and Why-Not execution time "
        f"(scale {GATE_SCALE})",
        report,
        "NedExplain",
        "Why-Not",
        "budget.comparisons",
        _use_case_rows("ned", "whynot"),
    )


def render_ablations(report: Mapping) -> str:
    """The ablation tables A1-A4 and the batch comparison."""
    median = _medians(report).get
    scaling = [
        (f"{name} x{scale}", median(f"{name}.x{scale}.ned"))
        for name in SCALE_USE_CASES
        for scale in SCALES
    ] + [
        (f"chain depth {depth}", median(f"chain_depth{depth}.ned"))
        for depth in CHAIN_DEPTHS
    ]
    a1 = ["Ablation A1: NedExplain runtime vs scale (median ms)"] + [
        f"{label:<18}{_cell(value):>16}"
        for label, value in scaling
        if value is not None
    ]
    tables = [
        "\n".join(a1),
        _pair_table(
            "Ablation A2: Q8 selection placement, Crime9",
            report,
            "canonical",
            "pushed",
            "budget.comparisons",
            [("Crime9", "Crime9.ned", "Crime9.ned_pushdown")],
        ),
        _pair_table(
            "Ablation A3: early termination (Alg. 2)",
            report,
            "on",
            "off",
            "successors.checks",
            _use_case_rows("ned", "ned_et_off"),
        ),
        _pair_table(
            "Ablation A4: Why-Not traversal order",
            report,
            "bottom-up",
            "top-down",
            "budget.comparisons",
            _use_case_rows("whynot", "whynot_topdown"),
        ),
        _pair_table(
            "Batch: 12 questions, one shared evaluation",
            report,
            "batched",
            "independent",
            "budget.comparisons",
            [("chain3x60", "chain3x60.batched", "chain3x60.independent")],
        ),
    ]
    return "\n\n".join(tables)


def render_artifacts(
    report: Mapping, out_dir: Path | str | None = None
) -> tuple[list[Path], str]:
    """Write every artifact of *report*; return the paths written and
    the rendered tables."""
    out_dir = Path(out_dir) if out_dir is not None else bench_dir()
    phases = phases_payload(report)
    runtime = runtime_payload(report)
    written = [
        write_bench_artifact("phases", phases, out_dir),
        write_bench_artifact("runtime", runtime, out_dir),
    ]
    trace = write_sample_trace(
        report, out_dir / "BENCH_trace_sample.jsonl"
    )
    if trace is not None:
        written.append(trace)
    text = "\n\n".join(
        (render_fig5(phases), render_fig6(report), render_ablations(report))
    )
    return written, text


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.artifacts",
        description="render the BENCH_* evaluation artifacts from a "
        "`repro.bench.gate check --report` document",
    )
    parser.add_argument(
        "--report",
        required=True,
        metavar="PATH",
        help="the gate check report to render",
    )
    parser.add_argument(
        "--out-dir",
        default=None,
        help="artifact directory (default: $REPRO_BENCH_DIR or cwd)",
    )
    args = parser.parse_args(argv)
    try:
        report = read_gate_report(args.report)
    except ConfigurationError as exc:
        print(f"error: {exc}")
        return 2
    written, text = render_artifacts(report, args.out_dir)
    print(text)
    print()
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
