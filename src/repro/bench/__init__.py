"""Benchmark harness: one registry of benchmarks and one timing loop
(:mod:`repro.bench.runner`), the regression gate over it
(:mod:`repro.bench.gate`), and the ``BENCH_*`` artifacts rendered from
the gate's report (:mod:`repro.bench.artifacts`)."""

from .baselines import (
    BaselineEntry,
    SuiteBaseline,
    baseline_dir,
    read_suite_baseline,
    write_suite_baseline,
)
from .report import render_table5
from .runner import (
    SUITES,
    BenchmarkSpec,
    Measurement,
    UseCaseResult,
    mad,
    measure,
    measure_interleaved,
    pushed_down_q8,
    reduce_samples,
    run_all,
    run_use_case,
    use_case_factory,
)

__all__ = [
    "BaselineEntry",
    "BenchmarkSpec",
    "GateReport",
    "Measurement",
    "SUITES",
    "SuiteBaseline",
    "Thresholds",
    "UseCaseResult",
    "allowed_regression_ms",
    "baseline_dir",
    "compare_measurement",
    "diff_counters",
    "mad",
    "measure",
    "measure_interleaved",
    "phases_payload",
    "pushed_down_q8",
    "read_bench_artifact",
    "read_gate_report",
    "read_suite_baseline",
    "read_trajectory",
    "reduce_samples",
    "render_artifacts",
    "render_table5",
    "run_all",
    "run_check",
    "run_report",
    "run_update",
    "run_use_case",
    "runtime_payload",
    "use_case_factory",
    "write_bench_artifact",
    "write_suite_baseline",
]

#: Names of the runnable submodules (`python -m repro.bench.gate`,
#: `python -m repro.bench.artifacts`) resolved lazily so runpy does not
#: find them pre-imported and warn about double execution; everything
#: else about `from repro.bench import run_check` is unchanged.
_LAZY_EXPORTS = {
    "GateReport": "gate",
    "Thresholds": "gate",
    "allowed_regression_ms": "gate",
    "compare_measurement": "gate",
    "diff_counters": "gate",
    "read_trajectory": "gate",
    "run_check": "gate",
    "run_report": "gate",
    "run_update": "gate",
    "phases_payload": "artifacts",
    "read_bench_artifact": "artifacts",
    "read_gate_report": "artifacts",
    "render_artifacts": "artifacts",
    "runtime_payload": "artifacts",
    "write_bench_artifact": "artifacts",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        module = importlib.import_module(
            f".{module_name}", __name__
        )
        return getattr(module, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
