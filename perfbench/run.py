#!/usr/bin/env python3
"""End-to-end why-not benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload {sweep-cold,http-warm,http-batch} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program under test is ``src/repro``
of that checkout (nothing is installed).  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print every metric with its unit.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ledger of a separate
traced run and writes its spans to ``.perfbench/trace-<workload>.jsonl``.

Exit codes: 0 a valid run with every answer correct; 1 the program is
missing or an answer differs from the reference; 3 the load generator
fell behind its schedule, so no result is printed.  See
``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("sweep-cold", "http-warm", "http-batch")

#: every end-to-end metric with its unit, in BENCHMARK.json order
E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_qps": "questions/s",
    "max_rate_rps": "req/s",
    "peak_rss_mb": "MiB",
}

def load_program() -> None:
    """Put this checkout's ``src`` first on the path; refuse to run
    against anything else."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {package}")


def sweep_setup_s(repeats: int) -> float:
    """Median time from starting a process to having the databases and
    query specs built (``--setup-probe``), over *repeats* set-ups."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe"],
            stdout=subprocess.PIPE, text=True,
        )
        line = child.stdout.read()
        times.append(time.perf_counter() - started)
        if child.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("sweep-cold set-up probe failed")
    return sorted(times)[len(times) // 2]


def _cpu_times() -> list[int]:
    with open("/proc/stat") as stat:
        return [int(x) for x in stat.readline().split()[1:]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_program()

    import sweep
    if args.setup_probe:
        sweep.setup()
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    import serving
    import stats
    from ledger import RECONCILE_TOL, Collector
    from repro.workloads import DATABASES
    from server import split_cpus

    cpus = split_cpus()
    if cpus is not None:
        os.sched_setaffinity(0, cpus[0])

    # a terminated run still stops its servers (the finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    traced = bool(args.trace)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    collector = Collector()
    cpu_before = _cpu_times()
    try:
        if args.workload == "sweep-cold":
            result = sweep.run(args.seed, args.seconds, traced, collector)
            if not traced:
                result["extra"]["setup_s"] = sweep_setup_s(
                    serving.SETUP_REPEATS)
                result["extra"]["max_rate_rps"] = (
                    result["requests"] / result["wall_s"])
        else:
            databases = {name: build(scale=1)
                         for name, build in DATABASES.items()}
            drive = (serving.http_warm if args.workload == "http-warm"
                     else serving.http_batch)
            result = drive(args.seed, args.seconds, traced, collector, SRC,
                           run_dir, databases)
    except serving.InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    cpu = [b - a for a, b in zip(cpu_before, _cpu_times())]
    wrong = result["wrong"]
    answered = result.get("answered", result["questions"])
    lines = [f"workload {args.workload}, seed {args.seed}, "
             f"{result['requests']} requests, {result['questions']} questions"]
    lines += result.get("summary", [])
    lines.append(f"host steal time {100 * cpu[7] / max(1, sum(cpu)):.1f}% "
                 "of CPU time during the run (time the hypervisor ran "
                 "other guests: figures from a run with much of it are "
                 "noisy)")
    if not traced:
        latencies = result["latencies"]
        p = stats.TAIL_PERCENTILE[args.workload]
        extra = result["extra"]
        values = {
            "setup_s": extra["setup_s"],
            "latency_p50_ms": stats.median(latencies) * 1000,
            "latency_tail_ms": stats.percentile(latencies, p) * 1000,
            "throughput_qps": result["correct_in_wall"] / result["wall_s"],
            "max_rate_rps": extra["max_rate_rps"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = E2E_UNITS
        lines.append(f"latency_tail_ms is p{p:g} of {len(latencies)} "
                     f"samples, {stats.beyond(latencies, p)} beyond it")
    else:
        table = result["table"]
        # no service in sweep-cold; no open loop, so no generator
        # lateness, outside http-warm
        extra = {"loadgen.lag_tail_ms": 0.0, "service.engines_held": 0.0,
                 "service.shed": 0.0, **result["extra"]}
        extra["storage.bytes_per_question"] = (
            table.counters["storage.bytes_written"] / max(1, answered))
        values = table.metrics(extra)
        units = stats.PER_LAYER_UNITS
        trace_path = WORK / f"trace-{args.workload}.jsonl"
        collector.write(trace_path)
        lines.append(
            f"ledger over {table.requests} traced requests: layer self times "
            f"sum to {sum(table.rows.values()) * 1000 / table.requests:.3f} "
            f"ms/request against a measured "
            f"{table.latency_s * 1000 / table.requests:.3f} ms/request "
            f"(tolerance {RECONCILE_TOL:.0%}); spans in {trace_path}")
        if table.reconcile_error > RECONCILE_TOL:
            wrong = wrong + ["layer self times do not reconcile with the "
                             "traced end-to-end time"]
    failed = result["failed"]
    lines.append(f"failed_frac {failed / max(1, result['questions']):.6f} "
                 f"ratio ({failed} of {result['questions']} questions)")
    for name, value in values.items():
        lines.append(f"{name} {value:.6g} {units[name]}")
    for problem in wrong[:20]:
        lines.append(f"WRONG: {problem}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not wrong,
        "attempted": result["questions"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }), flush=True)
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
