"""The service under test, in its own process.

Untraced runs start exactly ``python3 -m repro.cli serve`` with its
defaults plus ``--port 0`` and a fresh ``--journal-dir``.  Traced runs
start this file instead::

    python3 perfbench/server.py TRACE_OUT [serve arguments...]

which wraps the layers' public functions with spans (see ``ledger``),
gives every HTTP request that carries ``X-Request-Id`` its own tracer,
runs the same ``serve`` entry point, and after the drain writes every
request's spans to TRACE_OUT in the ``repro.obs`` JSONL format, with
the number of engines the service still holds as the gauge
``bench.engines_held``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent


def split_cpus() -> tuple[set[int], set[int]] | None:
    """(benchmark CPUs, server CPUs): with two or more usable CPUs the
    server gets the last one to itself, so the load generator never
    takes CPU time from the server it measures; ``None`` with one."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return set(cpus[:-1]), {cpus[-1]}


class ServerProcess:
    """One ``serve`` child process on an ephemeral loopback port."""

    def __init__(self, src: Path, journal_dir: Path, trace_out: Path | None):
        journal_dir.mkdir(parents=True)
        serve_args = ["--port", "0", "--journal-dir", str(journal_dir)]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.cli", "serve", *serve_args]
        else:
            command = [sys.executable, str(HERE / "server.py"),
                       str(trace_out), *serve_args]
        env = dict(os.environ, PYTHONPATH=str(src))
        self.journal_dir = journal_dir
        with open(f"{journal_dir}.stderr", "w") as log:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log,
                text=True, env=env,
            )
        cpus = split_cpus()
        if cpus is not None:
            # set before the server starts any thread; threads inherit it
            os.sched_setaffinity(self.process.pid, cpus[1])
        first = self.process.stdout.readline().strip()
        if "listening on" not in first:
            self.stop()
            raise RuntimeError(f"server did not start: {first!r}")
        self.port = int(first.rsplit(":", 1)[1])
        # keep draining stdout so the server never blocks on a full pipe
        self._reader = threading.Thread(
            target=self.process.stdout.read, daemon=True
        )
        self._reader.start()

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (VmHWM), in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout_s: float = 30.0) -> int:
        """Graceful drain (SIGTERM), killing only if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        return self.process.returncode


def _traced_main(argv: list[str]) -> int:
    from repro.cli import main as cli_main
    from repro.obs import Tracer, tracing, write_trace_jsonl
    from repro.service.server import ServiceHandler

    from ledger import install_service_spans

    trace_out, serve_args = argv[0], argv[1:]
    install_service_spans()
    merged = Tracer()
    lock = threading.Lock()
    handle_work = ServiceHandler._handle_work

    states = set()

    def traced_handle_work(self, batch):
        states.add(self.state)
        request_id = self.headers.get("X-Request-Id")
        if request_id is None:
            return handle_work(self, batch)
        tracer = Tracer()
        with tracing(tracer):
            with tracer.span("service.handle", "bench") as root:
                # the absolute start aligns this process's spans with
                # the load generator's (both read CLOCK_MONOTONIC)
                root.set_tag("t0", root.start)
                handle_work(self, batch)
        for span in tracer.spans:
            span.set_tag("rid", request_id)
        with lock:
            merged.absorb(tracer)

    ServiceHandler._handle_work = traced_handle_work
    code = cli_main(["serve", *serve_args])
    # the engines the service still holds after the run (the registry
    # has no public size; its counter only ever counts engines created)
    merged.metrics.gauge("bench.engines_held").set(
        sum(len(state._engines) for state in states))
    with lock:
        write_trace_jsonl(merged, trace_out)
    return code


if __name__ == "__main__":
    raise SystemExit(_traced_main(sys.argv[1:]))
