"""``http-warm`` and ``http-batch``: the service over loopback HTTP.

The server runs in its own child process (``server.ServerProcess``) so
the load generator does not share its interpreter lock.  Set-up goes
through the repo's ``ServiceClient``; timed requests go over raw
sockets (``loadgen``), one connection per request, at most two open.

``http-warm`` takes its latencies from a closed loop of two callers.
An open loop at a fixed low rate was tried first: its idle gaps between
arrivals expose the host's wake-up latency, and its median moved by
20-45% between runs on a shared 2-CPU virtual machine, against under
10% for the closed loop measured alongside it.  The open loop is kept
for what it is needed for, the highest rate that meets a latency limit.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from pathlib import Path

from repro.obs import Span, read_trace_jsonl
from repro.service.client import ServiceClient
from repro.workloads import DATABASES

from ledger import Collector, tree_from_spans
from loadgen import Exchange, closed_loop, exchange, open_loop
from oracle import Oracle, answers_key
from server import ServerProcess
from stats import LayerTable, percentile
from workloads import (
    BATCH_QUESTIONS,
    BATCH_TEMPLATES,
    SQL_QUERIES,
    batch_requests,
    encode_post,
    explain_body,
    poisson_schedule,
    warm_pool,
    warm_requests,
)

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 5

#: http-warm's latency and throughput come from a closed loop of this
#: many callers, each sending its next request as soon as its previous
#: reply arrived (the traced run uses the same load)
CALLERS = 2

#: most of an http-warm run the open-loop rate ladder may take; it runs
#: first, and the closed loop gets the rest
LADDER_SHARE = 0.6

#: the ladder's steps are placed around the server's capacity, estimated
#: first by a PROBE_S closed loop of CALLERS callers (the open loop keeps
#: at most as many connections open, so its knee lies near that loop's
#: rate): from LADDER_START times the estimate, STEP_FACTOR apart, each
#: STEP_S long, until two in a row miss the limit.  A fixed grid of rates
#: made the result jump between grid points from run to run, because a
#: single step near the knee passes or misses by chance.
PROBE_S = 1.5
LADDER_START = 0.75
STEP_FACTOR = 1.08
LADDER_STEPS = 10
STEP_S = 1.5

#: a step meets the latency limit when its p90 latency is at most this
LIMIT_PERCENTILE = 90.0
LATENCY_LIMIT_MS = 100.0

#: a step has a growing backlog, and misses the limit, when more
#: requests are due but unsent at its end than arrive in this long
BACKLOG_LIMIT_S = LATENCY_LIMIT_MS / 1000

#: a run whose generator lateness (p99) exceeds this is invalid: the
#: latencies would measure the generator, not the server
LAG_LIMIT_MS = 25.0

#: plain constants for the warm-up batch of each template: timed texts
#: always carry a batch index in theirs, so they stay unseen
WARMUP_CONSTANTS = {"Q2": "40", "Q8": "40", "Q4": "Hank", "Q6": "1970",
                    "Q9": "1000"}


class InvalidRun(Exception):
    """The generator could not keep its schedule; no result is valid."""


def _register(client: ServiceClient, warm: dict[str, list[str]]) -> None:
    for name in DATABASES:
        if name == "imdb":  # no SQL-expressible use case reads it
            continue
        response = client.register_database(
            {"name": name, "use_case_db": name, "warm": warm.get(name, [])}
        )
        if not response.ok:
            raise RuntimeError(f"registering {name} failed: {response}")


def _check_ok(ex: Exchange, step: str) -> None:
    if not ex.ok:
        raise RuntimeError(f"{step} failed: {ex.status} {ex.error}")


def start_server(kind: str, seed: int, src: Path, run_dir: Path,
                 index: int, traced: bool):
    """Start, register and warm one server; ``(server, seconds)``."""
    started = time.perf_counter()
    trace_out = run_dir / f"server-{index}.trace.jsonl" if traced else None
    server = ServerProcess(src, run_dir / f"journal-{index}", trace_out)
    try:
        client = ServiceClient(port=server.port)
        client.wait_ready()
        if kind == "http-warm":
            warm = defaultdict(list)
            for database, sql, _ in SQL_QUERIES.values():
                warm[database].append(sql)
            _register(client, warm)
            for i, question in enumerate(warm_pool(seed)):
                # no request id: warm-ups stay out of a traced ledger
                _check_ok(exchange(server.port, f"warm{i}", encode_post(
                    "/v1/explain", explain_body(question), None)),
                    "warm-up explain")
        else:
            _register(client, {})
            for query, (database, template, _) in BATCH_TEMPLATES.items():
                sql = template.format(c=WARMUP_CONSTANTS[query])
                body = {"database": database, "sql": sql,
                        "why_not": list(SQL_QUERIES[query][2].values()),
                        "workers": 2}
                rid = f"warm-{query}"
                _check_ok(exchange(server.port, rid, encode_post(
                    "/v1/explain_batch", body, None)), "warm-up batch")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def start_measured(kind, seed, src, run_dir):
    """``SETUP_REPEATS`` set-ups; all but the last server are stopped.
    Returns the last server and the median set-up time."""
    times = []
    server = None
    for index in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server, seconds = start_server(kind, seed, src, run_dir, index, False)
        times.append(seconds)
    return server, sorted(times)[len(times) // 2]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Traced runs: join the server's spans to the generator's
# ---------------------------------------------------------------------------
def _client_spans(ex: Exchange) -> list[Span]:
    root = Span("bench.request", "bench", 1, None, ex.due)
    root.end = ex.done
    wire = Span("http.exchange", "bench", 2, 1, ex.sent)
    wire.end = ex.done
    return [root, wire]


def join_trace(trace_path: Path, exchanges: list[Exchange],
               table: LayerTable, collector: Collector) -> dict:
    """Add every traced request's client and server spans to the
    ledger and the collector; server counters go to both too.  Returns
    the server's metrics snapshot."""
    records, metrics = read_trace_jsonl(trace_path)
    by_request = defaultdict(list)
    for record in records:
        by_request[record["tags"]["rid"]].append(record)
    handle = next(r for r in records if r["name"] == "service.handle")
    epoch = handle["tags"]["t0"] - handle["start_ms"] / 1000.0
    for ex in exchanges:
        server_records = by_request.get(ex.rid)
        if not ex.ok or not server_records:
            continue
        spans = _client_spans(ex)
        ids = {r["id"]: 100 + i for i, r in enumerate(server_records)}
        executor = next((ids[r["id"]] for r in server_records
                         if r["name"] == "executor.explain_each"), None)
        for r in server_records:
            if r["name"] == "service.handle":
                parent = 2  # the client's http.exchange span
            else:
                parent = ids.get(r.get("parent"), executor)
            span = Span(r["name"], r["category"], ids[r["id"]], parent,
                        epoch + r["start_ms"] / 1000.0, dict(r["tags"]))
            span.end = span.start + r["duration_ms"] / 1000.0
            spans.append(span)
        table.add_request(tree_from_spans(spans, 1), ex.latency_s)
        collector.add(spans, ex.rid)
    table.add_counters(metrics)
    collector.metrics.absorb(metrics)
    return metrics


def _scrape(port: int) -> dict[str, float]:
    snapshot = ServiceClient(port=port).metrics().body["metrics"]
    return {"service.shed": float(
        snapshot.get("service.shed_total", {}).get("value", 0))}


# ---------------------------------------------------------------------------
# http-warm
# ---------------------------------------------------------------------------
def _arrivals(seed, rate, seconds, pool, tag):
    rng = random.Random(f"http-warm/arrivals/{seed}/{tag}")
    start = time.perf_counter() + 0.05
    arrivals = []
    for k, (due, index) in enumerate(
        poisson_schedule(rate, seconds, len(pool), rng)
    ):
        question = pool[index]
        rid = f"{tag}-{k}"
        arrivals.append(Exchange(
            rid, encode_post("/v1/explain", explain_body(question), rid),
            due=start + due, question=question))
    return arrivals, start + seconds


def _step(port, seed, rate, seconds, pool, tag):
    """One fixed-rate open-loop step: its exchanges, its limit-percentile
    latency, and whether it met the limit without a growing backlog."""
    arrivals, end = _arrivals(seed, rate, seconds, pool, tag)
    done = open_loop(port, arrivals)
    backlog = sum(1 for ex in done if ex.due <= end and ex.sent > end)
    latencies = [ex.latency_s if ex.ok else float("inf") for ex in done]
    limit_latency = percentile(latencies, LIMIT_PERCENTILE)
    meets = (backlog <= rate * BACKLOG_LIMIT_S
             and limit_latency * 1000 <= LATENCY_LIMIT_MS)
    return done, limit_latency, meets


def _ladder(port, seed, seconds, pool, summary):
    """The capacity probe, then the steps up from below it, until two
    steps in a row miss the limit (one host hiccup must not end the
    search) or the *seconds* would run out.  Returns the ladder's
    exchanges and its ``(rate, latency, meets)`` per step."""
    deadline = time.perf_counter() + seconds
    probe, wall = _callers(port, seed, PROBE_S, pool, "p")
    estimate = sum(1 for ex in probe if ex.ok) / wall
    if estimate == 0:
        raise RuntimeError("capacity probe: no request succeeded")
    summary.append(f"capacity probe: {estimate:.1f} req/s closed-loop")
    exchanges, steps = list(probe), []
    for k in range(LADDER_STEPS):
        if time.perf_counter() + STEP_S > deadline:
            break
        rate = estimate * LADDER_START * STEP_FACTOR ** k
        done, latency, meets = _step(port, seed, rate, STEP_S, pool, f"s{k}")
        exchanges.extend(done)
        steps.append((rate, latency, meets))
        summary.append(f"rate {rate:.1f} req/s: p{LIMIT_PERCENTILE:g} "
                       f"{latency * 1000:.2f} ms, "
                       f"{'meets' if meets else 'misses'} the limit")
        if not meets and len(steps) > 1 and not steps[-2][2]:
            break
    return exchanges, steps


def max_rate(steps: list[tuple[float, float, bool]]) -> float:
    """The highest offered rate meeting the limit, refined by linear
    interpolation of the limit latency between it and the next step,
    which missed (so the figure moves continuously).  With no step
    meeting the limit, the interpolation starts from zero load."""
    passed = [k for k, (_, _, meets) in enumerate(steps) if meets]
    top = passed[-1] if passed else -1
    low_rate, low_latency = steps[top][:2] if passed else (0.0, 0.0)
    if top + 1 == len(steps):
        return low_rate
    rate, latency, _ = steps[top + 1]
    limit = LATENCY_LIMIT_MS / 1000
    if latency <= limit:  # missed on its backlog alone
        return low_rate
    share = (limit - low_latency) / (latency - low_latency)
    return low_rate + (rate - low_rate) * share


def _check_answers(exchanges, oracle: Oracle, single: bool):
    """``(request id, problem)`` for every answer of a successful
    exchange that differs from the reference."""
    wrong = []
    for ex in exchanges:
        if not ex.ok:
            continue
        if single:
            got = [(ex.question.why_not, ex.body["report"])]
        else:
            got = [(o["question"], o["report"]) for o in ex.body["outcomes"]]
        for why_not, report in got:
            expected = oracle.expected(ex.question.database, ex.question.sql,
                                       why_not)
            if report is None or answers_key(report) != expected:
                wrong.append((ex.rid, f"{why_not}: differs from the "
                              "literal Alg. 1-3 oracle"))
        if not single:
            oracle.forget_engines()
    return wrong


def _lag_check(exchanges) -> float:
    lag = percentile([ex.lag for ex in exchanges], 99.0) * 1000
    if lag > LAG_LIMIT_MS:
        raise InvalidRun(
            f"generator lateness p99 {lag:.1f} ms > {LAG_LIMIT_MS} ms"
        )
    return lag


#: the traced http-warm run measures the open-loop generator's lateness
#: in one untraced step at this rate, for this long
LAG_PROBE_RPS = 200.0
LAG_PROBE_S = 1.0


def _lag_probe(port, seed, pool) -> dict[str, float]:
    done, _, _ = _step(port, seed, LAG_PROBE_RPS, LAG_PROBE_S, pool, "lag")
    return {"loadgen.lag_tail_ms": _lag_check(done)}


def _callers(port, seed, seconds, pool, tag):
    callers = [warm_requests(seed, k, pool, tag) for k in range(CALLERS)]
    return closed_loop(port, callers, seconds)


def http_warm(seed, seconds, traced, collector, src, run_dir, databases):
    pool = warm_pool(seed)
    table = LayerTable()
    summary = []
    if not traced:
        server, setup_s = start_measured("http-warm", seed, src, run_dir)
        try:
            # the ladder first: after thousands of back-to-back requests
            # its first steps ran slower on the same server.  The closed
            # loop gets what the ladder leaves of the run.
            started = time.perf_counter()
            ladder, steps = _ladder(server.port, seed,
                                    seconds * LADDER_SHARE, pool, summary)
            rest = seconds - (time.perf_counter() - started)
            timed, wall = _callers(server.port, seed, rest, pool, "c")
            peak_rss_mb = server.peak_rss_mb()
        finally:
            server.stop()
        lag_ms = _lag_check(ladder)
        summary.append(f"open-loop generator lateness p99 {lag_ms:.2f} ms")
        extra = {"max_rate_rps": max_rate(steps), "setup_s": setup_s}
    else:
        timed, extra = _traced_pair(
            "http-warm", seed, seconds, src, run_dir, table, collector,
            lambda port, tag: _callers(port, seed, seconds / 2, pool, tag)[0],
            lambda port: _lag_probe(port, seed, pool),
        )
        ladder, wall, peak_rss_mb = [], seconds / 2, 0.0
    wrong = _check_answers(timed + ladder, Oracle(databases), single=True)
    wrong_rids = {rid for rid, _ in wrong}
    failed = sum(1 for ex in timed + ladder if not ex.ok) + len(wrong)
    return {
        "latencies": [ex.latency_s if ex.ok else float("inf")
                      for ex in timed],
        "questions": len(timed) + len(ladder),
        "requests": len(timed) + len(ladder),
        "answered": sum(1 for ex in timed + ladder if ex.ok),
        # throughput counts the closed loop only: the ladder's
        # rates are offered, not achieved
        "correct_in_wall": sum(1 for ex in timed
                               if ex.ok and ex.rid not in wrong_rids),
        "wrong": [f"{rid}: {problem}" for rid, problem in wrong],
        "failed": failed,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "table": table,
        "extra": extra,
        "summary": summary,
    }


def _traced_pair(kind, seed, seconds, src, run_dir, table, collector, load,
                 probe=None):
    """Run *load* against a plain server, then against a traced one;
    the traced half feeds the ledger.  *probe*, if given, runs on the
    plain server after the load and returns extra metrics.  Returns the
    traced exchanges and the tracing overhead, the /metrics scrape and
    the engines the traced server held at its end."""
    plain, _ = start_server(kind, seed, src, run_dir, 0, False)
    try:
        untraced = load(plain.port, "plain")
        extra = probe(plain.port) if probe is not None else {}
    finally:
        plain.stop()
    server, _ = start_server(kind, seed, src, run_dir, 1, True)
    try:
        traced = load(server.port, "traced")
        extra.update(_scrape(server.port))
    finally:
        server.stop()
    metrics = join_trace(run_dir / "server-1.trace.jsonl", traced, table,
                         collector)
    extra["service.engines_held"] = float(
        metrics["bench.engines_held"]["value"])
    mean = lambda xs: sum(ex.latency_s for ex in xs) / len(xs)  # noqa: E731
    extra["trace.overhead_frac"] = mean(traced) / mean(untraced) - 1
    return traced, extra


# ---------------------------------------------------------------------------
# http-batch
# ---------------------------------------------------------------------------
#: http-batch reports the server's peak RSS when this many batches have
#: completed, so a faster server, which fits more never-seen texts (and
#: so more engines) into a run, is not charged for them
RSS_AT_BATCH = 120

#: http-batch checks the answers of at most this many batches, spread
#: evenly over the run.  Every batch carries a new query text, so the
#: reference cannot be shared between batches, and for Q9 it costs about
#: three times what the server spends on the batch: checking every batch
#: would make the check, not the timed load, most of a run, and the run
#: of a faster program, which sends more batches, longer with every gain.
CHECKED_BATCHES = 32


def checked_sample(exchanges: list) -> list:
    """At most ``CHECKED_BATCHES`` of *exchanges*, evenly spaced from the
    first to the last, in order."""
    n, limit = len(exchanges), CHECKED_BATCHES
    if n <= limit:
        return list(exchanges)
    return [exchanges[k * (n - 1) // (limit - 1)] for k in range(limit)]


def _batches(port, seed, seconds, tag, server=None, rss=None):
    """Closed loop, one caller, one journaled batch at a time.  With a
    *server*, its peak RSS is appended to *rss* at ``RSS_AT_BATCH``."""
    replies = []

    def on_reply(ex):
        if ex.ok and ex.body.get("degradation_level") != "full":
            ex.error = f"degraded: {ex.body.get('degradation_level')}"
        replies.append(ex)
        if server is not None and len(replies) == RSS_AT_BATCH:
            rss.append(server.peak_rss_mb())

    return closed_loop(port, [batch_requests(seed, tag)], seconds, on_reply)


def http_batch(seed, seconds, traced, collector, src, run_dir, databases):
    table = LayerTable()
    summary = []
    if not traced:
        server, setup_s = start_measured("http-batch", seed, src, run_dir)
        rss = []
        try:
            before = _dir_bytes(server.journal_dir)
            exchanges, wall = _batches(server.port, seed, seconds, "b",
                                       server, rss)
            peak_rss_mb = rss[0] if rss else server.peak_rss_mb()
            stored = _dir_bytes(server.journal_dir) - before
        finally:
            server.stop()
        extra = {"setup_s": setup_s, "max_rate_rps": len(exchanges) / wall}
    else:
        exchanges, extra = _traced_pair(
            "http-batch", seed, seconds, src, run_dir, table, collector,
            lambda port, tag: _batches(port, seed, seconds / 2, tag)[0],
        )
        wall, peak_rss_mb = seconds / 2, 0.0
    answered = sum(BATCH_QUESTIONS for ex in exchanges if ex.ok)
    checked = checked_sample(exchanges)
    wrong = _check_answers(checked, Oracle(databases), single=False)
    failed = sum(BATCH_QUESTIONS for ex in exchanges if not ex.ok) + len(wrong)
    summary.append(f"answers of {len(checked)} of {len(exchanges)} batches "
                   "checked against the reference, evenly spread")
    if not traced:
        summary.append(f"storage_bytes_per_question "
                       f"{stored / max(1, answered):.1f} bytes/question "
                       "(bytes left under the journal directory)")
    return {
        "latencies": [ex.latency_s if ex.ok else float("inf")
                      for ex in exchanges],
        "questions": BATCH_QUESTIONS * len(exchanges),
        "requests": len(exchanges),
        "answered": answered,
        "correct_in_wall": answered - len(wrong),
        "wrong": [f"{rid}: {problem}" for rid, problem in wrong],
        "failed": failed,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "table": table,
        "extra": extra,
        "summary": summary,
    }
