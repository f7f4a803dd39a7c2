"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from repro import (
    EvaluationCache,
    NedExplain,
    canonicalize,
    evaluate_query,
    sql_to_canonical,
)
from repro.obs import Span, read_trace_jsonl
from repro.relational.sql.formatter import format_spec
from repro.workloads import DATABASES, QUERIES, USE_CASE_INDEX

import ledger
import run
import serving
import stats
import sweep
import workloads
from loadgen import Exchange, closed_loop
from oracle import Oracle, expectation_failures

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def databases():
    return {name: build(scale=1) for name, build in DATABASES.items()}


def _requests(seed: int) -> bytes:
    """Every generated input of every workload, for one seed."""
    parts = [json.dumps(o).encode()
             for o in islice(workloads.sweep_orders(["a", "b", "c"], seed), 5)]
    pool = workloads.warm_pool(seed)
    for caller in range(serving.CALLERS):
        parts += [payload for _, payload, _ in islice(
            workloads.warm_requests(seed, caller, pool, "c"), 50)]
    schedule = workloads.poisson_schedule(
        200, 2.0, len(pool), random.Random(f"http-warm/arrivals/{seed}/s0"))
    for due, index in schedule:
        parts.append(repr(due).encode())
        parts.append(workloads.encode_post(
            "/v1/explain", workloads.explain_body(pool[index]), "r"))
    parts += [payload for _, payload, _ in islice(
        workloads.batch_requests(seed, "b"), 30)]
    return b"\n".join(parts)


def test_same_seed_same_requests_other_seed_different():
    assert _requests(7) == _requests(7)
    assert _requests(7) != _requests(8)


def test_batch_texts_are_never_repeated():
    # well past any finite pool of constants: a template's domain holds
    # at most 50892 values, and each gets a fifth of the batches
    texts = [b.sql for b in islice(workloads.batch_stream(3), 300_000)]
    assert len(set(texts)) == len(texts)


#: the column each batch template's constant selects on
BATCH_COLUMNS = {
    "Q2": ("Crime", "Crime.sector"),
    "Q8": ("Crime", "Crime.sector"),
    "Q4": ("Person", "Person.name"),
    "Q6": ("Congress", "Congress.byear"),
    "Q9": ("Earmarks", "Earmarks.camount"),
}


def _result(db, sql):
    canonical = sql_to_canonical(sql, db.schema)
    result = evaluate_query(canonical.root, db.instance(),
                            aliases=canonical.aliases)
    return sorted(json.dumps(v, sort_keys=True)
                  for v in result.result_values())


@pytest.mark.parametrize("query", sorted(workloads.BATCH_TEMPLATES))
def test_batch_constants_keep_selections_proper_and_results_unchanged(
        databases, query):
    """Over the template's whole domain (a spread sample of it for the
    large one), the selection with a batch constant keeps some rows but
    not all, and the query answers exactly as with the plain value."""
    database, template, domain = workloads.BATCH_TEMPLATES[query]
    db = databases[database]
    table, column = BATCH_COLUMNS[query]
    values = [row.get(column) for row in db.table(table).rows]
    step = max(1, len(domain) // 60)
    for value in list(domain[::step]) + [domain[-1]]:
        constant = workloads.batch_constant(query, value, 123_456_789)
        if query == "Q4":
            kept = [v for v in values if v < constant]
            plain = template.replace("< '{c}'", "<= '{c}'").format(c=value)
        else:
            kept = [v for v in values if v > float(constant)]
            plain = template.format(c=value)
        assert 0 < len(kept) < len(values), (query, value)
        answer = _result(db, template.format(c=constant))
        assert answer and answer == _result(db, plain), (query, value)


def test_generated_questions_are_answerable(databases):
    """Every seeded question runs without error on its query."""
    questions = {(q.database, q.sql, q.why_not)
                 for q in workloads.warm_pool(5)}
    for batch in islice(workloads.batch_stream(5), 10):
        questions |= {(batch.database, batch.sql, w) for w in batch.why_not}
    for database, sql, why_not in sorted(questions):
        db = databases[database]
        engine = NedExplain(sql_to_canonical(sql, db.schema), database=db,
                            cache=EvaluationCache())
        assert not engine.explain(why_not).partial


def test_closed_loop_fails_when_a_caller_fails():
    def broken():
        raise IndexError("out of inputs")
        yield  # a generator

    def idle():
        return
        yield

    with pytest.raises(IndexError):
        closed_loop(1, [idle(), broken()], seconds=5.0)


@pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 200, 5000])
def test_checked_batches_are_bounded_and_evenly_spread(n):
    limit = serving.CHECKED_BATCHES
    sample = serving.checked_sample(list(range(n)))
    assert len(sample) == min(n, limit)
    assert sample == sorted(set(sample))
    if n > limit:
        assert (sample[0], sample[-1]) == (0, n - 1)
        gaps = {b - a for a, b in zip(sample, sample[1:])}
        assert max(gaps) - min(gaps) <= 1


def _served(databases, database, sql, question) -> Exchange:
    """An exchange carrying what the service answers for *question*."""
    db = databases[database]
    engine = NedExplain(sql_to_canonical(sql, db.schema), database=db,
                        cache=EvaluationCache())
    ex = Exchange("r1", b"", status=200, question=workloads.Question(
        database, sql, question))
    ex.body = {"report": engine.explain(question).to_dict()}
    return ex


def test_oracle_accepts_the_right_answer(databases):
    database, sql, predicates = workloads.SQL_QUERIES["Q2"]
    ex = _served(databases, database, sql, predicates["Crime5"])
    assert serving._check_answers([ex], Oracle(databases), single=True) == []


@pytest.mark.parametrize("alter", ["drop_detailed", "flip_flag", "relabel"])
def test_oracle_catches_an_altered_answer(databases, alter):
    database, sql, predicates = workloads.SQL_QUERIES["Q2"]
    ex = _served(databases, database, sql, predicates["Crime5"])
    answer = ex.body["report"]["answers"][0]
    if alter == "drop_detailed":
        answer["detailed"].pop()
    elif alter == "flip_flag":
        answer["no_compatible_data"] = not answer["no_compatible_data"]
    else:
        answer["condensed"] = ["not-a-subquery"]
    wrong = serving._check_answers([ex], Oracle(databases), single=True)
    assert len(wrong) == 1


def test_sweep_expectations_catch_a_wrong_report(databases):
    spec = QUERIES["Q2"][1]()
    canonical = canonicalize(spec, databases["crime"].schema)
    report = NedExplain(canonical, database=databases["crime"]).explain(
        USE_CASE_INDEX["Crime5"].predicate)
    expect = USE_CASE_INDEX["Crime5"].expect
    assert expectation_failures(report, expect) == []
    report.answers[0].secondary = ()
    assert "ned_secondary_ops" in expectation_failures(report, expect)


def test_benchmark_json_names_units_and_limits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        stats.PER_LAYER_UNITS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower" and setup["bound"] == max(
        m["bound"] for m in spec["end_to_end"])


def test_sql_gap_is_what_the_frontend_rejects(databases):
    for name, (query, error, _) in workloads.SQL_GAP.items():
        use_case = USE_CASE_INDEX[name]
        db = databases[use_case.database]
        with pytest.raises(Exception) as caught:
            canonical = sql_to_canonical(format_spec(QUERIES[query][1]()),
                                         db.schema)
            NedExplain(canonical, database=db).explain(use_case.predicate)
        assert type(caught.value).__name__ == error, name
    sendable = {n for _, _, p in workloads.SQL_QUERIES.values() for n in p}
    assert sendable | set(workloads.SQL_GAP) == set(USE_CASE_INDEX)


# ---------------------------------------------------------------------------
# The ledger
# ---------------------------------------------------------------------------
def _span(name, span_id, parent, start, end, category="bench", **tags):
    span = Span(name, category, span_id, parent, start, tags)
    span.end = end
    return span


def test_ledger_splits_overlapping_children_and_adds_up():
    spans = [
        _span("bench.request", 1, None, 0.0, 10.0),
        _span("executor.explain_each", 2, 1, 1.0, 9.0),
        # two parallel workers (absorbed tracers: no parent)
        _span("journal.append", 3, None, 2.0, 6.0),
        _span("journal.append", 4, None, 4.0, 8.0),
        _span("storage.fsync", 5, 4, 5.0, 7.0),
    ]
    totals = ledger.charge_request(ledger.tree_from_spans(spans, 1))
    assert totals.pop(ledger.CLIPPED) == 0.0
    assert sum(totals.values()) == pytest.approx(10.0)
    assert totals["trace.unattributed"] == pytest.approx(2.0)
    # 2..4 worker A alone, 4..6 shared, 6..8 worker B alone
    assert totals["executor.explain_each"] == pytest.approx(2.0)
    assert totals["journal.append"] + totals["storage.fsync"] == (
        pytest.approx(6.0))
    assert totals["storage.fsync"] == pytest.approx(0.5 * 1 + 1.0)


def test_ledger_counts_time_outside_the_parent_as_error():
    spans = [_span("bench.request", 1, None, 0.0, 4.0),
             _span("http.exchange", 2, 1, 1.0, 4.0),
             _span("service.handle", 3, 2, 2.0, 5.0)]
    totals = ledger.charge_request(ledger.tree_from_spans(spans, 1))
    assert totals[ledger.CLIPPED] == pytest.approx(1.0)


def test_traced_sweep_reconciles():
    collector = ledger.Collector()
    result = sweep.run(seed=1, seconds=1.0, traced=True, collector=collector)
    table = result["table"]
    assert result["wrong"] == []
    assert table.requests >= 19
    assert table.reconcile_error <= ledger.RECONCILE_TOL
    assert table.rows["database.input_instance"] > 0
    metrics = table.metrics({"loadgen.lag_tail_ms": 0.0,
                             "service.engines_held": 0.0, "service.shed": 0.0,
                             "storage.bytes_per_question": 0.0,
                             **result["extra"]})
    assert list(metrics) == list(stats.PER_LAYER_UNITS)


@pytest.mark.parametrize("workload", ["http-warm", "http-batch"])
def test_traced_service_run_reconciles_and_writes_obs_jsonl(workload):
    """A short traced run through the command line: the result line
    carries every per-layer metric, the ledger reconciles, and the spans
    are valid repro.obs JSONL with one request id per request."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert out.returncode == 0, out.stderr + out.stdout
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == list(stats.PER_LAYER_UNITS)
    assert metrics["trace.reconcile_error_frac"]["value"] <= (
        ledger.RECONCILE_TOL)
    assert metrics["service.http_overhead_ms"]["value"] > 0
    spans, _ = read_trace_jsonl(ROOT / ".perfbench" / f"trace-{workload}.jsonl")
    by_id = {s["id"]: s for s in spans}
    for span in spans:
        parent = by_id.get(span.get("parent"))
        assert "rid" in span["tags"]
        if parent is not None:
            assert parent["tags"]["rid"] == span["tags"]["rid"]
    assert any(s["name"] == "service.handle" for s in spans)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
