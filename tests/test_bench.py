"""Tests for the benchmark harness (runner, registry, renderers)."""

import json
from pathlib import Path

import pytest

from repro.baseline import WhyNotBaseline
from repro.bench import (
    measure,
    measure_interleaved,
    pushed_down_q8,
    render_table5,
    run_use_case,
    use_case_factory,
)
from repro.bench.artifacts import (
    main as artifacts_main,
    phases_payload,
    read_bench_artifact,
    read_gate_report,
    render_artifacts,
    render_fig5,
    render_fig6,
    runtime_payload,
)
from repro.bench.gate import run_check, run_update
from repro.core import NedExplain
from repro.core.nedexplain import PHASES
from repro.errors import ConfigurationError
from repro.obs import read_trace_jsonl
from repro.robustness.budget import Budget
from repro.workloads import use_case_setup

REPO_ROOT = Path(__file__).resolve().parents[1]


def _result(name, median_ms, phases_ms=None):
    return {
        "name": name,
        "suite": "canned",
        "status": "ok",
        "median_ms": median_ms,
        "mad_ms": 0.0,
        # a stand-in for an exact work counter
        "counters": {"budget.comparisons": round(median_ms * 100)},
        "phases_ms": phases_ms or {},
    }


#: a hand-written `gate check --report` document
CANNED_REPORT = {
    "command": "check",
    "status": "ok",
    "repeats": 3,
    "warmup": 1,
    "trace_sample": None,
    "results": [
        _result(
            "Crime5.ned",
            2.0,
            {phase: 0.5 for phase in PHASES},
        ),
        _result("Crime5.whynot", 8.0),
        _result("Crime6.ned", 1.0),
        _result("Crime9.ned", 2.0),
        _result("Crime10.ned", 2.0),
        _result("Gov6.ned", 3.0),
        _result("Crime5.ned_et_off", 3.0),
        _result("Crime9.ned_pushdown", 3.0),
        _result("Crime5.whynot_topdown", 9.0),
        _result("Crime1.x2.ned", 4.0),
        _result("chain3x60.batched", 5.0),
        _result("chain3x60.independent", 20.0),
    ],
}


@pytest.fixture(scope="module")
def report_file(tmp_path_factory):
    """A real check report: Crime5 on both sides of Fig. 6, and
    Crime9, which only NedExplain can explain."""
    directory = tmp_path_factory.mktemp("gate")
    kwargs = dict(
        suites=["usecases", "whynot"],
        benchmarks=["Crime5.ned", "Crime5.whynot", "Crime9.ned"],
        repeats=1,
        warmup=0,
        baseline_directory=directory,
    )
    run_update(**kwargs)
    report = run_check(append_to_trajectory=False, **kwargs)
    # only the measurements matter here: a one-repeat check's
    # wall-clock verdict is noise, but a gate error carries none
    assert report.status != "error", report.render()
    path = directory / "GATE_report.json"
    path.write_text(json.dumps(report.to_dict()), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def crime5():
    return run_use_case("Crime5")


@pytest.fixture(scope="module")
def crime9():
    return run_use_case("Crime9")


class TestRunner:
    def test_answer_texts(self, crime5):
        assert "m3" in crime5.ned_answer_text()
        assert crime5.whynot_answer_text() == "m2"

    def test_na_text(self, crime9):
        assert crime9.whynot_answer_text() == "n.a."
        assert crime9.whynot_total_ms is None

    def test_timings_positive(self, crime5):
        assert crime5.ned_total_ms > 0
        assert crime5.whynot_total_ms is not None
        assert crime5.whynot_total_ms > 0

    def test_baseline_can_be_skipped(self):
        result = run_use_case("Crime5", run_baseline=False)
        assert result.whynot is None and not result.whynot_na

    def test_no_compatible_branch_rendered(self):
        result = run_use_case("Gov7", run_baseline=False)
        assert "{}" in result.ned_answer_text()

    def test_parallel_run_matches_sequential(self, crime5):
        """The workers knob routes through the parallel executor and
        must not change a benchmark's answers."""
        parallel = run_use_case("Crime5", workers=4)
        assert parallel.ned_answer_text() == crime5.ned_answer_text()
        assert parallel.ned.summary() == crime5.ned.summary()


class TestRenderers:
    @pytest.fixture(scope="class")
    def some_results(self):
        return [run_use_case("Crime5"), run_use_case("Crime9")]

    def test_table5(self, some_results):
        text = render_table5(some_results)
        assert "Crime5" in text and "n.a." in text

    def test_fig5(self):
        text = render_fig5(phases_payload(CANNED_REPORT))
        for phase in PHASES:
            assert phase in text
        assert "Crime5" in text and "%" in text

    def test_fig6(self):
        text = render_fig6(CANNED_REPORT)
        (crime5,) = [
            line for line in text.splitlines() if line.startswith("Crime5")
        ]
        # both medians, then both exact counters; no median ratio
        assert crime5.split() == ["Crime5", "2.000", "8.000", "200", "800"]
        assert "budget.comparisons" in text and "x" not in crime5
        assert "TOTAL" in text

    def test_render_all_stitches_every_section(self, tmp_path):
        _written, text = render_artifacts(CANNED_REPORT, tmp_path)
        for fragment in (
            "Fig. 5", "Fig. 6", "A1", "A2", "A3", "A4", "Batch", "Crime5"
        ):
            assert fragment in text, fragment


class TestRunnerErrorPaths:
    def test_unknown_use_case_names_the_known_ones(self):
        with pytest.raises(ConfigurationError, match="Crime5"):
            run_use_case("Nope99")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError, match="whynot"):
            use_case_factory("Crime5", algorithm="quantum")

    def test_measure_rejects_zero_repeats(self):
        with pytest.raises(ConfigurationError, match="repeats"):
            measure(
                use_case_factory("Crime5"), name="x", repeats=0
            )

    def test_measure_rejects_negative_warmup(self):
        with pytest.raises(ConfigurationError, match="warmup"):
            measure(
                use_case_factory("Crime5"),
                name="x",
                repeats=1,
                warmup=-1,
            )

    def test_budget_propagates_to_both_algorithms(self):
        """A tiny budget degrades NedExplain to a partial report and
        marks the baseline n.a. -- neither aborts the sweep."""
        result = run_use_case(
            "Gov5", budget=Budget(max_comparisons=10)
        )
        assert result.ned.partial
        assert result.whynot_na
        assert result.whynot is None
        assert result.whynot_answer_text() == "n.a."


class TestMeasureProtocol:
    def test_samples_match_repeats_and_counters_are_stable(self):
        first = measure(
            use_case_factory("Crime5"), name="c5", repeats=3, warmup=1
        )
        second = measure(
            use_case_factory("Crime5"), name="c5", repeats=2, warmup=0
        )
        assert len(first.samples_ms) == 3
        assert len(second.samples_ms) == 2
        assert all(s > 0 for s in first.samples_ms)
        # counters are a property of the algorithm, not the repeats
        assert dict(first.counters) == dict(second.counters)
        assert first.median_ms > 0
        assert first.mad_ms >= 0

    def test_interleaved_rounds_alternate_benchmarks(self):
        calls = []

        def factory(name):
            return lambda: (lambda: calls.append(name))

        measured = measure_interleaved(
            {"a": factory("a"), "b": factory("b")}, repeats=3, warmup=1
        )
        assert [m.name for m in measured] == ["a", "b"]
        assert all(len(m.samples_ms) == 3 for m in measured)
        # warmups, three timed rounds, then one counter run each
        assert calls == ["a", "b"] * 4 + ["a", "b"]


class TestRuntimeSerialization:
    def test_speedup_present_when_both_measured(self):
        entry = runtime_payload(CANNED_REPORT)["use_cases"]["Crime5"]
        assert entry["speedup"] == pytest.approx(4.0)
        assert "whynot_na_reason" not in entry

    def test_missing_whynot_records_reason_not_silence(self):
        payload = runtime_payload(CANNED_REPORT)
        # the aggregation queries the Why-Not baseline cannot trace
        for name in ("Crime9", "Crime10", "Gov6"):
            entry = payload["use_cases"][name]
            assert entry["whynot_ms"] is None
            assert entry["speedup"] is None
            assert entry["whynot_na_reason"] == "unsupported"
        assert payload["scale"] == 1
        assert payload["repeats"] == 3 and payload["warmup"] == 1

    def test_unexplained_gap_gets_explicit_default_reason(self):
        # Crime6 is supported; the canned report just lacks its number
        entry = runtime_payload(CANNED_REPORT)["use_cases"]["Crime6"]
        assert entry["speedup"] is None
        assert entry["whynot_na_reason"] == "not-measured"

    def test_collect_runtime_records_unsupported_reasons(
        self, report_file
    ):
        # a real measured report, not the canned one: Crime9 has only
        # a NedExplain number because the baseline cannot trace it
        payload = runtime_payload(read_gate_report(report_file))
        cases = payload["use_cases"]
        # the aggregation queries the Why-Not baseline cannot trace
        assert cases["Crime9"]["whynot_na_reason"] == "unsupported"
        assert cases["Crime9"]["speedup"] is None
        # a fully-measured case carries a real speedup, no reason
        assert cases["Crime5"]["speedup"] is not None
        assert "whynot_na_reason" not in cases["Crime5"]
        assert payload["repeats"] == 1 and payload["warmup"] == 0

    def test_committed_runtime_artifact_pins_unsupported_reason(self):
        data = read_bench_artifact(REPO_ROOT / "BENCH_runtime.json")
        assert data["scale"] == 1
        for name in ("Crime9", "Crime10", "Gov6"):
            assert data["use_cases"][name]["whynot_na_reason"] == (
                "unsupported"
            )

    def test_phases_come_from_the_report(self):
        payload = phases_payload(CANNED_REPORT)
        entry = payload["use_cases"]["Crime5"]
        assert entry["query"] == "Q2"
        assert entry["total_ms"] == pytest.approx(2.0)
        assert sum(entry["percent"].values()) == pytest.approx(100.0)
        # use cases the report did not measure are left out
        assert set(payload["use_cases"]) == {
            "Crime5", "Crime6", "Crime9", "Crime10", "Gov6"
        }


class TestArtifactsFromGateReport:
    def test_rendering_makes_no_explain_call(
        self, report_file, tmp_path, monkeypatch, capsys
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("the renderer must not explain")

        for cls, method in (
            (NedExplain, "explain"),
            (NedExplain, "explain_many"),
            (WhyNotBaseline, "explain"),
        ):
            monkeypatch.setattr(cls, method, forbidden)
        code = artifacts_main(
            ["--report", str(report_file), "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert "Fig. 6" in capsys.readouterr().out
        phases = read_bench_artifact(tmp_path / "BENCH_phases.json")
        assert set(phases["use_cases"]) == {"Crime5", "Crime9"}
        runtime = read_bench_artifact(tmp_path / "BENCH_runtime.json")
        assert runtime["use_cases"]["Crime5"]["speedup"] > 0
        spans, metrics = read_trace_jsonl(
            tmp_path / "BENCH_trace_sample.jsonl"
        )
        assert any(span["name"] == "explain" for span in spans)
        assert metrics["budget.rows"]["value"] > 0

    def test_error_report_is_refused(self, tmp_path, capsys):
        path = tmp_path / "error.json"
        path.write_text(
            json.dumps(
                {"command": "check", "status": "error", "results": []}
            )
        )
        assert artifacts_main(["--report", str(path)]) == 2
        assert "no measurements" in capsys.readouterr().out
        with pytest.raises(ConfigurationError, match="not a"):
            path.write_text("[]")
            read_gate_report(path)


class TestAblationA2:
    """The canonicalization rationale of Sec. 3.1, step 2b."""

    def test_canonical_q8_explains_crime9(self):
        use_case, database, canonical = use_case_setup("Crime9")
        report = NedExplain(canonical, database=database).explain(
            use_case.predicate
        )
        # the missing count: (null, m3), the selection above V
        (entry,) = [e for e in report.detailed if e.tid is None]
        assert entry.subquery_label == "m3"

    def test_pushed_down_q8_loses_the_answer(self):
        use_case, database, _ = use_case_setup("Crime9")
        report = NedExplain(pushed_down_q8(), database=database).explain(
            use_case.predicate
        )
        assert report.is_empty()
