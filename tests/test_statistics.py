"""Tests for table statistics and cardinality estimation."""

import pytest

from repro.errors import UnknownRelationError
from repro.core import JoinPair, SPJASpec, canonicalize
from repro.obs import Tracer, tracing
from repro.relational import Database, attr_cmp
from repro.relational.statistics import (
    CardinalityEstimator,
    actuals_from_trace,
    collect_statistics,
    explain_plan,
)
from repro.relational.evaluator import evaluate_query


@pytest.fixture()
def stats_db():
    db = Database("stats")
    db.create_table("T", ["id", "v", "w"], key="id")
    for i in range(10):
        db.insert("T", id=i, v=i % 5, w=None if i < 2 else "x")
    db.create_table("U", ["id", "v"], key="id")
    for i in range(20):
        db.insert("U", id=i, v=i % 5)
    return db


class TestCollectStatistics:
    def test_row_and_distinct_counts(self, stats_db):
        stats = collect_statistics(stats_db)
        t = stats["T"]
        assert t.row_count == 10
        assert t.column("v").distinct_count == 5
        assert t.column("id").distinct_count == 10

    def test_null_accounting(self, stats_db):
        column = collect_statistics(stats_db)["T"].column("w")
        assert column.null_count == 2
        assert column.null_fraction == pytest.approx(0.2)

    def test_min_max(self, stats_db):
        column = collect_statistics(stats_db)["T"].column("id")
        assert column.minimum == 0 and column.maximum == 9

    def test_unknown_column(self, stats_db):
        with pytest.raises(UnknownRelationError):
            collect_statistics(stats_db)["T"].column("zz")

    def test_equality_selectivity(self, stats_db):
        column = collect_statistics(stats_db)["T"].column("v")
        assert column.equality_selectivity() == pytest.approx(1 / 5)

    def test_range_selectivity_interpolates(self, stats_db):
        column = collect_statistics(stats_db)["T"].column("id")
        # id > 4.5 over [0, 9]: half the rows
        assert column.range_selectivity(">", 4.5) == pytest.approx(0.5)
        assert column.range_selectivity("<", 0) == 0.0
        assert column.range_selectivity(">", -1) == 1.0

    def test_single_valued_column(self):
        db = Database()
        db.create_table("S", ["id", "c"], key="id")
        db.insert("S", id=1, c=7)
        db.insert("S", id=2, c=7)
        column = collect_statistics(db)["S"].column("c")
        assert column.range_selectivity(">", 5) == 1.0
        assert column.range_selectivity(">", 7) == 0.0


class TestCardinalityEstimator:
    def test_leaf_estimate(self, stats_db):
        spec = SPJASpec(aliases={"T": "T"}, projection=("T.v",))
        canonical = canonicalize(spec, stats_db.schema)
        estimator = CardinalityEstimator(stats_db, canonical.aliases)
        leaf = canonical.node("T")
        assert estimator.estimate(leaf) == 10.0

    def test_selection_estimate(self, stats_db):
        spec = SPJASpec(
            aliases={"T": "T"},
            selections=[attr_cmp("T.v", "=", 3)],
            projection=("T.id",),
        )
        canonical = canonicalize(spec, stats_db.schema)
        estimator = CardinalityEstimator(stats_db, canonical.aliases)
        assert estimator.estimate(canonical.root) == pytest.approx(
            10 / 5, rel=0.01
        )

    def test_join_estimate_close_to_actual(self, stats_db):
        spec = SPJASpec(
            aliases={"T": "T", "U": "U"},
            joins=[JoinPair("T.v", "U.v")],
            projection=("T.id", "U.id"),
        )
        canonical = canonicalize(spec, stats_db.schema)
        estimator = CardinalityEstimator(stats_db, canonical.aliases)
        estimated = estimator.estimate(canonical.root)
        actual = len(
            evaluate_query(
                canonical.root, stats_db.instance(), canonical.aliases
            ).result
        )
        # containment assumption: |T|*|U| / max(ndv) = 10*20/5 = 40
        assert estimated == pytest.approx(actual, rel=0.01)

    def test_aggregate_estimate_bounded_by_groups(self, stats_db):
        from repro.relational import AggregateCall

        spec = SPJASpec(
            aliases={"T": "T"},
            group_by=("T.v",),
            aggregates=(AggregateCall("count", "T.id", "n"),),
        )
        canonical = canonicalize(spec, stats_db.schema)
        estimator = CardinalityEstimator(stats_db, canonical.aliases)
        assert estimator.estimate(canonical.root) == 5.0

    def test_explain_plan_renders(self, stats_db):
        spec = SPJASpec(
            aliases={"T": "T", "U": "U"},
            joins=[JoinPair("T.v", "U.v")],
            selections=[attr_cmp("T.id", ">", 4)],
            projection=("T.id",),
        )
        canonical = canonicalize(spec, stats_db.schema)
        text = explain_plan(
            canonical.root, stats_db, canonical.aliases
        )
        assert "est=" in text and "join" in text

    def test_explain_plan_with_actuals(self, stats_db):
        spec = SPJASpec(aliases={"T": "T"}, projection=("T.v",))
        canonical = canonicalize(spec, stats_db.schema)
        result = evaluate_query(
            canonical.root, stats_db.instance(), canonical.aliases
        )
        actuals = {
            id(node): len(result.output(node))
            for node in canonical.root.postorder()
        }
        text = explain_plan(
            canonical.root, stats_db, canonical.aliases, actuals
        )
        assert "actual=" in text

    def test_estimates_on_paper_workload(self):
        """Sanity: estimates stay within an order of magnitude of the
        actual sizes for the crime Q1 tree."""
        from repro.workloads import get_canonical, get_database

        db = get_database("crime")
        canonical = get_canonical("Q1")
        estimator = CardinalityEstimator(db, canonical.aliases)
        result = evaluate_query(
            canonical.root, db.instance(), canonical.aliases
        )
        for node in canonical.root.postorder():
            actual = len(result.output(node))
            estimated = estimator.estimate(node)
            if actual >= 10:
                assert estimated == pytest.approx(actual, rel=9.0)


class TestActualsFromTrace:
    """Per-node actuals recovered from operator spans."""

    def _wide_db(self, rows=100, name="wide"):
        db = Database(name)
        db.create_table("T", ["id", "v"], key="id")
        for i in range(rows):
            db.insert("T", id=i, v=i % 7)
        return db

    def _spec(self):
        return SPJASpec(
            aliases={"T": "T"},
            selections=[attr_cmp("T.v", ">", 2)],
            projection=("T.id",),
        )

    def test_last_evaluation_wins_across_evaluations(self):
        """Two evaluations of the same tree in one trace (different
        instances): the recovered actuals are the *second*
        evaluation's, not a mix of both."""
        small = self._wide_db(rows=40, name="small")
        big = self._wide_db(rows=100, name="big")
        canonical = canonicalize(self._spec(), small.schema)
        tracer = Tracer()
        with tracing(tracer):
            evaluate_query(canonical.root, small.instance())
            second = evaluate_query(canonical.root, big.instance())
        actuals = actuals_from_trace(tracer, canonical.root)
        for node in canonical.root.postorder():
            assert actuals[id(node)] == len(second.output(node))

    def test_row_engine_spans_still_resolve(self):
        db = self._wide_db(rows=60, name="row-spans")
        canonical = canonicalize(self._spec(), db.schema)
        tracer = Tracer()
        with tracing(tracer):
            result = evaluate_query(canonical.root, db.instance())
        actuals = actuals_from_trace(tracer, canonical.root)
        for node in canonical.root.postorder():
            assert actuals[id(node)] == len(result.output(node))
