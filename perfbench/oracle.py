"""Answer checking, outside every timed region.

The reference is the repo's literal Alg. 1-3 loop:
``NedExplain(..., config=NedExplainConfig(use_shared_evaluation=False))``,
which evaluates every manipulation per c-tuple instead of sharing one
cached evaluation.  Each distinct (query, question) is computed once.
"""

from __future__ import annotations

import json

from repro import NedExplain, NedExplainConfig, sql_to_canonical

LITERAL = NedExplainConfig(use_shared_evaluation=False)


def answers_key(report_dict: dict) -> str:
    """The compared part of a report: every answer set and flag, in
    order (phase timings are not part of the answer)."""
    return json.dumps(report_dict["answers"], sort_keys=True)


class Oracle:
    """Reference answers, memoised per (query, question)."""

    def __init__(self, databases: dict):
        self.databases = databases
        self._engines: dict[tuple[str, str], NedExplain] = {}
        self._answers: dict[tuple[str, str, str], str] = {}

    def _engine(self, database: str, sql: str) -> NedExplain:
        key = (database, sql)
        engine = self._engines.get(key)
        if engine is None:
            db = self.databases[database]
            engine = NedExplain(
                sql_to_canonical(sql, db.schema), database=db, config=LITERAL
            )
            self._engines[key] = engine
        return engine

    def expected(self, database: str, sql: str, question: str) -> str:
        key = (database, sql, question)
        answer = self._answers.get(key)
        if answer is None:
            report = self._engine(database, sql).explain(question)
            answer = answers_key(report.to_dict())
            self._answers[key] = answer
        return answer

    def forget_engines(self) -> None:
        """Drop the per-query engines (each holds a copy of its input
        instance); the memoised answers stay."""
        self._engines.clear()


def literal_answers(canonical, database, question: str) -> str:
    """Reference answers for a canonical tree the SQL frontend cannot
    express (the sweep's use cases are built from query specs)."""
    report = NedExplain(canonical, database=database, config=LITERAL).explain(
        question
    )
    return answers_key(report.to_dict())


def expectation_failures(report, expect: dict) -> list[str]:
    """The Table 4 ``expect`` assertions of one use case that *report*
    violates.  The ``whynot_*`` keys describe the Why-Not baseline,
    which the benchmark does not run, so they are not checked."""

    def ops(queries) -> set:
        return {q.op for q in queries}

    failures = []

    def check(name: str, ok: bool) -> None:
        if not ok:
            failures.append(name)

    if expect.get("ned_nonempty"):
        check("ned_nonempty", not report.is_empty())
    if "ned_condensed_ops" in expect:
        check("ned_condensed_ops",
              ops(report.condensed) == expect["ned_condensed_ops"])
    if "ned_condensed_size" in expect:
        check("ned_condensed_size",
              len(report.condensed) == expect["ned_condensed_size"])
    if "ned_min_detailed" in expect:
        check("ned_min_detailed",
              len(report.detailed) >= expect["ned_min_detailed"])
    if "ned_secondary_ops" in expect:
        check("ned_secondary_ops",
              ops(report.secondary) == expect["ned_secondary_ops"])
    if expect.get("ned_null_entry"):
        nulls = [e for e in report.detailed if e.tid is None]
        check("ned_null_entry", bool(nulls))
        if "ned_null_op" in expect:
            check("ned_null_op",
                  {e.subquery.op for e in nulls} == {expect["ned_null_op"]})
    if expect.get("ned_tid_entries"):
        check("ned_tid_entries",
              all(e.tid is not None for e in report.detailed))
    if "ned_answer_sets" in expect:
        check("ned_answer_sets",
              len(report.answers) == expect["ned_answer_sets"])
    if expect.get("ned_no_compatible_branch"):
        check("ned_no_compatible_branch",
              any(a.no_compatible_data for a in report.answers))
    return failures
