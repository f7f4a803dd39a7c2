"""Shared fixtures: the paper's running example and small databases."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings as hypothesis_settings

from repro.core import SPJASpec, JoinPair, canonicalize
from repro.relational import AggregateCall, Database, attr_cmp

# Marker discipline: flag (and, under REPRO_ENFORCE_SLOW_MARKERS=1,
# fail) tests that run slow without @pytest.mark.slow.  The
# hooks live in an importable module so test_marker_discipline.py can
# exercise them in a scratch pytest run.
from repro.pytest_slowguard import (  # noqa: F401
    pytest_configure,
    pytest_runtest_makereport,
    pytest_terminal_summary,
)

# Hypothesis profiles: "dev" (default) explores freely; "ci" is fixed
# (derandomized) so continuous-integration runs are reproducible.
# Select with HYPOTHESIS_PROFILE=ci.
hypothesis_settings.register_profile(
    "dev", deadline=None, print_blob=True
)
hypothesis_settings.register_profile(
    "ci", deadline=None, derandomize=True, print_blob=True
)
hypothesis_settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "dev")
)


@pytest.fixture()
def running_example_db() -> Database:
    """The database instance of the paper's Fig. 1(b).

    Author dates of birth are stored as negative years (800BC = -800).
    """
    db = Database("running-example")
    db.create_table("A", ["aid", "name", "dob"], key="aid")
    db.create_table("AB", ["aid", "bid"])
    db.create_table("B", ["bid", "title", "price"], key="bid")
    db.insert("A", aid="a1", name="Homer", dob=-800)        # t4
    db.insert("A", aid="a2", name="Sophocles", dob=-400)    # t5
    db.insert("A", aid="a3", name="Euripides", dob=-400)    # t6
    db.insert("AB", aid="a1", bid="b2")                     # t7
    db.insert("AB", aid="a1", bid="b1")                     # t8
    db.insert("AB", aid="a2", bid="b3")                     # t9
    db.insert("B", bid="b1", title="Odyssey", price=15)     # t1
    db.insert("B", bid="b2", title="Illiad", price=45)      # t2
    db.insert("B", bid="b3", title="Antigone", price=49)    # t3
    return db


@pytest.fixture()
def running_example_spec() -> SPJASpec:
    """The query of Fig. 1(a): average book price per recent author."""
    return SPJASpec(
        aliases={"A": "A", "AB": "AB", "B": "B"},
        joins=[JoinPair("A.aid", "AB.aid"), JoinPair("AB.bid", "B.bid")],
        selections=[attr_cmp("A.dob", ">", -800)],
        group_by=("A.name",),
        aggregates=(AggregateCall("avg", "B.price", "ap"),),
    )


@pytest.fixture()
def running_example(running_example_db, running_example_spec):
    """(database, canonical query) for the running example."""
    canonical = canonicalize(running_example_spec, running_example_db.schema)
    return running_example_db, canonical


@pytest.fixture()
def spj_example(running_example_db):
    """The SPJ core of the running example (no aggregation):
    pi_{A.name, B.price} of the three-way join with the dob filter."""
    spec = SPJASpec(
        aliases={"A": "A", "AB": "AB", "B": "B"},
        joins=[JoinPair("A.aid", "AB.aid"), JoinPair("AB.bid", "B.bid")],
        selections=[attr_cmp("A.dob", ">", -800)],
        projection=("A.name", "B.price"),
    )
    canonical = canonicalize(spec, running_example_db.schema)
    return running_example_db, canonical


@pytest.fixture()
def tiny_db() -> Database:
    """A two-table toy database for unit tests."""
    db = Database("tiny")
    db.create_table("R", ["id", "x", "y"], key="id")
    db.create_table("S", ["id", "x", "z"], key="id")
    db.insert("R", id=1, x="a", y=10)
    db.insert("R", id=2, x="b", y=20)
    db.insert("R", id=3, x="a", y=30)
    db.insert("S", id=1, x="a", z="p")
    db.insert("S", id=2, x="c", z="q")
    return db
