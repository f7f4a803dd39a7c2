"""Tests for how-provenance polynomials (the paper's [8] reference)."""

import pytest

from repro.relational import evaluate_query
from repro.relational.provenance import (
    Monomial,
    Polynomial,
    explain_derivations,
    how_provenance_of,
    value_provenance,
)
from repro.workloads import USE_CASES


# ---------------------------------------------------------------------------
# Algebraic structure
# ---------------------------------------------------------------------------
class TestMonomial:
    def test_of_counts_multiplicities(self):
        m = Monomial.of("a", "a", "b")
        assert m.factors == (("a", 2), ("b", 1))

    def test_multiplication(self):
        assert Monomial.of("a") * Monomial.of("a", "b") == Monomial.of(
            "a", "a", "b"
        )

    def test_one_is_neutral(self):
        m = Monomial.of("a")
        assert Monomial.one() * m == m

    def test_render(self):
        assert Monomial.of("a", "a", "b").render() == "a^2*b"
        assert Monomial.one().render() == "1"

    def test_variables(self):
        assert Monomial.of("a", "b").variables == frozenset({"a", "b"})


class TestPolynomial:
    def test_addition_merges_terms(self):
        p = Polynomial.of_variable("a") + Polynomial.of_variable("a")
        assert p.render() == "2*a"

    def test_multiplication_distributes(self):
        p = (
            Polynomial.of_variable("a") + Polynomial.of_variable("b")
        ) * Polynomial.of_variable("c")
        assert p.render() == "a*c + b*c"

    def test_zero(self):
        zero = Polynomial.zero()
        assert zero.is_zero()
        assert (zero + Polynomial.of_variable("a")).render() == "a"
        assert (zero * Polynomial.of_variable("a")).is_zero()

    def test_derivation_count(self):
        p = Polynomial.of_variable("a") + Polynomial.of_variable("b")
        assert p.derivation_count() == 2

    def test_canonical_ordering(self):
        p1 = Polynomial.of_variable("b") + Polynomial.of_variable("a")
        p2 = Polynomial.of_variable("a") + Polynomial.of_variable("b")
        assert p1 == p2
        assert p1.render() == "a + b"

    def test_variables(self):
        p = Polynomial.of_variable("a") * Polynomial.of_variable("b")
        assert p.variables == frozenset({"a", "b"})


# ---------------------------------------------------------------------------
# Provenance of query results
# ---------------------------------------------------------------------------
class TestQueryProvenance:
    def test_join_tuples_are_products(self, running_example):
        """Q2's outputs have the monomials the paper shows in Table 2:
        t4*t7*t2, t4*t8*t1, t5*t9*t3 (with our tuple ids)."""
        db, canonical = running_example
        result = evaluate_query(canonical.root, db.instance())
        top_join = canonical.node("m1")
        polynomials = how_provenance_of(result, top_join)
        rendered = sorted(p.render() for p in polynomials.values())
        assert rendered == [
            "A:a1*AB:1*B:b2",
            "A:a1*AB:2*B:b1",
            "A:a2*AB:3*B:b3",
        ]

    def test_aggregate_group_is_product_of_members(self, running_example):
        db, canonical = running_example
        result = evaluate_query(canonical.root, db.instance())
        (poly,) = how_provenance_of(result).values()
        assert poly.render() == "A:a2*AB:3*B:b3"

    def test_projection_alternatives_add(self, spj_example):
        """Two Homer books project to... distinct prices here; use a
        name-only projection to force duplicate values."""
        from repro.core import JoinPair, SPJASpec, canonicalize

        db, _ = spj_example
        spec = SPJASpec(
            aliases={"A": "A", "AB": "AB", "B": "B"},
            joins=[JoinPair("A.aid", "AB.aid"),
                   JoinPair("AB.bid", "B.bid")],
            projection=("A.name",),
        )
        canonical = canonicalize(spec, db.schema)
        result = evaluate_query(canonical.root, db.instance())
        collapsed = value_provenance(result)
        homer = next(
            entry
            for key, entry in collapsed.items()
            if dict(key)["A.name"] == "Homer"
        )
        _values, poly = homer
        # Homer appears via both of his books: a sum of two monomials
        assert poly.derivation_count() == 2
        assert poly.variables >= {"A:a1", "B:b1", "B:b2"}

    def test_explain_derivations_renders(self, running_example):
        db, canonical = running_example
        result = evaluate_query(canonical.root, db.instance())
        text = explain_derivations(result)
        assert "Sophocles" in text and "A:a2" in text

    def test_empty_output(self, running_example):
        from repro.core import SPJASpec, canonicalize
        from repro.relational import attr_cmp

        db, _ = running_example
        spec = SPJASpec(
            aliases={"A": "A"},
            selections=[attr_cmp("A.name", "=", "Zeus")],
            projection=("A.name",),
        )
        canonical = canonicalize(spec, db.schema)
        result = evaluate_query(canonical.root, db.instance())
        assert explain_derivations(result) == "(empty)"
        assert how_provenance_of(result) == {}


# ---------------------------------------------------------------------------
# Top-down baseline equivalence (strategy tests live here to reuse
# the provenance fixtures' imports)
# ---------------------------------------------------------------------------
class TestTopDownStrategy:
    @pytest.mark.parametrize(
        "name",
        [uc.name for uc in USE_CASES if uc.query not in ("Q8", "Q9")],
    )
    def test_same_answers_as_bottom_up(self, name):
        """The original paper: both traversals return the same set of
        answers (quoted in our Sec. 4 summary)."""
        from repro.baseline import WhyNotBaseline
        from repro.workloads import use_case_setup

        use_case, db, canonical = use_case_setup(name)
        bottom_up = WhyNotBaseline(canonical, database=db).explain(
            use_case.predicate
        )
        top_down = WhyNotBaseline(
            canonical, database=db, strategy="top-down"
        ).explain(use_case.predicate)
        assert bottom_up.answer_labels == top_down.answer_labels
        assert (
            bottom_up.satisfied_constraints
            == top_down.satisfied_constraints
        )

    def test_unknown_strategy_rejected(self):
        from repro.baseline import WhyNotBaseline
        from repro.errors import UnsupportedQueryError
        from repro.workloads import get_canonical, get_database

        with pytest.raises(UnsupportedQueryError):
            WhyNotBaseline(
                get_canonical("Q1"),
                database=get_database("crime"),
                strategy="sideways",
            )
