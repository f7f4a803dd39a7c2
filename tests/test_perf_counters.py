"""Deterministic counter-based perf tests (the gate's exact layer).

Wall-clock on shared CI is noise; the work counters mirrored through
:mod:`repro.obs` (``budget.rows``, ``budget.comparisons``, cache
hits/misses, traversal steps) are exact and reproducible, so golden
values for the canonical Crime/Gov/IMDB use cases pin the *algorithmic*
cost of an explanation.  A change to any of these numbers is a real
change to the amount of work NedExplain does -- intentional ones must
update the goldens here *and* the committed gate baselines
(``python -m repro.bench.gate update``).
"""

from __future__ import annotations

import pytest

from repro.bench.runner import SUITES, measure, use_case_factory
from repro.workloads import USE_CASES

# Golden work accounting per (use case, algorithm) -- recorded with
# `measure(use_case_factory(name, algo))` at scale 1 on a fresh
# private cache, hence the cold-path miss/store pair in every entry.
GOLDEN_COUNTERS = {
    ("Crime5", "ned"): {
        "budget.comparisons": 336,
        "budget.rows": 196,
        "cache.misses": 1,
        "cache.stores": 1,
        "compatible.finds": 1,
        "evaluator.operators": 9,
        "successors.blocked": 1,
        "successors.checks": 71,
        "successors.found": 2,
        "successors.steps": 4,
    },
    ("Crime9", "ned"): {
        "budget.comparisons": 634,
        "budget.rows": 279,
        "cache.misses": 1,
        "cache.stores": 1,
        "compatible.finds": 1,
        "evaluator.operators": 9,
        "successors.blocked": 11,
        "successors.checks": 189,
        "successors.found": 38,
        "successors.steps": 5,
    },
    ("Gov5", "ned"): {
        "budget.comparisons": 6970,
        "budget.rows": 4002,
        "cache.misses": 1,
        "cache.stores": 1,
        "compatible.finds": 1,
        "evaluator.operators": 8,
        "successors.blocked": 243,
        "successors.checks": 1804,
        "successors.found": 243,
        "successors.steps": 4,
    },
    ("Gov7", "ned"): {
        "budget.comparisons": 1113,
        "budget.rows": 910,
        "cache.misses": 1,
        "cache.stores": 1,
        "compatible.finds": 2,
        "evaluator.operators": 11,
        "successors.blocked": 1,
        "successors.checks": 228,
        "successors.found": 0,
        "successors.steps": 5,
    },
    ("Imdb1", "ned"): {
        "budget.comparisons": 315,
        "budget.rows": 271,
        "cache.misses": 1,
        "cache.stores": 1,
        "compatible.finds": 1,
        "evaluator.operators": 8,
        "successors.blocked": 2,
        "successors.checks": 43,
        "successors.found": 1,
        "successors.steps": 3,
    },
    ("Imdb2", "ned"): {
        "budget.comparisons": 326,
        "budget.rows": 271,
        "cache.misses": 1,
        "cache.stores": 1,
        "compatible.finds": 1,
        "evaluator.operators": 8,
        "successors.blocked": 3,
        "successors.checks": 52,
        "successors.found": 3,
        "successors.steps": 4,
    },
    ("Crime5", "whynot"): {
        "budget.comparisons": 332,
        "budget.rows": 196,
        "cache.misses": 1,
        "cache.stores": 1,
        "evaluator.operators": 9,
    },
    ("Gov5", "whynot"): {
        "budget.comparisons": 197947,
        "budget.rows": 4002,
        "cache.misses": 1,
        "cache.stores": 1,
        "evaluator.operators": 8,
    },
}

GOLDEN_BATCH = {
    "budget.comparisons": 2657,
    "budget.rows": 361,
    "cache.hits": 11,
    "cache.misses": 1,
    "cache.stores": 1,
    "compatible.finds": 12,
    "evaluator.operators": 6,
    "successors.blocked": 6,
    "successors.checks": 2229,
    "successors.found": 184,
    "successors.steps": 34,
}

#: the same 12 questions, a fresh unshared engine each: the literal
#: per-question loop re-derives every operator per question
GOLDEN_INDEPENDENT = {
    "budget.comparisons": 6448,
    "budget.rows": 0,
    "compatible.finds": 12,
    "successors.blocked": 6,
    "successors.checks": 2229,
    "successors.found": 184,
    "successors.steps": 34,
}

GOLDEN_SCALING = {
    "budget.comparisons": 1803,
    "budget.rows": 1201,
    "cache.misses": 1,
    "cache.stores": 1,
    "compatible.finds": 1,
    "evaluator.operators": 10,
    "successors.blocked": 1,
    "successors.checks": 361,
    "successors.found": 0,
    "successors.steps": 3,
}


def _counters(name, algorithm):
    m = measure(
        use_case_factory(name, algorithm),
        name=f"{name}.{algorithm}",
        repeats=1,
        warmup=0,
    )
    return dict(m.counters)


@pytest.mark.parametrize(
    "name,algorithm", sorted(GOLDEN_COUNTERS), ids="-".join
)
def test_golden_use_case_counters(name, algorithm):
    assert _counters(name, algorithm) == GOLDEN_COUNTERS[
        (name, algorithm)
    ]


def _registry_counters(suite, name):
    (spec,) = [s for s in SUITES[suite]() if s.name == name]
    m = measure(spec.factory, name=spec.name, repeats=1, warmup=0)
    return dict(m.counters)


def test_golden_batch_counters():
    """One batched run of 12 questions: exactly one evaluation
    (miss+store), every further question a cache hit."""
    counters = _registry_counters("batch", "chain3x60.batched")
    assert counters == GOLDEN_BATCH
    assert counters["cache.misses"] == 1
    assert counters["cache.hits"] == counters["compatible.finds"] - 1


def test_golden_independent_counters():
    """The same questions answered one fresh engine at a time share
    no evaluation: the same traversal work, ~2.4x the comparisons."""
    counters = _registry_counters("batch", "chain3x60.independent")
    assert counters == GOLDEN_INDEPENDENT
    for name in ("compatible.finds", "successors.checks"):
        assert counters[name] == GOLDEN_BATCH[name]
    assert counters["budget.comparisons"] > 2 * GOLDEN_BATCH[
        "budget.comparisons"
    ]


def test_golden_scaling_counters():
    assert (
        _registry_counters("scaling", "chain_depth5.ned")
        == GOLDEN_SCALING
    )


def test_counters_deterministic_across_all_use_cases():
    """Every Table 4 use case yields an identical counter snapshot on
    a re-measurement -- the property the gate's exact layer rests on."""
    for uc in USE_CASES:
        first = _counters(uc.name, "ned")
        second = _counters(uc.name, "ned")
        assert first == second, uc.name
        assert first["budget.rows"] > 0
        assert first["budget.comparisons"] > 0
        assert first["cache.misses"] == 1


def test_baseline_retraces_more_than_nedexplain_on_joins():
    """The paper's Fig. 6 mechanism, stated in counters: on the
    join-heavy Gov5 the Why-Not baseline re-traces unpicked items over
    the full intermediate results, paying ~28x the comparisons of
    NedExplain's single compatible-tuple pass."""
    ned = GOLDEN_COUNTERS[("Gov5", "ned")]["budget.comparisons"]
    whynot = GOLDEN_COUNTERS[("Gov5", "whynot")]["budget.comparisons"]
    assert whynot > 20 * ned
    # same data volume flows through evaluation on both sides
    assert (
        GOLDEN_COUNTERS[("Gov5", "ned")]["budget.rows"]
        == GOLDEN_COUNTERS[("Gov5", "whynot")]["budget.rows"]
    )
