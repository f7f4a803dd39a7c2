"""Parameterized workload generation for the scaling ablation.

The paper defers "a more extensive study of the impact of various
parameters on runtime" to future work; this module provides the knobs
the ``scaling`` and ``batch`` suites of the benchmark registry
(:data:`repro.bench.runner.SUITES`) turn: the three databases at
arbitrary scale factors, plus a synthetic chain-join workload whose
depth and fan-out are fully controllable.
"""

from __future__ import annotations

import random

from ..errors import ConfigurationError
from ..relational.database import Database
from ..core.canonical import JoinPair, SPJASpec


def scaled_database(name: str, scale: int) -> Database:
    """One of the evaluation databases at the given scale factor."""
    from .usecases import DATABASES

    return DATABASES[name](scale=scale)


def chain_database(
    relations: int,
    rows_per_relation: int,
    fanout: int = 2,
    seed: int = 99,
) -> Database:
    """A synthetic chain of relations ``R0 - R1 - ... - Rk``.

    ``R_i`` has attributes ``(id, key, label)``; ``R_i.key`` joins
    ``R_{i+1}.id`` with the given fan-out (each id matched by *fanout*
    keys on average).  A designated "needle" value threads relation 0
    but is dropped from the last relation -- giving every chain query a
    non-trivially missing answer.  Seeded and fully deterministic.
    """
    if relations < 2:
        raise ConfigurationError("a chain needs at least two relations")
    rng = random.Random(seed)
    key_range = max(1, rows_per_relation // fanout)
    db = Database("chain")
    for index in range(relations):
        db.create_table(f"R{index}", ["id", "key", "label"], key="id")
    for index in range(relations):
        for row in range(rows_per_relation):
            # keys point at ids of the next relation
            db.insert(
                f"R{index}",
                id=row,
                key=rng.randrange(key_range),
                label=f"r{index}v{row % 10}",
            )
    # the needle: label "needle" exists in R0 but its key chain breaks
    # at the last relation (key points beyond the id range)
    db.insert(
        f"R0",
        id=rows_per_relation,
        key=rows_per_relation + 10**6,
        label="needle",
    )
    return db


def chain_query(relations: int) -> SPJASpec:
    """The natural chain join over :func:`chain_database`."""
    aliases = {f"R{index}": f"R{index}" for index in range(relations)}
    joins = [
        JoinPair(f"R{index}.key", f"R{index + 1}.id", f"k{index}")
        for index in range(relations - 1)
    ]
    return SPJASpec(
        aliases=aliases,
        joins=joins,
        projection=(
            "R0.label",
            f"R{relations - 1}.label",
        ),
    )


def chain_predicate() -> str:
    """The why-not question for the chain workload."""
    return "(R0.label: needle)"
