"""Evaluation workloads: the crime / imdb / gov databases, queries
Q1-Q12 (Table 3) and the 19 use cases (Table 4) of the paper."""

from .crime import CRIME_QUERIES, build_crime_db
from .generator import (
    chain_database,
    chain_predicate,
    chain_query,
    scaled_database,
)
from .gov import GOV_QUERIES, build_gov_db
from .imdb import IMDB_QUERIES, build_imdb_db
from .usecases import (
    DATABASES,
    QUERIES,
    USE_CASES,
    USE_CASE_INDEX,
    UseCase,
    get_canonical,
    get_database,
    use_case_setup,
)

__all__ = [
    "CRIME_QUERIES",
    "DATABASES",
    "GOV_QUERIES",
    "IMDB_QUERIES",
    "QUERIES",
    "USE_CASES",
    "USE_CASE_INDEX",
    "UseCase",
    "build_crime_db",
    "build_gov_db",
    "build_imdb_db",
    "chain_database",
    "chain_predicate",
    "chain_query",
    "get_canonical",
    "get_database",
    "scaled_database",
    "use_case_setup",
]
