"""Seeded inputs of the three workloads.

Everything the program under test receives is generated here from the
benchmark seed, so the same seed gives byte-identical requests.  The
SQL texts are fixed strings, not produced by the program's formatter:
if a later change teaches the SQL frontend new queries, the workloads
still send exactly the same inputs.
"""

from __future__ import annotations

import json
import random
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count

#: The 12 Table 4 use cases whose query the SQL frontend accepts,
#: keyed by query name: (database, SQL text, use-case predicates).
SQL_QUERIES: dict[str, tuple[str, str, dict[str, str]]] = {
    "Q1": (
        "crime",
        "SELECT Person.name, Crime.type FROM Saw, Person, Witness, Crime "
        "WHERE Saw.hair = Person.hair AND Saw.clothes = Person.clothes "
        "AND Witness.name = Saw.witnessName "
        "AND Crime.sector = Witness.sector",
        {
            "Crime1": "(Person.name: Hank, Crime.type: 'Car theft')",
            "Crime2": "(Person.name: Roger, Crime.type: 'Car theft')",
        },
    ),
    "Q2": (
        "crime",
        "SELECT Person.name, Crime.type FROM Saw, Person, Witness, Crime "
        "WHERE Saw.hair = Person.hair AND Saw.clothes = Person.clothes "
        "AND Witness.name = Saw.witnessName "
        "AND Crime.sector = Witness.sector AND Crime.sector > 99",
        {
            "Crime3": "(Person.name: Roger, Crime.type: 'Car theft')",
            "Crime4": "(Person.name: Hank, Crime.type: 'Car theft')",
            "Crime5": "(Person.name: Hank)",
        },
    ),
    "Q4": (
        "crime",
        "SELECT P2.name FROM Person P2, Person P1 "
        "WHERE P2.hair = P1.hair AND P1.name < 'B' AND P1.name != P2.name",
        {"Crime8": "(P2.name: Audrey)"},
    ),
    "Q8": (
        "crime",
        "SELECT Person.name, COUNT(Crime.type) AS ct "
        "FROM Person, Saw, Witness, Crime "
        "WHERE Saw.hair = Person.hair AND Saw.clothes = Person.clothes "
        "AND Witness.name = Saw.witnessName "
        "AND Crime.sector = Witness.sector AND Crime.sector > 80 "
        "GROUP BY Person.name",
        {
            "Crime9": "((Person.name: Betsy, ct: $x), $x > 8)",
            "Crime10": "(Person.name: Roger)",
        },
    ),
    "Q6": (
        "gov",
        "SELECT Co.firstname, Co.lastname "
        "FROM AgencyAffiliation AA, Congress Co "
        "WHERE AA.id = Co.id AND AA.party = 'Republican' "
        "AND Co.byear > 1970",
        {
            "Gov1": "(Co.firstname: Christopher)",
            "Gov2": "(Co.firstname: Christopher, Co.lastname: MURPHY)",
            "Gov3": "(Co.firstname: Christopher, Co.lastname: GIBSON)",
        },
    ),
    "Q9": (
        "gov",
        "SELECT SPO.sponsorln, SUM(E.camount) AS am "
        "FROM Earmarks E, EarmarkStages ES, Sponsors SPO "
        "WHERE E.id = ES.earmark AND ES.sponsor = SPO.id "
        "AND SPO.party = 'Republican' "
        "AND ES.substage = 'Senate Committee' GROUP BY SPO.sponsorln",
        {"Gov6": "((SPO.sponsorln: Bennett, am: $x), $x = 10870)"},
    ),
}

#: The 7 use cases whose query the SQL frontend cannot express, with
#: the error the frontend gives for the formatter's SQL text.  The HTTP
#: workloads cannot send them; only ``sweep-cold`` covers them.
SQL_GAP: dict[str, tuple[str, str, str]] = {
    "Crime6": ("Q3", "RenamingError", "self-join: renamed attribute "
               "'sector' already occurs in the input types"),
    "Crime7": ("Q3", "RenamingError", "self-join: renamed attribute "
               "'sector' already occurs in the input types"),
    "Imdb1": ("Q5", "SqlSyntaxError", "ambiguous column 'name'; "
              "qualify it with one of ['M', 'R']"),
    "Imdb2": ("Q5", "SqlSyntaxError", "ambiguous column 'name'; "
              "qualify it with one of ['M', 'R']"),
    "Gov4": ("Q7", "SqlSyntaxError", "join renaming lost: unknown "
             "column 'sponsorId'"),
    "Gov5": ("Q7", "SqlSyntaxError", "join renaming lost: unknown "
             "column 'sponsorId'"),
    "Gov7": ("Q12", "WhyNotQuestionError", "union renaming lost: "
             "c-tuple (name:'JOHN') references attributes ['name'] "
             "outside the query target type ['lastname']"),
}

# Values of the paper databases the seeded questions draw from.
_PERSONS = ["Abel", "Audrey", "Betsy", "Carla", "Hank", "Roger"] + [
    f"p{k}" for k in range(20)
]
_CRIME_TYPES = ["Aiding", "Assault", "'Car theft'", "Fraud",
                "Kidnapping", "Robbery"]
_FIRSTNAMES = ["Albert", "Christopher", "Elise", "Jerry", "Paul"] + [
    f"first{k}" for k in range(40)
]
_LASTNAMES = ["GIBSON", "JONES", "MURPHY"] + [
    f"LAST{k}" for k in range(200)
]
_SPONSORS = ["Bennett", "Cochran", "Lugar", "Schumer", "Thompson"] + [
    f"sponsor{k}" for k in range(120)
]


def _seeded_question(query: str, rng: random.Random) -> str:
    """One why-not question over *query*'s output attributes."""
    pick = rng.choice
    if query in ("Q1", "Q2"):
        if rng.random() < 0.5:
            return f"(Person.name: {pick(_PERSONS)})"
        return (f"(Person.name: {pick(_PERSONS)}, "
                f"Crime.type: {pick(_CRIME_TYPES)})")
    if query == "Q4":
        return f"(P2.name: {pick(_PERSONS)})"
    if query == "Q8":
        if rng.random() < 0.5:
            return f"(Person.name: {pick(_PERSONS)})"
        return (f"((Person.name: {pick(_PERSONS)}, ct: $x), "
                f"$x > {rng.randint(0, 12)})")
    if query == "Q6":
        if rng.random() < 0.5:
            return f"(Co.firstname: {pick(_FIRSTNAMES)})"
        return (f"(Co.firstname: {pick(_FIRSTNAMES)}, "
                f"Co.lastname: {pick(_LASTNAMES)})")
    if query == "Q9":
        if rng.random() < 0.5:
            return f"(SPO.sponsorln: {pick(_SPONSORS)})"
        return (f"((SPO.sponsorln: {pick(_SPONSORS)}, am: $x), "
                f"$x >= {rng.randint(1, 200) * 100})")
    raise KeyError(query)


@dataclass(frozen=True)
class Question:
    """One why-not question over one query text."""

    database: str
    sql: str
    why_not: str


# ---------------------------------------------------------------------------
# sweep-cold: the 19 Table 4 use cases, each sweep in a seeded order
# ---------------------------------------------------------------------------
def sweep_orders(use_cases: list[str], seed: int):
    """Endless seeded permutations of *use_cases*, one per sweep."""
    rng = random.Random(f"sweep-cold/{seed}")
    while True:
        order = list(use_cases)
        rng.shuffle(order)
        yield order


# ---------------------------------------------------------------------------
# http-warm: Table 4 predicates plus seeded ones over the same queries
# ---------------------------------------------------------------------------
#: seeded questions added per SQL-expressible query
WARM_EXTRA_PER_QUERY = 4


def warm_pool(seed: int) -> list[Question]:
    """The distinct questions ``http-warm`` draws its requests from."""
    rng = random.Random(f"http-warm/pool/{seed}")
    pool: list[Question] = []
    for query, (database, sql, predicates) in SQL_QUERIES.items():
        questions = list(predicates.values())
        while len(questions) < len(predicates) + WARM_EXTRA_PER_QUERY:
            candidate = _seeded_question(query, rng)
            if candidate not in questions:
                questions.append(candidate)
        pool.extend(Question(database, sql, q) for q in questions)
    return pool


def explain_body(question: Question) -> dict:
    return {"database": question.database, "sql": question.sql,
            "why_not": question.why_not}


def warm_requests(seed: int, caller: int, pool: list[Question], tag: str):
    """Endless ``(request id, request bytes, question)`` of one
    closed-loop caller."""
    rng = random.Random(f"http-warm/closed/{seed}/{caller}")
    for k in count():
        question = pool[rng.randrange(len(pool))]
        rid = f"{tag}{caller}-{k}"
        yield rid, encode_post("/v1/explain", explain_body(question), rid), (
            question)


def poisson_schedule(
    rate_rps: float, seconds: float, pool_size: int, rng: random.Random
) -> list[tuple[float, int]]:
    """Open-loop arrivals: ``(due offset in s, pool index)`` pairs."""
    schedule = []
    t = rng.expovariate(rate_rps)
    while t < seconds:
        schedule.append((t, rng.randrange(pool_size)))
        t += rng.expovariate(rate_rps)
    return schedule


# ---------------------------------------------------------------------------
# http-batch: a never-seen query text per request
# ---------------------------------------------------------------------------
#: questions per batch request
BATCH_QUESTIONS = 8

#: Five templates: each is an SQL-expressible query with
#: one selection whose constant is drawn from the seed out of the
#: column's domain in the scale-1 paper data, so the selection never
#: comes out empty and never keeps every row (the tests check this on
#: the data).  The domains, from the scale-1 databases:
#:
#: * ``Crime.sector`` spans 21..90, so ``> c`` for c in 21..89;
#: * ``Person.name`` of ``P1``: ``< c`` with c just after a person name
#:   other than the last one keeps the names up to that name;
#: * ``Congress.byear`` spans 1940..1994, so ``> c`` for c in 1940..1993;
#: * ``Earmarks.camount`` spans 10..120000 with 906 of its 908 values
#:   at most 50902, so ``> c`` for c in 10..50901.
BATCH_TEMPLATES: dict[str, tuple[str, str, Sequence]] = {
    "Q2": ("crime", SQL_QUERIES["Q1"][1] + " AND Crime.sector > {c}",
           range(21, 90)),
    "Q8": ("crime", SQL_QUERIES["Q8"][1].replace(
        "Crime.sector > 80", "Crime.sector > {c}"), range(21, 90)),
    "Q4": ("crime", SQL_QUERIES["Q4"][1].replace(
        "P1.name < 'B'", "P1.name < '{c}'"), sorted(_PERSONS)[:-1]),
    "Q6": ("gov", SQL_QUERIES["Q6"][1].replace(
        "Co.byear > 1970", "Co.byear > {c}"), range(1940, 1994)),
    "Q9": ("gov", SQL_QUERIES["Q9"][1].replace(
        "GROUP BY", "AND E.camount > {c} GROUP BY"), range(10, 50902)),
}

#: The templates of one cycle of batches, shuffled per cycle.  A batch's
#: latency is multimodal, one cluster per template: Q4, Q2 and Q8 are
#: the cheapest and overlap, Q6 lies well apart above them, Q9 costs the
#: most.  With as many batches below Q6 as above it, the median batch
#: lies in the middle of the Q6 cluster and p90 inside Q9's.  With each
#: template once a cycle, the median lay on the upper edge of the
#: Q4/Q2/Q8 cluster, next to the gap before Q6, and moved by 20% of
#: itself from run to run.
BATCH_CYCLE = ("Q4", "Q2", "Q8", "Q6", "Q6", "Q9", "Q9", "Q9")

#: the batch index is written into each constant with this many digits,
#: so texts are unique for the first 10**9 batches of a stream
_INDEX_DIGITS = 9


def batch_constant(query: str, value, index: int) -> str:
    """The selection constant of batch *index* (from 1): unique per
    index, yet selecting the same rows as *value* itself.  A number
    ``value.<index>`` lies strictly between ``value`` and ``value + 1``,
    so on an integer column ``> value.<index>`` keeps the rows of
    ``> value``; a name ``'value <index>'`` sorts right after ``value``
    and before every other name (a space sorts before every letter and
    digit), so ``< 'value <index>'`` keeps the names up to ``value``."""
    if not 0 < index < 10 ** _INDEX_DIGITS:
        raise ValueError(f"batch index {index} out of range")
    if query == "Q4":
        return f"{value} {index}"
    return f"{value}.{index:0{_INDEX_DIGITS}d}"


@dataclass(frozen=True)
class Batch:
    database: str
    sql: str
    why_not: tuple[str, ...]


def batch_stream(seed: int):
    """Endless batches: ``BATCH_CYCLE`` in a seeded order per cycle (so
    each template has an exact share), a seeded constant
    per batch from the template's domain made unique by the batch
    index, questions from the template's query."""
    rng = random.Random(f"http-batch/{seed}")
    predicates = {q: list(v[2].values()) for q, v in SQL_QUERIES.items()}
    predicates["Q2"] = predicates["Q1"] + predicates["Q2"]
    index = count(1)
    while True:
        order = list(BATCH_CYCLE)
        rng.shuffle(order)
        for query in order:
            database, template, domain = BATCH_TEMPLATES[query]
            sql = template.format(c=batch_constant(
                query, rng.choice(domain), next(index)))
            questions = list(predicates[query])
            while len(questions) < BATCH_QUESTIONS:
                candidate = _seeded_question(query, rng)
                if candidate not in questions:
                    questions.append(candidate)
            rng.shuffle(questions)
            yield Batch(database, sql, tuple(questions[:BATCH_QUESTIONS]))


def batch_requests(seed: int, tag: str):
    """Endless ``(request id, request bytes, batch)`` of the one
    ``http-batch`` caller."""
    for k, batch in enumerate(batch_stream(seed)):
        rid = f"{tag}-{k}"
        yield rid, encode_post(
            "/v1/explain_batch", batch_body(batch, rid), rid), batch


def batch_body(batch: Batch, request_id: str) -> dict:
    return {
        "request_id": request_id,
        "database": batch.database,
        "sql": batch.sql,
        "why_not": list(batch.why_not),
        "workers": 2,
    }


def encode_post(path: str, body: dict, request_id: str | None) -> bytes:
    """A complete HTTP/1.1 request, one connection per request (the
    connection behaviour of the repo's ``ServiceClient``).  Only requests
    with an id are traced by a traced server."""
    payload = json.dumps(body, sort_keys=True).encode("utf-8")
    traced = f"X-Request-Id: {request_id}\r\n" if request_id else ""
    head = (
        f"POST {path} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"{traced}"
        "Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + payload
