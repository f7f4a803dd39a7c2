"""Compatibility of source tuples with a c-tuple (Def. 2.8).

Given an unrenamed c-tuple ``tc`` and the query input instance ``I_Q``,
this module computes

* the **direct compatible set** ``Dir_tc`` -- the source tuples that
  carry the constant values / satisfiable variable bindings of ``tc``,
  with the paper's requirement that all pairs of ``tc`` referencing the
  same relation co-occur in the same source tuple (Sec. 3.1, step 2a);
* ``S_tc`` -- the relation aliases typing the tuples of ``Dir_tc``;
* the **indirect compatible set** ``InDir_tc`` -- the full instance of
  every relation in ``S_Q - S_tc`` (data needed to *produce* the
  missing answer but not constrained by it).

``Dir_tc | InDir_tc`` is the tuple set ``D`` against which successors
are validated (Notation 2.1).

The :class:`CompatibleFinder` mirrors the paper's implementation note:
when a stored :class:`~repro.relational.database.Database` is available
it retrieves candidate ids through indexed ``SELECT`` lookups (the
``SELECT A.aid FROM A WHERE A.name = 'Homer'`` of Ex. 3.1) instead of
scanning the instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..obs.trace import current_tracer
from ..relational.conditions import Var, is_satisfiable
from ..relational.database import Database
from ..robustness.budget import current_context
from ..robustness.faults import fault_point
from ..relational.instance import DatabaseInstance
from ..relational.tuples import Tuple, Value, alias_of, unqualified_name
from .whynot_question import CTuple


@dataclass(frozen=True)
class CompatibilitySets:
    """The outcome of CompatibleFinder for one c-tuple."""

    ctuple: CTuple
    #: alias -> compatible tuples of that relation (only aliases with hits)
    direct: Mapping[str, tuple[Tuple, ...]]
    #: S_tc: aliases typing the direct compatible tuples
    direct_aliases: frozenset[str]
    #: S_Q - S_tc
    indirect_aliases: frozenset[str]
    #: identifiers of the direct compatible tuples
    dir_tids: frozenset[str]
    #: identifiers of every tuple of the indirect relations
    indir_tids: frozenset[str]
    #: aliases actually constrained by tc (qualified attributes)
    constrained_aliases: frozenset[str]

    @property
    def valid_tids(self) -> frozenset[str]:
        """``D = Dir_tc | InDir_tc`` as a set of base-tuple ids."""
        return self.dir_tids | self.indir_tids

    def direct_tuples(self) -> tuple[Tuple, ...]:
        """All direct compatible tuples, grouped by alias order."""
        out: list[Tuple] = []
        for alias in sorted(self.direct):
            out.extend(self.direct[alias])
        return tuple(out)

    @property
    def is_empty(self) -> bool:
        """True when no source tuple is compatible with the c-tuple."""
        return not self.dir_tids


def tuple_matches_ctuple(t: Tuple, tc: CTuple) -> bool:
    """Decide Def. 2.8 for one source tuple.

    ``t`` is compatible with ``tc`` iff (1) they share attributes and
    (2) some valuation equates the shared entries and satisfies
    ``tc.cond``: constants must match exactly, variables are bound to
    the tuple's values, and the residual condition must stay
    satisfiable.
    """
    shared = t.type & tc.type
    if not shared:
        return False
    bound: dict[str, Value] = {}
    for attr in shared:
        entry = tc.entry(attr)
        value = t[attr]
        if isinstance(entry, Var):
            if entry.name in bound and bound[entry.name] != value:
                return False
            bound[entry.name] = value
        elif entry != value:
            return False
    return is_satisfiable(tc.condition, bound)


class CompatibleFinder:
    """Computes :class:`CompatibilitySets` over a query input instance.

    Parameters
    ----------
    instance:
        The query input instance ``I_Q`` (one relation per alias).
    database, aliases:
        Optional stored database plus the ``eta_Q`` alias mapping;
        when given, constant constraints are served by indexed id
        lookups on the stored tables (the paper's SELECT statements)
        and only the candidates are checked against the full c-tuple.
    """

    def __init__(
        self,
        instance: DatabaseInstance,
        database: Database | None = None,
        aliases: Mapping[str, str] | None = None,
    ):
        self.instance = instance
        self.database = database
        self.aliases = dict(aliases or {})

    def find(self, tc: CTuple) -> CompatibilitySets:
        """Compute ``Dir_tc`` / ``InDir_tc`` for the c-tuple."""
        fault_point("compatible.find")
        tracer = current_tracer()
        if tracer is None:
            return self._find(tc)
        with tracer.span(
            "find", category="compatible", ctuple=str(tc)
        ) as span:
            sets = self._find(tc)
            span.set_tag("direct", len(sets.dir_tids))
            span.set_tag("indirect", len(sets.indir_tids))
            tracer.metrics.counter("compatible.finds").inc()
            return sets

    def _find(self, tc: CTuple) -> CompatibilitySets:
        constrained = frozenset(
            alias
            for alias in (alias_of(attr) for attr in tc.type)
            if alias is not None and alias in self.instance
        )
        direct: dict[str, tuple[Tuple, ...]] = {}
        for alias in sorted(constrained):
            hits = self._compatible_in(alias, tc)
            if hits:
                direct[alias] = tuple(hits)
        direct_aliases = frozenset(direct)
        all_aliases = frozenset(self.instance.relation_names())
        indirect_aliases = all_aliases - direct_aliases
        dir_tids = frozenset(
            t.tid for hits in direct.values() for t in hits if t.tid
        )
        indir_tids = frozenset(
            t.tid
            for alias in indirect_aliases
            for t in self.instance.relation(alias)
            if t.tid
        )
        return CompatibilitySets(
            ctuple=tc,
            direct=direct,
            direct_aliases=direct_aliases,
            indirect_aliases=indirect_aliases,
            dir_tids=dir_tids,
            indir_tids=indir_tids,
            constrained_aliases=constrained,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _compatible_in(self, alias: str, tc: CTuple) -> list[Tuple]:
        relation = self.instance.relation(alias)
        candidates = self._candidates(alias, tc)
        if candidates is None:
            candidates = list(relation)
        context = current_context()
        if context is not None:
            context.tick_comparisons(len(candidates))
        return [t for t in candidates if tuple_matches_ctuple(t, tc)]

    def _candidates(self, alias: str, tc: CTuple) -> list[Tuple] | None:
        """Index-served candidate tuples, or ``None`` for a full scan."""
        if self.database is None:
            return None
        table_name = self.aliases.get(alias, alias)
        if table_name not in self.database:
            return None
        table = self.database.table(table_name)
        equalities: dict[str, Value] = {}
        for attr, entry in tc.entries():
            if alias_of(attr) != alias or isinstance(entry, Var):
                continue
            equalities[unqualified_name(attr)] = entry
        if not equalities:
            return None
        ids = self.database.table(table_name).select_ids(equalities)
        relation = self.instance.relation(alias)
        prefix = f"{table.schema.name}:"
        out: list[Tuple] = []
        for tid in ids:
            suffix = tid[len(prefix):] if tid.startswith(prefix) else tid
            out.append(relation.by_tid(f"{alias}:{suffix}"))
        return out


def find_compatibles(
    tc: CTuple,
    instance: DatabaseInstance,
    database: Database | None = None,
    aliases: Mapping[str, str] | None = None,
) -> CompatibilitySets:
    """Convenience wrapper around :class:`CompatibleFinder`."""
    return CompatibleFinder(instance, database, aliases).find(tc)
