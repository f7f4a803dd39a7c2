"""Table statistics and cardinality estimation.

A small optimizer-style statistics layer over the storage engine:
per-column distinct counts, min/max, null fractions, and the classic
System-R estimation rules (1/NDV selectivity for equalities, range
fractions for inequalities, containment assumption for joins).

NedExplain itself does not need an optimizer -- its canonical trees
are fixed by Sec. 3.1's rationales -- but the estimates power
:func:`explain_plan`, the per-node cardinality report used by the
examples and the scaling ablation to reason about where evaluation
time goes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import UnknownRelationError
from .algebra import (
    Aggregate,
    Difference,
    Join,
    Project,
    Query,
    RelationLeaf,
    Select,
    Union,
)
from .conditions import And, Attr, Comparison, Condition, Const, Or
from .database import Database
from .tuples import Value, qualify

#: default selectivity when nothing better is known (System R's 1/10)
DEFAULT_SELECTIVITY = 0.1


@dataclass(frozen=True)
class ColumnStatistics:
    """Statistics of one column."""

    attribute: str
    row_count: int
    distinct_count: int
    null_count: int
    minimum: Value
    maximum: Value

    @property
    def null_fraction(self) -> float:
        if not self.row_count:
            return 0.0
        return self.null_count / self.row_count

    def equality_selectivity(self) -> float:
        """P(column = constant) under uniformity."""
        if not self.distinct_count:
            return 0.0
        return (1.0 - self.null_fraction) / self.distinct_count

    def range_selectivity(self, op: str, bound: Value) -> float:
        """P(column op bound) via linear interpolation on [min, max]."""
        if (
            self.minimum is None
            or self.maximum is None
            or not isinstance(bound, (int, float))
            or not isinstance(self.minimum, (int, float))
            or not isinstance(self.maximum, (int, float))
        ):
            return DEFAULT_SELECTIVITY
        span = self.maximum - self.minimum
        if span <= 0:
            # single-valued column: all or nothing
            from .conditions import compare_values

            return (
                1.0 - self.null_fraction
                if compare_values(self.minimum, op, bound)
                else 0.0
            )
        if op in (">", ">="):
            fraction = (self.maximum - bound) / span
        else:
            fraction = (bound - self.minimum) / span
        fraction = min(max(fraction, 0.0), 1.0)
        return fraction * (1.0 - self.null_fraction)


@dataclass(frozen=True)
class TableStatistics:
    """Statistics of one stored table."""

    name: str
    row_count: int
    columns: Mapping[str, ColumnStatistics]

    def column(self, attribute: str) -> ColumnStatistics:
        try:
            return self.columns[attribute]
        except KeyError:
            raise UnknownRelationError(
                f"no statistics for column {attribute!r} of "
                f"table {self.name!r}"
            ) from None


def collect_statistics(database: Database) -> dict[str, TableStatistics]:
    """Scan every table once and build its statistics."""
    out: dict[str, TableStatistics] = {}
    for table_name in database.table_names():
        table = database.table(table_name)
        columns: dict[str, ColumnStatistics] = {}
        for attribute in table.schema.attributes:
            qualified = qualify(table_name, attribute)
            values = [row[qualified] for row in table.rows]
            non_null = [v for v in values if v is not None]
            orderable = [
                v for v in non_null if isinstance(v, (int, float, str))
            ]
            homogeneous = orderable and all(
                isinstance(v, type(orderable[0]))
                or (isinstance(v, (int, float))
                    and isinstance(orderable[0], (int, float)))
                for v in orderable
            )
            columns[attribute] = ColumnStatistics(
                attribute=attribute,
                row_count=len(values),
                distinct_count=len(set(non_null)),
                null_count=len(values) - len(non_null),
                minimum=min(orderable) if homogeneous else None,
                maximum=max(orderable) if homogeneous else None,
            )
        out[table_name] = TableStatistics(
            name=table_name, row_count=len(table), columns=columns
        )
    return out


class CardinalityEstimator:
    """Estimates output sizes for every node of a query tree."""

    def __init__(
        self,
        database: Database,
        aliases: Mapping[str, str] | None = None,
    ):
        self.statistics = collect_statistics(database)
        self.aliases = dict(aliases or {})

    # ------------------------------------------------------------------
    def estimate(self, node: Query) -> float:
        """Estimated number of output tuples of *node*."""
        if isinstance(node, RelationLeaf):
            table = self.aliases.get(node.alias, node.alias)
            if table not in self.statistics:
                return 0.0
            return float(self.statistics[table].row_count)
        if isinstance(node, Select):
            return self.estimate(node.child) * self._selectivity(
                node.condition, node
            )
        if isinstance(node, Project):
            return self.estimate(node.child)
        if isinstance(node, Aggregate):
            child = self.estimate(node.child)
            if not node.group_by:
                return 1.0
            distinct = self._distinct_product(node)
            if distinct is None:
                return max(child * DEFAULT_SELECTIVITY, 1.0)
            return min(child, float(distinct))
        if isinstance(node, Join):
            left = self.estimate(node.left)
            right = self.estimate(node.right)
            if not node.renaming.triples:
                return left * right  # cross product
            divisor = 1.0
            for triple in node.renaming:
                ndv_left = self._distinct_of(triple.left)
                ndv_right = self._distinct_of(triple.right)
                candidates = [
                    n for n in (ndv_left, ndv_right) if n
                ]
                divisor *= max(candidates) if candidates else 10.0
            return left * right / divisor
        if isinstance(node, Union):
            return self.estimate(node.left) + self.estimate(node.right)
        if isinstance(node, Difference):
            return max(
                self.estimate(node.left) - self.estimate(node.right),
                0.0,
            )
        return 0.0

    # ------------------------------------------------------------------
    def _column_stats(self, attribute: str) -> ColumnStatistics | None:
        if "." not in attribute:
            return None
        alias, column = attribute.split(".", 1)
        table = self.aliases.get(alias, alias)
        stats = self.statistics.get(table)
        if stats is None or column not in stats.columns:
            return None
        return stats.columns[column]

    def _distinct_of(self, attribute: str) -> int | None:
        stats = self._column_stats(attribute)
        return stats.distinct_count if stats else None

    def _distinct_product(self, node: Aggregate) -> int | None:
        product = 1
        for attribute in node.group_by:
            distinct = self._distinct_of(attribute)
            if distinct is None:
                return None
            product *= max(distinct, 1)
        return product

    def _selectivity(self, condition: Condition, node: Select) -> float:
        if isinstance(condition, And):
            out = 1.0
            for part in condition.parts:
                out *= self._selectivity(part, node)
            return out
        if isinstance(condition, Or):
            miss = 1.0
            for part in condition.parts:
                miss *= 1.0 - self._selectivity(part, node)
            return 1.0 - miss
        if isinstance(condition, Comparison):
            return self._comparison_selectivity(condition)
        return DEFAULT_SELECTIVITY

    def _comparison_selectivity(self, comparison: Comparison) -> float:
        left, right = comparison.left, comparison.right
        if isinstance(left, Const) and isinstance(right, Attr):
            comparison = comparison.flipped()
            left, right = comparison.left, comparison.right
        if not isinstance(left, Attr) or not isinstance(right, Const):
            return DEFAULT_SELECTIVITY
        stats = self._column_stats(left.name)
        if stats is None:
            return DEFAULT_SELECTIVITY
        op = comparison.op
        if op == "=":
            return stats.equality_selectivity()
        if op == "!=":
            return max(1.0 - stats.equality_selectivity(), 0.0)
        return stats.range_selectivity(op, right.value)


def actuals_from_trace(tracer, root: Query) -> dict[int, int]:
    """Per-node actual cardinalities recorded by a traced evaluation.

    The evaluator tags every ``operator`` span with the node's
    postorder index and output cardinality
    (:func:`repro.relational.evaluator.evaluate`); this maps those tags
    back onto *root*'s nodes, keyed by ``id(node)`` as
    :func:`explain_plan` expects::

        with tracing() as tracer:
            evaluate_query(root, instance, aliases)
        print(explain_plan(root, database, aliases,
                           actuals=actuals_from_trace(tracer, root)))

    The evaluator records one span per node per evaluation, so when
    the trace holds several evaluations of the same tree (cache misses
    over different instances) the last evaluation per node wins.
    Spans of *other* trees in the same trace are skipped: the
    postorder index must agree with a node of *root* (indices past the
    tree size are ignored; fingerprint tags disambiguate the rest).
    """
    nodes = list(root.postorder())
    from .algebra import query_fingerprint

    prefixes = [query_fingerprint(node)[:12] for node in nodes]
    actuals: dict[int, int] = {}
    for span in tracer.by_category("operator"):
        index = span.tags.get("postorder")
        rows_out = span.tags.get("rows_out")
        if index is None or rows_out is None:
            continue
        if not (0 <= index < len(nodes)):
            continue
        if span.tags.get("fingerprint") != prefixes[index]:
            continue
        actuals[id(nodes[index])] = rows_out
    return actuals


def explain_plan(
    root: Query,
    database: Database,
    aliases: Mapping[str, str] | None = None,
    actuals: Mapping[int, int] | None = None,
) -> str:
    """Render the tree with estimated (and optionally actual) rows."""
    estimator = CardinalityEstimator(database, aliases)

    def walk(node: Query, indent: int) -> list[str]:
        pad = "  " * indent
        tag = f"{node.name}: " if node.name else ""
        estimated = estimator.estimate(node)
        extra = ""
        if actuals is not None and id(node) in actuals:
            extra = f", actual={actuals[id(node)]}"
        lines = [
            f"{pad}{tag}{node.describe()}  "
            f"[est={estimated:.1f}{extra}]"
        ]
        for child in node.children:
            lines.extend(walk(child, indent + 1))
        return lines

    return "\n".join(walk(root, 0))
