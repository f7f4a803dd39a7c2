"""Bottom-up query evaluation with lineage tracing.

This is the library's stand-in for the Trio system the paper's
implementations used for lineage: every operator application records,
on each output tuple, its direct predecessors and base lineage.  The
:class:`EvaluationResult` keeps the input/output tuple lists of every
subquery -- precisely the ``Input`` / ``Output`` columns of the paper's
TabQ structure -- so NedExplain and the Why-Not baseline can inspect
every intermediate result.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from ..errors import EvaluationError, UnknownRelationError
from ..obs.trace import current_tracer
from ..robustness.budget import current_context
from ..robustness.faults import fault_point
from .algebra import Query, RelationLeaf, query_fingerprint, validate_tree
from .instance import DatabaseInstance, query_input_instance
from .tuples import Tuple, Value

class EvaluationResult:
    """Per-node inputs and outputs of one query evaluation.

    Nodes are keyed by identity (two structurally equal operators in
    one tree are still distinct subqueries).  Because ``id()`` values
    are recycled once an object is garbage-collected, every keyed node
    is also held by strong reference (``_nodes``): a result that
    outlives its evaluation call -- e.g. inside an
    :class:`~repro.relational.evalcache.EvaluationCache` -- can never
    have its keys silently re-bound to unrelated query objects.
    """

    def __init__(self, root: Query):
        self.root = root
        self._outputs: dict[int, list[Tuple]] = {}
        self._inputs: dict[int, list[list[Tuple]]] = {}
        #: strong references keeping every keyed node alive (id-reuse
        #: safety; see the class docstring)
        self._nodes: dict[int, Query] = {}

    def set_node(
        self,
        node: Query,
        inputs: list[list[Tuple]],
        output: list[Tuple],
    ) -> None:
        """Record the evaluation of one node."""
        self._nodes[id(node)] = node
        self._inputs[id(node)] = inputs
        self._outputs[id(node)] = output

    def output(self, node: Query) -> list[Tuple]:
        """Output tuples of *node*."""
        try:
            return self._outputs[id(node)]
        except KeyError:
            raise EvaluationError(
                f"node {node!r} was not evaluated"
            ) from None

    def inputs(self, node: Query) -> list[list[Tuple]]:
        """Per-child input tuple lists of *node*."""
        try:
            return self._inputs[id(node)]
        except KeyError:
            raise EvaluationError(
                f"node {node!r} was not evaluated"
            ) from None

    def flat_input(self, node: Query) -> list[Tuple]:
        """All input tuples of *node*, children concatenated.

        This is the ``m.Input`` entry of TabQ: 'the input instance of a
        manipulation includes solely the output of its direct children'.
        """
        flat: list[Tuple] = []
        for part in self.inputs(node):
            flat.extend(part)
        return flat

    @property
    def result(self) -> list[Tuple]:
        """The output of the root, i.e. ``Q(I)``."""
        return self.output(self.root)

    def result_values(self) -> list[dict[str, Value]]:
        """Root output as plain value dicts, duplicates collapsed."""
        seen: set[frozenset] = set()
        out: list[dict[str, Value]] = []
        for t in self.result:
            key = frozenset(t.items())
            if key not in seen:
                seen.add(key)
                out.append(dict(t.items()))
        return out

    def nodes(self) -> Iterator[Query]:
        """All evaluated nodes, bottom-up."""
        return self.root.postorder()

    def rebind(self, new_root: Query) -> "EvaluationResult":
        """Re-key this result onto a structurally equal tree.

        A cached result is keyed by the node identities of the tree it
        was computed from; a caller holding a *different but
        structurally equal* tree (same fingerprint) gets a view keyed
        by its own nodes.  Inputs and outputs are shared, not copied --
        cached results must be treated as immutable.
        """
        old_nodes = list(self.root.postorder())
        new_nodes = list(new_root.postorder())
        if len(old_nodes) != len(new_nodes):
            raise EvaluationError(
                "cannot rebind evaluation result onto a tree of "
                "different shape"
            )
        clone = EvaluationResult(new_root)
        for old, new in zip(old_nodes, new_nodes):
            if old.op != new.op:
                raise EvaluationError(
                    "cannot rebind evaluation result onto a tree of "
                    "different shape"
                )
            clone.set_node(
                new, self._inputs[id(old)], self._outputs[id(old)]
            )
        return clone


def evaluate(root: Query, instance: DatabaseInstance) -> EvaluationResult:
    """Evaluate the query tree *root* over the input instance.

    *instance* must be a *query input instance*: one relation per leaf
    alias (see :func:`repro.relational.instance.query_input_instance`
    for deriving it from a stored database and an alias mapping).
    """
    validate_tree(root)
    result = EvaluationResult(root)
    context = current_context()
    # Tracing fast path: one context-var read per evaluation, one None
    # check per node when tracing is off.
    tracer = current_tracer()
    for index, node in enumerate(root.postorder()):
        # Cooperative budget tick per operator: a deadline or row limit
        # stops the bottom-up pass between manipulations (the
        # comparison ticks inside Join/Select bound work *within* one).
        fault_point("operator.apply")
        if context is not None:
            context.check_deadline()
        span = None
        if tracer is not None:
            span = tracer.start_span(
                node.name or node.op,
                category="operator",
                op=node.op,
                fingerprint=query_fingerprint(node)[:12],
                postorder=index,
            )
        try:
            if isinstance(node, RelationLeaf):
                try:
                    stored = list(instance.relation(node.alias))
                except UnknownRelationError as exc:
                    raise EvaluationError(
                        f"query reads alias {node.alias!r} but the "
                        "input instance has no such relation"
                    ) from exc
                inputs = [stored]
            else:
                inputs = [
                    list(result.output(child)) for child in node.children
                ]
            output = node.apply(inputs)
        finally:
            if span is not None:
                tracer.end_span(span)
        if span is not None:
            span.set_tag(
                "rows_in", sum(len(part) for part in inputs)
            )
            span.set_tag("rows_out", len(output))
            tracer.metrics.counter("evaluator.operators").inc()
            tracer.metrics.histogram("evaluator.rows_out").observe(
                len(output)
            )
        result.set_node(node, inputs, output)
        if context is not None:
            context.tick_rows(len(output))
    return result


def evaluate_query(
    root: Query,
    database: DatabaseInstance,
    aliases: Mapping[str, str] | None = None,
    cache=None,
) -> EvaluationResult:
    """Evaluate ``(Q, eta_Q)`` over a stored database (Def. 2.3).

    *aliases* maps each leaf alias to a stored relation name; when
    omitted, each alias is assumed to name a stored relation directly.
    *cache* may be an
    :class:`~repro.relational.evalcache.EvaluationCache`; repeated
    evaluations of structurally equal queries over unchanged data are
    then served from it (the returned result must be treated as
    immutable in that case).
    """
    mapping = resolve_aliases(root, database, aliases)
    input_instance = query_input_instance(database, mapping)
    if cache is not None:
        return cache.get_or_evaluate(root, input_instance, mapping)
    return evaluate(root, input_instance)


def resolve_aliases(
    root: Query,
    database: DatabaseInstance,
    aliases: Mapping[str, str] | None = None,
) -> dict[str, str]:
    """Complete the alias mapping ``eta_Q`` for all leaves of *root*."""
    mapping = dict(aliases or {})
    for leaf in root.leaves():
        if leaf.alias not in mapping:
            if leaf.alias not in database:
                raise UnknownRelationError(
                    f"alias {leaf.alias!r} does not name a stored "
                    "relation and no alias mapping was provided"
                )
            mapping[leaf.alias] = leaf.alias
    return mapping


def result_contains(
    result: Sequence[Tuple], expected: Mapping[str, Value]
) -> bool:
    """True when some result tuple matches all given attribute values."""
    for t in result:
        if all(t.get(attr) == value for attr, value in expected.items()):
            return True
    return False
