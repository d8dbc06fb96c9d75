"""Rule-based optimizer for the shared logical plans.

Rules, applied in a fixed deterministic order by :func:`optimize`:

1. **conjunction splitting** — ``Filter(a & b & c)`` becomes three stacked
   filters, first-written innermost, so each conjunct can move on its own
   and every backend runs them in written order;
2. **predicate pushdown** — filters move below projections and joins when
   they reference only one side's columns (never across a :class:`Sample`,
   which is a barrier: its output depends on the exact row set it sees);
3. **projection pruning** — every scan is wrapped in a projection of just
   the columns the plan above it references — *through* joins too, so each
   join input decodes only the terminal's columns plus its join key.  A
   projection is emitted once: never on top of another projection, and
   not at all where its input already outputs those columns.

Predicates are classified structurally — range / equality / membership —
which is the payoff of declarative expressions: the column store maps each
class straight onto its encodings' fast paths.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.plan.expressions import (
    ColumnRef,
    Comparison,
    Expression,
    InList,
    Literal,
    is_total,
    split_conjuncts,
)
from repro.plan.logical import (
    Aggregate,
    ApproxAggregate,
    Filter,
    Join,
    Pivot,
    PlanNode,
    Project,
    Sample,
    Scan,
)

@dataclass(frozen=True)
class OptimizerCapabilities:
    """Which rewrite rules an engine's executor can honour.

    The five engine families run the *same* logical plans, but not every
    executor can exploit every rewrite: a cluster partition scan has no
    join to push through and nothing to prune.  Each per-engine executor
    passes its capability profile to :func:`optimize`, which applies only
    the enabled rules.

    Splitting a conjunction into stacked filters is not a flag: every
    executor honours a filter stack, so :func:`optimize` always splits.
    The correctness constraints — the :class:`~repro.plan.logical.Sample`
    barrier and the ``is_total`` guard on join pushdown — are built into
    the rules themselves and hold for every profile.

    The default profile enables both flags (every backend but the cluster
    honours every rule).  No flag chooses a join's build side or the order
    of conjuncts: both stores always index the left input, and every
    backend runs conjuncts in written order.

    >>> OptimizerCapabilities().predicate_pushdown
    True
    >>> OptimizerCapabilities(projection_pruning=False).predicate_pushdown
    True
    """

    predicate_pushdown: bool = True
    projection_pruning: bool = True


class PlanCatalog:
    """What the optimizer may ask an engine about its tables.

    Both hooks may return None ("unknown"); every rule degrades gracefully
    to leaving the plan as written.
    """

    def columns_of(self, table: str) -> list[str] | None:
        return None

    def dtype_of(self, table: str, column: str) -> np.dtype | None:
        """Stored numpy dtype of one column (None = engine cannot say).

        Read by the static plan verifier (:mod:`repro.plan.verify`) — an
        unknown dtype downgrades dtype checks on that column to
        name-existence checks, it never fails them.
        """
        return None


class SchemaCatalog(PlanCatalog):
    """Column names and dtypes over a plain ``{table: {column: dtype}}`` mapping.

    The one catalog for every source but the live column store: the row
    store, the Hive tables, the R frames, the array frames and the
    cluster's partitioned tables snapshot their schemas into it once per
    plan execution, and the verifier and the fuzzer use it engine-free (a
    ``None`` dtype means "unknown").

    >>> catalog = SchemaCatalog({"genes": {"gene_id": "int64"}})
    >>> catalog.columns_of("genes"), catalog.dtype_of("genes", "gene_id")
    (['gene_id'], dtype('int64'))
    >>> catalog.columns_of("patients"), catalog.dtype_of("genes", "length")
    (None, None)
    """

    def __init__(self, schemas):
        self.schemas = {
            table: {name: None if dtype is None else np.dtype(dtype)
                    for name, dtype in columns.items()}
            for table, columns in schemas.items()
        }

    def columns_of(self, table: str) -> list[str] | None:
        columns = self.schemas.get(table)
        return None if columns is None else list(columns)

    def dtype_of(self, table: str, column: str) -> np.dtype | None:
        return self.schemas.get(table, {}).get(column)


# --------------------------------------------------------------------------- #
# Predicate classification
# --------------------------------------------------------------------------- #

# eq=False: the expression field's overloaded __eq__ builds an AST node,
# so the generated field-wise __eq__ would never return a bool.
@dataclass(frozen=True, eq=False)
class PredicateClass:
    """Structural shape of one predicate, as far as the optimizer can see."""

    expression: Expression
    kind: str                 # range | equality | inequality | membership | general
    column: str | None        # set when exactly one column is referenced


_RANGE_SYMBOLS = frozenset({"<", "<=", ">", ">="})


def classify(expression: Expression) -> PredicateClass:
    """Classify a predicate for pushdown and the encodings' fast paths."""
    referenced = expression.columns_referenced()
    column = next(iter(referenced)) if len(referenced) == 1 else None
    if isinstance(expression, InList) and isinstance(expression.operand, ColumnRef):
        return PredicateClass(expression, "membership", expression.operand.name)
    if isinstance(expression, Comparison) and type(expression) is Comparison:
        left, right = expression.left, expression.right
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            left, right = right, left
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            if expression.symbol == "=":
                return PredicateClass(expression, "equality", column)
            if expression.symbol == "<>":
                return PredicateClass(expression, "inequality", column)
            if expression.symbol in _RANGE_SYMBOLS and isinstance(
                    right.value, (bool, int, float, np.bool_, np.integer, np.floating)):
                return PredicateClass(expression, "range", column)
    return PredicateClass(expression, "general", column)


# --------------------------------------------------------------------------- #
# Plan rewrite rules
# --------------------------------------------------------------------------- #

def split_filter_conjunctions(node: PlanNode) -> PlanNode:
    """Turn every ``Filter(a & b)`` into stacked single-conjunct filters.

    AND is commutative and associative over total element-wise predicates,
    so the stacked form selects exactly the same rows; the split is what
    lets each conjunct move (pushdown) on its own.  Innermost =
    first-written, so every backend runs the conjuncts in written order.
    """
    node = _rebuild(node, split_filter_conjunctions)
    if isinstance(node, Filter):
        conjuncts = split_conjuncts(node.predicate)
        if len(conjuncts) > 1:
            child = node.child
            for conjunct in conjuncts:
                child = Filter(child, conjunct)
            return child
    return node


def output_columns(node: PlanNode, catalog: PlanCatalog) -> list[str] | None:
    """The column names a plan subtree produces (None when unknown)."""
    if isinstance(node, Scan):
        return catalog.columns_of(node.table)
    if isinstance(node, (Filter, Sample)):
        return output_columns(node.child, catalog)
    if isinstance(node, Project):
        return list(node.columns)
    if isinstance(node, Join):
        left = output_columns(node.left, catalog)
        right = output_columns(node.right, catalog)
        if left is None or right is None:
            return None
        return left + [name for name in right if name != node.right_key]
    return None


def push_filters_down(node: PlanNode, catalog: PlanCatalog) -> PlanNode:
    """Move filters below projections and joins; never across a Sample.

    Only *total* predicates (:func:`repro.plan.expressions.is_total`) move
    below a join: there they run on rows the join eliminates, and a
    partial operation (division) may blow up on rows
    it was never written to see.  For the same reason only a total
    predicate moves past a filter that stays above a join, and only when
    that lets it move further down.  Projection pushdown is always safe —
    it does not change the row set.
    """
    node = _rebuild(node, lambda child: push_filters_down(child, catalog))
    if not isinstance(node, Filter):
        return node
    child = node.child
    referenced = node.predicate.columns_referenced()
    if isinstance(child, Project) and referenced <= set(child.columns):
        return Project(
            push_filters_down(Filter(child.child, node.predicate), catalog),
            child.columns,
        )
    if isinstance(child, Join) and is_total(node.predicate):
        left_names = output_columns(child.left, catalog)
        right_names = set(output_columns(child.right, catalog) or ())
        if left_names is not None and referenced <= set(left_names):
            return replace(
                child,
                left=push_filters_down(Filter(child.left, node.predicate), catalog),
            )
        if right_names and referenced <= right_names:
            return replace(
                child,
                right=push_filters_down(Filter(child.right, node.predicate), catalog),
            )
    if isinstance(child, Filter) and is_total(node.predicate):
        passed = push_filters_down(Filter(child.child, node.predicate), catalog)
        if not (isinstance(passed, Filter) and passed.predicate is node.predicate):
            return Filter(passed, child.predicate)
    return node


def prune_projections(node: PlanNode, catalog: PlanCatalog,
                      required: set[str] | None = None) -> PlanNode:
    """Wrap each scan in a projection of only the columns the plan reads.

    Pruning also runs *through* joins: each input's requirement is the
    terminal's requirement restricted to that side plus its join key, and
    when an input still produces more than that (a pushed-down filter may
    read columns the join output never needs), a projection is inserted on
    top of the input so the join gathers only what the terminal references.
    Projection never changes the row set, so this is always safe.
    """
    if isinstance(node, Aggregate):
        needed = {node.group_by, node.value}
        return replace(node, child=prune_projections(node.child, catalog, needed))
    if isinstance(node, ApproxAggregate):
        return replace(node, child=prune_projections(node.child, catalog,
                                                     {node.value}))
    if isinstance(node, Pivot):
        needed = {node.row_key, node.column_key, node.value}
        return replace(node, child=prune_projections(node.child, catalog, needed))
    if isinstance(node, Project):
        child = prune_projections(node.child, catalog, set(node.columns))
        return _project(child, node.columns, catalog)
    if isinstance(node, Filter):
        needed = None if required is None else required | node.predicate.columns_referenced()
        return replace(node, child=prune_projections(node.child, catalog, needed))
    if isinstance(node, Sample):
        return replace(node, child=prune_projections(node.child, catalog, required))
    if isinstance(node, Join):
        left_names = output_columns(node.left, catalog)
        right_names = output_columns(node.right, catalog)
        left_required = right_required = None
        if required is not None and left_names is not None and right_names is not None:
            left_required = (required & set(left_names)) | {node.left_key}
            right_required = (required & set(right_names)) | {node.right_key}
        return replace(
            node,
            left=_prune_join_input(node.left, catalog, left_required),
            right=_prune_join_input(node.right, catalog, right_required),
        )
    if isinstance(node, Scan) and required is not None:
        names = catalog.columns_of(node.table)
        if names is not None and required < set(names):
            return _project(node, tuple(name for name in names if name in required),
                            catalog)
    return node


def _prune_join_input(node: PlanNode, catalog: PlanCatalog,
                      required: set[str] | None) -> PlanNode:
    """Prune one join input, capping its output at ``required``.

    A filter pushed below the join may read columns the join output never
    needs (the Q2 disease predicate reads ``disease_id`` but the pivot only
    needs ``patient_id``); after the recursive prune, a projection on top
    of the input drops them so the join never gathers them.
    """
    pruned = prune_projections(node, catalog, required)
    if required is None:
        return pruned
    names = output_columns(pruned, catalog)
    if names is not None and set(names) > required:
        return _project(pruned, tuple(name for name in names if name in required),
                        catalog)
    return pruned


def _project(child: PlanNode, columns: tuple[str, ...],
             catalog: PlanCatalog) -> PlanNode:
    """``Project(child, columns)``, built only where it changes the output.

    A child that already outputs exactly ``columns``, in that order, is
    returned unchanged, and a projection of a projection projects the
    inner one's input: projecting twice equals projecting once to the
    outer set.
    """
    if output_columns(child, catalog) == list(columns):
        return child
    if isinstance(child, Project):
        child = child.child
    return Project(child, columns)


def optimize(node: PlanNode, catalog: PlanCatalog | None = None,
             capabilities: OptimizerCapabilities | None = None) -> PlanNode:
    """Apply the rewrite rules in a fixed, deterministic order.

    Splitting must precede pushdown (so each conjunct moves independently),
    and pruning runs last over the settled shape.  Every rule preserves the
    plan's result set exactly; only execution order and decoded columns
    change.

    ``capabilities`` restricts the rule set to what the target engine's
    executor can honour (:class:`OptimizerCapabilities`); the default
    profile applies every rule.
    """
    catalog = catalog or PlanCatalog()
    capabilities = capabilities or OptimizerCapabilities()
    node = split_filter_conjunctions(node)
    if capabilities.predicate_pushdown:
        node = push_filters_down(node, catalog)
    if capabilities.projection_pruning:
        node = prune_projections(node, catalog)
    return node


def _rebuild(node: PlanNode, visit) -> PlanNode:
    """Rebuild a node with ``visit`` applied to each child."""
    if isinstance(node, (Filter, Project, Sample, Aggregate, ApproxAggregate,
                         Pivot)):
        return replace(node, child=visit(node.child))
    if isinstance(node, Join):
        return replace(node, left=visit(node.left), right=visit(node.right))
    return node
