"""Rule-based optimizer for the shared logical plans.

Rules, applied in a fixed deterministic order by :func:`optimize`:

1. **conjunction splitting** — ``Filter(a & b & c)`` becomes three stacked
   filters, so each conjunct can move and be estimated independently;
2. **predicate pushdown** — filters move below projections and joins when
   they reference only one side's columns (never across a :class:`Sample`,
   which is a barrier: its output depends on the exact row set it sees);
3. **filter reordering** — consecutive filters are reordered so the most
   selective (by the estimates below) runs first, shrinking the row set
   the rest of the chain has to touch;
4. **projection pruning** — every scan is wrapped in a projection of just
   the columns the plan above it references — *through* joins too, so each
   join input decodes only the terminal's columns plus its join key.  A
   projection is emitted once: never on top of another projection, and
   not at all where its input already outputs those columns.

Selectivity estimation reads per-column statistics through a
:class:`PlanCatalog` (the column store derives them from its encodings:
dictionary cardinality, run values, delta endpoints).  Predicates are
classified structurally — range / equality / membership — which is the
payoff of declarative expressions: a predicate of no known shape can only
ever get the textbook default of 1/3.
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

#: Textbook default selectivity for a predicate nothing is known about.
DEFAULT_SELECTIVITY = 1.0 / 3.0

#: Fallback equality selectivity when the column's cardinality is unknown.
EQUALITY_SELECTIVITY = 0.1


@dataclass(frozen=True)
class ColumnStats:
    """Cheap per-column statistics used for selectivity estimation."""

    row_count: int
    distinct: int | None = None
    minimum: float | None = None
    maximum: float | None = None


@dataclass(frozen=True)
class OptimizerCapabilities:
    """Which rewrite rules an engine's executor can honour.

    The five engine families run the *same* logical plans, but not every
    executor can exploit every rewrite: Hive's "rudimentary query
    optimization" does not reorder filters by statistics, R evaluates a
    subset call exactly as the programmer wrote it, and a cluster partition
    scan has no join to push through and nothing to prune.  Each
    per-engine executor passes its capability profile to :func:`optimize`,
    which applies only the enabled rules.

    These flags gate *cost-based* rewrites only.  Splitting a conjunction
    into stacked filters is not a flag: every executor honours a filter
    stack, so :func:`optimize` always splits.  The correctness
    constraints — the :class:`~repro.plan.logical.Sample` barrier and
    the ``is_total`` guard on join pushdown — are built into the rules
    themselves and hold for every profile.

    The default profile enables all three flags (the column store and the
    row store honour every rule).  No flag chooses a join's build side:
    both stores always index the left input.

    >>> OptimizerCapabilities().filter_reordering
    True
    >>> OptimizerCapabilities(filter_reordering=False).predicate_pushdown
    True
    """

    predicate_pushdown: bool = True
    filter_reordering: bool = True
    projection_pruning: bool = True


class PlanCatalog:
    """What the optimizer may ask an engine about its tables.

    All hooks may return None ("unknown"); every rule degrades gracefully
    to the statistics-free behaviour.
    """

    def columns_of(self, table: str) -> list[str] | None:
        return None

    def stats_of(self, table: str, column: str) -> ColumnStats | None:
        return None

    def dtype_of(self, table: str, column: str) -> np.dtype | None:
        """Stored numpy dtype of one column (None = engine cannot say).

        Read by the static plan verifier (:mod:`repro.plan.verify`) — an
        unknown dtype downgrades dtype checks on that column to
        name-existence checks, it never fails them.
        """
        return None

    def row_count_of(self, table: str) -> int | None:
        """Base-table cardinality; the default derives it from column stats."""
        names = self.columns_of(table)
        for name in names or ():
            stats = self.stats_of(table, name)
            if stats is not None:
                return stats.row_count
        return None


class SchemaCatalog(PlanCatalog):
    """Names, dtypes and — where the source has them — counts and stats.

    The one catalog for every source but the live column store: the row
    store, the Hive tables and the R frames snapshot their schemas into it
    once per plan execution, the array frames and the cluster's partitioned
    tables add ``stats`` (``{table: {column: ColumnStats}}``) merged from
    their chunk / partition synopses, and the verifier and the fuzzer use it
    engine-free over a plain ``{table: {column: dtype}}`` mapping (a
    ``None`` dtype means "unknown").  With ``row_counts`` only, ``stats_of``
    answers with the table's cardinality — enough for
    :func:`estimate_output_rows` to size each subtree, while selectivity
    falls back to the structural (shape-based) defaults.

    >>> catalog = SchemaCatalog({"genes": {"gene_id": "int64"}}, {"genes": 5})
    >>> catalog.columns_of("genes"), catalog.dtype_of("genes", "gene_id")
    (['gene_id'], dtype('int64'))
    >>> catalog.row_count_of("genes"), catalog.stats_of("genes", "length")
    (5, None)
    >>> SchemaCatalog({"genes": {"gene_id": "int64"}}, stats={"genes": {
    ...     "gene_id": ColumnStats(5, distinct=5)}}).stats_of("genes", "gene_id")
    ColumnStats(row_count=5, distinct=5, minimum=None, maximum=None)
    """

    def __init__(self, schemas, row_counts=None, stats=None):
        self.schemas = {
            table: {name: None if dtype is None else np.dtype(dtype)
                    for name, dtype in columns.items()}
            for table, columns in schemas.items()
        }
        self.row_counts = dict(row_counts or {})
        self.stats = dict(stats or {})

    def columns_of(self, table: str) -> list[str] | None:
        columns = self.schemas.get(table)
        return None if columns is None else list(columns)

    def stats_of(self, table: str, column: str) -> ColumnStats | None:
        known = self.stats.get(table, {}).get(column)
        count = self.row_counts.get(table)
        if known is not None or count is None or column not in self.schemas.get(table, ()):
            return known
        return ColumnStats(row_count=count)

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
    lower: float | None = None
    upper: float | None = None


def _numeric(value) -> float | None:
    if isinstance(value, (bool, np.bool_)):
        return float(value)
    if isinstance(value, (int, float, np.integer, np.floating)):
        return float(value)
    return None


_RANGE_SYMBOLS = {"<": "upper", "<=": "upper", ">": "lower", ">=": "lower"}
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def classify(expression: Expression) -> PredicateClass:
    """Classify a predicate for pushdown and selectivity estimation."""
    referenced = expression.columns_referenced()
    column = next(iter(referenced)) if len(referenced) == 1 else None
    if isinstance(expression, InList) and isinstance(expression.operand, ColumnRef):
        return PredicateClass(expression, "membership", expression.operand.name)
    if isinstance(expression, Comparison) and type(expression) is Comparison:
        symbol, constant = None, None
        if isinstance(expression.left, ColumnRef) and isinstance(expression.right, Literal):
            symbol, constant = expression.symbol, _numeric(expression.right.value)
        elif isinstance(expression.left, Literal) and isinstance(expression.right, ColumnRef):
            constant = _numeric(expression.left.value)
            symbol = _FLIPPED.get(expression.symbol, expression.symbol)
        if symbol == "=":
            return PredicateClass(expression, "equality", column)
        if symbol == "<>":
            return PredicateClass(expression, "inequality", column)
        if symbol in _RANGE_SYMBOLS and constant is not None:
            bound = {_RANGE_SYMBOLS[symbol]: constant}
            return PredicateClass(expression, "range", column, **bound)
    return PredicateClass(expression, "general", column)


def estimate_selectivity(predicate: PredicateClass, stats: ColumnStats | None) -> float:
    """Estimated fraction of rows the predicate keeps (deterministic)."""
    if predicate.kind == "general":
        return DEFAULT_SELECTIVITY
    if stats is None:
        if predicate.kind == "membership":
            keys = predicate.expression.key_array()
            return min(1.0, EQUALITY_SELECTIVITY * max(1, len(keys)))
        if predicate.kind == "equality":
            return EQUALITY_SELECTIVITY
        if predicate.kind == "inequality":
            return 1.0 - EQUALITY_SELECTIVITY
        return DEFAULT_SELECTIVITY
    if predicate.kind == "equality":
        return 1.0 / stats.distinct if stats.distinct else EQUALITY_SELECTIVITY
    if predicate.kind == "inequality":
        return 1.0 - (1.0 / stats.distinct if stats.distinct else EQUALITY_SELECTIVITY)
    if predicate.kind == "membership":
        keys = predicate.expression.key_array()
        domain = stats.distinct or stats.row_count
        if not domain:
            return 1.0
        return min(1.0, len(keys) / domain)
    # Range: interpolate over the known [min, max] span.
    if stats.minimum is None or stats.maximum is None:
        return DEFAULT_SELECTIVITY
    span = stats.maximum - stats.minimum
    if span <= 0:
        # Constant column: the predicate keeps all rows or none; without
        # evaluating it, assume it was written to keep some.
        return 1.0
    lower = stats.minimum if predicate.lower is None else predicate.lower
    upper = stats.maximum if predicate.upper is None else predicate.upper
    return float(np.clip((upper - lower) / span, 0.0, 1.0))


def _no_stats(_column):
    """Stats resolver that knows nothing (single-conjunct short-circuit)."""
    return None


def ordered_conjuncts(expressions, stats_for):
    """Split, classify and selectivity-order a conjunction of predicates.

    Declarative predicates reorder freely: they are element-wise numpy
    operations, so their order never changes the selected rows.

    Args:
        expressions: iterable of predicate expressions (implicitly ANDed).
        stats_for: callable ``column -> ColumnStats | None``.

    Returns:
        List of ``(expression, PredicateClass, selectivity)`` triples in
        execution order — most selective first; ties keep their written
        order (stable).
    """
    conjuncts: list[Expression] = []
    for expression in expressions:
        conjuncts.extend(split_conjuncts(expression))
    if len(conjuncts) <= 1:
        # Ordering a single conjunct is moot: skip the statistics lookups
        # but keep the classification (it picks the encoding fast path).
        stats_for = _no_stats
    classified = [classify(conjunct) for conjunct in conjuncts]
    estimates = [
        estimate_selectivity(p, stats_for(p.column) if p.column else None)
        for p in classified
    ]
    order = sorted(range(len(conjuncts)), key=lambda i: (estimates[i], i))
    return [(conjuncts[i], classified[i], estimates[i]) for i in order]


# --------------------------------------------------------------------------- #
# Plan rewrite rules
# --------------------------------------------------------------------------- #

def split_filter_conjunctions(node: PlanNode) -> PlanNode:
    """Turn every ``Filter(a & b)`` into stacked single-conjunct filters.

    AND is commutative and associative over total element-wise predicates,
    so the stacked form selects exactly the same rows; the split is what
    lets each conjunct move (pushdown) and be estimated independently.
    Innermost = first-written, preserving written order until
    :func:`reorder_filters` decides otherwise.
    """
    node = _rebuild(node, split_filter_conjunctions)
    if isinstance(node, Filter):
        conjuncts = split_conjuncts(node.predicate)
        if len(conjuncts) > 1:
            child = node.child
            for conjunct in reversed(conjuncts):
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
    it was never written to see.  Projection pushdown is always safe — it
    does not change the row set.
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
    return node


def _base_stats_for(node: PlanNode, catalog: PlanCatalog):
    """Resolve ``column -> ColumnStats`` against the scans under ``node``."""
    def stats_for(column: str):
        return _find_column_stats(node, column, catalog)
    return stats_for


def _find_column_stats(node: PlanNode, column: str, catalog: PlanCatalog):
    if isinstance(node, Scan):
        names = catalog.columns_of(node.table)
        if names is not None and column in names:
            return catalog.stats_of(node.table, column)
        return None
    if isinstance(node, Join) and column == node.right_key:
        # The join output drops the right key; the surviving copy is the left's.
        return _find_column_stats(node.left, column, catalog)
    for child in node.children():
        found = _find_column_stats(child, column, catalog)
        if found is not None:
            return found
    return None


def estimate_output_rows(node: PlanNode, catalog: PlanCatalog) -> float | None:
    """Estimated row count a subtree produces (None when unknown).

    Scans read base cardinality from the catalog; filters multiply by the
    estimated selectivity of each conjunct; samples multiply by their
    fraction; joins use the textbook foreign-key model
    ``|L| * |R| / max(d(L.key), d(R.key))`` when both key cardinalities are
    known and fall back to ``max(|L|, |R|)`` otherwise; aggregates and
    pivots answer with the group key's distinct count.  Purely an estimate
    — never evaluates any predicate or touches row data.
    """
    if isinstance(node, Scan):
        count = catalog.row_count_of(node.table)
        return None if count is None else float(count)
    if isinstance(node, Filter):
        base = estimate_output_rows(node.child, catalog)
        if base is None:
            return None
        stats_for = _base_stats_for(node.child, catalog)
        for conjunct in split_conjuncts(node.predicate):
            predicate = classify(conjunct)
            stats = stats_for(predicate.column) if predicate.column else None
            base *= estimate_selectivity(predicate, stats)
        return base
    if isinstance(node, Sample):
        base = estimate_output_rows(node.child, catalog)
        return None if base is None else base * node.fraction
    if isinstance(node, Project):
        return estimate_output_rows(node.child, catalog)
    if isinstance(node, Join):
        left = estimate_output_rows(node.left, catalog)
        right = estimate_output_rows(node.right, catalog)
        if left is None or right is None:
            return None
        left_stats = _find_column_stats(node.left, node.left_key, catalog)
        right_stats = _find_column_stats(node.right, node.right_key, catalog)
        domains = [
            stats.distinct
            for stats in (left_stats, right_stats)
            if stats is not None and stats.distinct
        ]
        if domains:
            return left * right / max(domains)
        return max(left, right)
    if isinstance(node, (Aggregate, Pivot)):
        key = node.group_by if isinstance(node, Aggregate) else node.row_key
        stats = _find_column_stats(node.child, key, catalog)
        if stats is not None and stats.distinct:
            return float(stats.distinct)
        base = estimate_output_rows(node.child, catalog)
        return None if base is None else max(1.0, base / 10.0)
    if isinstance(node, ApproxAggregate):
        # One (estimate, ci_low, ci_high, confidence) row, always.
        return 1.0
    return None


def reorder_filters(node: PlanNode, catalog: PlanCatalog) -> PlanNode:
    """Sort each consecutive filter chain by estimated selectivity.

    Declarative conjuncts commute freely, so reordering never changes the
    selected row set.
    """
    if isinstance(node, Filter):
        chain: list[Expression] = []
        base = node
        while isinstance(base, Filter):
            chain.append(base.predicate)
            base = base.child
        base = _rebuild(base, lambda child: reorder_filters(child, catalog))
        # ``chain`` is top-down but execution is bottom-up, so estimate in
        # execution order (reversed) and wrap the most selective predicate
        # first — innermost, i.e. executed first.
        ordered = ordered_conjuncts(reversed(chain), _base_stats_for(base, catalog))
        for expression, _, _ in ordered:
            base = Filter(base, expression)
        return base
    return _rebuild(node, lambda child: reorder_filters(child, catalog))


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
    if capabilities.filter_reordering:
        node = reorder_filters(node, catalog)
    if capabilities.projection_pruning:
        node = prune_projections(node, catalog)
    return node


def selectivity_annotator(plan: PlanNode, catalog: PlanCatalog):
    """Build an ``explain`` annotator showing per-filter selectivity estimates."""
    def annotate(node: PlanNode) -> str:
        if isinstance(node, Filter):
            predicate = classify(node.predicate)
            stats_for = _base_stats_for(node.child, catalog)
            stats = stats_for(predicate.column) if predicate.column else None
            estimate = estimate_selectivity(predicate, stats)
            return f"{predicate.kind} ~sel={estimate:.4f}"
        return ""
    return annotate


def cost_annotator(plan: PlanNode, catalog: PlanCatalog):
    """Build an ``explain`` annotator showing per-node output-row estimates.

    Every node is annotated with ``~rows=N`` from
    :func:`estimate_output_rows` (filters additionally keep the structural
    class and selectivity the :func:`selectivity_annotator` shows), so an
    EXPLAIN rendered with this annotator records the full cardinality
    prediction chain the cost-calibration gate compares against observed
    row counts.
    """
    selectivity = selectivity_annotator(plan, catalog)

    def annotate(node: PlanNode) -> str:
        parts = []
        estimate = estimate_output_rows(node, catalog)
        if estimate is not None:
            parts.append(f"~rows={estimate:.0f}")
        extra = selectivity(node)
        if extra:
            parts.append(extra)
        return " ".join(parts)

    return annotate


def _rebuild(node: PlanNode, visit) -> PlanNode:
    """Rebuild a node with ``visit`` applied to each child."""
    if isinstance(node, (Filter, Project, Sample, Aggregate, ApproxAggregate,
                         Pivot)):
        return replace(node, child=visit(node.child))
    if isinstance(node, Join):
        return replace(node, left=visit(node.left), right=visit(node.right))
    return node
