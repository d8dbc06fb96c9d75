"""Engine-agnostic logical query plans.

A logical plan is a small immutable tree of relational operations —
scan / filter / project / sample / join / aggregate / pivot — that names
tables and columns but prescribes no execution strategy.  The same plan
can be lowered onto any of the benchmark's engines; the column-store
executor lives in :mod:`repro.colstore.planner`.

Plans are optimized by the rule set in :mod:`repro.plan.optimizer`
(conjunction splitting, predicate pushdown, selectivity-ordered filters,
projection pruning) and rendered for tests and EXPLAIN output by
:func:`explain`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.plan.expressions import (
    _NUMERIC_KINDS,
    _kind_family,
    Expression,
    StaticTypeError,
)

#: A statically inferred relational schema: column name → numpy dtype, in
#: output order.  ``None`` marks a dtype the engine could not report.
Schema = dict

#: The aggregate functions every executor implements.
AGGREGATE_FUNCTIONS = ("count", "sum", "mean", "min", "max")

#: Every admitted approximate aggregate kind: the sampled mean, whose
#: partial state is a plain (sum, count) pair.  Anything else is rejected
#: by the verifier as ``non-mergeable-aggregate``.
APPROX_AGGREGATE_KINDS = ("approx_mean",)


class PlanNode:
    """Base class for logical plan nodes."""

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def output_schema(self, *child_schemas: Schema) -> Schema:
        """Infer this node's output schema from its children's schemas.

        Purely local typing logic — the full-plan walk (resolving scans
        against a catalog and attaching node paths to failures) lives in
        :mod:`repro.plan.verify`.

        Raises:
            StaticTypeError: when the node can never execute cleanly over
                the given inputs (missing columns, a non-boolean filter
                predicate, incompatible join keys, a non-numeric
                aggregate, …).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Scan(PlanNode):
    """Scan of a named base table."""

    table: str


# eq=False: a dataclass-generated __eq__ would delegate to the predicate's
# Expression.__eq__, which builds a (truthy) comparison AST node instead of
# returning a bool — two Filters with the same child would compare equal
# regardless of predicate.  Identity semantics keep the hash/eq contract.
@dataclass(frozen=True, eq=False)
class Filter(PlanNode):
    """Selection by a predicate expression."""

    child: PlanNode
    predicate: Expression

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def output_schema(self, *child_schemas: Schema) -> Schema:
        (child,) = child_schemas
        dtype = self.predicate.infer_dtype(child)
        if dtype is not None and dtype.kind != "b":
            raise StaticTypeError(
                f"filter predicate {self.predicate!r} has dtype {dtype} "
                "(expected bool) — did you mean a comparison?",
                rule="non-boolean-predicate",
            )
        return dict(child)


@dataclass(frozen=True)
class Project(PlanNode):
    """Projection to the named columns."""

    child: PlanNode
    columns: tuple[str, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def output_schema(self, *child_schemas: Schema) -> Schema:
        (child,) = child_schemas
        missing = [name for name in self.columns if name not in child]
        if missing:
            raise StaticTypeError(
                f"projection references column(s) {missing} not produced "
                f"by its input (in scope: {sorted(child)})",
                rule="projection-of-missing-column",
            )
        return {name: child[name] for name in self.columns}


@dataclass(frozen=True)
class Sample(PlanNode):
    """Deterministic random sample of the child's rows.

    Sampling is an optimizer *barrier*: which rows it keeps depends on the
    set of rows flowing into it, so no filter may move across it.
    """

    child: PlanNode
    fraction: float
    seed: int = 0

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def output_schema(self, *child_schemas: Schema) -> Schema:
        (child,) = child_schemas
        if not 0.0 <= self.fraction <= 1.0:
            raise StaticTypeError(
                f"sample fraction {self.fraction!r} outside [0, 1]",
                rule="invalid-sample-fraction",
            )
        return dict(child)


@dataclass(frozen=True)
class Join(PlanNode):
    """Equi-join; the output keeps the left columns plus the right columns
    minus the right key (the column store's materialised-join convention).
    A name both inputs would contribute is rejected where the plan is typed
    (``ambiguous-join-column``): project or rename one side first.

    The column store and the row store index the left input and probe it
    with the right, so their output rows follow the right input's order,
    and within one right row the matches follow left position order.
    GenBase's plans put the small, filtered dimension side on the left.
    """

    left: PlanNode
    right: PlanNode
    left_key: str
    right_key: str
    result_name: str = "join_result"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def output_schema(self, *child_schemas: Schema) -> Schema:
        left, right = child_schemas
        for key, side, schema in ((self.left_key, "left", left),
                                  (self.right_key, "right", right)):
            if key not in schema:
                raise StaticTypeError(
                    f"join key {key!r} not in the {side} input "
                    f"(in scope: {sorted(schema)})",
                    rule="unknown-join-key",
                )
        left_dtype, right_dtype = left[self.left_key], right[self.right_key]
        if (left_dtype is not None and right_dtype is not None
                and _kind_family(left_dtype) != _kind_family(right_dtype)):
            raise StaticTypeError(
                f"join-key dtype mismatch: left key {self.left_key!r} is "
                f"{left_dtype} but right key {self.right_key!r} is "
                f"{right_dtype}",
                rule="join-key-dtype-mismatch",
            )
        result = dict(left)
        result.update(
            (name, dtype) for name, dtype in right.items() if name != self.right_key
        )
        if len(result) != len(left) + len(right) - 1:
            # No two executors agree on which input such a name reads
            # (``ColumnQuery.join`` refuses it before it plans).
            shared = sorted(set(left) & (set(right) - {self.right_key}))
            raise StaticTypeError(
                f"join output column(s) {shared} come from both the left input "
                f"(columns {list(left)}) and the right input (columns "
                f"{list(right)}); project or rename one side first",
                rule="ambiguous-join-column",
            )
        return result


@dataclass(frozen=True)
class Aggregate(PlanNode):
    """Single-key GROUP BY producing ``(group_keys, aggregates)``."""

    child: PlanNode
    group_by: str
    value: str
    function: str = "mean"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def output_schema(self, *child_schemas: Schema) -> Schema:
        (child,) = child_schemas
        if self.function not in AGGREGATE_FUNCTIONS:
            raise StaticTypeError(
                f"unknown aggregate function {self.function!r} "
                f"(supported: {list(AGGREGATE_FUNCTIONS)})",
                rule="unknown-aggregate-function",
            )
        for role, name in (("group key", self.group_by), ("value", self.value)):
            if name not in child:
                raise StaticTypeError(
                    f"aggregate {role} column {name!r} not produced by its "
                    f"input (in scope: {sorted(child)})",
                    rule="unknown-column",
                )
        value_dtype = child[self.value]
        if (self.function != "count" and value_dtype is not None
                and value_dtype.kind not in _NUMERIC_KINDS):
            raise StaticTypeError(
                f"aggregate {self.function}({self.value}) over non-numeric "
                f"dtype {value_dtype} (only 'count' accepts non-numeric "
                "values)",
                rule="non-numeric-aggregate",
            )
        return {self.group_by: child[self.group_by],
                f"{self.function}({self.value})": _aggregate_dtype(
                    self.function, value_dtype)}


@dataclass(frozen=True)
class ApproxAggregate(PlanNode):
    """Approximate scalar aggregate: ``(estimate, ci_low, ci_high, confidence)``.

    ``kind`` names the estimator; ``approx_mean`` is the only admitted one
    (:data:`APPROX_AGGREGATE_KINDS`), answered from a uniform sample with
    a CLT confidence interval.  It reads its sample from a :class:`Sample`
    node under any ``Filter``/``Project`` stages; without one the answer
    is exact, with a zero-width interval.

    ``confidence`` is the two-sided level of the returned interval.
    """

    child: PlanNode
    value: str
    kind: str = "approx_mean"
    confidence: float = 0.95

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def output_schema(self, *child_schemas: Schema) -> Schema:
        (child,) = child_schemas
        if self.kind not in APPROX_AGGREGATE_KINDS:
            raise StaticTypeError(
                f"approximate aggregate kind {self.kind!r} has no mergeable "
                "partial state — every admitted kind must reduce "
                "per-partition partials driver-side (supported: "
                f"{list(APPROX_AGGREGATE_KINDS)})",
                rule="non-mergeable-aggregate",
            )
        if not 0.0 < self.confidence < 1.0:
            raise StaticTypeError(
                f"confidence level {self.confidence!r} outside (0, 1) — a "
                "two-sided interval needs a strictly interior level",
                rule="invalid-confidence",
            )
        if self.value not in child:
            raise StaticTypeError(
                f"approximate aggregate value column {self.value!r} not "
                f"produced by its input (in scope: {sorted(child)})",
                rule="unknown-column",
            )
        value_dtype = child[self.value]
        if value_dtype is not None and value_dtype.kind not in _NUMERIC_KINDS:
            raise StaticTypeError(
                f"approximate aggregate {self.kind}({self.value}) over "
                f"non-numeric dtype {value_dtype} (CLT bounds are defined "
                "for numeric columns only)",
                rule="non-numeric-aggregate",
            )
        return {f"{self.kind}({self.value})": np.dtype(np.float64),
                "ci_low": np.dtype(np.float64),
                "ci_high": np.dtype(np.float64),
                "confidence": np.dtype(np.float64)}


@dataclass(frozen=True)
class Pivot(PlanNode):
    """Pivot into a dense matrix: ``(matrix, row_labels, column_labels)``."""

    child: PlanNode
    row_key: str
    column_key: str
    value: str

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def output_schema(self, *child_schemas: Schema) -> Schema:
        (child,) = child_schemas
        for role, name in (("row key", self.row_key),
                           ("column key", self.column_key),
                           ("value", self.value)):
            if name not in child:
                raise StaticTypeError(
                    f"pivot {role} column {name!r} not produced by its "
                    f"input (in scope: {sorted(child)})",
                    rule="unknown-column",
                )
        dtype = child[self.value]
        if dtype is not None and dtype.kind not in _NUMERIC_KINDS:
            raise StaticTypeError(
                f"pivot value column {self.value!r} has non-numeric dtype "
                f"{dtype} (dense pivots need numeric cells; labels may be "
                f"any type)",
                rule="non-numeric-pivot",
            )
        return {self.row_key: child[self.row_key],
                self.column_key: child[self.column_key],
                f"value({self.value})": child[self.value]}


def _aggregate_dtype(function: str, value_dtype: np.dtype | None) -> np.dtype | None:
    """The dtype the shared executors produce for one aggregate kind.

    ``count`` is a cardinality (int64) whatever it counts; ``mean``
    divides, so it is float64 even over integers; ``sum``/``min``/``max``
    stay in the value's own dtype family (integer sums accumulate in
    int64).
    """
    if function == "count":
        return np.dtype(np.int64)
    if function == "mean":
        return np.dtype(np.float64)
    if value_dtype is None:
        return None
    if function == "sum" and value_dtype.kind in "biu":
        return np.dtype(np.int64)
    return value_dtype


# --------------------------------------------------------------------------- #
# Approximate-aggregate DSL
# --------------------------------------------------------------------------- #

def approx_mean(child: PlanNode, column: str, fraction: float | None = None,
                seed: int = 0, confidence: float = 0.95) -> ApproxAggregate:
    """Sampled mean with a CLT confidence interval.

    With ``fraction`` set, the mean is taken over ``Sample(child, fraction,
    seed)``, which the column store serves from its synopsis catalog when
    the child is a ``Project*(Scan)``.  An empty sample has no mean, so the
    fraction must lie in ``(0, 1]``.

    >>> plan = approx_mean(Scan("patients"), "drug_response", fraction=0.02)
    >>> print(explain(plan))
    ApproxAggregate approx_mean(drug_response) confidence=0.95
      Sample fraction=0.02 seed=0
        Scan patients
    >>> sorted(plan.output_schema(
    ...     {"drug_response": np.dtype(np.float64)}))
    ['approx_mean(drug_response)', 'ci_high', 'ci_low', 'confidence']
    """
    if fraction is not None:
        if not 0.0 < fraction <= 1.0:
            raise StaticTypeError(
                f"approx_mean sample fraction {fraction!r} outside (0, 1]",
                rule="invalid-sample-fraction",
            )
        child = Sample(child, fraction, seed)
    return ApproxAggregate(child, column, "approx_mean", confidence)


def explain(node: PlanNode, annotate=None) -> str:
    """Render a plan tree as indented text.

    ``annotate`` may be a callable ``(node) -> str`` appending extra detail
    (the optimizer uses it to show estimated filter selectivities).
    """
    lines: list[str] = []
    _explain_into(node, 0, lines, annotate)
    return "\n".join(lines)


def _describe(node: PlanNode) -> str:
    if isinstance(node, Scan):
        return f"Scan {node.table}"
    if isinstance(node, Filter):
        return f"Filter {node.predicate!r}"
    if isinstance(node, Project):
        return f"Project {list(node.columns)}"
    if isinstance(node, Sample):
        return f"Sample fraction={node.fraction} seed={node.seed}"
    if isinstance(node, Join):
        return f"Join {node.left_key} = {node.right_key}"
    if isinstance(node, Aggregate):
        return f"Aggregate {node.function}({node.value}) by {node.group_by}"
    if isinstance(node, ApproxAggregate):
        return f"ApproxAggregate {node.kind}({node.value}) confidence={node.confidence}"
    if isinstance(node, Pivot):
        return f"Pivot rows={node.row_key} cols={node.column_key} value={node.value}"
    return type(node).__name__


def _explain_into(node: PlanNode, depth: int, lines: list[str], annotate) -> None:
    text = "  " * depth + _describe(node)
    if annotate is not None:
        extra = annotate(node)
        if extra:
            text += f"  [{extra}]"
    lines.append(text)
    for child in node.children():
        _explain_into(child, depth + 1, lines, annotate)
