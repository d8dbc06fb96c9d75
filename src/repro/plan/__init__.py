"""Declarative expressions and logical plans shared by every engine.

This package is the benchmark's common query surface: a small expression
AST (:mod:`repro.plan.expressions`), engine-agnostic logical plan nodes
(:mod:`repro.plan.logical`), and a rule-based optimizer
(:mod:`repro.plan.optimizer`) — conjunction splitting, predicate pushdown,
selectivity-ordered filters, projection pruning — and the one driver every
single-node engine bridge runs plans through (:mod:`repro.plan.execute`).

The row store compiles expressions to per-tuple callables
(``Expression.bind``); the column store evaluates them vectorised and maps
range/equality/membership predicates straight onto its compression
encodings' fast paths (:mod:`repro.colstore.planner`).  See ``README.md``
in this directory for the grammar, the optimizer rules and the executor
contract.
"""

from repro.plan.expressions import (
    BooleanOp,
    BoundExpression,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    Literal,
    Not,
    StaticTypeError,
    and_,
    col,
    lit,
    literal_dtype,
    split_conjuncts,
)
from repro.plan.logical import (
    APPROX_AGGREGATE_KINDS,
    Aggregate,
    ApproxAggregate,
    Filter,
    Join,
    Pivot,
    PlanNode,
    Project,
    Sample,
    Scan,
    approx_mean,
    explain,
)
from repro.plan.observe import PlanObservation
from repro.plan.optimizer import (
    ColumnStats,
    OptimizerCapabilities,
    PlanCatalog,
    PredicateClass,
    SchemaCatalog,
    classify,
    estimate_selectivity,
    optimize,
    ordered_conjuncts,
    selectivity_annotator,
)
from repro.plan.verify import (
    PlanVerificationError,
    RewriteSoundnessError,
    maybe_verify_plan,
    maybe_verify_rewrite,
    verified_schema,
    verify_plan,
    verify_rewrite,
)

__all__ = [
    "BooleanOp",
    "BoundExpression",
    "ColumnRef",
    "Comparison",
    "Expression",
    "InList",
    "Literal",
    "Not",
    "and_",
    "col",
    "lit",
    "split_conjuncts",
    "APPROX_AGGREGATE_KINDS",
    "Aggregate",
    "ApproxAggregate",
    "Filter",
    "Join",
    "Pivot",
    "PlanNode",
    "Project",
    "Sample",
    "Scan",
    "approx_mean",
    "explain",
    "ColumnStats",
    "OptimizerCapabilities",
    "PlanCatalog",
    "PredicateClass",
    "SchemaCatalog",
    "classify",
    "estimate_selectivity",
    "optimize",
    "ordered_conjuncts",
    "selectivity_annotator",
    "PlanObservation",
    "StaticTypeError",
    "literal_dtype",
    "PlanVerificationError",
    "RewriteSoundnessError",
    "maybe_verify_plan",
    "maybe_verify_rewrite",
    "verified_schema",
    "verify_plan",
    "verify_rewrite",
]
