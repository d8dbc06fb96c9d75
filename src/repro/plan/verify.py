"""Static verification of logical plans: typecheck the IR before running it.

The verifier walks a plan bottom-up, resolves every :class:`Scan` against a
schema source, and infers the output schema *and numpy dtype* of every node
through :meth:`PlanNode.output_schema` /
:meth:`~repro.plan.expressions.Expression.infer_dtype`.  A malformed plan —
unknown column, ``str < int`` comparison, non-numeric aggregate, join-key
dtype mismatch, projection of a dropped column — is rejected statically
with the exact node path of the offending subtree, before any engine
touches data::

    >>> import numpy as np
    >>> from repro.plan import Aggregate, Filter, Scan, col, lit
    >>> schemas = {"patients": {"patient_id": np.dtype(np.int64),
    ...                         "name": np.dtype("U16"),
    ...                         "age": np.dtype(np.int64)}}
    >>> plan = Aggregate(Filter(Scan("patients"), col("name") < lit(40)),
    ...                  "patient_id", "age")
    >>> try:
    ...     verified_schema(plan, schemas)
    ... except PlanVerificationError as error:
    ...     print(error.rule, "at", error.path)
    comparison-type-mismatch at Aggregate > Filter

Schema sources are either a plain mapping ``{table: {column: dtype}}`` or
anything shaped like a :class:`~repro.plan.optimizer.PlanCatalog` (every
engine bridge's catalog reports dtypes through ``dtype_of``).

:func:`verify_rewrite` is the *rewrite-soundness* check: every
``optimize()`` application must preserve the verified schema — same column
names, same order, same dtypes.  The differential fuzz harness runs it on
every generated plan, and so does every query: the shared driver behind
the five engine bridges and the cluster bridge check each plan they run —
there is no switch (``docs/STATIC_ANALYSIS.md`` has the measured cost).

``python -m repro.plan.verify`` runs the built-in self-check corpus (one
malformed plan per rejection class, plus a soundness trip) — the CI
``static-analysis`` job gates on it.
"""

from __future__ import annotations

import numpy as np

from repro.plan.expressions import StaticTypeError
from repro.plan.logical import Join, PlanNode, Scan, Schema


class PlanVerificationError(StaticTypeError):
    """A plan failed static verification.

    Attributes:
        rule: the rejection class (``unknown-column``, ``join-key-dtype-mismatch``, …).
        path: the node path from the plan root to the offending node,
            e.g. ``"Aggregate > Filter > Scan('patients')"``.
    """

    def __init__(self, message: str, rule: str, path: str):
        super().__init__(f"{message} [at {path}]", rule=rule)
        self.path = path


class RewriteSoundnessError(PlanVerificationError):
    """An ``optimize()`` application changed the plan's verified schema."""

    def __init__(self, message: str, rule: str = "rewrite-schema-drift",
                 path: str = "<plan root>"):
        super().__init__(message, rule=rule, path=path)


def _scan_schema(source, table: str) -> Schema | None:
    """Resolve one table's ``{column: dtype}`` schema from either source kind."""
    if hasattr(source, "columns_of"):
        names = source.columns_of(table)
        if names is None:
            return None
        dtype_of = getattr(source, "dtype_of", None)
        if dtype_of is None:
            return {name: None for name in names}
        return {name: dtype_of(table, name) for name in names}
    columns = source.get(table)
    if columns is None:
        return None
    return {name: None if dtype is None else np.dtype(dtype)
            for name, dtype in columns.items()}


def _describe_step(node: PlanNode) -> str:
    if isinstance(node, Scan):
        return f"Scan({node.table!r})"
    return type(node).__name__


def verified_schema(plan: PlanNode, schemas) -> Schema:
    """Typecheck a plan; return its verified output schema.

    Args:
        plan: the logical plan tree.
        schemas: a plain ``{table: {column: dtype}}`` mapping, or a
            catalog answering ``columns_of``/``dtype_of`` (every engine
            bridge's :class:`~repro.plan.optimizer.PlanCatalog` does).

    Returns:
        Column name → numpy dtype in output order.  Terminals describe
        their tuple results: an ``Aggregate`` produces
        ``{group_by: …, "fn(value)": …}``, a ``Pivot``
        ``{row_key: …, column_key: …, "value(v)": …}``.

    Raises:
        PlanVerificationError: naming the violated rule and the node path.
    """
    return _verify(plan, schemas, [])


def verify_plan(plan: PlanNode, schemas) -> Schema:
    """Alias of :func:`verified_schema` reading as an assertion."""
    return verified_schema(plan, schemas)


def _verify(node: PlanNode, schemas, trail: list[str]) -> Schema:
    trail = trail + [_describe_step(node)]
    path = " > ".join(trail)
    if isinstance(node, Scan):
        schema = _scan_schema(schemas, node.table)
        if schema is None:
            raise PlanVerificationError(
                f"unknown table {node.table!r}", rule="unknown-table",
                path=path,
            )
        return schema
    if isinstance(node, Join):
        child_schemas = (
            _verify(node.left, schemas, trail[:-1] + [trail[-1] + ".left"]),
            _verify(node.right, schemas, trail[:-1] + [trail[-1] + ".right"]),
        )
    else:
        child_schemas = tuple(
            _verify(child, schemas, trail) for child in node.children()
        )
    try:
        return node.output_schema(*child_schemas)
    except PlanVerificationError:
        raise
    except StaticTypeError as error:
        raise PlanVerificationError(
            str(error), rule=error.rule, path=path
        ) from error


def _format_schema(schema: Schema) -> str:
    return "{" + ", ".join(
        f"{name}: {dtype if dtype is not None else '?'}"
        for name, dtype in schema.items()
    ) + "}"


def verify_rewrite(original: PlanNode, optimized: PlanNode, schemas) -> Schema:
    """Assert an optimizer rewrite preserved the verified schema.

    Verifies both plans and requires identical column names, order and
    dtypes.  Returns the (shared) verified schema.

    Raises:
        RewriteSoundnessError: when the optimized plan fails verification
            (the rewrite manufactured an invalid plan) or verifies to a
            different schema (the rewrite changed what the plan computes).
    """
    before = verified_schema(original, schemas)
    try:
        after = verified_schema(optimized, schemas)
    except PlanVerificationError as error:
        raise RewriteSoundnessError(
            f"optimize() produced a plan that fails verification: {error}",
            rule="rewrite-invalid-plan",
        ) from error
    if list(before) != list(after):
        raise RewriteSoundnessError(
            "optimize() changed the plan's output columns: "
            f"{_format_schema(before)} -> {_format_schema(after)}"
        )
    for name in before:
        left, right = before[name], after[name]
        if left is not None and right is not None and left != right:
            raise RewriteSoundnessError(
                f"optimize() changed the dtype of column {name!r}: "
                f"{left} -> {right}"
            )
    return before


def maybe_verify_rewrite(original: PlanNode, optimized: PlanNode, schemas) -> None:
    """Driver hook: :func:`verify_rewrite` on every ``optimize()`` application.

    The shared driver calls this right after ``optimize()``.  The check
    always runs; the ``maybe_`` name is the stable patch point the
    benchmark's span recorder wraps.
    """
    verify_rewrite(original, optimized, schemas)


def maybe_verify_plan(plan: PlanNode, schemas) -> None:
    """Cluster-bridge hook: typecheck every incoming plan (always runs)."""
    verified_schema(plan, schemas)


# --------------------------------------------------------------------------- #
# Self-check corpus (python -m repro.plan.verify)
# --------------------------------------------------------------------------- #

def _self_check_cases():
    """One deliberately malformed plan per rejection class."""
    from repro.plan.expressions import col, lit
    from repro.plan.logical import (
        Aggregate, ApproxAggregate, Filter, Pivot, Project, Sample,
    )
    from repro.plan.logical import Join as JoinNode

    meta = Scan("patients")
    facts = Scan("microarray")
    return [
        ("unknown-table", Filter(Scan("nonexistent"), col("age") < lit(1))),
        ("unknown-column", Filter(meta, col("weight") < lit(80))),
        ("comparison-type-mismatch", Filter(meta, col("name") < lit(40))),
        ("non-numeric-arithmetic", Filter(meta, (col("name") + lit(1)) > lit(0))),
        ("non-boolean-predicate", Filter(meta, col("age") + lit(1))),
        ("non-boolean-connective", Filter(meta, col("age") & (col("age") < lit(9)))),
        ("invalid-sample-fraction", Sample(meta, fraction=1.5)),
        ("projection-of-missing-column",
         Project(Project(meta, ("patient_id",)), ("patient_id", "age"))),
        ("unknown-join-key", JoinNode(meta, facts, "patient_id", "sample_id")),
        ("join-key-dtype-mismatch", JoinNode(meta, facts, "name", "patient_id")),
        # A self-join: "age" and "name" would each name two columns.
        ("ambiguous-join-column", JoinNode(meta, meta, "patient_id", "patient_id")),
        ("unknown-aggregate-function",
         Aggregate(facts, "gene_id", "expression_value", "median")),
        ("non-numeric-aggregate", Aggregate(meta, "patient_id", "name", "sum")),
        # Only the cell value must be numeric; labels may be strings.
        ("non-numeric-pivot", Pivot(meta, "patient_id", "age", "name")),
        # The same rule reached through a membership test's operand.
        ("unknown-column", Filter(meta, col("weight").isin([70, 80]))),
        # Approximate tier: a confidence level must be strictly interior,
        # the kind must be the admitted one (docs/APPROXIMATE.md), and the
        # mean needs a numeric column.
        ("invalid-confidence",
         ApproxAggregate(meta, "age", "approx_mean", confidence=1.5)),
        ("non-mergeable-aggregate",
         ApproxAggregate(facts, "expression_value", "approx_mode")),
        ("non-numeric-aggregate",
         ApproxAggregate(meta, "name", "approx_mean")),
    ]


def _self_check_schemas() -> dict:
    return {
        "patients": {
            "patient_id": np.dtype(np.int64),
            "age": np.dtype(np.int64),
            "name": np.dtype("U16"),
        },
        "microarray": {
            "patient_id": np.dtype(np.int64),
            "gene_id": np.dtype(np.int64),
            "expression_value": np.dtype(np.float64),
        },
    }


def run_self_check(verbose: bool = True) -> list[tuple[str, str]]:
    """Exercise every rejection class plus the rewrite-soundness trip.

    Returns ``(rule, status)`` rows; raises AssertionError on any miss.
    """
    from dataclasses import replace

    from repro.plan.expressions import col, lit
    from repro.plan.logical import Filter, Pivot, Project
    from repro.plan.optimizer import SchemaCatalog, optimize

    schemas = _self_check_schemas()
    rows: list[tuple[str, str]] = []
    for expected_rule, plan in _self_check_cases():
        try:
            verified_schema(plan, schemas)
        except PlanVerificationError as error:
            assert error.rule == expected_rule, (
                f"expected rule {expected_rule!r}, got {error.rule!r}: {error}"
            )
            rows.append((expected_rule, "rejected"))
            if verbose:
                print(f"  {expected_rule:32s} rejected: {error}")
            continue
        raise AssertionError(
            f"malformed plan for rule {expected_rule!r} verified clean"
        )

    # A well-formed plan must verify, and the real optimizer must preserve
    # its schema ...
    catalog = SchemaCatalog(schemas)
    plan = Project(
        Filter(Scan("patients"), (col("age") < lit(40)) & (col("age") >= lit(18))),
        ("patient_id", "age"),
    )
    verify_rewrite(plan, optimize(plan, catalog), catalog)
    rows.append(("optimize-preserves-schema", "ok"))
    if verbose:
        print("  optimize-preserves-schema        ok")

    # ... and so must a pivot labelled by a string key: only its cells need
    # to be numeric.
    verified_schema(Pivot(Scan("patients"), "name", "patient_id", "age"), schemas)
    rows.append(("string-pivot-label", "ok"))
    if verbose:
        print("  string-pivot-label               ok")

    # ... while a schema-breaking "rewrite" (dropping a projected column)
    # must trip the soundness check.
    broken = replace(plan, columns=("patient_id",))
    try:
        verify_rewrite(plan, broken, catalog)
    except RewriteSoundnessError as error:
        rows.append(("rewrite-schema-drift", "caught"))
        if verbose:
            print(f"  rewrite-schema-drift             caught: {error}")
    else:
        raise AssertionError("schema-breaking rewrite passed the soundness check")
    return rows


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.plan.verify",
        description="Run the plan verifier's self-check corpus.",
    )
    parser.add_argument("--summary", default=None,
                        help="append a markdown summary table to this file "
                             "(CI passes $GITHUB_STEP_SUMMARY)")
    args = parser.parse_args(argv)
    print("plan verifier self-check:")
    rows = run_self_check()
    print(f"OK: {len(rows)} checks passed")
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write("\n### Plan verifier self-check\n\n")
            handle.write("| check | status |\n|---|---|\n")
            for rule, status in rows:
                handle.write(f"| `{rule}` | {status} |\n")
    return 0


if __name__ == "__main__":
    # Delegate to the canonical module object so the error classes raised
    # during the self-check are the same ones the package exports.
    from repro.plan.verify import main as _main

    raise SystemExit(_main())
