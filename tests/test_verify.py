"""Static plan verifier: rejection classes, node paths, rewrite soundness.

Covers :mod:`repro.plan.verify` and the dtype-inference layer beneath it
(:meth:`Expression.infer_dtype`, :meth:`PlanNode.output_schema`): one
parametrised case per rejection class asserting the rule name, the node
path, and — for the dtype-mismatch classes — that the message names both
offending dtypes; a hypothesis property that ``optimize()`` never changes
a verified schema over the fuzz grammar; and a proof that a deliberately
schema-breaking optimizer rule trips the rewrite-soundness check through
every bridge's entry point — the check is always on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.colstore.catalog import ColumnStore
from repro.colstore.planner import ColumnStoreCatalog, optimize_plan
from repro.core.queries import dataset_tables
from repro.fuzz.generate import FuzzSchema, case_from_seed
from repro.plan import (
    Aggregate,
    Filter,
    Join,
    Pivot,
    PlanVerificationError,
    Project,
    RewriteSoundnessError,
    Sample,
    SchemaCatalog,
    Scan,
    and_,
    col,
    lit,
    literal_dtype,
    maybe_verify_rewrite,
    verified_schema,
    verify_rewrite,
)

I64 = np.dtype(np.int64)
F64 = np.dtype(np.float64)
U16 = np.dtype("U16")

SCHEMAS = {
    "patients": {"patient_id": I64, "name": U16, "age": I64,
                 "disease_id": I64},
    "genes": {"gene_id": I64, "function": F64},
    "microarray": {"patient_id": I64, "gene_id": I64,
                   "expression_value": F64},
}


def patients() -> Scan:
    return Scan("patients")


# --------------------------------------------------------------------------- #
# Success paths: inferred schemas and dtypes
# --------------------------------------------------------------------------- #

class TestVerifiedSchema:
    def test_scan_resolves_catalog_schema(self):
        assert verified_schema(patients(), SCHEMAS) == SCHEMAS["patients"]

    def test_filter_and_project_preserve_dtypes(self):
        plan = Project(Filter(patients(), col("age") >= lit(40)),
                       ("name", "age"))
        assert verified_schema(plan, SCHEMAS) == {"name": U16, "age": I64}

    def test_join_drops_right_key_and_keeps_left_dtypes(self):
        plan = Join(patients(), Scan("microarray"), "patient_id", "patient_id")
        schema = verified_schema(plan, SCHEMAS)
        assert list(schema) == ["patient_id", "name", "age", "disease_id",
                                "gene_id", "expression_value"]
        assert schema["expression_value"] == F64

    def test_aggregate_output_dtypes(self):
        base = Scan("microarray")
        cases = {
            "count": I64,           # cardinality, whatever it counts
            "mean": F64,            # divides, so always float
            "sum": F64,             # float input stays float
            "min": F64,
        }
        for function, expected in cases.items():
            plan = Aggregate(base, "gene_id", "expression_value", function)
            schema = verified_schema(plan, SCHEMAS)
            assert schema == {"gene_id": I64,
                              f"{function}(expression_value)": expected}

    def test_integer_sum_widens_to_int64(self):
        plan = Aggregate(patients(), "disease_id", "age", "sum")
        assert verified_schema(plan, SCHEMAS)["sum(age)"] == I64

    def test_integer_division_is_float(self):
        plan = Filter(patients(), (col("age") / lit(2)) > lit(3))
        verified_schema(plan, SCHEMAS)  # no error: float > int compares fine

    def test_pivot_schema(self):
        plan = Pivot(Scan("microarray"), "patient_id", "gene_id",
                     "expression_value")
        assert verified_schema(plan, SCHEMAS) == {
            "patient_id": I64, "gene_id": I64, "value(expression_value)": F64,
        }

    def test_unknown_dtype_downgrades_not_fails(self):
        """None dtypes skip the type checks but keep name checking."""
        schemas = {"t": {"a": None, "b": I64}}
        plan = Filter(Scan("t"), col("a") < lit("text"))
        verified_schema(plan, schemas)  # a's dtype unknown: comparison passes
        with pytest.raises(PlanVerificationError, match="unknown column"):
            verified_schema(Filter(Scan("t"), col("c") < lit(1)), schemas)

    def test_schema_catalog_answers_like_a_catalog(self):
        catalog = SchemaCatalog(SCHEMAS)
        assert catalog.columns_of("genes") == ["gene_id", "function"]
        assert catalog.dtype_of("genes", "function") == F64
        assert catalog.columns_of("nope") is None
        assert catalog.dtype_of("genes", "nope") is None

    def test_literal_dtype(self):
        assert literal_dtype(1) == I64
        assert literal_dtype(1.5) == F64
        assert literal_dtype("x").kind == "U"


# --------------------------------------------------------------------------- #
# Rejection classes: rule name, node path, dtypes in the message
# --------------------------------------------------------------------------- #

REJECTIONS = [
    # (id, plan, expected rule, expected path, substrings in the message)
    ("unknown-table",
     Filter(Scan("nonexistent"), col("age") < lit(1)),
     "unknown-table", "Filter > Scan('nonexistent')", ["nonexistent"]),
    ("unknown-column",
     Filter(patients(), col("weight") > lit(1)),
     "unknown-column", "Filter", ["weight", "age"]),  # lists in-scope names
    ("unknown-column-in-membership",
     Filter(patients(), col("weight").isin([70, 80])),
     "unknown-column", "Filter", ["weight", "age"]),
    ("comparison-type-mismatch",
     Filter(patients(), col("name") < lit(40)),
     "comparison-type-mismatch", "Filter", ["<U16", "int64"]),
    ("non-numeric-arithmetic",
     Filter(patients(), (col("name") + lit(1)) > lit(0)),
     "non-numeric-arithmetic", "Filter", ["<U16", "+"]),
    ("non-boolean-predicate",
     Filter(patients(), col("age") + lit(1)),
     "non-boolean-predicate", "Filter", ["int64", "expected bool"]),
    ("non-boolean-connective",
     Filter(patients(), and_(col("age") > lit(1), col("patient_id"))),
     "non-boolean-connective", "Filter", ["int64"]),
    ("invalid-sample-fraction",
     Sample(patients(), 1.5),
     "invalid-sample-fraction", "Sample", ["1.5"]),
    ("zero-sample-fraction",
     Sample(patients(), 0.0),
     "invalid-sample-fraction", "Sample", ["0.0", "(0, 1]"]),
    ("projection-of-missing-column",
     Project(Project(patients(), ("patient_id",)), ("patient_id", "age")),
     "projection-of-missing-column", "Project", ["age", "patient_id"]),
    ("unknown-join-key",
     Join(patients(), Scan("microarray"), "patient_id", "sample_id"),
     "unknown-join-key", "Join", ["sample_id", "right"]),
    ("join-key-dtype-mismatch",
     Join(patients(), Scan("microarray"), "name", "patient_id"),
     "join-key-dtype-mismatch", "Join", ["<U16", "int64"]),
    ("unknown-aggregate-function",
     Aggregate(patients(), "disease_id", "age", "median"),
     "unknown-aggregate-function", "Aggregate", ["median"]),
    ("non-numeric-aggregate",
     Aggregate(patients(), "disease_id", "name", "sum"),
     "non-numeric-aggregate", "Aggregate", ["<U16", "count"]),
    ("non-numeric-pivot",
     Pivot(patients(), "patient_id", "disease_id", "name"),
     "non-numeric-pivot", "Pivot", ["<U16", "name"]),
]


class TestRejectionClasses:
    @pytest.mark.parametrize("plan,rule,path,fragments",
                             [case[1:] for case in REJECTIONS],
                             ids=[case[0] for case in REJECTIONS])
    def test_rejected_with_rule_path_and_dtypes(self, plan, rule, path,
                                                fragments):
        with pytest.raises(PlanVerificationError) as excinfo:
            verified_schema(plan, SCHEMAS)
        error = excinfo.value
        assert error.rule == rule
        assert error.path == path
        for fragment in fragments:
            assert fragment in str(error), (fragment, str(error))

    def test_pivot_labels_may_be_strings(self):
        # Only the cell value must be numeric: a string row/column key is a
        # label the executors handle (REJECTIONS keeps the string *value*).
        plan = Pivot(patients(), "name", "disease_id", "age")
        assert verified_schema(plan, SCHEMAS) == {
            "name": U16, "disease_id": I64, "value(age)": I64}

    def test_every_documented_rejection_class_is_covered(self):
        assert len({case[2] for case in REJECTIONS}) == 13

    def test_error_path_names_the_join_side(self):
        deep = Aggregate(
            Join(patients(),
                 Filter(Scan("microarray"), col("no_such") > lit(0)),
                 "patient_id", "patient_id"),
            "patient_id", "expression_value",
        )
        with pytest.raises(PlanVerificationError) as excinfo:
            verified_schema(deep, SCHEMAS)
        assert excinfo.value.path == "Aggregate > Join.right > Filter"


# --------------------------------------------------------------------------- #
# Rewrite soundness
# --------------------------------------------------------------------------- #

class TestRewriteSoundness:
    def test_identical_plans_pass(self):
        plan = Filter(patients(), col("age") > lit(40))
        assert verify_rewrite(plan, plan, SCHEMAS) == SCHEMAS["patients"]

    def test_column_drop_is_schema_drift(self):
        plan = Filter(patients(), col("age") > lit(40))
        broken = Project(plan, ("patient_id",))
        with pytest.raises(RewriteSoundnessError) as excinfo:
            verify_rewrite(plan, broken, SCHEMAS)
        assert excinfo.value.rule == "rewrite-schema-drift"

    def test_invalid_optimized_plan_is_its_own_rule(self):
        plan = Filter(patients(), col("age") > lit(40))
        broken = Project(plan, ("patient_id", "oops"))
        with pytest.raises(RewriteSoundnessError) as excinfo:
            verify_rewrite(plan, broken, SCHEMAS)
        assert excinfo.value.rule == "rewrite-invalid-plan"

    def test_driver_hook_always_checks(self):
        plan = Filter(patients(), col("age") > lit(40))
        broken = Project(plan, ("patient_id",))
        with pytest.raises(RewriteSoundnessError):
            maybe_verify_rewrite(plan, broken, SCHEMAS)


class TestSchemaBreakingOptimizerIsCaught:
    """The shared driver is the one place that optimizes and verifies, so
    patching its ``optimize`` once must trip every bridge's entry point."""

    def test_caught_through_every_entry_point(self, monkeypatch):
        import repro.plan.execute as driver
        from test_execute import ENGINES, five_backends

        real_optimize = driver.optimize

        def schema_breaking(plan, catalog=None, capabilities=None):
            # A deliberately unsound "rewrite": silently drops column age.
            return Project(real_optimize(plan, catalog, capabilities), ("patient_id",))

        monkeypatch.setattr(driver, "optimize", schema_breaking)
        plan = Filter(Scan("patients"), col("age") < lit(45))
        backends = five_backends()
        assert set(backends) == set(ENGINES)
        for engine, run in backends.items():
            with pytest.raises(RewriteSoundnessError) as excinfo:
                run(plan)
            assert excinfo.value.rule == "rewrite-schema-drift", engine


# --------------------------------------------------------------------------- #
# Property: optimize() never changes the verified schema (fuzz grammar)
# --------------------------------------------------------------------------- #

class TestOptimizePreservesSchema:
    @pytest.fixture(scope="class")
    def context(self, tiny_dataset):
        tables = dataset_tables(tiny_dataset)
        store = ColumnStore()
        for name, columns in tables.items():
            store.create_table(name, columns)
        return FuzzSchema.from_tables(tables), store

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_optimize_never_changes_verified_schema(self, context, seed):
        schema, store = context
        case = case_from_seed(seed, schema)
        catalog = ColumnStoreCatalog(store)
        before = verified_schema(case.plan, catalog)
        optimized = optimize_plan(case.plan, store)
        after = verified_schema(optimized, catalog)
        assert list(before) == list(after)
        assert before == after

    def test_verifier_self_check_corpus_is_green(self):
        from repro.plan.verify import run_self_check
        rows = run_self_check(verbose=False)  # raises AssertionError on a miss
        statuses = {status for _rule, status in rows}
        assert statuses == {"rejected", "ok", "caught"}
        assert ("rewrite-schema-drift", "caught") in rows
