"""Tests for the shared expression AST, logical plans and optimizer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.colstore import ColumnStore, ColumnTable, ColumnQuery, ColumnVector
from repro.arraydb.bridge import ArrayBackend
from repro.cluster.bridge import PartitionedBackend
from repro.colstore.planner import (
    ColumnStoreBackend,
    optimize_plan,
    run_plan,
)
from repro.colstore.query import JoinedQuery, materialise_join
from repro.mapreduce.bridge import HiveBackend
from repro.plan import (
    Aggregate,
    Filter,
    Join,
    Pivot,
    PlanCatalog,
    Project,
    Sample,
    Scan,
    and_,
    classify,
    col,
    explain,
    lit,
    optimize,
    split_conjuncts,
)
from repro.plan.logical import AGGREGATE_FUNCTIONS
from repro.relational import ColumnType, Database, operators as row_ops
from repro.relational.bridge import RelationalBackend, run_shared_plan
from repro.rlang.bridge import RBackend


# --------------------------------------------------------------------------- #
# Expression AST
# --------------------------------------------------------------------------- #

class TestExpressions:
    def test_vectorised_evaluation_matches_row_binding(self):
        class _Schema:
            names = ("a", "b")

            def index_of(self, name):
                return list(self.names).index(name)

        expression = ((col("a") / 0.5 + 1) > col("b")) & ~(col("a") == lit(3))
        batch = {
            "a": np.array([0, 1, 2, 3, 4]),
            "b": np.array([10, 2, 4, 0, 3]),
        }
        vectorised = np.asarray(expression.evaluate(batch), dtype=bool)
        bound = expression.bind(_Schema())
        rows = list(zip(batch["a"].tolist(), batch["b"].tolist(), strict=True))
        np.testing.assert_array_equal(vectorised, [bool(bound(row)) for row in rows])

    def test_split_conjuncts_flattens_nesting(self):
        a, b, c, d = col("a") < 1, col("b") < 2, col("c") < 3, col("d") < 4
        parts = split_conjuncts((a & b) & (c & d))
        assert parts == [a, b, c, d]
        parts = split_conjuncts(and_(a, b, c))
        assert parts == [a, b, c]
        # Disjunctions stay intact — as a whole and inside a conjunction.
        assert len(split_conjuncts(a | b)) == 1
        parts = split_conjuncts(a & (b | c))
        assert len(parts) == 2 and parts[0] is a

    def test_isin_keeps_ndarrays_without_python_round_trip(self):
        keys = np.array([3, 1, 2, 2, 1], dtype=np.int64)
        expression = col("x").isin(keys)
        assert isinstance(expression.values, np.ndarray)
        np.testing.assert_array_equal(expression.key_array(), [1, 2, 3])
        # Mutating the caller's array must not leak into the expression.
        keys[:] = 0
        np.testing.assert_array_equal(expression.key_array(), [1, 2, 3])

    def test_classification_kinds(self):
        assert classify(col("x") < 5).kind == "range"
        assert classify(lit(5) > col("x")).kind == "range"
        assert classify(col("x") == 5).kind == "equality"
        assert classify(col("x") != 5).kind == "inequality"
        assert classify(col("x").isin([1, 2])).kind == "membership"
        assert classify((col("x") < 5) | (col("x") > 9)).kind == "general"
        assert classify(col("x") < col("y")).column is None

    def test_opaque_callables_are_gone(self):
        with pytest.raises(ImportError):
            from repro.plan import opaque  # noqa: F401

    def test_not_and_or_evaluate(self):
        batch = {"x": np.array([1, 5, 9])}
        np.testing.assert_array_equal(
            (~(col("x") < 5)).evaluate(batch), [False, True, True]
        )
        np.testing.assert_array_equal(
            ((col("x") < 2) | (col("x") > 8)).evaluate(batch), [True, False, True]
        )


# --------------------------------------------------------------------------- #
# Optimizer rules on logical plans
# --------------------------------------------------------------------------- #

class _DictCatalog(PlanCatalog):
    def __init__(self, columns):
        self._columns = columns

    def columns_of(self, table):
        return self._columns.get(table)


class TestPlanRules:
    def test_conjunction_splits_pushes_and_prunes(self):
        catalog = _DictCatalog({
            "genes": ["gene_id", "target", "position", "length", "function"],
            "microarray": ["gene_id", "patient_id", "expression_value"],
        })
        plan = Pivot(
            Filter(
                Join(Scan("genes"), Scan("microarray"), "gene_id", "gene_id"),
                (col("function") < 10) & (col("expression_value") > 0.5),
            ),
            "patient_id", "gene_id", "expression_value",
        )
        optimized = optimize(plan, catalog)
        text = explain(optimized)
        assert text == (
            "Pivot rows=patient_id cols=gene_id value=expression_value\n"
            "  Join gene_id = gene_id\n"
            "    Project ['gene_id']\n"
            "      Filter (col('function') < lit(10))\n"
            "        Project ['gene_id', 'function']\n"
            "          Scan genes\n"
            "    Filter (col('expression_value') > lit(0.5))\n"
            "      Scan microarray"
        )

    def test_partial_conjuncts_stay_above_the_join(self):
        # A division conjunct must not move below the join: there it would
        # run on rows the join eliminates (e.g. a divisor of 0).
        catalog = _DictCatalog({
            "l": ["id", "a", "b"],
            "r": ["id", "w"],
        })
        plan = Filter(
            Join(Scan("l"), Scan("r"), "id", "id"),
            (col("b") / col("a") > 1) & (col("w") < 5),
        )
        optimized = optimize(plan, catalog)
        text = explain(optimized)
        lines = text.splitlines()
        # The total right-side conjunct pushed below; the division stayed up.
        assert lines[0].strip() == "Filter ((col('b') / col('a')) > lit(1))"
        assert "Join" in lines[1]
        assert any("(col('w') < lit(5))" in line and line.startswith("    ") for line in lines)

    @pytest.mark.parametrize("partial_first", [True, False],
                             ids=["partial-first", "total-first"])
    def test_total_conjunct_pushes_below_the_join_in_either_order(self, partial_first):
        # Whichever conjunct is written first, the total one reaches the
        # right input and the division stays above the join.
        catalog = _DictCatalog({"l": ["id", "a", "b"], "r": ["id", "w"]})
        partial, total = col("b") / col("a") > 1, col("w") < 5
        conjunction = partial & total if partial_first else total & partial
        optimized = optimize(
            Filter(Join(Scan("l"), Scan("r"), "id", "id"), conjunction), catalog)
        assert isinstance(optimized, Filter)
        assert repr(optimized.predicate) == repr(partial)
        join = optimized.child
        assert isinstance(join, Join) and isinstance(join.left, Scan)
        assert isinstance(join.right, Filter) and isinstance(join.right.child, Scan)
        assert repr(join.right.predicate) == repr(total)

    def test_pushed_filter_moves_onto_the_left_input(self):
        catalog = _DictCatalog({"l": ["id", "x"], "r": ["id", "y"]})
        join = Join(Scan("l"), Scan("r"), "id", "id")
        optimized = optimize(Filter(join, col("x") == 5), catalog)
        assert isinstance(optimized, Join)  # the filter moved below the join
        assert isinstance(optimized.left, Filter) and isinstance(optimized.left.child, Scan)
        assert isinstance(optimized.right, Scan)
        # A conjunct over both inputs has nowhere to go.
        spanning = optimize(Filter(join, col("x") < col("y")), catalog)
        assert isinstance(spanning, Filter) and isinstance(spanning.child, Join)

    def test_sample_is_a_pushdown_barrier(self):
        catalog = _DictCatalog({"t": ["a", "b"]})
        plan = Filter(Sample(Scan("t"), 0.5, seed=1), col("a") < 3)
        optimized = optimize(plan, catalog)
        assert isinstance(optimized, Filter)
        assert isinstance(optimized.child, Sample)

    @pytest.mark.parametrize("backend", [
        ColumnStoreBackend, RelationalBackend, ArrayBackend, HiveBackend, RBackend,
        PartitionedBackend,
    ], ids=lambda backend: backend.engine)
    @pytest.mark.parametrize("shape", ["two-over-scan", "three-over-scan",
                                       "two-over-sample", "two-spanning-over-join"])
    def test_conjuncts_run_in_written_order(self, backend, shape):
        # Every backend runs a filter chain innermost first, so the
        # first-written conjunct must end up innermost, whatever the profile
        # and whatever the chain sits on.
        catalog = _DictCatalog({"t": ["a", "b", "c"], "l": ["id", "x"],
                                "r": ["id", "y"]})
        below, conjuncts = {
            "two-over-scan": (Scan("t"), [col("a") < 90, col("b") == 1]),
            "three-over-scan": (Scan("t"), [col("a") < 90, col("b") == 1,
                                            col("c") > 2]),
            "two-over-sample": (Sample(Scan("t"), 0.5, seed=1),
                                [col("a") < 90, col("b") == 1]),
            "two-spanning-over-join": (Join(Scan("l"), Scan("r"), "id", "id"),
                                       [col("x") < col("y"), col("x") != col("y")]),
        }[shape]
        conjunction = conjuncts[0]
        for conjunct in conjuncts[1:]:
            conjunction = conjunction & conjunct
        node = optimize(Filter(below, conjunction), catalog, backend.capabilities)
        chain = []
        while isinstance(node, Filter):
            chain.append(repr(node.predicate))
            node = node.child
        assert chain[::-1] == [repr(conjunct) for conjunct in conjuncts]
        assert type(node) is type(below)

    def test_projection_pruning_skips_full_width_scans(self):
        catalog = _DictCatalog({"t": ["a", "b"]})
        plan = Aggregate(Scan("t"), "a", "b", "mean")
        optimized = optimize(plan, catalog)
        assert isinstance(optimized.child, Scan)  # nothing to prune


# --------------------------------------------------------------------------- #
# The five GenBase data-management plans on the column store
# --------------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def genbase_store(tiny_dataset) -> ColumnStore:
    store = ColumnStore("genbase")
    micro = tiny_dataset.microarray_relational()
    store.create_table(
        "microarray",
        {
            "gene_id": micro[:, 0].astype(np.int64),
            "patient_id": micro[:, 1].astype(np.int64),
            "expression_value": micro[:, 2],
        },
    )
    store.create_table(
        "genes",
        {
            "gene_id": tiny_dataset.genes.gene_id,
            "target": tiny_dataset.genes.target,
            "position": tiny_dataset.genes.position,
            "length": tiny_dataset.genes.length,
            "function": tiny_dataset.genes.function,
        },
    )
    store.create_table(
        "patients",
        {
            "patient_id": tiny_dataset.patients.patient_id,
            "age": tiny_dataset.patients.age,
            "gender": tiny_dataset.patients.gender,
            "zipcode": tiny_dataset.patients.zipcode,
            "disease_id": tiny_dataset.patients.disease_id,
            "drug_response": tiny_dataset.patients.drug_response,
        },
    )
    return store


def _gene_filter_pivot_plan(threshold):
    """Q1/Q4 data management: genes(function < t) ⋈ microarray → pivot."""
    return Pivot(
        Filter(
            Join(Scan("genes"), Scan("microarray"), "gene_id", "gene_id"),
            col("function") < threshold,
        ),
        "patient_id", "gene_id", "expression_value",
    )


def _patient_filter_pivot_plan(predicate):
    """Q2/Q3 data management: patients(pred) ⋈ microarray → pivot."""
    return Pivot(
        Filter(
            Join(Scan("patients"), Scan("microarray"), "patient_id", "patient_id"),
            predicate,
        ),
        "patient_id", "gene_id", "expression_value",
    )


class TestGenBasePlans:
    """Snapshot + equivalence tests: the rules fire on all five queries."""

    def test_q1_regression_plan_snapshot(self, genbase_store):
        # Pushdown onto the genes side, projection pruned *through* the
        # join (only the key crosses).
        optimized = optimize_plan(_gene_filter_pivot_plan(10), genbase_store)
        assert explain(optimized) == (
            "Pivot rows=patient_id cols=gene_id value=expression_value\n"
            "  Join gene_id = gene_id\n"
            "    Project ['gene_id']\n"
            "      Filter (col('function') < lit(10))\n"
            "        Project ['gene_id', 'function']\n"
            "          Scan genes\n"
            "    Scan microarray"
        )

    def test_q2_covariance_plan_snapshot(self, genbase_store):
        plan = _patient_filter_pivot_plan(col("disease_id").isin([1, 3]))
        optimized = optimize_plan(plan, genbase_store)
        assert explain(optimized) == (
            "Pivot rows=patient_id cols=gene_id value=expression_value\n"
            "  Join patient_id = patient_id\n"
            "    Project ['patient_id']\n"
            "      Filter col('disease_id').isin([1, 3])\n"
            "        Project ['patient_id', 'disease_id']\n"
            "          Scan patients\n"
            "    Scan microarray"
        )

    def test_q3_biclustering_plan_pushdown_and_reorder(self, genbase_store):
        plan = _patient_filter_pivot_plan(
            (col("age") < 40) & (col("gender") == 1)
        )
        optimized = optimize_plan(plan, genbase_store)
        text = explain(optimized)
        # Both conjuncts pushed below the join onto the patients side, the
        # scan pruned to the three referenced columns.
        assert "Join patient_id = patient_id" in text
        assert text.count("Filter") == 2
        assert "Project ['patient_id', 'age', 'gender']" in text
        # The filters sit in written order: the first-written one deepest.
        lines = [line.strip() for line in text.splitlines() if "Filter" in line]
        assert lines == ["Filter (col('gender') = lit(1))", "Filter (col('age') < lit(40))"]

    def test_q4_svd_plan_snapshot(self, genbase_store):
        # Same DM shape as Q1 with the SVD threshold; rules must still fire.
        optimized = optimize_plan(_gene_filter_pivot_plan(25), genbase_store)
        text = explain(optimized)
        assert "Project ['gene_id', 'function']" in text
        assert text.splitlines()[3].strip().startswith("Filter")

    def test_q5_statistics_plan_snapshot(self, genbase_store):
        sampled = np.array([0, 2, 5], dtype=np.int64)
        plan = Aggregate(
            Filter(Scan("microarray"), col("patient_id").isin(sampled)),
            "gene_id", "expression_value", "mean",
        )
        optimized = optimize_plan(plan, genbase_store)
        assert explain(optimized) == (
            "Aggregate mean(expression_value) by gene_id\n"
            "  Filter col('patient_id').isin([0, 2, 5])\n"
            "    Scan microarray"
        )

    @pytest.mark.parametrize("build", [
        lambda: _gene_filter_pivot_plan(10),
        lambda: _patient_filter_pivot_plan(col("disease_id").isin([1, 3])),
        lambda: _patient_filter_pivot_plan((col("age") < 40) & (col("gender") == 1)),
        lambda: _gene_filter_pivot_plan(25),
    ])
    def test_optimized_pivot_plans_match_unoptimized(self, genbase_store, build):
        fast = run_plan(build(), genbase_store, optimized=True)
        slow = run_plan(build(), genbase_store, optimized=False)
        for fast_part, slow_part in zip(fast, slow, strict=True):
            np.testing.assert_array_equal(fast_part, slow_part)

    def test_optimized_aggregate_matches_unoptimized_and_query(self, genbase_store):
        sampled = np.array([0, 2, 5], dtype=np.int64)
        plan = Aggregate(
            Filter(Scan("microarray"), col("patient_id").isin(sampled)),
            "gene_id", "expression_value", "mean",
        )
        fast_keys, fast_values = run_plan(plan, genbase_store, optimized=True)
        slow_keys, slow_values = run_plan(plan, genbase_store, optimized=False)
        reference = (
            genbase_store.query("microarray")
            .where(col("patient_id").isin(sampled))
            .group_aggregate("gene_id", "expression_value", "mean")
        )
        np.testing.assert_array_equal(fast_keys, slow_keys)
        np.testing.assert_array_equal(fast_values, slow_values)
        np.testing.assert_array_equal(fast_keys, reference[0])
        np.testing.assert_array_equal(fast_values, reference[1])

    def test_shared_aggregate_matches_the_numpy_mean(self):
        values = np.array([float(10 * g + p) for p in range(3) for g in range(4)])
        store = ColumnStore("g")
        store.create_table(
            "microarray",
            {
                "gene_id": np.array([g for p in range(3) for g in range(4)], dtype=np.int64),
                "patient_id": np.array([p for p in range(3) for _ in range(4)], dtype=np.int64),
                "expression_value": values,
            },
        )
        plan = Aggregate(Scan("microarray"), "gene_id", "expression_value", "mean")
        keys, means = run_plan(plan, store)
        np.testing.assert_array_equal(keys, np.arange(4))
        np.testing.assert_array_equal(means, values.reshape(3, 4).mean(axis=0))

    def test_q5_shared_plan_builder_matches_reference(self, genbase_store):
        # The one-shot Q5 plan from repro.core.queries lowers to exactly the
        # membership-pushdown + compressed group-aggregate pipeline.
        from repro.core.queries import sampled_expression_mean_plan

        sampled = np.array([1, 3, 4], dtype=np.int64)
        keys, means = run_plan(sampled_expression_mean_plan(sampled), genbase_store)
        reference = (
            genbase_store.query("microarray")
            .where(col("patient_id").isin(sampled))
            .group_aggregate("gene_id", "expression_value", "mean")
        )
        np.testing.assert_array_equal(keys, reference[0])
        np.testing.assert_array_equal(means, reference[1])

# --------------------------------------------------------------------------- #
# Fused join → aggregate/pivot through the lazy JoinedQuery builder
# --------------------------------------------------------------------------- #

class TestFusedJoinQueries:
    def test_join_returns_lazy_builder(self, genbase_store):
        joined = genbase_store.query("genes").join(
            genbase_store.query("microarray"), "gene_id", "gene_id"
        )
        assert isinstance(joined, JoinedQuery)

    def test_fused_pivot_matches_materialise_then_plan(self, genbase_store):
        genes = genbase_store.query("genes").where(col("function") < 10).select("gene_id")
        micro = genbase_store.query("microarray")
        fused = genes.join(micro, "gene_id", "gene_id")
        matrix, rows, cols = fused.pivot("patient_id", "gene_id", "expression_value")
        # The PR 1–3 hand-stitched path: materialise the (compressed) join
        # output, then plan the pivot over the new table.
        eager_table = materialise_join(
            genes, micro, "gene_id", "gene_id", compress=True
        )
        slow_matrix, slow_rows, slow_cols = ColumnQuery(eager_table).pivot(
            "patient_id", "gene_id", "expression_value"
        )
        np.testing.assert_array_equal(matrix, slow_matrix)
        np.testing.assert_array_equal(rows, slow_rows)
        np.testing.assert_array_equal(cols, slow_cols)

    def test_fused_aggregate_matches_materialise_then_plan(self, genbase_store):
        genes = genbase_store.query("genes").where(col("function") < 10).select("gene_id")
        micro = genbase_store.query("microarray")
        fused = genes.join(micro, "gene_id", "gene_id")
        eager = ColumnQuery(
            materialise_join(genes, micro, "gene_id", "gene_id", compress=True)
        )
        for function in ("count", "min", "max"):
            fast_keys, fast_values = fused.group_aggregate(
                "gene_id", "expression_value", function
            )
            slow_keys, slow_values = eager.group_aggregate(
                "gene_id", "expression_value", function
            )
            np.testing.assert_array_equal(fast_keys, slow_keys)
            np.testing.assert_array_equal(fast_values, slow_values)
        fast_keys, fast_means = fused.group_aggregate("gene_id", "expression_value")
        slow_keys, slow_means = eager.group_aggregate("gene_id", "expression_value")
        np.testing.assert_array_equal(fast_keys, slow_keys)
        # Float means too: both paths reduce the same rows in the same order,
        # and every encoding of the re-encoded group column reduces the same way.
        np.testing.assert_array_equal(fast_means, slow_means)

    @pytest.mark.parametrize("function", AGGREGATE_FUNCTIONS)
    def test_fused_aggregate_matches_the_dense_matrix(self, genbase_store, tiny_dataset,
                                                      function):
        # The column store's JoinedQuery terminal against numpy's reduction
        # over the selected genes' columns of the expression matrix.
        genes = genbase_store.query("genes").where(col("function") < 10).select("gene_id")
        keys, values = genes.join(
            genbase_store.query("microarray"), "gene_id", "gene_id"
        ).group_aggregate("gene_id", "expression_value", function)
        kept = np.flatnonzero(tiny_dataset.genes.function < 10)
        matrix = tiny_dataset.expression_matrix[:, kept]
        expected = {
            "count": np.full(len(kept), float(tiny_dataset.n_patients)),
            "sum": matrix.sum(axis=0),
            "mean": matrix.mean(axis=0),
            "min": matrix.min(axis=0),
            "max": matrix.max(axis=0),
        }[function]
        np.testing.assert_array_equal(keys, kept)
        np.testing.assert_allclose(values, expected, rtol=1e-12)

    def test_fused_join_with_sampled_input_binding(self, genbase_store):
        # A sampled input has a materialised base selection that cannot be
        # re-expressed declaratively — it must ride into the plan as a scan
        # binding, not get silently dropped.
        sampled = genbase_store.query("patients").sample(0.5, seed=3)
        micro = genbase_store.query("microarray")
        fused = sampled.join(micro, "patient_id", "patient_id").pivot(
            "patient_id", "gene_id", "expression_value")
        eager = ColumnQuery(materialise_join(
            sampled, micro, "patient_id", "patient_id", compress=False
        )).pivot("patient_id", "gene_id", "expression_value")
        assert len(fused[1]) == len(sampled)
        for fused_part, eager_part in zip(fused, eager, strict=True):
            np.testing.assert_array_equal(fused_part, eager_part)

    def test_unknown_terminal_column_raises(self, genbase_store):
        joined = genbase_store.query("genes").select("gene_id").join(
            genbase_store.query("microarray"), "gene_id", "gene_id")
        # A KeyError from the store, or the verifier's static type error first.
        with pytest.raises((KeyError, TypeError), match="missing"):
            joined.pivot("missing", "gene_id", "expression_value")

    def test_a_non_key_column_on_both_sides_raises(self):
        # The plan layer names join outputs by source column, so a name both
        # inputs produce is ambiguous: project one side away first.
        left = ColumnQuery(ColumnTable.from_arrays(
            "l", {"k": np.array([1, 2, 3]), "x": np.array([10, 20, 30])}
        ))
        right = ColumnQuery(ColumnTable.from_arrays(
            "r", {"k": np.array([1, 2, 3]), "x": np.array([100, 200, 300])}
        ))
        with pytest.raises(ValueError, match=r"\['x'\] come from both inputs"):
            left.join(right, "k", "k")
        keys, sums = left.join(right.select("k"), "k", "k").group_aggregate("k", "x", "sum")
        np.testing.assert_array_equal(keys, [1, 2, 3])
        np.testing.assert_array_equal(sums, [10.0, 20.0, 30.0])
        # A filter on the dropped side still narrows the join.
        _, sums = left.select("k").join(
            right.where(col("x") > 100), "k", "k").group_aggregate("k", "x", "sum")
        np.testing.assert_array_equal(sums, [200.0, 300.0])


# --------------------------------------------------------------------------- #
# Shared plans on the row store (the bridge)
# --------------------------------------------------------------------------- #

@pytest.fixture()
def mini_db():
    db = Database("g")
    db.create_table(
        "genes", [("gene_id", ColumnType.INT), ("function", ColumnType.INT)]
    )
    db.load_array("genes", np.array([[0, 5], [1, 20], [2, 3], [3, 8]]))
    db.create_table(
        "microarray",
        [("gene_id", ColumnType.INT), ("patient_id", ColumnType.INT),
         ("expression_value", ColumnType.FLOAT)],
    )
    rows = [
        (g, p, float(10 * g + p))
        for p in range(3)
        for g in range(4)
    ]
    db.insert("microarray", rows)
    return db


class TestSharedPlansOnRowStore:
    def _plan(self, threshold=10):
        return Project(
            Filter(
                Join(Scan("genes"), Scan("microarray"), "gene_id", "gene_id"),
                col("function") < threshold,
            ),
            ("patient_id", "gene_id", "expression_value"),
        )

    def test_lowered_plan_matches_hand_built_operators(self, mini_db):
        shared = run_shared_plan(self._plan(), mini_db)
        genes = row_ops.Project(row_ops.Filter(
            row_ops.SeqScan(mini_db.table("genes")), col("function") < lit(10)), ["gene_id"])
        joined = row_ops.HashJoin(genes, row_ops.SeqScan(mini_db.table("microarray")),
                                  "gene_id", "gene_id")
        hand_built = row_ops.Project(joined, ["patient_id", "gene_id", "expression_value"])
        assert shared.schema.names == hand_built.output_schema.names
        assert shared.rows == list(hand_built)

    def test_unoptimized_lowering_matches_optimized(self, mini_db):
        fast = run_shared_plan(self._plan(), mini_db, optimized=True)
        slow = run_shared_plan(self._plan(), mini_db, optimized=False)
        assert sorted(fast.rows) == sorted(slow.rows)

    def test_unoptimized_lowering_is_the_plan_as_written(self, mini_db):
        # ``optimized=False`` hands the driver's lowering the written tree:
        # the filter stays above the join there and sits on the join's build
        # input once the shared optimizer has run — so the equivalence test
        # above compares two different operator trees.
        backend = RelationalBackend(mini_db)
        written = row_ops.explain(backend.lower(self._plan()))
        pushed = row_ops.explain(backend.lower(optimize(self._plan(), backend.catalog)))
        assert written.splitlines() == [
            "Project ['patient_id', 'gene_id', 'expression_value']",
            "  Filter (col('function') < lit(10))",
            "    Project ['gene_id', 'function', 'patient_id', 'expression_value']",
            "      HashJoin gene_id = gene_id",
            "        SeqScan genes (4 rows)",
            "        SeqScan microarray (12 rows)",
        ]
        # One Filter, on the build (first) input; the join's own projection
        # is the only Project between it and the plan's (different) triple.
        assert pushed.splitlines() == [
            "Project ['patient_id', 'gene_id', 'expression_value']",
            "  Project ['gene_id', 'patient_id', 'expression_value']",
            "    HashJoin gene_id = gene_id",
            "      Project ['gene_id']",
            "        Filter (col('function') < lit(10))",
            "          SeqScan genes (4 rows)",
            "      SeqScan microarray (12 rows)",
        ]

    def test_stacked_filters_lower_to_one_operator(self, mini_db):
        plan = Filter(Filter(Scan("genes"), col("function") < 10), col("gene_id") > 0)
        lines = row_ops.explain(RelationalBackend(mini_db).lower(plan)).splitlines()
        assert lines == [
            "Filter ((col('function') < lit(10)) AND (col('gene_id') > lit(0)))",
            "  SeqScan genes (4 rows)",
        ]
        assert run_shared_plan(plan, mini_db, optimized=False).rows == [(2, 3), (3, 8)]

    def test_relational_catalog_exposes_schemas(self, mini_db):
        catalog = RelationalBackend(mini_db).catalog
        assert catalog.columns_of("genes") == ["gene_id", "function"]
        assert catalog.columns_of("nope") is None
        assert catalog.dtype_of("genes", "function") == np.dtype(np.int64)
        assert catalog.dtype_of("genes", "nope") is None


# --------------------------------------------------------------------------- #
# One join row order on both stores
# --------------------------------------------------------------------------- #

#: Keeps 125 of the tiny microarray's 3,000 values: more rows than the
#: patients table holds.
_LOW_EXPRESSION = 0.015495768510246507
#: Two appended patient rows repeat ids already in the table, with ages no
#: other row has, so a join row shows which patients row matched.
_REPEATED_PATIENTS = ((5, 1005), (4, 1004))


@pytest.fixture(scope="module")
def repeated_patients(tiny_dataset):
    """``patients(patient_id, age)`` with two repeated ids at the end, and the
    microarray, as a column store and as a row store."""
    ids, ages = zip(*_REPEATED_PATIENTS, strict=True)
    micro = tiny_dataset.microarray_relational()
    tables = {
        "patients": {
            "patient_id": np.append(tiny_dataset.patients.patient_id, ids).astype(np.int64),
            "age": np.append(tiny_dataset.patients.age, ages).astype(np.int64),
        },
        "microarray": {"patient_id": micro[:, 1].astype(np.int64),
                       "gene_id": micro[:, 0].astype(np.int64),
                       "expression_value": micro[:, 2]},
    }
    store, db = ColumnStore("order"), Database("order")
    for name, columns in tables.items():
        store.create_table(name, columns)
        db.create_table(name, [(column, ColumnType.FLOAT if values.dtype.kind == "f"
                                else ColumnType.INT) for column, values in columns.items()])
        db.load_array(name, np.column_stack(list(columns.values())))
    return tables, store, db


class TestJoinRowOrder:
    """Both stores index a join's left input: rows follow the right input's
    order, and within one right row the matches follow left position order.

    The plan is shaped like the fuzzer's seed 83: a value filter on the
    microarray, pushed below the join, still leaves the right input more
    rows than the left.
    """

    COLUMNS = ("patient_id", "age", "gene_id", "expression_value")
    PLAN = Project(
        Filter(Join(Scan("patients"), Scan("microarray"), "patient_id", "patient_id"),
               col("expression_value") < _LOW_EXPRESSION),
        COLUMNS,
    )

    @staticmethod
    def _expected(tables):
        patients, micro = tables["patients"], tables["microarray"]
        return [
            (patient, age, gene, value)
            for patient, gene, value in zip(
                *(micro[name].tolist() for name in ("patient_id", "gene_id", "expression_value")),
                strict=True)
            if value < _LOW_EXPRESSION
            for key, age in zip(patients["patient_id"].tolist(), patients["age"].tolist(),
                                strict=True)
            if key == patient
        ]

    @pytest.mark.parametrize("optimized", [True, False], ids=["optimized", "as-written"])
    @pytest.mark.parametrize("executor", ["colstore", "rowstore"])
    def test_rows_follow_the_right_input_then_left_positions(
            self, repeated_patients, executor, optimized):
        tables, store, db = repeated_patients
        if executor == "colstore":
            result = run_plan(self.PLAN, store, optimized=optimized)
            rows = list(zip(*(result.column(name).tolist() for name in self.COLUMNS),
                            strict=True))
        else:
            rows = run_shared_plan(self.PLAN, db, optimized=optimized).rows
        expected = self._expected(tables)
        # The repeated ids join, so left position order is visible in the answer.
        assert {row[1] for row in expected} >= {age for _, age in _REPEATED_PATIENTS}
        assert rows == expected


# --------------------------------------------------------------------------- #
# Lazy ColumnQuery behaviour
# --------------------------------------------------------------------------- #

def _chain_table():
    rng = np.random.default_rng(5)
    n = 400
    return ColumnTable(
        "t",
        [
            ColumnVector("category", rng.integers(0, 50, n), encoding="dictionary"),
            ColumnVector("status", np.sort(rng.integers(0, 8, n)), encoding="rle"),
            ColumnVector("score", rng.random(n), encoding="plain"),
        ],
    )


class TestLazyColumnQuery:
    def test_selection_is_cached_and_filters_stack(self):
        table = _chain_table()
        query = ColumnQuery(table).where(
            (col("category") == 3) & (col("status") < 5) & (col("score") > 0.2)
        )
        values = table.column("category").values()
        status = table.column("status").values()
        score = table.column("score").values()
        expected = np.flatnonzero((values == 3) & (status < 5) & (score > 0.2))
        np.testing.assert_array_equal(query.selection, expected)
        assert query.selection is query.selection  # cached

    def test_select_unknown_column_raises(self):
        table = _chain_table()
        with pytest.raises(KeyError, match="missing"):
            ColumnQuery(table).select("missing")

    def test_or_and_not_predicates_execute(self):
        table = _chain_table()
        values = table.column("category").values()
        query = ColumnQuery(table).where(
            (col("category") < 5) | ~(col("category") < 40)
        )
        expected = np.flatnonzero((values < 5) | ~(values < 40))
        np.testing.assert_array_equal(query.selection, expected)

    def test_multi_column_predicate(self):
        table = _chain_table()
        query = ColumnQuery(table).where(col("category") / 100 < col("score"))
        category = table.column("category").values()
        score = table.column("score").values()
        np.testing.assert_array_equal(
            query.selection, np.flatnonzero(category / 100 < score)
        )

    def test_chain_masks_while_most_rows_survive_then_gathers(self, monkeypatch):
        # Written order, no estimate: the unselective first conjunct and the
        # needle run as full-column masks; the one row in a hundred left
        # after them is gathered for the last conjunct.
        rows = np.arange(1600)
        table = ColumnTable("t", [
            ColumnVector("wide", rows % 10, encoding="dictionary"),
            ColumnVector("needle", rows % 100, encoding="dictionary"),
            ColumnVector("last", rows % 7, encoding="dictionary"),
        ])
        calls = []
        for method in ("filter_mask", "take"):
            original = getattr(ColumnVector, method)

            def spy(self, argument, _original=original, _method=method):
                calls.append((_method, self.name))
                return _original(self, argument)

            monkeypatch.setattr(ColumnVector, method, spy)
        query = ColumnQuery(table).where(
            (col("wide") < 9) & (col("needle") == 3) & (col("last") < 6)
        )
        expected = np.flatnonzero((rows % 10 < 9) & (rows % 100 == 3) & (rows % 7 < 6))
        np.testing.assert_array_equal(query.selection, expected)
        assert calls == [("filter_mask", "wide"), ("filter_mask", "needle"),
                         ("take", "last")]

    def test_partial_conjunct_never_sees_removed_rows(self):
        # Most rows survive the guard, but the division still runs only on
        # them: over the full column it would divide by zero.
        rows = np.arange(400)
        divisor = np.where(rows % 2 == 0, 0, rows)
        table = ColumnTable("t", [
            ColumnVector("a", divisor, encoding="plain"),
            ColumnVector("b", rows * 3, encoding="plain"),
        ])
        query = ColumnQuery(table).where(
            (col("a") != 0) & (col("b") / col("a") > 2)
        )
        with np.errstate(divide="raise", invalid="raise"):
            selection = query.selection
        np.testing.assert_array_equal(selection, np.flatnonzero(divisor != 0))


class TestSampleComposition:
    """Regression: sampling must depend only on the selected row *set*."""

    def test_sample_ignores_prior_selection_order(self):
        table = _chain_table()
        first = (
            ColumnQuery(table)
            .where(col("status") < 5)
            .where(col("category") < 25)
            .sample(0.3, seed=9)
        )
        second = (
            ColumnQuery(table)
            .where(col("category") < 25)
            .where(col("status") < 5)
            .sample(0.3, seed=9)
        )
        np.testing.assert_array_equal(first.selection, second.selection)
        # Even an explicitly shuffled selection vector samples the same rows.
        base = ColumnQuery(table).where(col("category") < 25).selection
        shuffled = np.random.default_rng(0).permutation(base)
        from_sorted = ColumnQuery(table, np.sort(base)).sample(0.5, seed=4)
        from_shuffled = ColumnQuery(table, shuffled).sample(0.5, seed=4)
        np.testing.assert_array_equal(from_sorted.selection, from_shuffled.selection)

    def test_narrowing_after_sample_composes(self):
        table = _chain_table()
        sampled = ColumnQuery(table).where(col("status") < 5).sample(0.4, seed=2)
        narrowed = sampled.where(col("category") < 10)
        # Narrowing after the sample keeps exactly the sampled rows that
        # satisfy the new predicate — the sample never re-rolls.
        category = table.column("category").values()
        expected = sampled.selection[category[sampled.selection] < 10]
        np.testing.assert_array_equal(narrowed.selection, expected)

    def test_sample_seed_behaviour(self):
        table = _chain_table()
        query = ColumnQuery(table)
        np.testing.assert_array_equal(
            query.sample(0.2, seed=3).selection, query.sample(0.2, seed=3).selection
        )
        assert not np.array_equal(
            query.sample(0.2, seed=3).selection, query.sample(0.2, seed=4).selection
        )
        assert len(query.sample(0.25, seed=1)) == max(1, round(0.25 * len(query)))


# --------------------------------------------------------------------------- #
# Uniform unknown-column errors (colstore + relational)
# --------------------------------------------------------------------------- #

class TestUniformUnknownColumnErrors:
    def test_colstore_errors_name_column_and_table(self):
        table = _chain_table()
        query = ColumnQuery(table)
        cases = [
            lambda: query.where(col("missing") < 1),
            lambda: query.where(col("missing").isin([1])),
            lambda: query.column("missing"),
            lambda: query.group_aggregate("missing", "score"),
            lambda: query.group_aggregate("category", "missing"),
            lambda: query.select("missing"),
            lambda: query.distinct("missing"),
            lambda: query.pivot("missing", "category", "score"),
        ]
        for case in cases:
            with pytest.raises(KeyError, match=r"missing.*'t'"):
                with np.errstate(all="ignore"):
                    case()

    def test_row_store_division_conjunct_not_pushed_below_join(self):
        # Regression: splitting a mixed conjunction must not push a partial
        # (division) conjunct below the join, where it would divide by the
        # a=0 row the join eliminates.
        db = Database("g")
        db.create_table("l", [("id", ColumnType.INT), ("a", ColumnType.INT),
                              ("b", ColumnType.INT)])
        db.load_array("l", np.array([[1, 2, 10], [2, 0, 5]]))
        db.create_table("r", [("id", ColumnType.INT), ("tag", ColumnType.INT)])
        db.load_array("r", np.array([[1, 7]]))
        plan = Filter(Join(Scan("l"), Scan("r"), "id", "id"),
                      (col("tag") == lit(7)) & (col("b") / col("a") > lit(1)))
        assert run_shared_plan(plan, db).rows == [(1, 2, 10, 7)]  # id, a, b, tag


# --------------------------------------------------------------------------- #
# Property tests: optimized execution is result-identical
# --------------------------------------------------------------------------- #

ENCODINGS = ("plain", "rle", "dictionary", "delta")

group_arrays = st.one_of(
    hnp.arrays(dtype=np.int64, shape=st.integers(0, 150), elements=st.integers(-50, 50)),
    hnp.arrays(dtype=np.int64, shape=st.integers(0, 150), elements=st.integers(-50, 50)).map(np.sort),
    hnp.arrays(dtype=np.int64, shape=st.integers(0, 150), elements=st.integers(-50, 50)).map(lambda a: a % 5),
)


def _build_tables(groups):
    """One compressed table per forced encoding plus the plain reference."""
    payload = np.arange(len(groups), dtype=np.int64)
    score = (groups * 7 % 11).astype(np.float64)
    tables = {}
    for encoding in ENCODINGS:
        tables[encoding] = ColumnTable(
            f"t_{encoding}",
            [
                ColumnVector("g", np.sort(groups) if encoding == "delta" else groups,
                             encoding=encoding),
                ColumnVector("payload", payload),
                ColumnVector("score", score),
            ],
        )
    return tables


class TestOptimizedExecutionProperties:
    @given(group_arrays, st.integers(-50, 50), st.integers(-50, 50), st.data())
    @settings(max_examples=40, deadline=None)
    def test_optimized_conjunction_identical_to_plain_decode(
        self, groups, low, high, data
    ):
        keys = data.draw(
            hnp.arrays(dtype=np.int64, shape=st.integers(0, 8),
                       elements=st.integers(-50, 50))
        )
        for encoding in ENCODINGS:
            column = np.sort(groups) if encoding == "delta" else groups
            table = ColumnTable(
                "t",
                [
                    ColumnVector("g", column, encoding=encoding),
                    ColumnVector("payload", np.arange(len(column), dtype=np.int64)),
                ],
            )
            predicates = [col("g") >= low, col("g") != high]
            expected = (column >= low) & (column != high)
            if keys.size:
                predicates.append(col("g").isin(keys))
                expected &= np.isin(column, keys)
            # Lazy, narrowed execution of the whole conjunction...
            query = ColumnQuery(table)
            for predicate in predicates:
                query = query.where(predicate)
            # ...must match the plain, decoded, written-order evaluation.
            np.testing.assert_array_equal(
                query.selection, np.flatnonzero(expected),
                err_msg=f"selection mismatch for {encoding}",
            )
            np.testing.assert_array_equal(
                query.column("payload"), np.flatnonzero(expected),
                err_msg=f"gather mismatch for {encoding}",
            )

    @given(group_arrays, st.integers(-50, 50))
    @settings(max_examples=30, deadline=None)
    def test_plan_execution_optimized_equals_unoptimized(self, groups, threshold):
        for encoding in ENCODINGS:
            column = np.sort(groups) if encoding == "delta" else groups
            store = ColumnStore("prop")
            store.register(ColumnTable(
                "t",
                [
                    ColumnVector("g", column, encoding=encoding),
                    ColumnVector("v", (column % 7).astype(np.float64)),
                ],
            ))
            plan = Aggregate(
                Filter(Scan("t"), (col("g") < threshold) & (col("g") != 0)),
                "g", "v", "sum",
            )
            fast = run_plan(plan, store, optimized=True)
            slow = run_plan(plan, store, optimized=False)
            mask = (column < threshold) & (column != 0)
            keys, inverse = np.unique(column[mask], return_inverse=True)
            expected = np.bincount(
                inverse, weights=(column[mask] % 7).astype(np.float64),
                minlength=len(keys),
            )
            np.testing.assert_array_equal(fast[0], slow[0])
            np.testing.assert_array_equal(fast[1], slow[1])
            np.testing.assert_array_equal(fast[0], keys)
            np.testing.assert_array_equal(fast[1], expected)


class TestFusedEquivalenceProperties:
    """Fused join → aggregate/pivot bit-identical to the hand-stitched path.

    Values are exactly-representable floats (integers), so even float sums
    are order-independent; the pivot's cell value is a pure function of its
    column key, so duplicate (row, column) pairs always write the same
    value and last-write-wins order cannot matter.
    """

    @given(group_arrays, st.data())
    @settings(max_examples=25, deadline=None)
    def test_fused_terminals_identical_to_eager_across_encodings(self, keys, data):
        right_keys = data.draw(
            hnp.arrays(dtype=np.int64, shape=st.integers(0, 100),
                       elements=st.integers(-50, 50))
        )
        for encoding in ENCODINGS:
            left_column = np.sort(keys) if encoding == "delta" else keys
            left_table = ColumnTable(
                "fused_l",
                [
                    ColumnVector("k", left_column, encoding=encoding),
                    ColumnVector("lv", (left_column * 3 % 13).astype(np.float64)),
                ],
            )
            right_table = ColumnTable(
                "fused_r",
                [
                    ColumnVector("k", right_keys),
                    ColumnVector("rv", np.arange(len(right_keys), dtype=np.float64)),
                ],
            )
            left = ColumnQuery(left_table)
            right = ColumnQuery(right_table)
            fused = left.join(right, "k", "k")
            eager = ColumnQuery(
                materialise_join(left, right, "k", "k", compress=True)
            )
            for function in ("count", "sum", "mean", "min", "max"):
                fast = fused.group_aggregate("k", "rv", function)
                slow = eager.group_aggregate("k", "rv", function)
                np.testing.assert_array_equal(fast[0], slow[0])
                np.testing.assert_array_equal(
                    fast[1], slow[1],
                    err_msg=f"{function} mismatch for {encoding}",
                )
            fast_pivot = fused.pivot("k", "rv", "rv")
            slow_pivot = eager.pivot("k", "rv", "rv")
            for fast_part, slow_part in zip(fast_pivot, slow_pivot, strict=True):
                np.testing.assert_array_equal(fast_part, slow_part)
