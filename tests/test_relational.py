"""Tests for the row-store relational engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.relational import (
    ColumnType,
    Database,
    HeapTable,
    col,
    lit,
    and_,
    default_madlib_registry,
)
from repro.plan import (
    Aggregate,
    Filter as PlanFilter,
    Join,
    Pivot,
    Project as PlanProject,
    Scan,
    optimize,
)
from repro.plan.logical import AGGREGATE_FUNCTIONS
from repro.relational.bridge import RelationalBackend, run_shared_plan
from repro.relational.operators import (
    Filter,
    HashAggregate,
    HashJoin,
    Operator,
    Project,
    SeqScan,
    Sort,
    explain,
    hash_join,
)
from repro.relational.query import QueryResultSet
from repro.relational.schema import Column, Schema
from repro.relational.storage import HeapFile, Page
from repro.relational.udf import UdfRegistry


def _schema(pairs) -> Schema:
    return Schema([Column(name, column_type) for name, column_type in pairs])


class RowSource(Operator):
    """An in-memory list of rows as an operator (fixture builder)."""

    def __init__(self, rows, schema: Schema):
        self._rows = list(rows)
        self.output_schema = schema

    def __iter__(self):
        return iter(self._rows)


@pytest.fixture()
def people_table() -> HeapTable:
    schema = _schema(
        [("id", ColumnType.INT), ("name", ColumnType.STRING), ("score", ColumnType.FLOAT)]
    )
    table = HeapTable("people", schema)
    table.insert_many(
        [(1, "ann", 3.5), (2, "bob", 1.0), (3, "cat", 2.5), (4, "dan", 4.0)]
    )
    return table


@pytest.fixture()
def genbase_db(tiny_dataset) -> Database:
    db = Database()
    db.create_table(
        "microarray",
        [("gene_id", ColumnType.INT), ("patient_id", ColumnType.INT),
         ("expression_value", ColumnType.FLOAT)],
    )
    db.load_array("microarray", tiny_dataset.microarray_relational())
    db.create_table(
        "genes",
        [("gene_id", ColumnType.INT), ("target", ColumnType.INT),
         ("position", ColumnType.INT), ("length", ColumnType.INT),
         ("function", ColumnType.INT)],
    )
    db.load_array("genes", tiny_dataset.genes_relational())
    return db


class TestSchema:
    def test_coerce_row(self):
        schema = _schema([("a", ColumnType.INT), ("b", ColumnType.FLOAT)])
        assert schema.coerce_row(("3", "4.5")) == (3, 4.5)

    def test_coerce_errors(self):
        schema = _schema([("a", ColumnType.INT)])
        with pytest.raises(ValueError):
            schema.coerce_row((1, 2))
        with pytest.raises(TypeError):
            schema.coerce_row(("not-a-number",))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema([Column("x", ColumnType.INT), Column("x", ColumnType.INT)])

    def test_index_and_projection(self):
        schema = _schema(
            [("a", ColumnType.INT), ("b", ColumnType.FLOAT), ("c", ColumnType.STRING)]
        )
        assert schema.index_of("b") == 1
        assert schema.project(["c", "a"]).names == ("c", "a")
        with pytest.raises(KeyError):
            schema.index_of("z")

    def test_concat_renames_collisions(self):
        left = _schema([("id", ColumnType.INT), ("x", ColumnType.FLOAT)])
        right = _schema([("id", ColumnType.INT), ("y", ColumnType.FLOAT)])
        combined = left.concat(right)
        assert combined.names == ("id", "x", "id_right", "y")

class TestStorage:
    def test_page_roundtrip_with_strings_and_nulls(self):
        schema = _schema(
            [("id", ColumnType.INT), ("name", ColumnType.STRING), ("flag", ColumnType.BOOL)]
        )
        page = Page(schema)
        assert page.try_insert((1, "hello", True))
        assert page.try_insert((2, None, False))
        rows = list(page.rows())
        assert rows == [(1, "hello", True), (2, None, False)]

    def test_page_overflow_starts_new_page(self):
        schema = _schema([("x", ColumnType.INT)])
        heap = HeapFile(schema, page_size=64)
        for i in range(50):
            heap.insert((i,))
        assert heap.page_count > 1
        assert list(heap.scan()) == [(i,) for i in range(50)]

    def test_heap_row_count(self):
        schema = _schema([("x", ColumnType.INT)])
        heap = HeapFile(schema)
        heap.insert((1,))
        heap.insert((2,))
        assert heap.row_count == 2


class TestHeapTable:
    def test_insert_scan_and_columns(self, people_table):
        assert len(people_table) == 4
        assert people_table.column_values("name") == ["ann", "bob", "cat", "dan"]
        assert people_table.page_count >= 1

    def test_load_array_type_narrowing(self):
        table = HeapTable(
            "t", _schema([("id", ColumnType.INT), ("v", ColumnType.FLOAT)]))
        table.load_array(np.array([[1.0, 0.5], [2.0, 1.5]]))
        assert list(table.scan()) == [(1, 0.5), (2, 1.5)]

    def test_load_array_shape_check(self, people_table):
        with pytest.raises(ValueError):
            people_table.load_array(np.ones((3, 2)))


class TestExpressions:
    def test_comparison_and_boolean(self, people_table):
        predicate = and_(col("score") > lit(2.0), ~(col("name") == lit("dan")))
        bound = predicate.bind(people_table.schema)
        rows = [row for row in people_table.scan() if bound(row)]
        assert [row[0] for row in rows] == [1, 3]

    def test_or_and_operators(self, people_table):
        predicate = (col("score") < lit(1.5)) | (col("score") >= lit(4.0))
        bound = predicate.bind(people_table.schema)
        assert [row[0] for row in people_table.scan() if bound(row)] == [2, 4]

    def test_arithmetic(self, people_table):
        expression = col("score") * lit(2.0) + lit(1.0)
        bound = expression.bind(people_table.schema)
        first = next(iter(people_table.scan()))
        assert bound(first) == pytest.approx(8.0)

    def test_isin(self, people_table):
        bound = col("id").isin([2, 4]).bind(people_table.schema)
        assert sum(bound(row) for row in people_table.scan()) == 2

    def test_columns_referenced(self):
        predicate = and_(col("a") < lit(1), (col("b") > lit(2)) | (col("c") == lit(3)))
        assert predicate.columns_referenced() == {"a", "b", "c"}

    def test_unknown_column_binding_fails(self, people_table):
        with pytest.raises(KeyError):
            col("missing").bind(people_table.schema)

    def test_invert_operator(self, people_table):
        bound = (~(col("id") == lit(1))).bind(people_table.schema)
        assert sum(bound(row) for row in people_table.scan()) == 3


class TestOperators:
    def test_filter_project(self, people_table):
        plan = Project(Filter(SeqScan(people_table), col("score") > lit(1.5)), ["name"])
        assert plan.rows() == [("ann",), ("cat",), ("dan",)]

    def test_hash_join(self, people_table):
        scores_schema = _schema([("person_id", ColumnType.INT), ("bonus", ColumnType.FLOAT)])
        bonuses = RowSource([(1, 10.0), (3, 30.0), (3, 31.0)], scores_schema)
        join = HashJoin(bonuses, SeqScan(people_table), "person_id", "id")
        rows = join.rows()
        assert len(rows) == 3
        assert {row[0] for row in rows} == {1, 3}

    def test_sort_ascending_descending(self, people_table):
        ascending = Sort(SeqScan(people_table), ["score"]).rows()
        descending = Sort(SeqScan(people_table), ["score"], descending=True).rows()
        assert [row[0] for row in ascending] == [2, 3, 1, 4]
        assert [row[0] for row in descending] == [4, 1, 3, 2]

    def test_hash_aggregate(self, people_table):
        plan = HashAggregate(
            SeqScan(people_table),
            group_by=[],
            aggregates=[("count", "id", "n"), ("avg", "score", "avg_score"),
                        ("min", "score", "lo"), ("max", "score", "hi"),
                        ("sum", "score", "total")],
        )
        (row,) = plan.rows()
        assert row == (4, pytest.approx(2.75), 1.0, 4.0, pytest.approx(11.0))

    def test_aggregate_with_groups(self):
        rows = RowSource([(1, 1), (1, 2), (2, 3), (1, 4)],
                         _schema([("bucket", ColumnType.INT), ("id", ColumnType.INT)]))
        plan = HashAggregate(rows, group_by=["bucket"], aggregates=[("count", "id", "n")])
        assert plan.rows() == [(1, 3), (2, 1)]

    def test_aggregate_unknown_function(self, people_table):
        with pytest.raises(ValueError):
            HashAggregate(SeqScan(people_table), [], [("median", "score", "m")])

    @pytest.mark.parametrize("function, expected", [
        ("count", [(1, 3), (2, 1)]),
        ("sum", [(1, 7.0), (2, 3.0)]),
        ("min", [(1, 1), (2, 3)]),
        ("max", [(1, 4), (2, 3)]),
        ("avg", [(1, pytest.approx(7 / 3)), (2, 3.0)]),
    ])
    def test_grouped_aggregate_functions(self, function, expected):
        rows = RowSource([(1, 1), (1, 2), (2, 3), (1, 4)],
                         _schema([("bucket", ColumnType.INT), ("id", ColumnType.INT)]))
        plan = HashAggregate(rows, group_by=["bucket"], aggregates=[(function, "id", "v")])
        assert plan.output_schema.names == ("bucket", "v")
        assert plan.rows() == expected

    @pytest.mark.parametrize("descending, expected", [
        (False, [(0, "a"), (1, "a"), (1, "b")]),
        (True, [(1, "b"), (1, "a"), (0, "a")]),
    ])
    def test_sort_on_two_keys(self, descending, expected):
        rows = RowSource([(1, "b"), (0, "a"), (1, "a")],
                         _schema([("x", ColumnType.INT), ("y", ColumnType.STRING)]))
        assert Sort(rows, ["x", "y"], descending=descending).rows() == expected

    def test_hash_join_without_matches_is_empty(self, people_table):
        bonuses = RowSource([(9, 1.0)], _schema([("person_id", ColumnType.INT),
                                                 ("bonus", ColumnType.FLOAT)]))
        for build_left in (True, False):
            joined = hash_join(SeqScan(people_table), bonuses, "id", "person_id", build_left)
            assert joined.output_schema.names == ("id", "name", "score", "person_id", "bonus")
            assert joined.rows() == []

    def test_project_unknown_column_raises(self, people_table):
        with pytest.raises(KeyError, match="missing"):
            Project(SeqScan(people_table), ["id", "missing"])

    def test_explain_renders_every_operator(self, people_table):
        plan = Sort(
            HashAggregate(
                Project(Filter(SeqScan(people_table), col("score") > lit(1.5)),
                        ["id", "score"]),
                ["id"], [("sum", "score", "s")]),
            ["s"], descending=True)
        assert explain(plan).splitlines() == [
            "Sort ['s'] desc=True",
            "  HashAggregate group_by=['id'] aggs=[('sum', 'score', 's')]",
            "    Project ['id', 'score']",
            "      Filter (col('score') > lit(1.5))",
            "        SeqScan people (4 rows)",
        ]


class TestSharedPlansOnTheRowStore:
    """The row store's one query front end: shared plans, lowered."""

    def _genes_join_microarray(self, genes=None):
        return Join(genes or Scan("genes"), Scan("microarray"), "gene_id", "gene_id")

    @pytest.mark.parametrize("optimized", [True, False])
    def test_pushdown_preserves_results(self, genbase_db, optimized):
        predicate = col("function") < lit(10)
        above = PlanFilter(self._genes_join_microarray(), predicate)
        below = self._genes_join_microarray(PlanFilter(Scan("genes"), predicate))
        pushed = run_shared_plan(above, genbase_db, optimized=optimized)
        manual = run_shared_plan(below, genbase_db, optimized=optimized)
        assert pushed.schema.names == manual.schema.names
        assert sorted(pushed.rows) == sorted(manual.rows)
        assert len(manual) > 0

    def test_join_build_side_swap_keeps_column_order(self, genbase_db):
        # genes (small) joined as the right input of microarray (large): the
        # optimizer builds on genes, but the output keeps the written order.
        plan = Join(Scan("microarray"), Scan("genes"), "gene_id", "gene_id")
        backend = RelationalBackend(genbase_db)
        assert optimize(plan, backend.catalog).build_side == "right"
        result = run_shared_plan(plan, genbase_db)
        assert result.schema.names == ("gene_id", "patient_id", "expression_value",
                                       "target", "position", "length", "function")
        assert len(result) == genbase_db.table("microarray").row_count

    @pytest.mark.parametrize("optimized", [True, False])
    @pytest.mark.parametrize("padding", ["left", "right"])
    def test_join_answer_is_independent_of_table_sizes(self, padding, optimized):
        # The build side is the smaller input; unmatched padding rows make
        # either side the larger one without changing the answer.
        left_rows, right_rows = [(1, 10)], [(1, 7)]
        (left_rows if padding == "left" else right_rows).extend(
            (k, 0) for k in range(100, 110))
        db = _colliding_db("a_right", left_rows, right_rows)
        plan = Join(Scan("l"), Scan("r"), "id", "id")
        smaller = "right" if padding == "left" else "left"
        assert optimize(plan, RelationalBackend(db).catalog).build_side == smaller
        result = run_shared_plan(plan, db, optimized=optimized)
        assert result.schema.names == ("id", "a", "a_right")
        assert result.rows == [(1, 10, 7)]

    @pytest.mark.parametrize("function", AGGREGATE_FUNCTIONS)
    def test_aggregate_terminal_matches_the_dense_matrix(self, genbase_db,
                                                         tiny_dataset, function):
        keys, values = run_shared_plan(
            Aggregate(Scan("microarray"), "gene_id", "expression_value", function),
            genbase_db)
        matrix = tiny_dataset.expression_matrix
        np.testing.assert_array_equal(keys, np.arange(tiny_dataset.n_genes))
        expected = {
            "count": np.full(tiny_dataset.n_genes, float(tiny_dataset.n_patients)),
            "sum": matrix.sum(axis=0),
            "mean": matrix.mean(axis=0),
            "min": matrix.min(axis=0),
            "max": matrix.max(axis=0),
        }[function]
        np.testing.assert_allclose(values, expected, rtol=1e-12)

    def test_pivot_terminal_over_a_join(self, genbase_db, tiny_dataset):
        genes = PlanProject(PlanFilter(Scan("genes"), col("function") < lit(10)), ("gene_id",))
        matrix, patients, gene_ids = run_shared_plan(
            Pivot(self._genes_join_microarray(genes), "patient_id", "gene_id",
                  "expression_value"), genbase_db)
        kept = np.flatnonzero(tiny_dataset.genes.function < 10)
        assert sorted(gene_ids) == kept.tolist()
        assert sorted(patients) == list(range(tiny_dataset.n_patients))
        reference = tiny_dataset.expression_matrix[np.ix_(patients, gene_ids)]
        np.testing.assert_allclose(matrix, reference, atol=1e-12)

    @pytest.mark.parametrize("plan", [
        PlanFilter(Scan("genes"), col("missing") < lit(1)),
        PlanProject(Scan("genes"), ("gene_id", "missing")),
        Join(Scan("genes"), Scan("microarray"), "missing", "gene_id"),
        Join(Scan("genes"), Scan("microarray"), "gene_id", "missing"),
        Aggregate(Scan("microarray"), "missing", "expression_value", "count"),
        Aggregate(Scan("microarray"), "gene_id", "missing", "mean"),
        Pivot(Scan("microarray"), "patient_id", "gene_id", "missing"),
    ], ids=["filter", "project", "join-left-key", "join-right-key",
            "aggregate-group", "aggregate-value", "pivot-value"])
    def test_unknown_column_raises_naming_it(self, genbase_db, plan):
        for optimized in (True, False):
            with pytest.raises((KeyError, TypeError), match="missing"):
                run_shared_plan(plan, genbase_db, optimized=optimized)

    def test_a_non_key_column_on_both_sides_raises(self):
        db = _colliding_db("a", [(1, 10)], [(1, 7)])
        plan = Join(Scan("l"), Scan("r"), "id", "id")
        with pytest.raises(TypeError, match=r"\['a'\] come from both"):
            run_shared_plan(plan, db)
        # Projecting one side's copy away leaves one owner per output column.
        narrowed = Join(Scan("l"), PlanProject(Scan("r"), ("id",)), "id", "id")
        assert run_shared_plan(narrowed, db).rows == [(1, 10)]


class TestQueryResultSet:
    def test_pivot_matches_source_matrix(self, genbase_db, tiny_dataset):
        result = run_shared_plan(Scan("microarray"), genbase_db)
        matrix, row_labels, col_labels = result.pivot(
            "patient_id", "gene_id", "expression_value"
        )
        np.testing.assert_allclose(matrix, tiny_dataset.expression_matrix, atol=1e-12)

    def test_column(self, genbase_db):
        result = run_shared_plan(PlanProject(Scan("genes"), ("gene_id", "function")), genbase_db)
        assert result.schema.names == ("gene_id", "function")
        assert result.column("gene_id") == genbase_db.table("genes").column_values("gene_id")

    def test_pivot_keeps_first_seen_order_and_fills_zeros(self):
        result = QueryResultSet(
            _schema([("r", ColumnType.INT), ("c", ColumnType.STRING), ("v", ColumnType.FLOAT)]),
            [(2, "x", 1.0), (1, "y", 2.0), (2, "y", 3.0)],
        )
        matrix, rows, columns = result.pivot("r", "c", "v")
        assert rows == [2, 1] and columns == ["x", "y"]
        np.testing.assert_array_equal(matrix, [[1.0, 3.0], [0.0, 2.0]])

    def test_len_iteration_and_unknown_column(self):
        rows = [(1, 2.0), (3, 4.0)]
        result = QueryResultSet(_schema([("a", ColumnType.INT), ("b", ColumnType.FLOAT)]), rows)
        assert len(result) == 2 and list(result) == rows and result.rows is rows
        assert result.column("b") == [2.0, 4.0]
        with pytest.raises(KeyError):
            result.column("missing")


def _colliding_db(right_column, left_rows, right_rows) -> Database:
    """``l(id, a)`` and ``r(id, <right_column>)``: both non-key columns end up
    named ``a`` / ``a_right`` in the join output."""
    db = Database()
    for name, column, rows in (("l", "a", left_rows), ("r", right_column, right_rows)):
        db.create_table(name, [("id", ColumnType.INT), (column, ColumnType.INT)])
        db.insert(name, rows)
    return db


@pytest.mark.parametrize("right_column", ["a", "a_right"])  # plain / literal *_right
class TestJoinBuildSideKeepsColumnValues:
    """Which input builds the hash table must never change the answer.

    Regression: the swapped join used to map columns back by *name* with
    ``_right`` suffix stripping, so a non-key column name shared by both
    inputs made the two values trade places when the right input built.
    """

    @pytest.mark.parametrize("build_left", [True, False])
    def test_forced_build_side(self, right_column, build_left):
        db = _colliding_db(right_column, [(1, 10)], [(1, 7)])
        joined = hash_join(SeqScan(db.table("l")), SeqScan(db.table("r")),
                           "id", "id", build_left)
        assert joined.output_schema.names == ("id", "a", "id_right", "a_right")
        assert joined.rows() == [(1, 10, 1, 7)]


class TestDatabase:
    def test_create_duplicate(self):
        db = Database()
        db.create_table("t", [("x", ColumnType.INT)])
        with pytest.raises(ValueError):
            db.create_table("t", [("x", ColumnType.INT)])
        assert "t" in db and "u" not in db

    def test_unknown_table(self):
        with pytest.raises(KeyError, match="known tables"):
            Database().table("missing")


class TestUdfRegistry:
    def test_register_and_call(self):
        registry = UdfRegistry()
        registry.register("double", lambda x: 2 * x, tier="compiled")
        assert registry.call("double", 4) == 8
        assert "double" in registry

    def test_duplicate_and_unknown(self):
        registry = UdfRegistry()
        registry.register("f", lambda: None)
        with pytest.raises(ValueError):
            registry.register("f", lambda: None)
        with pytest.raises(KeyError):
            registry.get("g")
        with pytest.raises(ValueError):
            registry.register("h", lambda: None, tier="gpu")

    def test_madlib_registry_contents(self, rng):
        registry = default_madlib_registry()
        assert set(registry.names()) >= {"linear_regression", "covariance", "svd",
                                          "biclustering", "enrichment"}
        matrix = rng.random((20, 4))
        cov = registry.call("covariance", matrix)
        np.testing.assert_allclose(cov, np.cov(matrix, rowvar=False), atol=1e-10)
        with pytest.raises(NotImplementedError):
            registry.call("biclustering", matrix)

    def test_madlib_svd_is_interpreted_but_correct(self, rng):
        registry = default_madlib_registry()
        matrix = rng.random((12, 5))
        values = registry.call("svd", matrix, 2)
        reference = np.linalg.svd(matrix, compute_uv=False)[:2]
        np.testing.assert_allclose(values, reference, rtol=1e-2)
        assert registry.get("svd").tier == "interpreted"
