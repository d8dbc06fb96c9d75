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
    or_,
    not_,
    default_madlib_registry,
)
from repro.relational.operators import (
    Compute,
    Filter,
    HashAggregate,
    HashJoin,
    Limit,
    Operator,
    Project,
    SeqScan,
    Sort,
    hash_join,
)
from repro.relational.schema import Column, Schema
from repro.relational.storage import HeapFile, Page
from repro.relational.udf import UdfRegistry


class RowSource(Operator):
    """An in-memory list of rows as an operator (fixture builder)."""

    def __init__(self, rows, schema: Schema):
        self._rows = list(rows)
        self.output_schema = schema

    def __iter__(self):
        return iter(self._rows)


@pytest.fixture()
def people_table() -> HeapTable:
    schema = Schema.from_pairs(
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
        schema = Schema.from_pairs([("a", ColumnType.INT), ("b", ColumnType.FLOAT)])
        assert schema.coerce_row(("3", "4.5")) == (3, 4.5)

    def test_coerce_errors(self):
        schema = Schema.from_pairs([("a", ColumnType.INT)])
        with pytest.raises(ValueError):
            schema.coerce_row((1, 2))
        with pytest.raises(TypeError):
            schema.coerce_row(("not-a-number",))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema([Column("x", ColumnType.INT), Column("x", ColumnType.INT)])

    def test_index_and_projection(self):
        schema = Schema.from_pairs(
            [("a", ColumnType.INT), ("b", ColumnType.FLOAT), ("c", ColumnType.STRING)]
        )
        assert schema.index_of("b") == 1
        assert schema.project(["c", "a"]).names == ("c", "a")
        with pytest.raises(KeyError):
            schema.index_of("z")

    def test_concat_renames_collisions(self):
        left = Schema.from_pairs([("id", ColumnType.INT), ("x", ColumnType.FLOAT)])
        right = Schema.from_pairs([("id", ColumnType.INT), ("y", ColumnType.FLOAT)])
        combined = left.concat(right)
        assert combined.names == ("id", "x", "id_right", "y")

    def test_rename_and_prefix(self):
        schema = Schema.from_pairs([("a", ColumnType.INT)])
        assert schema.rename({"a": "b"}).names == ("b",)
        assert schema.prefixed("t").names == ("t.a",)


class TestStorage:
    def test_page_roundtrip_with_strings_and_nulls(self):
        schema = Schema.from_pairs(
            [("id", ColumnType.INT), ("name", ColumnType.STRING), ("flag", ColumnType.BOOL)]
        )
        page = Page(schema)
        assert page.try_insert((1, "hello", True))
        assert page.try_insert((2, None, False))
        rows = list(page.rows())
        assert rows == [(1, "hello", True), (2, None, False)]

    def test_page_overflow_starts_new_page(self):
        schema = Schema.from_pairs([("x", ColumnType.INT)])
        heap = HeapFile(schema, page_size=64)
        for i in range(50):
            heap.insert((i,))
        assert heap.page_count > 1
        assert list(heap.scan()) == [(i,) for i in range(50)]

    def test_heap_row_count(self):
        schema = Schema.from_pairs([("x", ColumnType.INT)])
        heap = HeapFile(schema)
        heap.insert((1,))
        heap.insert((2,))
        assert heap.row_count == 2
        assert heap.size_bytes > 0


class TestHeapTable:
    def test_insert_scan_and_columns(self, people_table):
        assert len(people_table) == 4
        assert people_table.column_values("name") == ["ann", "bob", "cat", "dan"]
        assert people_table.page_count >= 1

    def test_load_array_type_narrowing(self):
        table = HeapTable(
            "t", Schema.from_pairs([("id", ColumnType.INT), ("v", ColumnType.FLOAT)]))
        table.load_array(np.array([[1.0, 0.5], [2.0, 1.5]]))
        assert table.to_rows() == [(1, 0.5), (2, 1.5)]

    def test_load_array_shape_check(self, people_table):
        with pytest.raises(ValueError):
            people_table.load_array(np.ones((3, 2)))


class TestExpressions:
    def test_comparison_and_boolean(self, people_table):
        predicate = and_(col("score") > lit(2.0), not_(col("name") == lit("dan")))
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
        predicate = and_(col("a") < lit(1), or_(col("b") > lit(2), col("c") == lit(3)))
        assert predicate.columns_referenced() == {"a", "b", "c"}

    def test_unknown_column_binding_fails(self, people_table):
        with pytest.raises(KeyError):
            col("missing").bind(people_table.schema)

    def test_invert_operator(self, people_table):
        bound = (~(col("id") == lit(1))).bind(people_table.schema)
        assert sum(bound(row) for row in people_table.scan()) == 3


class TestOperators:
    def test_filter_project_limit(self, people_table):
        plan = Limit(
            Project(Filter(SeqScan(people_table), col("score") > lit(1.5)), ["name"]),
            2,
        )
        assert plan.rows() == [("ann",), ("cat",)]

    def test_compute_appends_column(self, people_table):
        plan = Compute(SeqScan(people_table), "double_score", col("score") * lit(2))
        rows = plan.rows()
        assert rows[0][-1] == pytest.approx(7.0)
        assert plan.output_schema.names[-1] == "double_score"

    def test_hash_join(self, people_table):
        scores_schema = Schema.from_pairs([("person_id", ColumnType.INT), ("bonus", ColumnType.FLOAT)])
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

    def test_aggregate_with_groups(self, people_table):
        plan = HashAggregate(
            Compute(SeqScan(people_table), "bucket", col("id") * lit(0) + lit(1)),
            group_by=["bucket"],
            aggregates=[("count", "id", "n")],
        )
        (row,) = plan.rows()
        assert row[1] == 4

    def test_aggregate_unknown_function(self, people_table):
        with pytest.raises(ValueError):
            HashAggregate(SeqScan(people_table), [], [("median", "score", "m")])

    def test_limit_validation(self, people_table):
        with pytest.raises(ValueError):
            Limit(SeqScan(people_table), -1)


class TestQuery:
    def test_pushdown_preserves_results(self, genbase_db):
        pushed = (
            genbase_db.query("genes")
            .join(genbase_db.query("microarray"), on=("gene_id", "gene_id"))
            .where(col("function") < lit(10))
            .rows()
        )
        manual = (
            genbase_db.query("genes")
            .where(col("function") < lit(10))
            .join(genbase_db.query("microarray"), on=("gene_id", "gene_id"))
            .rows()
        )
        assert sorted(pushed) == sorted(manual)

    def test_join_build_side_swap_keeps_column_order(self, genbase_db):
        # genes (small) joined as the right input of microarray (large):
        # the planner builds on genes but output columns must stay in order.
        query = genbase_db.query("microarray").join(
            genbase_db.query("genes"), on=("gene_id", "gene_id")
        )
        result = query.run()
        assert result.schema.names[:3] == ("gene_id", "patient_id", "expression_value")
        assert len(result) == len(genbase_db.table("microarray").to_rows())

    def test_explain_mentions_operators(self, genbase_db):
        text = (
            genbase_db.query("genes")
            .where(col("function") < lit(10))
            .select("gene_id")
            .explain()
        )
        assert "SeqScan" in text and "Filter" in text and "Project" in text

    def test_chain_runs_as_written(self, genbase_db):
        # A fluent chain is not rewritten: the filter written after the join
        # stays above it (cross-join rewrites belong to repro.plan.optimizer).
        lines = (
            genbase_db.query("genes")
            .join(genbase_db.query("microarray"), on=("gene_id", "gene_id"))
            .where(col("function") < lit(10))
            .explain()
            .splitlines()
        )
        assert lines[0].startswith("Filter") and lines[1].startswith("  HashJoin")

    def test_query_count_and_order_by(self, genbase_db):
        query = genbase_db.query("genes").where(col("function") < lit(10))
        assert query.count() == len(query.rows())
        ordered = genbase_db.query("genes").order_by("length", descending=True).rows()
        lengths = [row[3] for row in ordered]
        assert lengths == sorted(lengths, reverse=True)

    def test_group_by_via_query(self, genbase_db):
        rows = (
            genbase_db.query("microarray")
            .group_by(["gene_id"], [("avg", "expression_value", "avg_value")])
            .rows()
        )
        assert len(rows) == genbase_db.table("genes").row_count

    def test_pivot_matches_source_matrix(self, genbase_db, tiny_dataset):
        result = genbase_db.query("microarray").run()
        matrix, row_labels, col_labels = result.pivot(
            "patient_id", "gene_id", "expression_value"
        )
        np.testing.assert_allclose(matrix, tiny_dataset.expression_matrix, atol=1e-12)

    def test_result_set_to_array_and_column(self, genbase_db):
        result = genbase_db.query("genes").select("gene_id", "function").limit(5).run()
        array = result.to_array()
        assert array.shape == (5, 2)
        assert result.column("gene_id") == [int(v) for v in array[:, 0]]


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

    @pytest.mark.parametrize("padding", ["left", "right"])
    def test_fluent_join_answer_is_independent_of_table_sizes(self, right_column,
                                                               padding):
        # The join verb builds on the smaller input; unmatched padding rows
        # make either side the larger one without changing the answer.
        left_rows, right_rows = [(1, 10)], [(1, 7)]
        (left_rows if padding == "left" else right_rows).extend(
            (k, 0) for k in range(100, 110))
        db = _colliding_db(right_column, left_rows, right_rows)
        result = db.query("l").join(db.query("r"), on=("id", "id")).run()
        assert result.schema.names == ("id", "a", "id_right", "a_right")
        assert result.rows == [(1, 10, 1, 7)]


class TestDatabase:
    def test_create_duplicate_and_drop(self):
        db = Database()
        db.create_table("t", [("x", ColumnType.INT)])
        with pytest.raises(ValueError):
            db.create_table("t", [("x", ColumnType.INT)])
        assert "t" in db
        db.drop_table("t")
        assert "t" not in db
        with pytest.raises(KeyError):
            db.drop_table("t")

    def test_describe_and_totals(self, genbase_db, tiny_dataset):
        description = genbase_db.describe()
        assert description["microarray"]["rows"] == tiny_dataset.spec.n_cells
        assert genbase_db.total_rows() > 0
        assert genbase_db.total_bytes() > 0

    def test_unknown_table(self):
        with pytest.raises(KeyError, match="known tables"):
            Database().query("missing")


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
