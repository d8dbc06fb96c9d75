"""Tests for the row-store relational engine."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engines import make_engine
from repro.core.queries import dataset_tables
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
    Filter as PlanFilter,
    Join,
    Pivot,
    Project as PlanProject,
    Scan,
    optimize,
)
from repro.relational.bridge import RelationalBackend, run_shared_plan
from repro.relational.operators import (
    Filter,
    HashJoin,
    Operator,
    Project,
    SeqScan,
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
    db.load_array("genes", np.column_stack(list(dataset_tables(tiny_dataset)["genes"].values())))
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


# The heap row format by definition, one column at a time: the reference
# the row store's per-schema codec must match byte for byte and row for row.
_LENGTH = struct.Struct("<I")
_FIXED = {
    ColumnType.INT: struct.Struct("<q"),
    ColumnType.FLOAT: struct.Struct("<d"),
    ColumnType.BOOL: struct.Struct("<?"),
}


def _pack_row(row, schema: Schema) -> bytes:
    parts = []
    null_bitmap = 0
    for index, (_column, value) in enumerate(zip(schema.columns, row, strict=True)):
        if value is None:
            null_bitmap |= 1 << index
    parts.append(_LENGTH.pack(null_bitmap))
    for column, value in zip(schema.columns, row, strict=True):
        if value is None:
            continue
        if column.type is ColumnType.STRING:
            encoded = str(value).encode("utf-8")
            parts.append(_LENGTH.pack(len(encoded)))
            parts.append(encoded)
        else:
            parts.append(_FIXED[column.type].pack(value))
    return b"".join(parts)


def _unpack_row(buffer: bytes, offset: int, schema: Schema) -> tuple[tuple, int]:
    (null_bitmap,) = _LENGTH.unpack_from(buffer, offset)
    offset += _LENGTH.size
    values = []
    for index, column in enumerate(schema.columns):
        if null_bitmap & (1 << index):
            values.append(None)
            continue
        if column.type is ColumnType.STRING:
            (length,) = _LENGTH.unpack_from(buffer, offset)
            offset += _LENGTH.size
            values.append(buffer[offset:offset + length].decode("utf-8"))
            offset += length
        else:
            codec = _FIXED[column.type]
            (value,) = codec.unpack_from(buffer, offset)
            offset += codec.size
            values.append(value)
    return tuple(values), offset


def _oracle_rows(page: Page, schema: Schema) -> list[tuple]:
    """Every row of ``page`` as ``_unpack_row`` decodes its byte image."""
    buffer = page.to_bytes()
    (count,) = _LENGTH.unpack_from(buffer, 0)
    cursor = _LENGTH.size * (1 + count)
    rows = []
    for _ in range(count):
        row, cursor = _unpack_row(buffer, cursor, schema)
        rows.append(row)
    assert cursor == len(buffer)
    return rows


def _oracle_image(rows, schema: Schema) -> bytes:
    """A page holding ``rows``, laid out from ``_pack_row``'s payloads."""
    payloads = [_pack_row(row, schema) for row in rows]
    offsets, cursor = [], _LENGTH.size * (1 + len(payloads))
    for payload in payloads:
        offsets.append(_LENGTH.pack(cursor))
        cursor += len(payload)
    return b"".join([_LENGTH.pack(len(payloads)), *offsets, *payloads])


def _assert_heap_matches_oracle(table: HeapTable) -> None:
    pages = table._heap._pages
    assert list(SeqScan(table)) == [row for page in pages
                                    for row in _oracle_rows(page, table.schema)]
    for page in pages:
        assert page.to_bytes() == _oracle_image(list(page.rows()), table.schema)


_NULLABLE_ROWS = [(1, "hello", True, 0.5), (2, None, False, None), (None, "", None, -0.0),
                  (None, None, None, None), (-(2**63), "\u00e9t\u00e9", True, float("inf"))]


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

    def test_rescan_after_insert_sees_the_new_row(self):
        schema = _schema([("id", ColumnType.INT), ("v", ColumnType.FLOAT)])
        page = Page(schema)
        for row in [(1, 0.5), (2, None), (3, 1.5)]:
            assert page.try_insert(row)
        assert list(page.rows()) == [(1, 0.5), (2, None), (3, 1.5)]
        assert page.try_insert((4, 2.5))
        assert list(page.rows()) == [(1, 0.5), (2, None), (3, 1.5), (4, 2.5)]
        fresh = Page(schema)
        for row in [(1, 0.5), (2, None), (3, 1.5), (4, 2.5)]:
            fresh.try_insert(row)
        assert page.to_bytes() == fresh.to_bytes()
        assert page.to_bytes() == _oracle_image(list(fresh.rows()), schema)

    @pytest.mark.parametrize("second", [ColumnType.STRING, ColumnType.INT],
                             ids=["with-string", "fixed-width"])
    def test_nulls_strings_and_bools_match_the_oracle(self, second):
        schema = _schema([("a", ColumnType.INT), ("b", second),
                          ("c", ColumnType.BOOL), ("d", ColumnType.FLOAT)])
        table = HeapTable("t", schema, page_size=96)
        for row in _NULLABLE_ROWS * 4:
            if second is ColumnType.INT and isinstance(row[1], str):
                row = (row[0], len(row[1]), *row[2:])
            table.insert(row)
        assert table.page_count > 1
        _assert_heap_matches_oracle(table)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_schema_matches_the_oracle(self, data):
        types = data.draw(st.lists(st.sampled_from(list(ColumnType)), min_size=1, max_size=5))
        values = {
            ColumnType.INT: st.integers(-(2**63), 2**63 - 1),
            ColumnType.FLOAT: st.floats(allow_nan=False),
            ColumnType.STRING: st.text(max_size=6),
            ColumnType.BOOL: st.booleans(),
        }
        rows = data.draw(st.lists(st.tuples(*[st.none() | values[t] for t in types]),
                                  max_size=40))
        schema = _schema([(f"c{i}", t) for i, t in enumerate(types)])
        table = HeapTable("t", schema, page_size=128)
        table.insert_many(rows)
        assert list(table.scan()) == rows
        _assert_heap_matches_oracle(table)

    def test_every_tiny_table_scans_as_the_oracle_decodes(self, tiny_dataset):
        engine = make_engine("postgres-madlib")
        engine.load(tiny_dataset)
        names = engine.db.table_names()
        assert {"microarray", "patients", "genes", "ontology"} <= set(names)
        for name in names:
            _assert_heap_matches_oracle(engine.db.table(name))


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
        bonuses = RowSource([(1, 10.0)], _schema([("person_id", ColumnType.INT),
                                                  ("bonus", ColumnType.FLOAT)]))
        plan = Project(
            HashJoin(bonuses, Filter(SeqScan(people_table), col("score") > lit(1.5)),
                     "person_id", "id"),
            ["name", "bonus"])
        assert explain(plan).splitlines() == [
            "Project ['name', 'bonus']",
            "  HashJoin person_id = id",
            "    RowSource",
            "    Filter (col('score') > lit(1.5))",
            "      SeqScan people (4 rows)",
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
        Pivot(Scan("microarray"), "patient_id", "gene_id", "missing"),
    ], ids=["filter", "project", "join-left-key", "join-right-key",
            "pivot-value"])
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
        # Madlib has no biclustering, so neither does its registry.
        assert set(registry.names()) == {"linear_regression", "covariance", "svd",
                                         "enrichment"}
        matrix = rng.random((20, 4))
        cov = registry.call("covariance", matrix)
        np.testing.assert_allclose(cov, np.cov(matrix, rowvar=False), atol=1e-10)

    def test_madlib_svd_is_interpreted_but_correct(self, rng):
        registry = default_madlib_registry()
        matrix = rng.random((12, 5))
        values = registry.call("svd", matrix, 2)
        reference = np.linalg.svd(matrix, compute_uv=False)[:2]
        np.testing.assert_allclose(values, reference, rtol=1e-2)
        assert registry.get("svd").tier == "interpreted"
