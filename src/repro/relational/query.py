"""Fluent query-builder facade over the Volcano operators.

This is the public query API of the row store::

    rows = (
        db.query("gene_metadata")
          .where(col("function") < lit(250))
          .join(db.query("microarray"), on=("gene_id", "gene_id"))
          .select("patient_id", "gene_id", "expression_value")
          .rows()
    )

Each verb wraps one operator from :mod:`repro.relational.operators`
around the chain so far, and ``rows()`` / ``run()`` iterate the pipeline.
A chain runs *as written* — like ``HiveSession``, ``DataFrame`` and the
array operators: the only decision taken here is which join input builds
the hash table (the smaller crude row estimate).  Rewrites across a join
(predicate pushdown, projection pruning) belong to
:mod:`repro.plan.optimizer` and reach the row store through
:func:`repro.relational.bridge.run_shared_plan`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.plan.expressions import Expression, split_conjuncts
from repro.plan.optimizer import classify, estimate_selectivity
from repro.relational import operators as ops
from repro.relational.schema import Schema
from repro.relational.table import HeapTable


class Query:
    """An immutable builder wrapping an operator tree."""

    def __init__(self, operator: ops.Operator, estimated_rows: int,
                 tables: tuple[str, ...]):
        self._operator = operator
        self._estimated_rows = estimated_rows  # crude; picks the join build side
        self._tables = tables  # scanned base tables, for error messages

    # -- construction -----------------------------------------------------------

    @classmethod
    def scan(cls, table: HeapTable) -> "Query":
        """Start a query from a base table."""
        return cls(ops.SeqScan(table), table.row_count, (table.name,))

    # -- validation ----------------------------------------------------------------

    def _check_columns(self, names: Sequence[str]) -> None:
        """Raise KeyError naming the column and table(s) for unknown columns.

        Every relational verb validates eagerly, so a typo surfaces at the
        call site instead of deep inside operator binding — mirroring the
        column store's behaviour.
        """
        available = self.schema.names
        known = set(available)
        for name in names:
            if name not in known:
                raise KeyError(
                    f"no column {name!r} in query over table(s) "
                    f"{', '.join(repr(t) for t in self._tables)}; has {list(available)}"
                )

    # -- relational verbs ---------------------------------------------------------

    def where(self, predicate: Expression) -> "Query":
        """Filter rows by a predicate expression."""
        self._check_columns(sorted(predicate.columns_referenced()))
        # Structural estimate through the shared classifier: each conjunct
        # contributes its shape's selectivity (equality 1/10, membership
        # k/10, range/opaque the textbook 1/3) — the row store keeps no
        # per-column statistics, but the predicate's *shape* is free.
        fraction = 1.0
        for conjunct in split_conjuncts(predicate):
            fraction *= estimate_selectivity(classify(conjunct), None)
        return Query(ops.Filter(self._operator, predicate),
                     max(1, int(self._estimated_rows * fraction)), self._tables)

    def select(self, *columns: str) -> "Query":
        """Project to the named columns."""
        self._check_columns(columns)
        return Query(ops.Project(self._operator, columns), self._estimated_rows,
                     self._tables)

    def join(self, other: "Query", on: tuple[str, str]) -> "Query":
        """Equi-join with another query; ``on`` is (left_key, right_key)."""
        left_key, right_key = on
        self._check_columns([left_key])
        other._check_columns([right_key])
        joined = ops.hash_join(
            self._operator, other._operator, left_key, right_key,
            build_left=self._estimated_rows <= other._estimated_rows,
        )
        # Assume a foreign-key style join: output ~= the larger input.
        return Query(joined, max(self._estimated_rows, other._estimated_rows),
                     self._tables + other._tables)

    def group_by(self, columns: Sequence[str],
                 aggregates: Sequence[tuple[str, str, str]]) -> "Query":
        """Group by ``columns`` computing ``(function, column, output_name)`` aggregates."""
        referenced = list(columns) + [
            column for _function, column, _name in aggregates if column != "*"
        ]
        self._check_columns(referenced)
        return Query(ops.HashAggregate(self._operator, columns, aggregates),
                     max(1, self._estimated_rows // 10), self._tables)

    def order_by(self, *keys: str, descending: bool = False) -> "Query":
        """Sort by the given key columns."""
        self._check_columns(keys)
        return Query(ops.Sort(self._operator, keys, descending=descending),
                     self._estimated_rows, self._tables)

    def limit(self, n: int) -> "Query":
        """Keep only the first ``n`` rows."""
        return Query(ops.Limit(self._operator, n), min(n, self._estimated_rows),
                     self._tables)

    # -- execution -----------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The output schema of the query."""
        return self._operator.output_schema

    def explain(self) -> str:
        """Render the operator tree as text."""
        return ops.explain(self._operator)

    def rows(self) -> list[tuple]:
        """Execute the query and materialise all result rows."""
        return list(self._operator)

    def run(self) -> "QueryResultSet":
        """Execute and wrap the result with its schema."""
        return QueryResultSet(schema=self.schema, rows=self.rows())

    def count(self) -> int:
        """Execute and count result rows without keeping them."""
        return sum(1 for _ in self._operator)


class QueryResultSet:
    """Materialised query output: schema + row tuples."""

    def __init__(self, schema: Schema, rows: list[tuple]):
        self.schema = schema
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    @property
    def rows(self) -> list[tuple]:
        return self._rows

    def column(self, name: str) -> list:
        """Extract one output column as a Python list."""
        index = self.schema.index_of(name)
        return [row[index] for row in self._rows]

    def to_array(self, columns: Sequence[str] | None = None) -> np.ndarray:
        """Convert (a projection of) the result to a float numpy array.

        This is the "restructure the information as a matrix" step the
        GenBase queries call for when the engine is relational.
        """
        if columns is None:
            columns = list(self.schema.names)
        indices = [self.schema.index_of(name) for name in columns]
        if not self._rows:
            return np.empty((0, len(indices)))
        return np.asarray(
            [[row[i] for i in indices] for row in self._rows], dtype=np.float64
        )

    def pivot(self, row_key: str, column_key: str, value: str) -> tuple[np.ndarray, list, list]:
        """Pivot a long-format result into a dense matrix.

        Args:
            row_key: column whose distinct values index matrix rows.
            column_key: column whose distinct values index matrix columns.
            value: column providing cell values.

        Returns:
            ``(matrix, row_labels, column_labels)`` with labels in first-seen
            order; missing combinations are filled with 0.0.
        """
        row_index = self.schema.index_of(row_key)
        column_index = self.schema.index_of(column_key)
        value_index = self.schema.index_of(value)

        row_labels: dict[object, int] = {}
        column_labels: dict[object, int] = {}
        triples = []
        for row in self._rows:
            r = row[row_index]
            c = row[column_index]
            if r not in row_labels:
                row_labels[r] = len(row_labels)
            if c not in column_labels:
                column_labels[c] = len(column_labels)
            triples.append((row_labels[r], column_labels[c], row[value_index]))

        matrix = np.zeros((len(row_labels), len(column_labels)), dtype=np.float64)
        for r, c, v in triples:
            matrix[r, c] = v
        return matrix, list(row_labels), list(column_labels)
