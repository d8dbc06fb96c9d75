"""Fluent query-builder facade over the logical planner.

This is the public query API of the row store::

    rows = (
        db.query("gene_metadata")
          .where(col("function") < lit(250))
          .join(db.query("microarray"), on=("gene_id", "gene_id"))
          .select("patient_id", "gene_id", "expression_value")
          .rows()
    )

Each call builds a logical plan node; ``rows()`` / ``run()`` optimizes the
plan (predicate pushdown, filter merging, join build-side selection) and
executes the resulting Volcano pipeline.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.plan.expressions import Expression
from repro.relational import planner
from repro.relational.operators import Operator
from repro.relational.schema import Schema
from repro.relational.table import HeapTable


def _scanned_tables(node: planner.LogicalNode) -> list[str]:
    """Names of the base tables a plan reads (for error messages)."""
    if isinstance(node, planner.ScanNode):
        return [node.table.name]
    names: list[str] = []
    for child in node.children():
        names.extend(_scanned_tables(child))
    return names


class Query:
    """An immutable builder wrapping a logical plan node."""

    def __init__(self, node: planner.LogicalNode):
        self._node = node

    # -- construction -----------------------------------------------------------

    @classmethod
    def scan(cls, table: HeapTable) -> "Query":
        """Start a query from a base table."""
        return cls(planner.ScanNode(table))

    # -- validation ----------------------------------------------------------------

    def _check_columns(self, names: Sequence[str]) -> None:
        """Raise KeyError naming the column and table(s) for unknown columns.

        Every relational verb validates eagerly, so a typo surfaces at the
        call site instead of deep inside operator binding at execution time
        — mirroring the column store's behaviour.
        """
        available = self._node.output_schema().names
        known = set(available)
        for name in names:
            if name not in known:
                tables = _scanned_tables(self._node) or ["<derived>"]
                raise KeyError(
                    f"no column {name!r} in query over table(s) "
                    f"{', '.join(repr(t) for t in tables)}; has {list(available)}"
                )

    # -- relational verbs ---------------------------------------------------------

    def where(self, predicate: Expression) -> "Query":
        """Filter rows by a predicate expression."""
        self._check_columns(sorted(predicate.columns_referenced()))
        return Query(planner.FilterNode(self._node, predicate))

    def select(self, *columns: str) -> "Query":
        """Project to the named columns."""
        self._check_columns(columns)
        return Query(planner.ProjectNode(self._node, tuple(columns)))

    def join(self, other: "Query", on: tuple[str, str]) -> "Query":
        """Equi-join with another query; ``on`` is (left_key, right_key)."""
        left_key, right_key = on
        self._check_columns([left_key])
        other._check_columns([right_key])
        return Query(planner.JoinNode(self._node, other._node, left_key, right_key))

    def group_by(self, columns: Sequence[str],
                 aggregates: Sequence[tuple[str, str, str]]) -> "Query":
        """Group by ``columns`` computing ``(function, column, output_name)`` aggregates."""
        referenced = list(columns) + [
            column for _function, column, _name in aggregates if column != "*"
        ]
        self._check_columns(referenced)
        return Query(planner.AggregateNode(self._node, tuple(columns), tuple(aggregates)))

    def order_by(self, *keys: str, descending: bool = False) -> "Query":
        """Sort by the given key columns."""
        self._check_columns(keys)
        return Query(planner.SortNode(self._node, tuple(keys), descending))

    def limit(self, n: int) -> "Query":
        """Keep only the first ``n`` rows."""
        return Query(planner.LimitNode(self._node, n))

    # -- execution -----------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The output schema of the query."""
        return self._node.output_schema()

    def logical_plan(self) -> planner.LogicalNode:
        """Return the unoptimized logical plan (for tests/EXPLAIN)."""
        return self._node

    def physical_plan(self) -> Operator:
        """Optimize and lower to a physical operator tree."""
        return planner.optimize(self._node).to_physical()

    def explain(self) -> str:
        """Render the optimized logical plan as text."""
        return str(planner.explain(planner.optimize(self._node)))

    def rows(self) -> list[tuple]:
        """Execute the query and materialise all result rows."""
        return list(self.physical_plan())

    def run(self) -> "QueryResultSet":
        """Execute and wrap the result with its schema."""
        physical = self.physical_plan()
        return QueryResultSet(schema=physical.output_schema, rows=list(physical))

    def count(self) -> int:
        """Execute and count result rows without keeping them."""
        return sum(1 for _ in self.physical_plan())


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
