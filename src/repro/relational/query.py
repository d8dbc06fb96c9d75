"""Materialised row-store query results.

The row store runs shared plans (:mod:`repro.plan`) through
:func:`repro.relational.bridge.run_shared_plan`, which returns a
:class:`QueryResultSet` for a relational-algebra plan and pivots one for a
``Pivot`` terminal.
"""

from __future__ import annotations

import numpy as np

from repro.relational.schema import Schema


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
