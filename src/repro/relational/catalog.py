"""The database catalog: named heap tables."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.relational.schema import Column, ColumnType, Schema
from repro.relational.table import HeapTable


class Database:
    """A single-node row-store database: a catalog of heap tables."""

    def __init__(self, name: str = "genbase"):
        self.name = name
        self._tables: dict[str, HeapTable] = {}

    # -- catalog management -------------------------------------------------------

    def create_table(self, name: str, columns: Sequence[tuple[str, ColumnType]]) -> HeapTable:
        """Create a new table.

        Raises:
            ValueError: if the table already exists.
        """
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        schema = Schema([Column(column_name, column_type) for column_name, column_type in columns])
        table = HeapTable(name, schema)
        self._tables[name] = table
        return table

    def table(self, name: str) -> HeapTable:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            known = ", ".join(sorted(self._tables)) or "<none>"
            raise KeyError(f"no table named {name!r}; known tables: {known}") from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    # -- data loading ---------------------------------------------------------------

    def insert(self, table_name: str, rows: Iterable[Sequence]) -> int:
        """Insert rows into an existing table; returns the count inserted."""
        return self.table(table_name).insert_many(rows)

    def load_array(self, table_name: str, array: np.ndarray) -> int:
        """Bulk load a numpy array whose columns match the table schema."""
        return self.table(table_name).load_array(array)

    # -- stats --------------------------------------------------------------------------

    def total_rows(self) -> int:
        return sum(table.row_count for table in self._tables.values())

    def total_bytes(self) -> int:
        return sum(table.size_bytes for table in self._tables.values())

    def describe(self) -> dict[str, dict]:
        """Summarise every table (row count, pages, bytes)."""
        return {
            name: {
                "rows": table.row_count,
                "pages": table.page_count,
                "bytes": table.size_bytes,
                "columns": list(table.schema.names),
            }
            for name, table in sorted(self._tables.items())
        }
