"""Heap-backed tables for the row store."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.relational.schema import Schema
from repro.relational.storage import DEFAULT_PAGE_SIZE, HeapFile


class HeapTable:
    """A named table stored in a slotted-page heap file.

    Rows are type-checked and coerced against the table's schema on insert
    and deserialised on every scan — the per-tuple cost profile of a classic
    row store.
    """

    def __init__(self, name: str, schema: Schema, page_size: int = DEFAULT_PAGE_SIZE):
        if not name:
            raise ValueError("table name must be non-empty")
        self.name = name
        self.schema = schema
        self._heap = HeapFile(schema, page_size=page_size)

    # -- stats -----------------------------------------------------------------

    def __len__(self) -> int:
        return self._heap.row_count

    @property
    def row_count(self) -> int:
        return self._heap.row_count

    @property
    def page_count(self) -> int:
        return self._heap.page_count

    def __repr__(self) -> str:
        return f"HeapTable({self.name!r}, rows={self.row_count}, pages={self.page_count})"

    # -- mutation ----------------------------------------------------------------

    def insert(self, row: Sequence) -> None:
        """Insert one row (coerced against the schema)."""
        self._heap.insert(self.schema.coerce_row(row))

    def insert_many(self, rows: Iterable[Sequence]) -> int:
        """Bulk insert; returns the number of rows inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def load_array(self, array: np.ndarray) -> int:
        """Bulk load a 2-D numpy array whose columns match the schema order.

        Values are converted per the schema (so integer-typed columns stored
        as floats in the generator output are narrowed correctly).
        """
        array = np.asarray(array)
        if array.ndim != 2 or array.shape[1] != len(self.schema):
            raise ValueError(
                f"array of shape {array.shape} does not match schema of "
                f"{len(self.schema)} columns"
            )
        return self.insert_many(map(tuple, array.tolist()))

    # -- access ------------------------------------------------------------------

    def scan(self) -> Iterator[tuple]:
        """Sequential scan over all rows."""
        return self._heap.scan()

    def column_values(self, name: str) -> list:
        """Materialise a single column (used by tests and loaders)."""
        index = self.schema.index_of(name)
        return [row[index] for row in self.scan()]
