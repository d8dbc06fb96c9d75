"""Column tables: named collections of aligned column vectors."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.colstore.column import ColumnVector


class ColumnTable:
    """A table stored column-by-column.

    Unlike the row store there is no per-row object at rest; rows only come
    into existence when a query's output is materialised.
    """

    def __init__(self, name: str, columns: Sequence[ColumnVector]):
        if not name:
            raise ValueError("table name must be non-empty")
        if not columns:
            raise ValueError("a table needs at least one column")
        lengths = {len(column) for column in columns}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {sorted(lengths)}")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names")
        self.name = name
        self._columns = {column.name: column for column in columns}
        self._order = list(names)

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_arrays(cls, name: str, arrays: Mapping[str, np.ndarray],
                    compress: bool = True) -> "ColumnTable":
        """Build a table from a mapping of column name → numpy array."""
        columns = [ColumnVector(column_name, values, compress=compress)
                   for column_name, values in arrays.items()]
        return cls(name, columns)

    # -- metadata -----------------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        return list(self._order)

    @property
    def row_count(self) -> int:
        return len(self._columns[self._order[0]])

    def __len__(self) -> int:
        return self.row_count

    @property
    def compressed_bytes(self) -> int:
        return sum(column.encoded_bytes for column in self._columns.values())

    def encodings(self) -> dict[str, str]:
        """Report which encoding each column chose (useful for tests/docs)."""
        return {name: self._columns[name].encoding_name for name in self._order}

    def __repr__(self) -> str:
        return (
            f"ColumnTable({self.name!r}, rows={self.row_count}, "
            f"columns={self.column_names})"
        )

    # -- access --------------------------------------------------------------------

    def column(self, name: str) -> ColumnVector:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r} in table {self.name!r}; has {self._order}"
            ) from None

    def values(self, name: str) -> np.ndarray:
        """Decode one column fully."""
        return self.column(name).values()

    def gather(self, names: Sequence[str], indices: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Materialise the named columns, optionally restricted to ``indices``."""
        result = {}
        for name in names:
            column = self.column(name)
            result[name] = column.values() if indices is None else column.take(indices)
        return result
