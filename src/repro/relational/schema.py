"""Typed schemas for the row-store engine.

A :class:`Schema` is an ordered list of named, typed :class:`Column` objects.
Schemas validate and coerce incoming tuples, resolve column names to
positions for the operators, and know how to combine themselves for joins
and projections.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence


class ColumnType(enum.Enum):
    """The column types the engine supports."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"

    def coerce(self, value):
        """Coerce a Python value to this column type.

        Raises:
            TypeError: if the value cannot be represented in this type.
        """
        if value is None:
            return None
        try:
            if self is ColumnType.INT:
                return int(value)
            if self is ColumnType.FLOAT:
                return float(value)
            if self is ColumnType.BOOL:
                return bool(value)
            return str(value)
        except (TypeError, ValueError) as exc:
            raise TypeError(f"cannot coerce {value!r} to {self.value}") from exc


@dataclass(frozen=True)
class Column:
    """One named, typed column."""

    name: str
    type: ColumnType

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("column name must be non-empty")

    def renamed(self, name: str) -> "Column":
        return Column(name=name, type=self.type)


class Schema:
    """An ordered collection of columns with fast name → index lookup."""

    def __init__(self, columns: Sequence[Column]):
        self._columns = tuple(columns)
        names = [column.name for column in self._columns]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate column names in schema: {duplicates}")
        self._index = {column.name: i for i, column in enumerate(self._columns)}

    # -- basic protocol --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self):
        return iter(self._columns)

    def __eq__(self, other) -> bool:
        return isinstance(other, Schema) and self._columns == other._columns

    def __repr__(self) -> str:
        inner = ", ".join(f"{c.name}:{c.type.value}" for c in self._columns)
        return f"Schema({inner})"

    # -- lookups ---------------------------------------------------------------

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self._columns)

    def index_of(self, name: str) -> int:
        """Return the position of column ``name``.

        Raises:
            KeyError: if the schema has no such column.
        """
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r} in schema with columns {list(self.names)}"
            ) from None

    def column(self, name: str) -> Column:
        return self._columns[self.index_of(name)]

    # -- row handling ----------------------------------------------------------

    def coerce_row(self, row: Sequence) -> tuple:
        """Validate and coerce one row to this schema.

        Raises:
            ValueError: if the row has the wrong arity.
            TypeError: if a value cannot be coerced to its column type.
        """
        if len(row) != len(self._columns):
            raise ValueError(
                f"row has {len(row)} values but schema has {len(self._columns)} columns"
            )
        return tuple(
            column.type.coerce(value) for column, value in zip(self._columns, row, strict=True)
        )

    # -- derivation ------------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Schema":
        """Return a schema containing only ``names``, in the given order."""
        return Schema([self.column(name) for name in names])

    def concat(self, other: "Schema") -> "Schema":
        """Concatenate two schemas (used by joins).

        Columns whose names collide get the suffix ``_right`` on the right
        side, mirroring what most SQL engines do for ``SELECT *`` over a
        join with duplicate names.
        """
        left_names = set(self.names)
        right_columns = []
        for column in other.columns:
            if column.name in left_names:
                right_columns.append(column.renamed(f"{column.name}_right"))
            else:
                right_columns.append(column)
        return Schema(list(self._columns) + right_columns)
