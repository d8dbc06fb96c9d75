"""Hive tables: the relations the MapReduce stack reads and writes.

Tables are lists of tuples with named columns, each column of the type it
was loaded with (:meth:`HiveTable.from_columns`).  The relational verbs
live in one place, :mod:`repro.mapreduce.bridge`, which lowers a shared
logical plan onto MapReduce jobs: a join is a reduce-side job that pays
the map → spill → shuffle → reduce round trip, while a filter or
projection runs map-only, as Hive runs a ``SELECT … WHERE`` with no join.
Chaining those jobs, with no cost-based choices between them, is the cost
structure the paper blames for Hive's slow data management ("Hive has
only rudimentary query optimization").

Predicates are shared-AST expressions (:mod:`repro.plan.expressions`),
compiled to per-row-tuple callables with ``Expression.bind`` — a
:class:`HiveTable` is itself a bindable schema (it has ``index_of``).
Because the predicate is inspectable, the bridge can fuse it into the
*map side* of the consuming join job so filtered-out rows are never
serialised into the shuffle.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping

import numpy as np


@dataclass
class HiveTable:
    """A named table: column names plus row tuples."""

    name: str
    columns: tuple[str, ...]
    rows: list[tuple]

    def __post_init__(self) -> None:
        self.columns = tuple(self.columns)
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column names")

    def __len__(self) -> int:
        return len(self.rows)

    def index_of(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise KeyError(
                f"no column {column!r} in table {self.name!r}; has {list(self.columns)}"
            ) from None

    def column_values(self, column: str) -> list:
        return list(map(itemgetter(self.index_of(column)), self.rows))

    @classmethod
    def from_columns(cls, name: str, columns: Mapping[str, np.ndarray]) -> "HiveTable":
        """Build a table from named 1-D arrays of equal length.

        Each cell keeps its column's dtype as the matching Python scalar:
        an ``int64`` key column gives ``int`` cells, a ``float64`` value
        column ``float`` cells.
        """
        cells = (np.asarray(values).tolist() for values in columns.values())
        return cls(name=name, columns=tuple(columns), rows=list(zip(*cells, strict=True)))
