"""A Hive-like relational layer on top of the MapReduce engine.

Tables are lists of tuples with named columns, each column of the type
it was loaded with (:meth:`HiveTable.from_columns`); every relational verb
compiles to (at least) one MapReduce job, so even a simple filter pays the
map → spill → shuffle → reduce round trip.  That is precisely the cost
structure the paper blames for Hive's slow data management ("Hive has only
rudimentary query optimization").

Predicates are shared-AST expressions (:mod:`repro.plan.expressions`),
compiled to per-row-tuple callables with ``Expression.bind`` — a
:class:`HiveTable` is itself a bindable schema (it has ``index_of``).
Because the predicate is inspectable, :mod:`repro.mapreduce.bridge` can
fuse it into the *map side* of the consuming join job so filtered-out
rows are never serialised into the shuffle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.mapreduce.engine import MapReduceEngine, MapReduceJob
from repro.plan.expressions import Expression


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
        index = self.index_of(column)
        return [row[index] for row in self.rows]

    @classmethod
    def from_columns(cls, name: str, columns: Mapping[str, np.ndarray]) -> "HiveTable":
        """Build a table from named 1-D arrays of equal length.

        Each cell keeps its column's dtype as the matching Python scalar:
        an ``int64`` key column gives ``int`` cells, a ``float64`` value
        column ``float`` cells.
        """
        cells = (np.asarray(values).tolist() for values in columns.values())
        return cls(name=name, columns=tuple(columns), rows=list(zip(*cells, strict=True)))


class HiveSession:
    """Executes relational operations as MapReduce jobs."""

    def __init__(self, engine: MapReduceEngine | None = None):
        self.engine = engine or MapReduceEngine()

    # -- relational verbs ---------------------------------------------------------

    def select(self, table: HiveTable, predicate: Expression,
               result_name: str | None = None) -> HiveTable:
        """Filter rows with a shared-AST expression (one MapReduce job).

        The expression is compiled against the table's schema with
        ``Expression.bind`` and evaluated per row tuple in the map phase.
        """
        columns = table.columns
        bound = predicate.bind(table)

        def mapper(row):
            if bound(row):
                yield (None, row)

        def reducer(_key, values):
            for row in values:
                yield (None, row)

        output = self.engine.run(
            MapReduceJob(name=f"select({table.name})", mapper=mapper, reducer=reducer),
            table.rows,
        )
        return HiveTable(
            name=result_name or f"select_{table.name}",
            columns=columns,
            rows=[value for _, value in output],
        )

    def project(self, table: HiveTable, columns: Sequence[str],
                result_name: str | None = None) -> HiveTable:
        """Keep only the named columns."""
        indices = [table.index_of(name) for name in columns]

        def mapper(row):
            yield (None, tuple(row[i] for i in indices))

        def reducer(_key, values):
            for row in values:
                yield (None, row)

        output = self.engine.run(
            MapReduceJob(name=f"project({table.name})", mapper=mapper, reducer=reducer),
            table.rows,
        )
        return HiveTable(
            name=result_name or f"project_{table.name}",
            columns=tuple(columns),
            rows=[value for _, value in output],
        )

    def join(self, left: HiveTable, right: HiveTable, left_key: str, right_key: str,
             result_name: str | None = None) -> HiveTable:
        """Reduce-side equi-join: both inputs are tagged, shuffled on the key,
        and the cartesian product within each key group is emitted."""
        left_index = left.index_of(left_key)
        right_index = right.index_of(right_key)

        def mapper(tagged_row):
            tag, row = tagged_row
            key = row[left_index] if tag == "L" else row[right_index]
            yield (key, (tag, row))

        def reducer(_key, values):
            left_rows = [row for tag, row in values if tag == "L"]
            right_rows = [row for tag, row in values if tag == "R"]
            for left_row in left_rows:
                for right_row in right_rows:
                    yield (None, left_row + right_row)

        tagged_input = [("L", row) for row in left.rows] + [("R", row) for row in right.rows]
        output = self.engine.run(
            MapReduceJob(name=f"join({left.name},{right.name})", mapper=mapper, reducer=reducer),
            tagged_input,
        )

        right_columns = []
        used = set(left.columns)
        for column in right.columns:
            name = column if column not in used else f"{column}_right"
            right_columns.append(name)
            used.add(name)
        return HiveTable(
            name=result_name or f"join_{left.name}_{right.name}",
            columns=left.columns + tuple(right_columns),
            rows=[value for _, value in output],
        )
