"""A Hive-like relational layer on top of the MapReduce engine.

Tables are lists of tuples with named columns; every relational verb
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
from typing import Sequence

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
    def from_array(cls, name: str, columns: Sequence[str], array: np.ndarray) -> "HiveTable":
        """Build a table from a 2-D numpy array."""
        array = np.asarray(array)
        if array.ndim != 2 or array.shape[1] != len(columns):
            raise ValueError("array shape does not match the column list")
        return cls(name=name, columns=tuple(columns), rows=list(map(tuple, array.tolist())))


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

    def group_by(self, table: HiveTable, key_column: str, value_column: str,
                 aggregate: str = "avg", result_name: str | None = None) -> HiveTable:
        """Group-by aggregation (count/sum/avg/min/max) as one MR job."""
        if aggregate not in ("count", "sum", "avg", "min", "max"):
            raise ValueError(f"unsupported aggregate {aggregate!r}")
        key_index = table.index_of(key_column)
        value_index = table.index_of(value_column)

        def mapper(row):
            yield (row[key_index], float(row[value_index]))

        def combiner(key, values):
            # Pre-aggregate to (sum, count, min, max) partials.
            partials = [value if isinstance(value, tuple) else (value, 1, value, value)
                        for value in values]
            total = sum(p[0] for p in partials)
            count = sum(p[1] for p in partials)
            minimum = min(p[2] for p in partials)
            maximum = max(p[3] for p in partials)
            yield (key, (total, count, minimum, maximum))

        def reducer(key, values):
            partials = [value if isinstance(value, tuple) else (value, 1, value, value)
                        for value in values]
            total = sum(p[0] for p in partials)
            count = sum(p[1] for p in partials)
            minimum = min(p[2] for p in partials)
            maximum = max(p[3] for p in partials)
            if aggregate == "count":
                result = count
            elif aggregate == "sum":
                result = total
            elif aggregate == "avg":
                result = total / count if count else float("nan")
            elif aggregate == "min":
                result = minimum
            else:
                result = maximum
            yield (key, result)

        output = self.engine.run(
            MapReduceJob(
                name=f"groupby({table.name})", mapper=mapper, reducer=reducer, combiner=combiner
            ),
            table.rows,
        )
        return HiveTable(
            name=result_name or f"groupby_{table.name}",
            columns=(key_column, f"{aggregate}_{value_column}"),
            rows=[(key, value) for key, value in output],
        )
