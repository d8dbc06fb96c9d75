"""Volcano-style physical operators for the row store.

Every operator is an iterator over row tuples that exposes its output
:class:`~repro.relational.schema.Schema`.  Operators compose into pipelines;
blocking operators (hash join build side, sort, aggregation) materialise
their input, streaming operators (scan, filter, project) do not.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.plan.expressions import Expression
from repro.relational.schema import Column, ColumnType, Schema
from repro.relational.table import HeapTable


class Operator:
    """Base class: an iterable of row tuples with a known output schema."""

    output_schema: Schema

    def __iter__(self) -> Iterator[tuple]:
        raise NotImplementedError

    def rows(self) -> list[tuple]:
        """Materialise the operator's full output."""
        return list(self)


class SeqScan(Operator):
    """Sequential scan of a heap table."""

    def __init__(self, table: HeapTable):
        self.table = table
        self.output_schema = table.schema

    def __iter__(self) -> Iterator[tuple]:
        return self.table.scan()


class Filter(Operator):
    """Row-at-a-time selection."""

    def __init__(self, child: Operator, predicate: Expression):
        self.child = child
        self.predicate = predicate
        self.output_schema = child.output_schema
        self._bound = predicate.bind(child.output_schema)

    def __iter__(self) -> Iterator[tuple]:
        bound = self._bound
        for row in self.child:
            if bound(row):
                yield row


class Project(Operator):
    """Projection to a subset (or expression list) of columns."""

    def __init__(self, child: Operator, columns: Sequence[str]):
        self.child = child
        self.columns = list(columns)
        self.output_schema = child.output_schema.project(self.columns)
        self._indices = [child.output_schema.index_of(name) for name in self.columns]

    def __iter__(self) -> Iterator[tuple]:
        indices = self._indices
        for row in self.child:
            yield tuple(row[i] for i in indices)


class HashJoin(Operator):
    """Equi-join implemented as a classic build/probe hash join.

    The smaller input should be the build side; :func:`hash_join` places
    it there whichever side of the join it was written on.
    """

    def __init__(self, build: Operator, probe: Operator,
                 build_key: str, probe_key: str):
        self.build = build
        self.probe = probe
        self.build_key = build_key
        self.probe_key = probe_key
        self.output_schema = build.output_schema.concat(probe.output_schema)
        self._build_index = build.output_schema.index_of(build_key)
        self._probe_index = probe.output_schema.index_of(probe_key)

    def __iter__(self) -> Iterator[tuple]:
        hash_table: dict[object, list[tuple]] = {}
        build_index = self._build_index
        for row in self.build:
            hash_table.setdefault(row[build_index], []).append(row)
        probe_index = self._probe_index
        for row in self.probe:
            matches = hash_table.get(row[probe_index])
            if not matches:
                continue
            for build_row in matches:
                yield build_row + row


class Reorder(Operator):
    """Positional column permutation (no name lookup, so collisions are safe)."""

    def __init__(self, child: Operator, indices: Sequence[int], schema: Schema):
        self.child = child
        self.indices = list(indices)
        self.output_schema = schema

    def __iter__(self) -> Iterator[tuple]:
        indices = self.indices
        for row in self.child:
            yield tuple(row[i] for i in indices)


def hash_join(left: Operator, right: Operator, left_key: str, right_key: str,
              build_left: bool) -> Operator:
    """Hash join whose output is (left columns, right columns) on either build side.

    Building on the right input makes :class:`HashJoin` emit the right
    columns first; they are moved back by position, so a non-key column
    name both inputs share cannot trade values.
    """
    if build_left:
        return HashJoin(left, right, left_key, right_key)
    n_left, n_right = len(left.output_schema), len(right.output_schema)
    return Reorder(
        HashJoin(right, left, right_key, left_key),
        [*range(n_right, n_right + n_left), *range(n_right)],
        left.output_schema.concat(right.output_schema),
    )


class Sort(Operator):
    """Full in-memory sort on one or more key columns."""

    def __init__(self, child: Operator, keys: Sequence[str], descending: bool = False):
        self.child = child
        self.keys = list(keys)
        self.descending = descending
        self.output_schema = child.output_schema
        self._indices = [child.output_schema.index_of(k) for k in self.keys]

    def __iter__(self) -> Iterator[tuple]:
        indices = self._indices
        rows = list(self.child)
        rows.sort(key=lambda row: tuple(row[i] for i in indices), reverse=self.descending)
        return iter(rows)


#: Aggregate function name -> (initial value factory, step, finalise)
_AGGREGATES: dict[str, tuple[Callable, Callable, Callable]] = {
    "count": (lambda: 0, lambda acc, v: acc + 1, lambda acc: acc),
    "sum": (lambda: 0.0, lambda acc, v: acc + v, lambda acc: acc),
    "min": (lambda: None, lambda acc, v: v if acc is None or v < acc else acc, lambda acc: acc),
    "max": (lambda: None, lambda acc, v: v if acc is None or v > acc else acc, lambda acc: acc),
    "avg": (
        lambda: (0.0, 0),
        lambda acc, v: (acc[0] + v, acc[1] + 1),
        lambda acc: acc[0] / acc[1] if acc[1] else None,
    ),
}


class HashAggregate(Operator):
    """Hash-based GROUP BY with the standard SQL aggregates.

    Args:
        child: input operator.
        group_by: grouping column names (may be empty for a global aggregate).
        aggregates: list of ``(function, column, output_name)`` triples where
            ``function`` is one of count/sum/min/max/avg.
    """

    def __init__(self, child: Operator, group_by: Sequence[str],
                 aggregates: Sequence[tuple[str, str, str]]):
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        for function, _, _ in self.aggregates:
            if function not in _AGGREGATES:
                raise ValueError(f"unknown aggregate function {function!r}")

        input_schema = child.output_schema
        self._group_indices = [input_schema.index_of(name) for name in self.group_by]
        self._value_indices = [
            input_schema.index_of(column) if function != "count" or column != "*" else 0
            for function, column, _ in self.aggregates
        ]

        output_columns = [input_schema.column(name) for name in self.group_by]
        for function, _column, output_name in self.aggregates:
            if function == "count":
                output_columns.append(Column(output_name, ColumnType.INT))
            else:
                output_columns.append(Column(output_name, ColumnType.FLOAT))
        self.output_schema = Schema(output_columns)

    def __iter__(self) -> Iterator[tuple]:
        groups: dict[tuple, list] = {}
        specs = [(_AGGREGATES[function], value_index)
                 for (function, _, _), value_index in zip(self.aggregates, self._value_indices, strict=True)]
        group_indices = self._group_indices
        for row in self.child:
            key = tuple(row[i] for i in group_indices)
            state = groups.get(key)
            if state is None:
                state = [initial() for (initial, _, _), _ in specs]
                groups[key] = state
            for position, ((_, step, _), value_index) in enumerate(specs):
                state[position] = step(state[position], row[value_index])
        for key, state in groups.items():
            finals = tuple(
                finalise(state[position])
                for position, ((_, _, finalise), _) in enumerate(specs)
            )
            yield key + finals


def explain(operator: Operator, depth: int = 0) -> str:
    """Render an operator tree as indented text, one operator per line."""
    if isinstance(operator, SeqScan):
        detail = f"{operator.table.name} ({operator.table.row_count} rows)"
    elif isinstance(operator, Filter):
        detail = repr(operator.predicate)
    elif isinstance(operator, Project):
        detail = str(operator.columns)
    elif isinstance(operator, HashJoin):
        detail = f"{operator.build_key} = {operator.probe_key}"
    elif isinstance(operator, HashAggregate):
        detail = f"group_by={operator.group_by} aggs={operator.aggregates}"
    elif isinstance(operator, Sort):
        detail = f"{operator.keys} desc={operator.descending}"
    else:
        detail = ""
    lines = ["  " * depth + f"{type(operator).__name__} {detail}".rstrip()]
    # Instance attributes keep assignment order: build before probe, left
    # before right.
    lines += [explain(value, depth + 1) for value in vars(operator).values()
              if isinstance(value, Operator)]
    return "\n".join(lines)
