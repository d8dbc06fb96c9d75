"""Volcano-style physical operators for the row store.

Every operator is an iterator over row tuples that exposes its output
:class:`~repro.relational.schema.Schema`.  Operators compose into pipelines;
the hash join materialises its build side, the streaming operators (scan,
filter, project) materialise nothing.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.plan.expressions import Expression
from repro.relational.schema import Schema
from repro.relational.table import HeapTable


class Operator:
    """Base class: an iterable of row tuples with a known output schema."""

    output_schema: Schema

    def __iter__(self) -> Iterator[tuple]:
        raise NotImplementedError


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

    The shared plan's left input is the build side and its right input the
    probe, so the output columns are (left, right) and the rows follow the
    right input's order; within one right row the matches follow left
    order.
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
    else:
        detail = ""
    lines = ["  " * depth + f"{type(operator).__name__} {detail}".rstrip()]
    # Instance attributes keep assignment order: build before probe, left
    # before right.
    lines += [explain(value, depth + 1) for value in vars(operator).values()
              if isinstance(value, Operator)]
    return "\n".join(lines)
