"""Execute shared logical plans (:mod:`repro.plan`) on the MapReduce stack.

This is the Hadoop-family counterpart of
:func:`repro.colstore.planner.run_plan` and
:func:`repro.relational.bridge.run_shared_plan`: the *same* plan objects
built in :mod:`repro.core.queries` lower onto Hive tables and MapReduce
jobs.

It is the stack's only lowering, and it has two job shapes.  A
join — under an optional projection — is one **reduce-side join job**;
any other subtree is a Filter/Project chain, collapsed into one
**map-only job** (or none, when it passes its input through), as Hive
runs a ``SELECT … WHERE`` with no join.

The payoff of declarative predicates is **filter-before-shuffle**.  An
expression is compiled to a row-tuple callable (``Expression.bind``
against the :class:`~repro.mapreduce.hive.HiveTable` schema) and fused
into the **map phase of the join job itself**, together with the pruned
projection and the final SELECT list.  Rows that fail the predicate — and
columns the plan never reads — are dropped *before* the spill, so they
cross neither the serialisation boundary nor the shuffle: the shuffled
bytes track the plan's selectivity instead of the base table size.

The optimizer runs with the default profile: predicate pushdown and
projection pruning make the map-side fusion possible, and conjuncts run in
written order, matching the paper's "Hive has only rudimentary query
optimization".

>>> import numpy as np
>>> from repro.mapreduce import HiveTable, MapReduceEngine
>>> from repro.plan import Filter, Join, Project, Scan, col
>>> engine = MapReduceEngine()
>>> tables = {
...     "genes": HiveTable("genes", ("gene_id", "function"),
...                        [(0, 9.0), (1, 42.0), (2, 7.0)]),
...     "micro": HiveTable("micro", ("gene_id", "value"),
...                        [(0, 1.5), (1, 2.5), (2, 3.5)]),
... }
>>> plan = Project(Filter(Join(Scan("genes"), Scan("micro"),
...                            "gene_id", "gene_id"),
...                       col("function") < 10),
...                ("gene_id", "value"))
>>> run_shared_plan(plan, tables, engine).rows
[(0, 1.5), (2, 3.5)]
>>> [job.name for job in engine.history]
['shared_join(genes,micro)']
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from repro.mapreduce.engine import MapReduceEngine, MapReduceJob
from repro.mapreduce.hive import HiveTable
from repro.plan import logical
from repro.plan.expressions import Expression, and_, literal_dtype
from repro.plan.execute import Backend, execute
from repro.plan.observe import PlanObservation
from repro.plan.optimizer import SchemaCatalog


def _catalog(tables: dict[str, HiveTable]) -> SchemaCatalog:
    """Snapshot the Hive tables' schemas for the optimizer.

    The engines load Hive tables with :meth:`HiveTable.from_columns`, which
    keeps each column's dtype, so the first row's cells give every
    column's dtype exactly.
    """
    return SchemaCatalog(
        {name: {column: literal_dtype(table.rows[0][index]) if table.rows else None
                for index, column in enumerate(table.columns)}
         for name, table in tables.items()})


def _projector(indices: Sequence[int]) -> Callable[[tuple], tuple]:
    """``row -> tuple(row[i] for i in indices)`` as one C-level call.

    ``itemgetter`` of one index returns the bare cell, so zero and one
    columns read a slice, which keeps the result a tuple:

    >>> _projector([2, 0, 0])(("a", "b", "c"))
    ('c', 'a', 'a')
    >>> _projector([1])(("a", "b", "c"))
    ('b',)
    >>> _projector([])(("a", "b", "c"))
    ()
    """
    if len(indices) > 1:
        return itemgetter(*indices)
    start = indices[0] if indices else 0
    return itemgetter(slice(start, start + len(indices)))


@dataclass
class _Stage:
    """A Filter*/Project* chain over one input table, ready for map-side fusion.

    ``predicate`` is the chain's filters as one conjunction bound against
    the *input* table's schema (None when the chain filters nothing).  It
    is applied to the raw row before ``columns`` (the pruned output) is
    projected — both inside the mapper of whichever job consumes the
    stage: a join's, or the stage's own map-only job.
    """

    table: HiveTable
    predicate: Callable[[tuple], object] | None
    columns: tuple[str, ...]

    def indices(self) -> list[int]:
        return [self.table.index_of(name) for name in self.columns]


def _chain(node: logical.PlanNode):
    """Peel a Filter/Project chain: ``(predicates, projection, node under it)``.

    ``projection`` is the outermost one (the chain's output columns), or
    None when the chain projects nothing.
    """
    predicates: list[Expression] = []
    projection: tuple[str, ...] | None = None
    while isinstance(node, (logical.Filter, logical.Project)):
        if isinstance(node, logical.Filter):
            predicates.append(node.predicate)
        elif projection is None:
            projection = node.columns
        node = node.child
    return predicates, projection, node


def _table(tables: dict[str, HiveTable], name: str) -> HiveTable:
    table = tables.get(name)
    if table is None:
        raise KeyError(f"no table named {name!r}; have {sorted(tables)}")
    return table


def run_shared_plan(plan: logical.PlanNode, tables: dict[str, HiveTable],
                    engine: MapReduceEngine, optimized: bool = True,
                    observation: PlanObservation | None = None):
    """Execute a shared logical plan as MapReduce jobs.

    A call into the shared driver (:func:`repro.plan.execute.execute`);
    the engine's job history counts the shuffle.  Relational-algebra plans
    return a materialised :class:`HiveTable` and
    :class:`~repro.plan.logical.Pivot` returns ``(matrix, row_labels,
    column_labels)`` with sorted labels — the shared executor contract.
    An exact :class:`~repro.plan.logical.Aggregate` raises ``TypeError``:
    no GenBase query sends one to Hive.
    The pivot itself runs driver-side (as the benchmark's Hadoop
    configuration does): the long-format join output is gathered and
    scattered into the dense matrix outside MapReduce.

    Args:
        plan: the shared logical plan tree.
        tables: scan name → :class:`HiveTable`.
        engine: the MapReduce engine that runs (and counts) the jobs.
        optimized: run the shared optimizer first (pass False to lower the
            plan exactly as written).
        observation: optional :class:`~repro.plan.observe.PlanObservation`
            filled with the observed output cardinality.
    """
    return execute(plan, HiveBackend(tables, engine), optimized, observation)


class HiveBackend(Backend):
    """The Hive tables behind the shared driver, for one plan execution."""

    engine = "hadoop"

    def __init__(self, tables: dict[str, HiveTable], engine: MapReduceEngine):
        self.tables = tables
        self.mr_engine = engine
        self.catalog = _catalog(tables)

    def lower(self, node: logical.PlanNode) -> HiveTable:
        """Lower a relational-algebra subtree onto MapReduce jobs.

        A join, under an optional projection, is one reduce-side job; any
        other subtree is a Filter/Project chain, one map-only job.
        """
        if isinstance(node, logical.Project) and isinstance(node.child, logical.Join):
            return _join(node.child, self, output_columns=node.columns)
        if isinstance(node, logical.Join):
            return _join(node, self)
        return _materialise_stage(self._stage(node), self.mr_engine)

    def _stage(self, node: logical.PlanNode) -> _Stage:
        """Collapse a Filter/Project chain over a scan or a (lowered) join."""
        predicates, projection, under = _chain(node)
        if isinstance(under, logical.Scan):
            table = _table(self.tables, under.table)
        elif isinstance(under, logical.Join):
            table = _join(under, self)
        else:
            raise TypeError(
                f"cannot execute plan node {type(under).__name__} on the MapReduce stack"
            )
        predicate = and_(*predicates).bind(table).function if predicates else None
        return _Stage(table, predicate, projection or table.columns)

    def pivot(self, table: HiveTable, plan: logical.Pivot):
        return driver_pivot(table, plan.row_key, plan.column_key, plan.value)


def _materialise_stage(stage: _Stage, engine: MapReduceEngine) -> HiveTable:
    """Run a stand-alone stage as one map-only job; a pass-through runs none."""
    if stage.predicate is None and stage.columns == stage.table.columns:
        return stage.table
    predicate, project = stage.predicate, _projector(stage.indices())

    def mapper(row):
        if predicate is None or predicate(row):
            return ((None, project(row)),)
        return ()

    output = engine.run(
        MapReduceJob(name=f"scan({stage.table.name})", mapper=mapper),
        stage.table.rows,
    )
    return HiveTable(
        name=f"scan_{stage.table.name}",
        columns=stage.columns,
        rows=[value for _, value in output],
    )


def _join(node: logical.Join, backend: HiveBackend,
          output_columns: tuple[str, ...] | None = None) -> HiveTable:
    """One reduce-side join job with both inputs' filters fused map-side.

    The mapper applies each side's bound predicate to the raw row and
    emits only the side's pruned columns, so dropped rows and columns
    never reach the spill/shuffle.  The reducer emits the shared output
    convention — left columns, then right columns minus the right key —
    reordered to ``output_columns`` when a projection sits directly above
    the join (the final SELECT list is fused too, sparing a map-only job).
    """
    left, right = backend._stage(node.left), backend._stage(node.right)
    left_key = left.table.index_of(node.left_key)
    right_key = right.table.index_of(node.right_key)
    joined_columns = list(left.columns) + [
        name for name in right.columns if name != node.right_key
    ]
    if len(set(joined_columns)) != len(joined_columns):
        raise ValueError(
            f"join output columns collide: {joined_columns}; project the "
            "inputs apart first"
        )
    if output_columns is None:
        output_columns = tuple(joined_columns)
    missing = set(output_columns) - set(joined_columns)
    if missing:
        raise KeyError(
            f"no column {sorted(missing)[0]!r} in join output {joined_columns}"
        )
    select = _projector([joined_columns.index(name) for name in output_columns])
    left_predicate, right_predicate = left.predicate, right.predicate
    left_payload = _projector(left.indices())
    right_payload = _projector([i for i, name in zip(right.indices(), right.columns, strict=True)
                                if name != node.right_key])

    def mapper(tagged_row):
        tag, row = tagged_row
        if tag == "L":
            if left_predicate is None or left_predicate(row):
                return ((row[left_key], (tag, left_payload(row))),)
        elif right_predicate is None or right_predicate(row):
            return ((row[right_key], (tag, right_payload(row))),)
        return ()

    def reducer(_key, values):
        left_rows = [row for tag, row in values if tag == "L"]
        right_rows = [row for tag, row in values if tag == "R"]
        return [(None, select(left_row + right_row))
                for left_row in left_rows for right_row in right_rows]

    tagged = ([("L", row) for row in left.table.rows]
              + [("R", row) for row in right.table.rows])
    output = backend.mr_engine.run(
        MapReduceJob(
            name=f"shared_join({left.table.name},{right.table.name})",
            mapper=mapper,
            reducer=reducer,
        ),
        tagged,
    )
    return HiveTable(
        name=node.result_name,
        columns=tuple(output_columns),
        rows=[value for _, value in output],
    )


def driver_pivot(table: HiveTable, row_key: str, column_key: str,
                 value: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scatter a long-format table into a dense matrix on the driver.

    Labels are the sorted distinct keys (the shared pivot convention);
    duplicate ``(row, column)`` cells are last-write-wins.  Used by the
    ``Pivot`` terminal here and by the multi-node Hadoop engine after it
    gathers the per-node join outputs.
    """
    rows = np.asarray(table.column_values(row_key), dtype=np.int64)
    cols = np.asarray(table.column_values(column_key), dtype=np.int64)
    values = np.asarray(table.column_values(value), dtype=np.float64)
    row_labels, row_positions = np.unique(rows, return_inverse=True)
    column_labels, column_positions = np.unique(cols, return_inverse=True)
    matrix = np.zeros((len(row_labels), len(column_labels)))
    matrix[row_positions, column_positions] = values
    return matrix, row_labels, column_labels
