"""Execute shared logical plans (:mod:`repro.plan`) on the MapReduce stack.

This is the Hadoop-family counterpart of
:func:`repro.colstore.planner.run_plan` and
:func:`repro.relational.bridge.run_shared_plan`: the *same* plan objects
built in :mod:`repro.core.queries` lower onto Hive tables and MapReduce
jobs.

The payoff of declarative predicates here is **filter-before-shuffle**.
The legacy callable pipeline ran ``select`` → ``project`` → ``join`` as
three MapReduce jobs, re-serialising the whole table between each; an
expression, by contrast, is compiled to a row-tuple callable
(``Expression.bind`` against the :class:`~repro.mapreduce.hive.HiveTable`
schema) and fused into the **map phase of the join job itself**, together
with the pruned projection.  Rows that fail the predicate — and columns
the plan never reads — are dropped *before* the spill, so they cross
neither the serialisation boundary nor the shuffle.  One job replaces
three, and the shuffled bytes track the plan's selectivity instead of the
base table size.

The optimizer runs with :data:`HIVE_CAPABILITIES`: predicate pushdown and
projection pruning (what makes the map-side fusion possible) but no
statistics-based filter reordering and no join build-side choice — the
reduce-side join treats both inputs symmetrically, matching the paper's
"Hive has only rudimentary query optimization".

>>> import numpy as np
>>> from repro.mapreduce import HiveSession, HiveTable
>>> from repro.plan import Filter, Join, Project, Scan, col
>>> session = HiveSession()
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
>>> run_shared_plan(plan, tables, session).rows
[(0, 1.5), (2, 3.5)]
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np

from repro.mapreduce.engine import MapReduceJob
from repro.mapreduce.hive import HiveSession, HiveTable
from repro.plan import logical
from repro.plan.expressions import BoundExpression, literal_dtype
from repro.plan.execute import Backend, execute
from repro.plan.observe import PlanObservation
from repro.plan.optimizer import (
    OptimizerCapabilities,
    SchemaCatalog,
    estimate_output_rows,
    optimize,
)

#: The optimizer profile the MapReduce executor honours: pushdown and
#: pruning feed the map-side fusion; reordering and build-side costing are
#: beyond Hive's "rudimentary query optimization" and stay off.
HIVE_CAPABILITIES = OptimizerCapabilities(
    filter_reordering=False, join_build_side=False
)


def _catalog(tables: dict[str, HiveTable]) -> SchemaCatalog:
    """Snapshot the Hive tables' schemas and row counts for the optimizer.

    Hive tables carry untyped row tuples, so dtypes are sampled from the
    first row.  Int/float drift across rows is harmless — the verifier
    only distinguishes dtype *families* (numeric vs string).
    """
    return SchemaCatalog(
        {name: {column: literal_dtype(table.rows[0][index]) if table.rows else None
                for index, column in enumerate(table.columns)}
         for name, table in tables.items()},
        {name: len(table) for name, table in tables.items()},
    )


@dataclass
class _ScanStage:
    """A Filter*/Project* chain over one Scan, ready for map-side fusion.

    ``predicates`` are bound against the *base* table's schema and applied
    to the raw row before ``columns`` (the pruned output) is projected —
    both inside the mapper of whichever job consumes the stage.
    """

    table: HiveTable
    predicates: list[BoundExpression]
    columns: tuple[str, ...]

    def indices(self) -> list[int]:
        return [self.table.index_of(name) for name in self.columns]

    def admit(self, row: tuple) -> bool:
        return all(bound(row) for bound in self.predicates)


def _stage(node: logical.PlanNode, tables: dict[str, HiveTable]) -> _ScanStage | None:
    """Collapse a Filter/Project chain over a Scan; None if differently shaped."""
    predicates = []
    projection: tuple[str, ...] | None = None
    while True:
        if isinstance(node, logical.Filter):
            predicates.append(node.predicate)
            node = node.child
        elif isinstance(node, logical.Project):
            if projection is None:  # the outermost projection is the output
                projection = node.columns
            node = node.child
        elif isinstance(node, logical.Scan):
            table = tables.get(node.table)
            if table is None:
                raise KeyError(
                    f"no table named {node.table!r}; have {sorted(tables)}"
                )
            bound = [predicate.bind(table) for predicate in predicates]
            return _ScanStage(table, bound, projection or table.columns)
        else:
            return None


def run_shared_plan(plan: logical.PlanNode, tables: dict[str, HiveTable],
                    session: HiveSession, optimized: bool = True,
                    observation: PlanObservation | None = None):
    """Execute a shared logical plan as MapReduce jobs.

    A call into the shared driver (:func:`repro.plan.execute.execute`)
    with the shuffle counters read around it.  Relational-algebra plans
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
        session: the Hive session whose engine runs (and counts) the jobs.
        optimized: run the shared optimizer first (pass False to lower the
            plan exactly as written).
        observation: optional :class:`~repro.plan.observe.PlanObservation`
            filled with the observed output cardinality plus the shuffle
            record/byte counters summed over the jobs this plan ran (the
            calibration counterpart of :func:`estimate_shuffle_bytes`).
    """
    jobs_before = len(session.engine.history)
    try:
        return execute(plan, HiveBackend(tables, session), optimized, observation)
    finally:
        if observation is not None:
            ran = session.engine.history[jobs_before:]
            observation.shuffle_records = sum(
                result.counters.map_output_records for result in ran
            )
            observation.shuffle_bytes = sum(
                result.counters.shuffle_bytes for result in ran
            )


#: How many base-table rows to serialise when measuring bytes-per-record
#: for the shuffle-byte estimate.
_BYTES_SAMPLE = 32


def _bytes_per_record(pairs: list) -> float:
    """Measured serialised size of one shuffled pair, amortising framing.

    The engine spills each partition with ``pickle.dumps(list_of_pairs)``,
    so the honest per-record figure divides a *batch* pickle by its length
    rather than pickling records one at a time.
    """
    if not pairs:
        return 0.0
    return len(pickle.dumps(pairs)) / len(pairs)


def _stage_pair_bytes(stage: _ScanStage, key_index: int | None,
                      tag: str | None) -> float:
    """Bytes per shuffled pair for a scan stage's mapper output.

    Builds the exact pair shape the mapper emits — ``(key, payload)`` with
    the payload pruned to the stage's columns (and tagged for join sides) —
    from the first :data:`_BYTES_SAMPLE` raw rows, *without* evaluating
    predicates: the estimator prices a representative record, while
    :func:`repro.plan.optimizer.estimate_output_rows` prices how many
    survive.
    """
    indices = stage.indices()
    pairs = []
    for row in stage.table.rows[:_BYTES_SAMPLE]:
        key = None if key_index is None else row[key_index]
        payload = tuple(row[i] for i in indices)
        pairs.append((key, (tag, payload) if tag is not None else payload))
    return _bytes_per_record(pairs)


def estimate_shuffle_bytes(plan: logical.PlanNode,
                           tables: dict[str, HiveTable]) -> float | None:
    """Predict the shuffled bytes for a shared plan's MapReduce jobs.

    Mirrors the lowering in :func:`run_shared_plan` job for job: a fused
    join shuffles each side's surviving rows (estimated by the shared
    :func:`~repro.plan.optimizer.estimate_output_rows`) at the measured
    per-pair pickle cost; a stand-alone scan stage shuffles its surviving
    projected rows (zero when it is a no-op pass-through); a ``Pivot``
    terminal runs driver-side and shuffles nothing.  Returns ``None`` when
    the plan's cardinality cannot be estimated, and for an ``Aggregate``
    plan, which Hive does not run.
    """
    catalog = _catalog(tables)
    plan = optimize(plan, catalog, HIVE_CAPABILITIES)
    total = 0.0

    def stage_rows(node: logical.PlanNode) -> float | None:
        return estimate_output_rows(node, catalog)

    def add_subtree(node: logical.PlanNode) -> bool:
        nonlocal total
        stage = _stage(node, tables)
        if stage is not None:
            if not stage.predicates and stage.columns == stage.table.columns:
                return True  # pass-through: no job, no shuffle
            rows = stage_rows(node)
            if rows is None:
                return False
            total += rows * _stage_pair_bytes(stage, key_index=None, tag=None)
            return True
        join = node
        if isinstance(node, logical.Project) and isinstance(node.child, logical.Join):
            join = node.child
        if isinstance(join, logical.Join):
            for side, key, tag in ((join.left, join.left_key, "L"),
                                   (join.right, join.right_key, "R")):
                side_stage = _stage(side, tables)
                if side_stage is None:
                    return False  # nested non-stage input: not estimable
                rows = stage_rows(side)
                if rows is None:
                    return False
                total += rows * _stage_pair_bytes(
                    side_stage, key_index=side_stage.table.index_of(key), tag=tag
                )
            return True
        return False

    if isinstance(plan, logical.Pivot):
        plan = plan.child
    if not add_subtree(plan):
        return None
    return total


class HiveBackend(Backend):
    """The Hive tables behind the shared driver, for one plan execution."""

    engine = "hadoop"
    capabilities = HIVE_CAPABILITIES

    def __init__(self, tables: dict[str, HiveTable], session: HiveSession):
        self.tables = tables
        self.session = session
        self.catalog = _catalog(tables)

    def lower(self, node: logical.PlanNode) -> HiveTable:
        """Lower a relational-algebra subtree, fusing scan stages map-side."""
        stage = _stage(node, self.tables)
        if stage is not None:
            return _materialise_stage(stage, self.session)
        if isinstance(node, logical.Project):
            child = node.child
            if isinstance(child, logical.Join):
                return _join(child, self, output_columns=node.columns)
            return self.session.project(self.lower(child), list(node.columns))
        if isinstance(node, logical.Filter):
            return self.session.select(self.lower(node.child), node.predicate)
        if isinstance(node, logical.Join):
            return _join(node, self)
        raise TypeError(
            f"cannot execute plan node {type(node).__name__} on the MapReduce stack"
        )

    def pivot(self, table: HiveTable, plan: logical.Pivot):
        return driver_pivot(table, plan.row_key, plan.column_key, plan.value)


def _materialise_stage(stage: _ScanStage, session: HiveSession) -> HiveTable:
    """Run a stand-alone scan stage (filter + project fused into one job)."""
    if not stage.predicates and stage.columns == stage.table.columns:
        return stage.table
    indices = stage.indices()

    def mapper(row):
        if stage.admit(row):
            yield (None, tuple(row[i] for i in indices))

    def reducer(_key, values):
        for row in values:
            yield (None, row)

    output = session.engine.run(
        MapReduceJob(name=f"scan({stage.table.name})", mapper=mapper, reducer=reducer),
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

    The mapper applies each side's bound predicates to the raw row and
    emits only the side's pruned columns, so dropped rows and columns
    never reach the spill/shuffle.  The reducer emits the shared output
    convention — left columns, then right columns minus the right key —
    reordered to ``output_columns`` when a projection sits directly above
    the join (the final SELECT list is fused too, sparing a fourth job).
    """
    tables, session = backend.tables, backend.session
    left = _stage(node.left, tables) or _as_stage(backend.lower(node.left))
    right = _stage(node.right, tables) or _as_stage(backend.lower(node.right))

    left_key = left.table.index_of(node.left_key)
    right_key = right.table.index_of(node.right_key)
    left_indices, right_indices = left.indices(), right.indices()
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
    positions = [joined_columns.index(name) for name in output_columns]
    right_kept = [i for i, name in zip(right_indices, right.columns, strict=True)
                  if name != node.right_key]

    def mapper(tagged_row):
        tag, row = tagged_row
        if tag == "L":
            if left.admit(row):
                yield (row[left_key], (tag, tuple(row[i] for i in left_indices)))
        elif right.admit(row):
            yield (row[right_key], (tag, tuple(row[i] for i in right_kept)))

    def reducer(_key, values):
        left_rows = [row for tag, row in values if tag == "L"]
        right_rows = [row for tag, row in values if tag == "R"]
        for left_row in left_rows:
            for right_row in right_rows:
                combined = left_row + right_row
                yield (None, tuple(combined[p] for p in positions))

    tagged = ([("L", row) for row in left.table.rows]
              + [("R", row) for row in right.table.rows])
    output = session.engine.run(
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


def _as_stage(table: HiveTable) -> _ScanStage:
    """Wrap an already-materialised table as a pass-through stage."""
    return _ScanStage(table, [], table.columns)


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
