"""Execute shared logical plans (:mod:`repro.plan`) on the row store.

The column store runs shared plans through
:func:`repro.colstore.planner.run_plan`; this module is the row-store
counterpart, so one plan object — built once per GenBase query in
:mod:`repro.core.queries` — drives both architectures.  Lowering maps each
shared node onto the fluent :class:`~repro.relational.query.Query` builder
(Scan → ``db.query``, Filter → ``where``, Project → ``select``, Join →
``join`` + a projection enforcing the shared output convention of "left
columns, then right columns minus the right key"), and the terminals
return the same shapes as the column-store executor: ``Aggregate`` →
``(group_keys, aggregates)`` sorted by key, ``Pivot`` →
``(matrix, row_labels, column_labels)``.

Before lowering, the *shared* optimizer runs against the
:class:`RelationalBackend`'s catalog (schemas plus row counts — the row
store keeps no per-column statistics), which pushes single-side total
predicates below joins, prunes projections through them, and annotates the
join build side; the annotation is handed to
:class:`~repro.relational.planner.JoinNode` verbatim, replacing that
planner's row-count-only heuristic with the shared, selectivity-aware
estimate.  The row store's own rewrite rules still run at ``to_physical``
time — they are no-ops on an already-pushed plan.

One deliberate difference from the column store: the relational ``Pivot``
labels rows/columns in first-seen order (the streaming Volcano convention
:meth:`~repro.relational.query.QueryResultSet.pivot` has always used),
not sorted order.  GenBase consumers align through the returned labels, so
both conventions are equivalent downstream.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.plan import logical
from repro.plan.execute import Backend, execute
from repro.plan.observe import PlanObservation
from repro.plan.optimizer import SchemaCatalog, output_columns
from repro.relational.catalog import Database
from repro.relational.query import Query
from repro.relational.schema import ColumnType

#: Shared Aggregate function names → relational HashAggregate names.
_AGGREGATE_NAMES = {"mean": "avg"}

#: Row-store column types → the numpy dtypes their values materialise as.
_COLUMN_DTYPES = {
    ColumnType.INT: np.dtype(np.int64),
    ColumnType.FLOAT: np.dtype(np.float64),
    ColumnType.STRING: np.dtype(str),
    ColumnType.BOOL: np.dtype(np.bool_),
}


class RelationalBackend(Backend):
    """The row store behind the shared driver, for one plan execution.

    The catalog is a :class:`~repro.plan.optimizer.SchemaCatalog` snapshot
    of the database: the row store keeps no per-column statistics, so the
    optimizer sees schemas plus row counts — enough for the join
    build-side rule, while selectivity falls back to the structural
    (shape-based) defaults.
    """

    engine = "postgres"

    def __init__(self, db: Database):
        self.db = db
        tables = [db.table(name) for name in db.table_names()]
        self.catalog = SchemaCatalog(
            {table.name: {column.name: _COLUMN_DTYPES[column.type]
                          for column in table.schema} for table in tables},
            {table.name: table.row_count for table in tables},
        )

    def lower(self, node: logical.PlanNode) -> Query:
        """Lower a relational-algebra subtree onto the fluent Query builder."""
        if isinstance(node, logical.Scan):
            return self.db.query(node.table)
        if isinstance(node, logical.Filter):
            return self.lower(node.child).where(node.predicate)
        if isinstance(node, logical.Project):
            return self.lower(node.child).select(*node.columns)
        if isinstance(node, logical.Join):
            joined = self.lower(node.left).join(
                self.lower(node.right), on=(node.left_key, node.right_key)
            )
            if node.build_side != "auto":
                # Propagate the shared optimizer's statistics-informed choice
                # into the relational JoinNode (Query wraps immutable nodes, so
                # rebuild the top node with the annotation).
                joined = Query(replace(joined.logical_plan(), build_side=node.build_side))
            # The relational join keeps both key columns; project down to the
            # shared convention (left columns, then right minus the right key).
            # Both inputs lowered, so the catalog snapshot knows every scan.
            return joined.select(*output_columns(node, self.catalog))
        raise TypeError(
            f"cannot lower plan node {type(node).__name__} onto the row store"
        )

    def relation(self, query: Query):
        return query.run()

    def aggregate(self, query: Query, plan: logical.Aggregate):
        function = _AGGREGATE_NAMES.get(plan.function, plan.function)
        value = "*" if plan.function == "count" else plan.value
        result = (
            query.group_by([plan.group_by], [(function, value, "agg")])
            .order_by(plan.group_by)
            .run()
        )
        return (np.asarray(result.column(plan.group_by)),
                np.asarray(result.column("agg"), dtype=np.float64))

    def pivot(self, query: Query, plan: logical.Pivot):
        return query.run().pivot(plan.row_key, plan.column_key, plan.value)


def run_shared_plan(plan: logical.PlanNode, db: Database, optimized: bool = True,
                    observation: PlanObservation | None = None):
    """Execute a shared logical plan against the row store.

    A one-line call into the shared driver
    (:func:`repro.plan.execute.execute`).  Relational-algebra plans return
    a materialised :class:`~repro.relational.query.QueryResultSet`;
    :class:`~repro.plan.logical.Aggregate` returns ``(group_keys,
    aggregates)`` as numpy arrays sorted by key (the shared contract);
    :class:`~repro.plan.logical.Pivot` returns ``(matrix, row_labels,
    column_labels)`` with labels in first-seen row order.

    Args:
        plan: the shared logical plan tree.
        db: the row-store database holding the scanned tables.
        optimized: run the shared optimizer first (pass False to lower the
            plan exactly as written — the equivalence tests compare both).
        observation: optional :class:`~repro.plan.observe.PlanObservation`
            filled with the observed output cardinality.
    """
    return execute(plan, RelationalBackend(db), optimized, observation)
