"""Execute shared logical plans (:mod:`repro.plan`) on the row store.

The column store runs shared plans through
:func:`repro.colstore.planner.run_plan`; this module is the row-store
counterpart, so one plan object — built once per GenBase query in
:mod:`repro.core.queries` — drives both architectures.  Lowering maps each
shared node straight onto the Volcano operators of
:mod:`repro.relational.operators` (Scan → ``SeqScan``, a run of stacked
Filters → one ``Filter`` over their conjunction, Project → ``Project``,
Join → :class:`~repro.relational.operators.HashJoin` built on the left
input + a projection enforcing the shared output convention of "left
columns, then right columns minus the right key"), and the ``Pivot``
terminal returns the same
``(matrix, row_labels, column_labels)`` shape as the column-store
executor.  There is no exact ``Aggregate`` here: no GenBase query sends
one to the row store, so the driver refuses it with a ``TypeError``.

The row store plans once: the *shared* optimizer runs against the
:class:`RelationalBackend`'s catalog (schemas plus row counts — the row
store keeps no per-column statistics), pushes single-side total predicates
below joins and prunes projections through them, and the lowering executes
that tree as it stands — here the Q1/Q4 data-management plan, its filter
pushed onto the join's build (left) input:

>>> from repro.plan import Filter, Join, Project, Scan, col
>>> from repro.plan.optimizer import optimize
>>> from repro.relational.operators import explain
>>> db = Database()
>>> INT, FLOAT = ColumnType.INT, ColumnType.FLOAT
>>> _ = db.create_table("genes", [("gene_id", INT), ("function", INT)])
>>> _ = db.insert("genes", [(0, 5), (1, 20), (2, 3)])
>>> _ = db.create_table("microarray", [("gene_id", INT), ("patient_id", INT),
...                                    ("expression_value", FLOAT)])
>>> _ = db.insert("microarray", [(0, 0, 1.5), (1, 0, 2.5), (2, 0, 3.5), (0, 1, 4.5)])
>>> plan = Project(Filter(Join(Scan("genes"), Scan("microarray"),
...                            "gene_id", "gene_id"), col("function") < 10),
...                ("gene_id", "patient_id", "expression_value"))
>>> backend = RelationalBackend(db)
>>> print(explain(backend.lower(optimize(plan, backend.catalog))))
Project ['gene_id', 'patient_id', 'expression_value']
  HashJoin gene_id = gene_id
    Project ['gene_id']
      Filter (col('function') < lit(10))
        SeqScan genes (3 rows)
    SeqScan microarray (4 rows)
>>> run_shared_plan(plan, db).rows
[(0, 0, 1.5), (2, 0, 3.5), (0, 1, 4.5)]

One deliberate difference from the column store: the relational ``Pivot``
labels rows/columns in first-seen order (the streaming Volcano convention
:meth:`~repro.relational.query.QueryResultSet.pivot` has always used),
not sorted order.  GenBase consumers align through the returned labels, so
both conventions are equivalent downstream.
"""

from __future__ import annotations

import numpy as np

from repro.plan import logical
from repro.plan.execute import Backend, execute
from repro.plan.expressions import and_
from repro.plan.observe import PlanObservation
from repro.plan.optimizer import SchemaCatalog, output_columns
from repro.relational import operators as ops
from repro.relational.catalog import Database
from repro.relational.query import QueryResultSet
from repro.relational.schema import ColumnType

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
    optimizer sees schemas plus row counts — enough to estimate each
    subtree's cardinality, while selectivity falls back to the structural
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

    def lower(self, node: logical.PlanNode) -> ops.Operator:
        """Lower a relational-algebra subtree onto the Volcano operators."""
        if isinstance(node, logical.Scan):
            return ops.SeqScan(self.db.table(node.table))
        if isinstance(node, logical.Filter):
            # A run of stacked filters is one operator hop, innermost first.
            predicates = [node.predicate]
            while isinstance(node.child, logical.Filter):
                node = node.child
                predicates.insert(0, node.predicate)
            return ops.Filter(self.lower(node.child), and_(*predicates))
        if isinstance(node, logical.Project):
            return self._project(self.lower(node.child), node.columns)
        if isinstance(node, logical.Join):
            joined = ops.HashJoin(self.lower(node.left), self.lower(node.right),
                                  node.left_key, node.right_key)
            # The relational join keeps both key columns; project down to the
            # shared convention (left columns, then right minus the right key).
            # Both inputs lowered, so the catalog snapshot knows every scan.
            return self._project(joined, output_columns(node, self.catalog))
        raise TypeError(
            f"cannot lower plan node {type(node).__name__} onto the row store"
        )

    @staticmethod
    def _project(child: ops.Operator, columns) -> ops.Operator:
        """Project unless the child already produces exactly these columns."""
        if child.output_schema.names == tuple(columns):
            return child
        return ops.Project(child, columns)

    def relation(self, operator: ops.Operator) -> QueryResultSet:
        return QueryResultSet(operator.output_schema, list(operator))

    def pivot(self, operator: ops.Operator, plan: logical.Pivot):
        return self.relation(operator).pivot(plan.row_key, plan.column_key, plan.value)


def run_shared_plan(plan: logical.PlanNode, db: Database, optimized: bool = True,
                    observation: PlanObservation | None = None):
    """Execute a shared logical plan against the row store.

    A one-line call into the shared driver
    (:func:`repro.plan.execute.execute`).  Relational-algebra plans return
    a materialised :class:`~repro.relational.query.QueryResultSet`;
    :class:`~repro.plan.logical.Pivot` returns ``(matrix, row_labels,
    column_labels)`` with labels in first-seen row order.  An exact
    :class:`~repro.plan.logical.Aggregate` raises ``TypeError``.

    Args:
        plan: the shared logical plan tree.
        db: the row-store database holding the scanned tables.
        optimized: run the shared optimizer first (pass False to lower the
            plan exactly as written — the equivalence tests compare both).
        observation: optional :class:`~repro.plan.observe.PlanObservation`
            filled with the observed output cardinality.
    """
    return execute(plan, RelationalBackend(db), optimized, observation)
