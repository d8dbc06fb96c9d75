"""Execute shared logical plans (:mod:`repro.plan`) on the R-like frames.

The fourth per-engine executor, next to
:func:`repro.colstore.planner.run_plan` (column store),
:func:`repro.relational.bridge.run_shared_plan` (row store) and
:func:`repro.arraydb.bridge.run_shared_plan` (array DBMS): the same plan
objects from :mod:`repro.core.queries` lower onto the R verbs —
``Filter`` becomes a vectorised :meth:`~repro.rlang.dataframe.DataFrame.subset`
(the expression evaluates over the frame's columns as one numpy mask),
``Project`` becomes ``select``, ``Join`` becomes ``merge`` (R's hash
join) re-ordered to the shared output convention, and the ``Pivot``
terminal is the long-to-wide ``pivot_matrix`` reshape.  ``Sample`` and
an exact ``Aggregate`` are not lowered: the column store is the one
engine that samples, and no GenBase query aggregates on R.  Every
intermediate allocates through the
:class:`~repro.rlang.dataframe.REnvironment`, so the configuration's
memory ceiling bites exactly where it did before the migration.

The optimizer runs with :data:`R_CAPABILITIES`: conjunctions split into
stacked subsets and predicates push below the merge (the idiomatic
"subset before merge" every R programmer writes), but there is no
statistics-based filter reordering — the interpreter has no optimizer to
consult.

A runnable example of this backend under the shared driver lives in
:mod:`repro.plan.execute`.
"""

from __future__ import annotations

from typing import Mapping

from repro.plan import logical
from repro.plan.execute import Backend, execute
from repro.plan.observe import PlanObservation
from repro.plan.optimizer import (
    OptimizerCapabilities,
    SchemaCatalog,
    output_columns,
)
from repro.rlang.dataframe import DataFrame

#: The optimizer profile the R executor honours: splitting and pushdown
#: (subset-before-merge) plus pruning, but no statistics-driven filter
#: reordering.
R_CAPABILITIES = OptimizerCapabilities(filter_reordering=False)


class RBackend(Backend):
    """The R frames behind the shared driver, for one plan execution."""

    engine = "vanilla-r"
    capabilities = R_CAPABILITIES

    def __init__(self, frames: Mapping[str, DataFrame]):
        self.frames = frames
        self.catalog = SchemaCatalog(
            {name: {column: frame[column].dtype for column in frame.names}
             for name, frame in frames.items()},
            {name: len(frame) for name, frame in frames.items()},
        )

    def lower(self, node: logical.PlanNode) -> DataFrame:
        if isinstance(node, logical.Scan):
            frame = self.frames.get(node.table)
            if frame is None:
                raise KeyError(
                    f"no frame named {node.table!r}; have {sorted(self.frames)}"
                )
            return frame
        if isinstance(node, logical.Filter):
            return self.lower(node.child).subset(node.predicate)
        if isinstance(node, logical.Project):
            return self.lower(node.child).select(list(node.columns))
        if isinstance(node, logical.Join):
            left = self.lower(node.left)
            right = self.lower(node.right)
            collisions = (set(left.names) & set(right.names)) - {node.right_key}
            if collisions:
                raise ValueError(
                    f"join output columns collide: {sorted(collisions)}; project "
                    "the inputs apart first"
                )
            merged = left.merge(right, by=node.left_key, by_other=node.right_key)
            # Both inputs lowered, so the catalog snapshot knows every scan.
            return merged.select(output_columns(node, self.catalog))
        raise TypeError(
            f"cannot execute plan node {type(node).__name__} on the R environment"
        )

    def pivot(self, frame: DataFrame, plan: logical.Pivot):
        return frame.pivot_matrix(plan.row_key, plan.column_key, plan.value)


def run_shared_plan(plan: logical.PlanNode, frames: Mapping[str, DataFrame],
                    optimized: bool = True,
                    observation: PlanObservation | None = None):
    """Execute a shared logical plan against in-memory R data frames.

    A one-line call into the shared driver
    (:func:`repro.plan.execute.execute`).  Relational-algebra plans return
    a :class:`DataFrame` and :class:`~repro.plan.logical.Pivot` returns
    ``(matrix, row_labels, column_labels)`` with sorted labels — the shared
    executor contract.  An exact :class:`~repro.plan.logical.Aggregate`
    raises ``TypeError``: no GenBase query sends one to R.

    Args:
        plan: the shared logical plan tree.
        frames: scan name → :class:`DataFrame`.
        optimized: run the shared optimizer first (pass False to lower the
            plan exactly as written — the equivalence tests compare both).
        observation: optional :class:`~repro.plan.observe.PlanObservation`
            filled with the observed output cardinality.
    """
    return execute(plan, RBackend(frames), optimized, observation)
