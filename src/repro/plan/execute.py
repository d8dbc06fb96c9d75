"""The one shared-plan driver behind every bridge — five engines and the cluster.

Every engine family runs the same logical plans under the same contract:
optimise with the engine's catalog and capability profile → check the
rewrite (:func:`~repro.plan.verify.verify_rewrite`, always) → lower the
relational-algebra subtree → finish with the plan's terminal → report the
observed cardinality.
:func:`execute` owns that contract once; a bridge contributes a
:class:`Backend` and keeps its public entry point (``run_plan`` /
``run_shared_plan``) as a one-line call into the driver — here the R
frames' backend, end to end:

>>> import numpy as np
>>> from repro.plan import Filter, Join, Pivot, PlanObservation, Scan, col
>>> from repro.rlang.bridge import RBackend
>>> from repro.rlang.dataframe import DataFrame
>>> frames = {
...     "patients": DataFrame({"patient_id": np.array([0, 1, 2]),
...                            "age": np.array([30, 50, 20])}),
...     "micro": DataFrame({"patient_id": np.array([0, 0, 1, 2]),
...                         "gene_id": np.array([0, 1, 0, 1]),
...                         "value": np.array([1.0, 2.0, 3.0, 4.0])}),
... }
>>> plan = Pivot(Join(Filter(Scan("patients"), col("age") < 45),
...                   Scan("micro"), "patient_id", "patient_id"),
...              "patient_id", "gene_id", "value")
>>> seen = PlanObservation()
>>> matrix, rows, cols = execute(plan, RBackend(frames), observation=seen)
>>> rows.tolist(), matrix.tolist()
([0, 2], [[1.0, 2.0], [0.0, 4.0]])
>>> seen.engine, seen.output_rows, seen.output_cells
('vanilla-r', 2, 4)

Deliberately **not** on this skeleton: the engines' own counters
(``FilterStats``, ``PartitionStats``, the shuffle fields of
:class:`~repro.plan.observe.PlanObservation`) stay with the code that
counts them; the driver fills only what every backend can answer —
engine, output rows, pivot cells.
"""

from __future__ import annotations

from repro.plan.logical import Aggregate, ApproxAggregate, Pivot, PlanNode
from repro.plan.observe import PlanObservation
from repro.plan.optimizer import OptimizerCapabilities, PlanCatalog, optimize
from repro.plan.verify import maybe_verify_rewrite


class Backend:
    """What one engine family supplies to :func:`execute`, per execution.

    Attributes:
        engine: the label written to ``PlanObservation.engine``.
        catalog: the engine's :class:`~repro.plan.optimizer.PlanCatalog`,
            shared by the optimizer, the rewrite check and the lowering.
        capabilities: the rewrite rules the executor can honour.
    """

    engine: str
    catalog: PlanCatalog
    capabilities = OptimizerCapabilities()

    def lower(self, node: PlanNode):
        """Lower a relational-algebra subtree onto the engine's own relation."""
        raise NotImplementedError

    def relation(self, lowered):
        """Finish a terminal-less plan: the native result, sized by ``len()``."""
        return lowered

    def aggregate(self, lowered, plan: Aggregate):
        """``Aggregate`` terminal → ``(group_keys, aggregates)`` sorted by key."""
        raise TypeError(f"cannot execute plan node Aggregate on the {self.engine} executor")

    def pivot(self, lowered, plan: Pivot):
        """``Pivot`` terminal → ``(matrix, row_labels, column_labels)``."""
        raise TypeError(f"cannot execute plan node Pivot on the {self.engine} executor")

    def approx_aggregate(self, plan: ApproxAggregate):
        """``ApproxAggregate`` terminal → ``ApproxResult`` (column store)."""
        raise TypeError(
            f"cannot execute plan node ApproxAggregate on the {self.engine} executor"
        )


def execute(plan: PlanNode, backend: Backend, optimized: bool = True,
            observation: PlanObservation | None = None):
    """Run a shared logical plan on one engine's backend.

    Args:
        plan: the logical plan tree.
        backend: the engine's :class:`Backend` for this execution.
        optimized: run the shared optimizer first (pass False to lower the
            plan exactly as written — the equivalence tests compare both).
        observation: optional :class:`~repro.plan.observe.PlanObservation`
            filled with the engine label and the observed output
            cardinality (the counterpart of the optimizer's row estimates).

    Returns ``(group_keys, aggregates)`` for an ``Aggregate`` terminal,
    ``(matrix, row_labels, column_labels)`` for a ``Pivot``, an
    ``ApproxResult`` for an ``ApproxAggregate``, and otherwise the
    backend's native relation.
    """
    if optimized:
        written = plan
        plan = optimize(plan, backend.catalog, backend.capabilities)
        maybe_verify_rewrite(written, plan, backend.catalog)
    rows = cells = None
    if isinstance(plan, Aggregate):
        result = backend.aggregate(backend.lower(plan.child), plan)
        rows = len(result[0])
    elif isinstance(plan, Pivot):
        result = backend.pivot(backend.lower(plan.child), plan)
        rows, cells = len(result[1]), result[0].size
    elif isinstance(plan, ApproxAggregate):
        result = backend.approx_aggregate(plan)
        rows = 1
    else:
        result = backend.relation(backend.lower(plan))
    if observation is not None:
        observation.engine = backend.engine
        # Counted only when observed: len() forces a lazy relation.
        observation.output_rows = int(len(result) if rows is None else rows)
        if cells is not None:
            observation.output_cells = int(cells)
    return result
