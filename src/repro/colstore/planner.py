"""Execute shared logical plans (:mod:`repro.plan`) on the column store.

This is the glue between the engine-agnostic plan layer and the compressed
column tables: a :class:`ColumnStoreCatalog` exposes table schemas to the
optimizer, and :func:`run_plan` lowers an
(optimized) plan onto :class:`~repro.colstore.query.ColumnQuery` — whose
lazy filter pipeline maps range/equality/membership predicates straight
onto the dictionary/RLE/delta fast paths.

Plans may scan either a named :class:`ColumnStore` table or a *binding* —
a base :class:`ColumnQuery` supplied by the caller (the lazy
:class:`~repro.colstore.query.JoinedQuery` builder uses bindings so a
sampled or pre-narrowed input can still join through the fused path).
Joins execute through :func:`~repro.colstore.query.materialise_join`,
which indexes the left input and materialises the (projection-pruned)
output *uncompressed*: a join intermediate is consumed
once by the aggregate/pivot on top of it, so re-encoding it would cost
more than it could ever save.

Relational-algebra subtrees produce a :class:`ColumnQuery`;
:class:`~repro.plan.logical.Aggregate` returns ``(group_keys,
aggregates)`` and :class:`~repro.plan.logical.Pivot` returns ``(matrix,
row_labels, column_labels)``, matching the eager ``ColumnQuery`` methods
bit for bit.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.colstore.catalog import ColumnStore
from repro.colstore.delta import Snapshot
from repro.colstore.query import ColumnQuery, materialise_join
from repro.plan import logical
from repro.plan.execute import Backend, execute
from repro.plan.observe import PlanObservation
from repro.plan.optimizer import PlanCatalog, optimize


class ColumnStoreCatalog(PlanCatalog):
    """Expose a :class:`ColumnStore`'s schemas to the optimizer.

    ``bindings`` maps scan names to base :class:`ColumnQuery` objects; a
    bound scan answers schema questions from its table.
    """

    def __init__(self, store: ColumnStore | None = None,
                 bindings: Mapping[str, ColumnQuery] | None = None):
        self.store = store
        self.bindings = dict(bindings or {})

    def _table_for(self, name: str):
        binding = self.bindings.get(name)
        if binding is not None:
            return binding.table
        if self.store is not None and name in self.store:
            # The *effective* table: a written table answers schema and
            # dtype questions from its current snapshot, not the stale
            # sealed segment.
            return self.store.effective_table(name)
        return None

    def columns_of(self, table: str) -> list[str] | None:
        found = self._table_for(table)
        return None if found is None else found.column_names

    def dtype_of(self, table: str, column: str):
        found = self._table_for(table)
        if found is None:
            return None
        try:
            return found.column(column).dtype
        except KeyError:
            return None


def optimize_plan(plan: logical.PlanNode, store: ColumnStore | None = None,
                  bindings: Mapping[str, ColumnQuery] | None = None) -> logical.PlanNode:
    """Optimize a plan with the store's (and bindings') schemas."""
    return optimize(plan, ColumnStoreCatalog(store, bindings))


class ColumnStoreBackend(Backend):
    """The column store behind the shared driver, for one plan execution.

    Store tables are read through snapshots
    (:meth:`~repro.colstore.catalog.ColumnStore.snapshot`), and the backend
    keeps one per table per execution, so every ``Scan`` of the same table
    — a self-join, a rewritten subtree — and the synopsis lookup of a
    sampled aggregate read the **same** frozen version even while writers
    race the execution.
    """

    engine = "colstore"

    def __init__(self, store: ColumnStore | None,
                 bindings: Mapping[str, ColumnQuery] | None):
        self.store = store
        self.catalog = ColumnStoreCatalog(store, bindings)
        self.bindings = self.catalog.bindings
        self._snapshots: dict[str, Snapshot] = {}

    def aggregate(self, query: ColumnQuery, plan: logical.Aggregate):
        return query.group_aggregate(plan.group_by, plan.value, plan.function)

    def pivot(self, query: ColumnQuery, plan: logical.Pivot):
        return query.pivot(plan.row_key, plan.column_key, plan.value)

    def _snapshot(self, table_name: str) -> Snapshot:
        """The one frozen version of a store table this execution reads."""
        snapshot = self._snapshots.get(table_name)
        if snapshot is None:
            snapshot = self._snapshots[table_name] = self.store.snapshot(table_name)
        return snapshot

    def _scan(self, table_name: str) -> ColumnQuery:
        """A base query over a binding, or over the table's frozen snapshot.

        The first read of a table snapshots it; later scans in the same run
        wrap that snapshot's table and live selection again, so the whole
        plan answers from a single version.
        """
        base = self.bindings.get(table_name)
        if base is not None:
            return ColumnQuery(base.table, base._base)
        if self.store is None:
            raise KeyError(
                f"no binding named {table_name!r} and no store to scan it from"
            )
        return self._snapshot(table_name).query()

    def lower(self, node: logical.PlanNode) -> ColumnQuery:
        """Lower a relational-algebra subtree onto a lazy ColumnQuery."""
        if isinstance(node, logical.Scan):
            return self._scan(node.table)
        if isinstance(node, logical.Filter):
            return self.lower(node.child).where(node.predicate)
        if isinstance(node, logical.Project):
            return self.lower(node.child).select(*node.columns)
        if isinstance(node, logical.Sample):
            return self.lower(node.child).sample(node.fraction, node.seed)
        if isinstance(node, logical.Join):
            table = materialise_join(
                self.lower(node.left), self.lower(node.right),
                node.left_key, node.right_key,
                result_name=node.result_name, compress=False,
            )
            return ColumnQuery(table)
        raise TypeError(f"cannot execute plan node {type(node).__name__} on the column store")

    def _sampled_base(self, node: logical.PlanNode, fraction: float,
                      seed: int) -> tuple[ColumnQuery, int]:
        """Lower ``Sample(node)`` and return ``(sampled query, pre-sample rows)``.

        A ``Project*(Scan)`` sample is served from the store's synopsis
        catalog — projections never change the row set, so the cached
        selection applies verbatim (the projection-pruning rule routinely
        narrows the scan below the sample).  Table, selection and
        population all come from this execution's one snapshot of the table
        (:meth:`_snapshot`): the catalog answers *for that snapshot* — the
        rows ``ColumnQuery.sample`` would keep on it, served from the entry,
        advanced across the writes since, or drawn — so a write racing the
        plan can neither hand it positions of another version nor a
        population the sample was not drawn from.
        """
        store = self.store
        inner, projection = node, None
        while isinstance(inner, logical.Project):
            if projection is None:  # the outermost projection wins
                projection = inner.columns
            inner = inner.child
        if (isinstance(inner, logical.Scan) and store is not None
                and inner.table in store and inner.table not in self.bindings):
            snapshot = self._snapshot(inner.table)
            selection = store.synopses.uniform(inner.table, fraction, seed, snapshot)
            sampled = ColumnQuery(snapshot.table, selection)
            if projection is not None:
                sampled = sampled.select(*projection)
            return sampled, snapshot.live_rows
        base = self.lower(node)
        return base.sample(fraction, seed), len(base)

    def approx_aggregate(self, plan: logical.ApproxAggregate):
        """Execute an ``ApproxAggregate`` terminal → :class:`ApproxResult`.

        Locates the ``Sample`` under any ``Filter``/``Project`` stages
        and answers the mean of the sampled (then filtered) rows with a
        CLT interval at the realised sampling fraction.  A plan with no
        sample at all returns the exact mean with a zero-width interval.
        """
        from repro.colstore import sketches

        # Surface invalid-confidence / non-mergeable-aggregate before touching
        # data; column existence and dtype are checked by the store itself.
        plan.output_schema({plan.value: np.dtype(np.float64)})
        above: list[logical.PlanNode] = []  # Filter/Project stages above the sample
        cursor = plan.child
        while isinstance(cursor, (logical.Filter, logical.Project)):
            above.append(cursor)
            cursor = cursor.child

        if not isinstance(cursor, logical.Sample):  # no sample: exact, zero-width interval
            values = self.lower(plan.child).column(plan.value).astype(np.float64)
            exact = float(values.mean()) if len(values) else float("nan")
            return sketches.ApproxResult(exact, exact, exact, plan.confidence)

        sampled, population = self._sampled_base(cursor.child, cursor.fraction, cursor.seed)
        realised = len(sampled) / population if population else 0.0
        query = sampled
        for step in reversed(above):
            if isinstance(step, logical.Filter):
                query = query.where(step.predicate)
            else:
                query = query.select(*step.columns)
        return sketches.sampled_mean(query.column(plan.value), realised, plan.confidence)


def run_plan(plan: logical.PlanNode, store: ColumnStore | None = None,
             optimized: bool = True,
             bindings: Mapping[str, ColumnQuery] | None = None,
             observation: PlanObservation | None = None):
    """Execute a logical plan against the store and/or scan bindings.

    The single entry point behind every fused pipeline, and a one-line
    call into the shared driver (:func:`repro.plan.execute.execute`):
    relational-algebra plans return a lazy :class:`ColumnQuery`; an
    ``Aggregate`` terminal returns ``(group_keys, aggregates)``, a
    ``Pivot`` terminal ``(matrix, row_labels, column_labels)`` and an
    ``ApproxAggregate`` an :class:`~repro.colstore.sketches.ApproxResult`.
    A terminal directly above a ``Join`` consumes the pruned, uncompressed
    join output — the fused join → aggregate/pivot path.

    Args:
        plan: the logical plan tree.
        store: the column store holding the scanned tables (optional when
            every scan is covered by ``bindings``).
        optimized: apply the rule-based optimizer first (pass False to
            execute the plan exactly as written — the equivalence tests
            compare both paths).
        bindings: scan name → base :class:`ColumnQuery` overrides.
        observation: optional :class:`~repro.plan.observe.PlanObservation`
            filled with the observed output cardinality.
    """
    return execute(plan, ColumnStoreBackend(store, bindings), optimized, observation)
