"""Shared logical plans on the simulated cluster: prune, lower, merge.

This is the distributed counterpart of :mod:`repro.arraydb.bridge` and
:mod:`repro.mapreduce.bridge`: one logical plan from the shared surface
(:mod:`repro.plan` / :mod:`repro.core.queries`) is executed against data
that is row-partitioned across the simulated nodes.

The bridge is a :class:`~repro.plan.execute.Backend` like the five
single-node ones, so :func:`repro.plan.execute.execute` optimises and
rewrite-checks a cluster plan exactly as it does any other:

1. **Optimise** — the shared optimizer splits the filter into conjuncts,
   which every node then evaluates in written order, against the
   partitions' dtypes (:attr:`PartitionedTable.catalog`).
2. **Prune** (in ``lower``) — each partition carries a
   :class:`PartitionSynopsis` (per partition-column min/max plus a small
   distinct set — the cluster-level analogue of
   ``Chunk.attribute_range()`` in the array engine).  A predicate whose
   constant range or key set cannot intersect a partition's synopsis
   eliminates that partition *on the driver, before dispatch*;
   :attr:`PartitionStats.partitions_skipped` counts them, mirroring
   ``FilterStats.chunks_skipped``.
3. **Dispatch** — surviving fragments are dispatched together through
   :meth:`repro.cluster.cluster.Cluster.run_on_nodes` (one after another,
   each timed alone; the simulated clock takes the slowest); each node
   evaluates the predicates vectorised over its own partition only.
4. **Reduce** — partial results come back to the driver: the helpers
   :func:`reduce_partial_sums` / :func:`merge_gathered` implement the two
   driver-side merge shapes the GenBase engines need (partial-sum reduce
   for the statistics query, vstack for gathered matrix blocks).  The
   cluster runs no terminal node: an ``Aggregate`` or ``ApproxAggregate``
   raises the base :class:`~repro.plan.execute.Backend`'s ``TypeError``.

Pruned partitions still yield a (trivially empty) fragment so downstream
distributed kernels keep their one-block-per-node layout.

>>> import numpy as np
>>> from repro.cluster import Cluster
>>> from repro.plan import Filter, Scan, col
>>> table = PartitionedTable.from_partitions("patients", [
...     {"age": np.array([20, 30]), "dose": np.array([1.0, 2.0])},
...     {"age": np.array([50, 60]), "dose": np.array([3.0, 4.0])}])
>>> stats = PartitionStats()
>>> plan = Filter(Scan("patients"), col("age") < 45)
>>> [rows.tolist() for rows in run_shared_plan(plan, table, Cluster(2), stats=stats)]
[[0, 1], []]
>>> stats.partitions_scanned, stats.partitions_skipped
(1, 1)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.arraydb.operators import expression_skips_chunk
from repro.plan.expressions import (
    ColumnRef,
    Comparison,
    BooleanOp,
    Expression,
    InList,
    Literal,
)
from repro.plan.execute import Backend, execute
from repro.plan.logical import Filter, PlanNode, Scan
from repro.plan.optimizer import OptimizerCapabilities, SchemaCatalog

#: Distinct sets beyond this cardinality are dropped from the synopsis —
#: min/max still prunes, the set test just becomes unavailable (same
#: trade-off as any real zone map / small-materialized-aggregate store).
DISTINCT_SYNOPSIS_LIMIT = 64


@dataclass
class PartitionStats:
    """Partition-level accounting for one plan execution.

    ``partitions_skipped`` counts partitions eliminated purely from their
    synopsis — no node ever evaluated a predicate over their rows.  The
    cluster-level mirror of ``FilterStats.chunks_skipped``.
    """

    partitions_scanned: int = 0
    partitions_skipped: int = 0


@dataclass(frozen=True)
class ColumnSynopsis:
    """Min/max (and optionally the full distinct set) of one column."""

    minimum: float
    maximum: float
    values: frozenset | None = None


@dataclass(frozen=True)
class PartitionSynopsis:
    """Per-partition column synopses: what the driver knows without a scan."""

    columns: Mapping[str, ColumnSynopsis]
    n_rows: int

    @classmethod
    def from_columns(cls, columns: Mapping[str, np.ndarray]) -> PartitionSynopsis:
        """Summarise one partition's columns (empty partitions carry none)."""
        synopses: dict[str, ColumnSynopsis] = {}
        n_rows = 0
        for name, array in columns.items():
            array = np.asarray(array)
            n_rows = len(array)
            if n_rows == 0 or not np.issubdtype(array.dtype, np.number):
                continue
            distinct = np.unique(array)
            values = (frozenset(distinct.tolist())
                      if len(distinct) <= DISTINCT_SYNOPSIS_LIMIT else None)
            synopses[name] = ColumnSynopsis(
                minimum=float(distinct[0]), maximum=float(distinct[-1]), values=values
            )
        return cls(columns=synopses, n_rows=n_rows)


def _skips_by_distinct(expression: Expression, values: frozenset) -> bool:
    """True when the distinct set alone proves the predicate empty."""
    if isinstance(expression, Comparison) and type(expression) is Comparison:
        if expression.symbol != "=":
            return False
        left, right = expression.left, expression.right
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            constant = right.value
        elif isinstance(left, Literal) and isinstance(right, ColumnRef):
            constant = left.value
        else:
            return False
        return constant not in values
    if isinstance(expression, InList) and isinstance(expression.operand, ColumnRef):
        try:
            keys = expression.key_array()
        except (TypeError, ValueError):
            return False
        return values.isdisjoint(keys.tolist())
    return False


def expression_skips_partition(expression: Expression, synopsis: PartitionSynopsis) -> bool:
    """True when no row of the partition can satisfy the predicate.

    Exact about ``<`` vs ``<=`` strictness (delegated to the array
    engine's :func:`~repro.arraydb.operators.expression_skips_chunk`) and
    answers ``False`` — never skip — for shapes it cannot reason about.
    Empty partitions are always skippable.
    """
    if synopsis.n_rows == 0:
        return True
    if isinstance(expression, BooleanOp):
        if expression.conjunction:
            return any(expression_skips_partition(op, synopsis)
                       for op in expression.operands)
        return all(expression_skips_partition(op, synopsis)
                   for op in expression.operands)
    referenced = expression.columns_referenced()
    if len(referenced) != 1:
        return False
    column = synopsis.columns.get(next(iter(referenced)))
    if column is None:
        return False
    if expression_skips_chunk(expression, column.minimum, column.maximum):
        return True
    return column.values is not None and _skips_by_distinct(expression, column.values)


@dataclass
class PartitionedTable:
    """One logical table, row-partitioned across the cluster nodes.

    ``partitions[i]`` maps column name → that node's slice of the column;
    ``synopses[i]`` is the driver-resident summary used for pruning.
    """

    name: str
    partitions: list[Mapping[str, np.ndarray]]
    synopses: list[PartitionSynopsis]

    @classmethod
    def from_partitions(cls, name: str,
                        partitions: Sequence[Mapping[str, np.ndarray]]) -> PartitionedTable:
        return cls(
            name=name,
            partitions=list(partitions),
            synopses=[PartitionSynopsis.from_columns(p) for p in partitions],
        )

    @cached_property
    def catalog(self) -> SchemaCatalog:
        """The partitions' dtypes."""
        columns = self.partitions[0] if self.partitions else {}
        return SchemaCatalog(
            {self.name: {name: column.dtype for name, column in columns.items()}})


#: What a partition scan can honour: conjunct splitting only.  There is no
#: join to push through, a partition is already column-wise (nothing to
#: prune), and an approximate aggregate is refused by the backend.
CLUSTER_CAPABILITIES = OptimizerCapabilities(
    predicate_pushdown=False, projection_pruning=False,
)


class PartitionedBackend(Backend):
    """One partitioned table on the simulated cluster, for one plan execution.

    ``lower`` admits ``Filter* → Scan(table)`` and — when ``prune`` —
    eliminates partitions from their synopses on the driver, the way the
    array backend skips chunks; ``relation`` dispatches one fragment per
    node.
    """

    engine = "cluster"
    capabilities = CLUSTER_CAPABILITIES

    def __init__(self, table: PartitionedTable, cluster, stats: PartitionStats | None,
                 on_fragment: Callable[[int, np.ndarray], object] | None, prune: bool):
        self.table = table
        self.cluster = cluster
        self.stats = stats
        self.on_fragment = on_fragment
        self.prune = prune
        self.catalog = table.catalog

    def lower(self, node: PlanNode) -> tuple[list[Expression], list[bool]]:
        """``Filter* → Scan`` → (predicates innermost first, scan flag per partition)."""
        predicates: list[Expression] = []
        while isinstance(node, Filter):
            predicates.insert(0, node.predicate)
            node = node.child
        if not isinstance(node, Scan) or node.table != self.table.name:
            raise ValueError(
                f"cluster bridge lowers Filter*/Scan({self.table.name!r}) "
                f"plans, got {node!r}"
            )
        keep = [
            not (self.prune
                 and any(expression_skips_partition(p, synopsis) for p in predicates))
            for synopsis in self.table.synopses
        ]
        return predicates, keep

    def relation(self, lowered) -> list:
        """Per-node fragments in node order: local row positions, or
        ``on_fragment(node_id, local_rows)``'s answer computed on the node."""
        predicates, keep = lowered
        on_fragment = self.on_fragment

        def work(node_id: int):
            partition = self.table.partitions[node_id]
            if not keep[node_id]:
                local_rows = np.empty(0, dtype=np.int64)
            elif not predicates:
                local_rows = np.arange(len(next(iter(partition.values()))), dtype=np.int64)
            else:
                mask = None
                for predicate in predicates:
                    verdict = np.asarray(predicate.evaluate(partition), dtype=bool)
                    mask = verdict if mask is None else mask & verdict
                    if not mask.any():
                        break
                local_rows = np.flatnonzero(mask)
            return local_rows if on_fragment is None else on_fragment(node_id, local_rows)

        outputs = self.cluster.run_on_nodes([work] * len(keep))
        if self.stats is not None:
            self.stats.partitions_scanned += sum(keep)
            self.stats.partitions_skipped += len(keep) - sum(keep)
        return outputs


def run_shared_plan(
    plan: PlanNode,
    table: PartitionedTable,
    cluster,
    *,
    stats: PartitionStats | None = None,
    on_fragment: Callable[[int, np.ndarray], object] | None = None,
    optimized: bool = True,
):
    """Execute one shared logical plan over the partitioned table.

    A one-line call into the shared driver
    (:func:`repro.plan.execute.execute`).
    Filter plans return the per-node fragment results in node order: the
    local row positions satisfying the predicate, or — when
    ``on_fragment(node_id, local_rows)`` is given — whatever that consumer
    computes *on the node* from them (it runs inside the dispatched work,
    so its cost is charged to the node, not the driver).  An exact
    ``Aggregate`` or an ``ApproxAggregate`` raises ``TypeError``.

    With ``optimized=False`` the plan is lowered as written and the
    synopsis pruning is disabled (every partition is scanned) — the
    fragments then reproduce the seed's evaluate-everywhere behaviour,
    which the benchmarks use as baseline.
    """
    return execute(
        plan, PartitionedBackend(table, cluster, stats, on_fragment, prune=optimized), optimized)


# --------------------------------------------------------------------------- #
# Driver-side merge / reduce
# --------------------------------------------------------------------------- #

def reduce_partial_sums(partials: Sequence[tuple[np.ndarray, int]]) -> tuple[np.ndarray, int]:
    """Reduce per-node ``(vector_sum, row_count)`` partials on the driver.

    The statistics query's merge stage: per-node sums of the sampled
    expression rows become one total vector plus the global row count.
    """
    totals = np.sum([np.asarray(sums) for sums, _count in partials], axis=0)
    count = sum(int(c) for _sums, c in partials)
    return totals, count


def merge_gathered(blocks: Sequence[np.ndarray], n_columns: int) -> np.ndarray:
    """Vstack gathered per-node blocks, tolerating empty fragments."""
    stackable = [np.asarray(block) for block in blocks if np.asarray(block).size]
    if not stackable:
        return np.empty((0, n_columns))
    return np.vstack(stackable)
