"""Shared logical plans on the simulated cluster: prune, lower, merge.

This is the distributed counterpart of :mod:`repro.arraydb.bridge` and
:mod:`repro.mapreduce.bridge`: one logical plan from the shared surface
(:mod:`repro.plan` / :mod:`repro.core.queries`) is executed against data
that is row-partitioned across the simulated nodes.

The execution pipeline:

1. **Classify** — the plan's filter predicate is split into conjuncts with
   the shared range/equality/membership machinery
   (:func:`repro.plan.optimizer.ordered_conjuncts`).
2. **Prune** — each partition carries a :class:`PartitionSynopsis` (per
   partition-column min/max plus a small distinct set — the cluster-level
   analogue of ``Chunk.attribute_range()`` in the array engine).  A
   conjunct whose constant range or key set cannot intersect a partition's
   synopsis eliminates that partition *on the driver, before dispatch*;
   :attr:`PartitionStats.partitions_skipped` counts them, mirroring
   ``FilterStats.chunks_skipped``.
3. **Lower** — surviving fragments are dispatched together through
   :meth:`repro.cluster.cluster.Cluster.run_on_nodes` (concurrently on the
   threaded executor); each node evaluates the conjuncts vectorised over
   its own partition only.
4. **Merge** — partial results come back to the driver: aggregate plans
   are reduced per group key (partial sums/counts), and the helpers
   :func:`reduce_partial_sums` / :func:`merge_gathered` implement the two
   driver-side merge shapes the GenBase engines need (partial-sum reduce
   for the statistics query, vstack for gathered matrix blocks).

Pruned partitions still yield a (trivially empty) fragment so downstream
distributed kernels keep their one-block-per-node layout.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from repro.colstore.sketches import HyperLogLog, TDigest
from repro.plan.logical import (
    SKETCH_APPROX_KINDS,
    Aggregate,
    ApproxAggregate,
    Filter,
    PlanNode,
    Scan,
)
from repro.plan.optimizer import ColumnStats, ordered_conjuncts
from repro.plan.verify import maybe_verify_plan

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
    rows_kept: int = 0


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
    def from_columns(cls, columns: Mapping[str, np.ndarray],
                     distinct_limit: int = DISTINCT_SYNOPSIS_LIMIT) -> PartitionSynopsis:
        """Summarise one partition's columns (empty partitions carry none)."""
        synopses: dict[str, ColumnSynopsis] = {}
        n_rows = 0
        for name, array in columns.items():
            array = np.asarray(array)
            n_rows = len(array)
            if n_rows == 0 or not np.issubdtype(array.dtype, np.number):
                continue
            distinct = np.unique(array)
            values = frozenset(distinct.tolist()) if len(distinct) <= distinct_limit else None
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
    def from_partitions(cls, name: str, partitions: Sequence[Mapping[str, np.ndarray]],
                        distinct_limit: int = DISTINCT_SYNOPSIS_LIMIT) -> PartitionedTable:
        return cls(
            name=name,
            partitions=list(partitions),
            synopses=[PartitionSynopsis.from_columns(p, distinct_limit) for p in partitions],
        )

    def global_stats(self, column: str) -> ColumnStats | None:
        """Merge the per-partition synopses into whole-table column stats."""
        spans = [s.columns[column] for s in self.synopses if column in s.columns]
        if not spans:
            return None
        merged: set | None = set()
        for span in spans:
            if span.values is None:
                merged = None
                break
            merged |= span.values
        return ColumnStats(
            row_count=sum(s.n_rows for s in self.synopses),
            distinct=len(merged) if merged is not None else 0,
            minimum=min(span.minimum for span in spans),
            maximum=max(span.maximum for span in spans),
        )


def _parse_plan(
    plan: PlanNode, table: PartitionedTable
) -> tuple[Aggregate | ApproxAggregate | None, list[Expression]]:
    """Unpack (Aggregate|ApproxAggregate)? → Filter* → Scan over the table.

    Only *sketch-backed* approximate kinds are admitted: their partials
    (HLL registers, t-digest centroids) merge losslessly driver-side.
    Sampled kinds need one global sample over the whole table — route
    those through the column-store planner instead.
    """
    aggregate = None
    if isinstance(plan, ApproxAggregate):
        if plan.kind not in SKETCH_APPROX_KINDS:
            raise ValueError(
                f"cluster bridge merges sketch partials only "
                f"({list(SKETCH_APPROX_KINDS)}); sampled kind {plan.kind!r} "
                "needs a global sample — run it through the column-store planner"
            )
        aggregate, plan = plan, plan.child
    elif isinstance(plan, Aggregate):
        aggregate, plan = plan, plan.child
    predicates: list[Expression] = []
    while isinstance(plan, Filter):
        predicates.insert(0, plan.predicate)
        plan = plan.child
    if not isinstance(plan, Scan) or plan.table != table.name:
        raise ValueError(
            f"cluster bridge lowers Aggregate?/Filter*/Scan({table.name!r}) plans, got {plan!r}"
        )
    return aggregate, predicates


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

    Filter plans return the per-node fragment results in node order: the
    local row positions satisfying the predicate, or — when
    ``on_fragment(node_id, local_rows)`` is given — whatever that consumer
    computes *on the node* from them (it runs inside the dispatched work,
    so its cost is charged to the node, not the driver).  Aggregate plans
    are reduced on the driver and return ``(group_keys, values)``.

    With ``optimized=False`` the synopsis pruning is disabled (every
    partition is scanned) — the fragments then reproduce the seed's
    evaluate-everywhere behaviour, which the benchmarks use as baseline.
    The plan is statically typechecked against the partitions' dtypes
    before dispatch (:mod:`repro.plan.verify`).
    """
    if table.partitions:
        maybe_verify_plan(plan, {
            table.name: {name: column.dtype
                         for name, column in table.partitions[0].items()}
        })
    aggregate, predicates = _parse_plan(plan, table)
    ordered = ordered_conjuncts(predicates, table.global_stats)
    conjuncts = [expression for expression, _class, _selectivity in ordered]
    keep = [
        not (optimized and conjuncts
             and any(expression_skips_partition(c, synopsis) for c in conjuncts))
        for synopsis in table.synopses
    ]

    def make_work(node_id: int):
        partition = table.partitions[node_id]
        scan = keep[node_id]

        def work(_node: int):
            if not scan:
                local_rows = np.empty(0, dtype=np.int64)
            elif not conjuncts:
                local_rows = np.arange(len(next(iter(partition.values()))), dtype=np.int64)
            else:
                mask = None
                for conjunct in conjuncts:
                    verdict = np.asarray(conjunct.evaluate(partition), dtype=bool)
                    mask = verdict if mask is None else mask & verdict
                    if not mask.any():
                        break
                local_rows = np.flatnonzero(mask)
            if isinstance(aggregate, ApproxAggregate):
                return _partial_sketch(partition, aggregate, local_rows), len(local_rows)
            if aggregate is not None:
                return _partial_aggregate(partition, aggregate, local_rows), len(local_rows)
            if on_fragment is not None:
                return on_fragment(_node, local_rows), len(local_rows)
            return local_rows, len(local_rows)

        return work

    result = cluster.run_on_nodes([make_work(node_id) for node_id in range(len(keep))])
    if stats is not None:
        stats.partitions_scanned += sum(1 for flag in keep if flag)
        stats.partitions_skipped += sum(1 for flag in keep if not flag)
        stats.rows_kept += sum(kept for _output, kept in result.outputs)
    outputs = [output for output, _kept in result.outputs]
    if isinstance(aggregate, ApproxAggregate):
        return _reduce_sketches(outputs, aggregate)
    if aggregate is not None:
        return _reduce_aggregate(outputs, aggregate.function)
    return outputs


# --------------------------------------------------------------------------- #
# Driver-side merge / reduce
# --------------------------------------------------------------------------- #

def _partial_aggregate(partition: Mapping[str, np.ndarray], aggregate: Aggregate,
                       local_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One node's (group keys, partial sums, partial counts)."""
    keys = np.asarray(partition[aggregate.group_by])[local_rows]
    values = np.asarray(partition[aggregate.value])[local_rows]
    unique, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=values, minlength=len(unique))
    counts = np.bincount(inverse, minlength=len(unique))
    return unique, sums, counts


def _partial_sketch(partition: Mapping[str, np.ndarray], approx: ApproxAggregate,
                    local_rows: np.ndarray):
    """One node's mergeable sketch state over its surviving rows.

    Runs inside the dispatched ``work()`` closure, so sketch construction
    is charged to the node; only the fixed-size state (HLL register array
    or t-digest centroid arrays) travels back to the driver.
    """
    values = np.asarray(partition[approx.value])[local_rows]
    if approx.kind == "approx_distinct":
        return HyperLogLog().add_array(values).registers
    digest = TDigest().add_array(values)
    return digest.means, digest.weights


def _reduce_sketches(partials: Sequence, approx: ApproxAggregate):
    """Merge per-node sketch partials driver-side → :class:`ApproxResult`.

    HLL merges by elementwise register maximum and the t-digest by
    centroid pooling, so the reduced sketch is identical to one built in
    a single pass over the concatenated partitions — regardless of node
    count or arrival order.
    """
    if approx.kind == "approx_distinct":
        merged = HyperLogLog()
        for registers in partials:
            merged = merged.merge(HyperLogLog(registers=registers))
        return merged.result(approx.confidence)
    merged = TDigest()
    for means, weights in partials:
        merged = merged.merge(TDigest(means=means, weights=weights))
    return merged.result(approx.quantile, approx.confidence)


def _reduce_aggregate(partials: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
                      function: str) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-node partial aggregates into the final (keys, values)."""
    keys = np.concatenate([unique for unique, _s, _c in partials]) if partials else np.empty(0)
    if len(keys) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    merged, positions = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(merged))
    counts = np.zeros(len(merged), dtype=np.int64)
    offset = 0
    for unique, partial_sums, partial_counts in partials:
        span = positions[offset:offset + len(unique)]
        np.add.at(sums, span, partial_sums)
        np.add.at(counts, span, partial_counts)
        offset += len(unique)
    if function == "sum":
        return merged, sums
    if function == "count":
        return merged, counts.astype(np.float64)
    if function == "mean":
        return merged, sums / np.maximum(counts, 1)
    raise ValueError(f"unsupported aggregate function {function!r}")


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
