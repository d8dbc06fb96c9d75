"""Execute one fuzz case on every admitted engine and compare results.

The harness loads one GenBase dataset into all five engine families once
(column store, row store, array DBMS, Hive tables, R frames) and splits
its two metadata tables three ways across a simulated cluster, then per
case:

1. runs the unoptimized numpy reference (:mod:`repro.fuzz.reference`),
2. runs every engine the case's shape admits (:data:`ADMISSION`) — the
   column store both optimized and unoptimized, so the optimizer's
   rewrites are covered too,
3. normalises each result into the shape-specific comparison form and
   asserts agreement under :mod:`repro.fuzz.tolerances`,
4. returns the case's report record: its seed, shape, the reference's
   observed output rows and the plain EXPLAIN of the written plan.

Admission matrix (why an engine sits a shape out is documented in
``docs/FUZZING.md``):

========== ========= ======== ====== ====== ========= =======
shape      colstore  postgres hadoop scidb  vanilla-r cluster
========== ========= ======== ====== ====== ========= =======
meta       yes       yes      yes    yes    yes       yes
aggregate  yes       no       no     no cell predicates  no   no
pivot      yes       yes      yes    no cell predicates  yes  no
sample     yes       no       no     no     no        no
approx     yes       no       no     no     no        no
========== ========= ======== ====== ====== ========= =======

The cluster must account for every partition of every admitted case
(``partitions_scanned + partitions_skipped == n_partitions``).

Aggregate/pivot cases whose reference long-format output is *empty* are
compared on no engine (the empties' label conventions legitimately
differ); the report record is still produced.

Cases carrying a **mutation prelude** (appends/deletes/compaction through
the column store's delta tier, see
:class:`~repro.fuzz.generate.MutationOp`) run the same checks on the
column store (optimized and unoptimized) versus the reference interpreter
only — the other engine families load the pristine dataset once and have
no write path.  Both sides replay the identical lowered write history
(:func:`~repro.fuzz.generate.lower_mutations`), the column store through
a per-case store's snapshot machinery, the reference through
:func:`~repro.fuzz.reference.mutated_tables`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arraydb.bridge import (
    ArrayFrame,
    MatrixFrame,
    metadata_array,
    run_shared_plan as run_array_plan,
)
from repro.arraydb import ChunkedArray
from repro.cluster import Cluster, PartitionedTable, PartitionStats
from repro.cluster.bridge import run_shared_plan as run_cluster_plan
from repro.colstore.catalog import ColumnStore
from repro.colstore.planner import ColumnStoreCatalog, optimize_plan, run_plan
from repro.core.queries import dataset_tables
from repro.datagen.dataset import GenBaseDataset
from repro.fuzz.generate import (
    META_KEYS,
    UNMUTATED_SHAPES,
    FuzzCase,
    FuzzSchema,
    lower_mutations,
)
from repro.fuzz.reference import ReferenceTrace, mutated_tables, run_reference
from repro.fuzz.tolerances import EXACT, ULP, aggregate_tolerance, assert_values_match
from repro.mapreduce import HiveTable, MapReduceEngine
from repro.mapreduce.bridge import run_shared_plan as run_mr_plan
from repro.plan import logical
from repro.plan.verify import verified_schema, verify_rewrite
from repro.relational.bridge import run_shared_plan as run_pg_plan
from repro.relational.catalog import ColumnType, Database
from repro.rlang.bridge import run_shared_plan as run_r_plan
from repro.rlang.dataframe import DataFrame

#: Chunk size for the array-DBMS frames — small enough that tiny datasets
#: still exercise multi-chunk grids and synopsis skipping.
_ARRAY_CHUNK = 32

_COLSTORE = ("colstore", "colstore-unopt")
_SINGLE_NODE = (*_COLSTORE, "postgres", "hadoop", "vanilla-r", "scidb")

#: shape → the engines it admits, in report order (see the module docstring).
ADMISSION = {
    "meta": (*_SINGLE_NODE, "cluster"),
    "aggregate": (*_COLSTORE, "scidb"),
    "pivot": _SINGLE_NODE,
    "sample": _COLSTORE,
    "approx": _COLSTORE,
}

#: engine → one column out of its native relation (default: ``.column(name)``).
_RELATION_COLUMN = {
    "hadoop": lambda table, name: table.column_values(name),
    "vanilla-r": lambda frame, name: frame[name],
}


@dataclass
class FuzzOutcome:
    """What one case execution produced (for reports and diagnostics)."""

    case: FuzzCase
    record: dict  # the report record: seed, shape, observed_rows, explain
    engines_checked: list[str] = field(default_factory=list)
    skipped_empty: bool = False


class FuzzHarness:
    """All six executors' contexts over one GenBase dataset."""

    def __init__(self, size: str = "tiny", dataset_seed: int = 7):
        dataset = GenBaseDataset.generate(size, seed=dataset_seed)
        self.dataset = dataset
        self.tables = dataset_tables(dataset)
        self.schema = FuzzSchema.from_tables(self.tables)

        # Column store.
        self.store = ColumnStore()
        for name, columns in self.tables.items():
            self.store.create_table(name, columns)

        # Row store.
        self.db = Database()
        for name, columns in self.tables.items():
            types = [
                (column, ColumnType.FLOAT if values.dtype.kind == "f"
                 else ColumnType.INT)
                for column, values in columns.items()
            ]
            self.db.create_table(name, types)
            self.db.load_array(
                name, np.column_stack([v for v in columns.values()]).astype(np.float64)
            )

        # MapReduce (Hive tables + one engine).
        self.hive_tables = {
            name: HiveTable.from_columns(name, columns)
            for name, columns in self.tables.items()
        }
        self.mr_engine = MapReduceEngine(n_splits=4)

        # R environment.
        self.frames = {name: DataFrame(columns)
                       for name, columns in self.tables.items()}

        # Array DBMS: the dense fact array plus 1-D metadata arrays.
        expression = ChunkedArray.from_dense(
            "expression",
            dataset.expression_matrix,
            dimension_names=["patient_id", "gene_id"],
            attribute_name="expression_value",
            chunk_sizes=[_ARRAY_CHUNK, _ARRAY_CHUNK],
        )
        self.array_frames: dict[str, ArrayFrame | MatrixFrame] = {
            "microarray": MatrixFrame(expression, "expression_value"),
        }
        for table, key in META_KEYS.items():
            self.array_frames[table] = ArrayFrame(key, {
                column: metadata_array(
                    f"{table}_{column}", values.astype(np.float64), key,
                    column, chunk_size=_ARRAY_CHUNK,
                )
                for column, values in self.tables[table].items()
                if column != key
            })

        # Cluster: each metadata table row-partitioned three ways.
        self.partitioned = {
            table: PartitionedTable.from_partitions(table, [
                {column: values[rows] for column, values in self.tables[table].items()}
                for rows in np.array_split(np.arange(len(self.tables[table][key])), 3)
            ])
            for table, key in META_KEYS.items()
        }
        self.cluster = Cluster(3)

    # -- case execution ---------------------------------------------------------------

    def check_case(self, case: FuzzCase) -> FuzzOutcome:
        """Run one case everywhere it is admitted; assert equivalence.

        Every generated plan is first statically typechecked against the
        column store's schemas, and the optimizer rewrite is checked for
        schema preservation (:mod:`repro.plan.verify`) before any engine
        runs: the fuzzer is exactly where a grammar bug or unsound rewrite
        should be caught.

        Cases with a mutation prelude take the delta-tier path: a fresh
        per-case column store replays the lowered steps through the real
        delta API (append/delete/compact → tail, bitmap, generation bump),
        so the plan executes over ``MergedColumn`` scans; the reference
        runs over the identically-mutated plain tables, verification runs
        against the *mutated* store, and only the two column-store
        lowerings are compared.
        """
        if case.shape not in ADMISSION:
            raise ValueError(f"unknown fuzz shape {case.shape!r}")
        if case.mutations and case.shape in UNMUTATED_SHAPES:
            raise ValueError(f"shape {case.shape!r} does not admit a mutation prelude")
        store, tables = self.store, self.tables
        if case.mutations:
            steps = lower_mutations(case.mutations, self.tables, self.schema)
            store = ColumnStore()
            for name, columns in self.tables.items():
                store.create_table(name, columns)
            for kind, table, payload in steps:
                if kind == "append":
                    store.append(table, payload)
                elif kind == "delete":
                    store.delete(table, payload)
                else:
                    store.compact(table)
            tables = mutated_tables(self.tables, steps)
        catalog = ColumnStoreCatalog(store)
        verified_schema(case.plan, catalog)
        verify_rewrite(case.plan, optimize_plan(case.plan, store), catalog)
        trace = ReferenceTrace()
        reference = run_reference(case.plan, tables, trace)
        outcome = FuzzOutcome(case, {"seed": case.seed, "shape": case.shape,
                                     "observed_rows": trace.output_rows,
                                     "explain": logical.explain(case.plan)})
        if case.shape not in ("meta", "sample") and trace.terminal_input_rows == 0:
            outcome.skipped_empty = True
            return outcome
        engines = self._engines(case, store)
        check = getattr(self, f"_check_{case.shape}")
        for engine in ADMISSION[case.shape]:
            if (case.mutations and engine not in _COLSTORE) or (
                    engine == "scidb" and case.has_value_predicate):
                continue
            context = (f"seed={case.seed} shape={case.shape} table={case.table} "
                       f"[{engine}{' mutated' if case.mutations else ''}]")
            check(case, engines[engine](), reference, engine, context)
            outcome.engines_checked.append(engine)
        return outcome

    # -- engines ----------------------------------------------------------------------

    def _engines(self, case: FuzzCase, store: ColumnStore) -> dict:
        """engine → ``run()`` of the case's plan behind its public entry point."""
        plan = case.plan
        return {
            "colstore": lambda: run_plan(plan, store),
            "colstore-unopt": lambda: run_plan(plan, store, optimized=False),
            "postgres": lambda: run_pg_plan(plan, self.db),
            "hadoop": lambda: run_mr_plan(plan, self.hive_tables, self.mr_engine),
            "vanilla-r": lambda: run_r_plan(plan, self.frames),
            "scidb": lambda: run_array_plan(plan, self.array_frames),
            "cluster": lambda: self._run_cluster(case),
        }

    def _run_cluster(self, case: FuzzCase):
        """The 3-way split; filter fragments answer with ids."""
        plan = case.plan
        if isinstance(plan, logical.Project):
            plan = plan.child  # fragments are row positions: nothing to project
        table = self.partitioned[case.table]
        ids = [partition[case.key] for partition in table.partitions]
        stats = PartitionStats()
        result = run_cluster_plan(
            plan, table, self.cluster, stats=stats,
            on_fragment=lambda node, rows: ids[node][rows],
        )
        assert (stats.partitions_scanned + stats.partitions_skipped
                == len(table.partitions)), f"seed={case.seed}: {stats}"
        return result

    # -- shape checks (one normaliser + comparison per shape) -------------------------

    def _check_meta(self, case, relation, reference, engine, context):
        """Every reference column row for row, in key order; the cluster's
        fragments are row positions, so it answers with ids only."""
        expected_ids = np.asarray(reference[case.key], dtype=np.int64)
        if engine == "cluster":
            assert_values_match(np.sort(np.concatenate(relation).astype(np.int64)),
                                np.sort(expected_ids), EXACT, context)
            return
        expected_order = np.argsort(expected_ids)
        read = _RELATION_COLUMN.get(engine, lambda rows, name: rows.column(name))
        order = np.argsort(np.asarray(read(relation, case.key), dtype=np.float64).astype(np.int64))
        for column, expected in reference.items():
            assert_values_match(
                np.asarray(read(relation, column), dtype=np.float64)[order],
                np.asarray(expected, dtype=np.float64)[expected_order],
                EXACT, f"{context} {column}")

    def _check_sample(self, case, query, reference, engine, context):
        """Sample plans: column store only — sampling semantics are per-engine."""
        order = np.argsort(np.asarray(reference[case.key], dtype=np.int64))
        qorder = np.argsort(np.asarray(query.column(case.key), dtype=np.int64))
        for column in reference:
            assert_values_match(
                np.asarray(query.column(column))[qorder],
                np.asarray(reference[column])[order],
                EXACT, f"{context} {column}",
            )

    def _check_approx(self, case, result, reference: float, engine, context):
        """``approx_mean``: a well-formed interval around the sample's mean.

        The estimate is the mean of the rows the seeded ``Sample`` keeps,
        so it must equal the reference's mean over that same sample under
        :data:`~repro.fuzz.tolerances.ULP` — NaN on both sides when the
        selection is empty.
        """
        assert 0.0 < result.confidence < 1.0, (
            f"{context}: confidence {result.confidence}"
        )
        if np.isnan(reference):
            assert np.isnan([result.estimate, result.ci_low, result.ci_high]).all(), (
                f"{context}: empty selection answered {result}"
            )
            return
        assert result.ci_low <= result.estimate <= result.ci_high, (
            f"{context}: malformed interval {result}"
        )
        assert_values_match(np.float64(result.estimate), np.float64(reference),
                            ULP, context)

    def _check_aggregate(self, case, result, reference, engine, context):
        plan = case.plan
        assert isinstance(plan, logical.Aggregate)
        context = f"{context} fn={plan.function}"
        keys = np.asarray(result[0], dtype=np.float64).astype(np.int64)
        assert_values_match(keys, np.asarray(reference[0], dtype=np.int64), EXACT,
                            f"{context} keys")
        assert_values_match(np.asarray(result[1], dtype=np.float64),
                            np.asarray(reference[1], dtype=np.float64),
                            aggregate_tolerance(plan.function),
                            f"{context} values")

    def _check_pivot(self, case, result, reference, engine, context):
        for part, expected, name in zip(_normalise_pivot(*result), reference,
                                        ("matrix", "rows", "cols"), strict=True):
            assert_values_match(part, expected, EXACT, f"{context} {name}")


def _normalise_pivot(matrix, rows, cols):
    """Put a pivot result in sorted label order (postgres uses first-seen)."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    row_order = np.argsort(rows)
    col_order = np.argsort(cols)
    return (np.asarray(matrix, dtype=np.float64)[np.ix_(row_order, col_order)],
            rows[row_order], cols[col_order])
