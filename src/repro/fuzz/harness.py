"""Execute one fuzz case on every admitted engine and compare results.

The harness loads one GenBase dataset into all five engine families once
(column store, row store, array DBMS, Hive tables, R frames), then per
case:

1. runs the unoptimized numpy reference (:mod:`repro.fuzz.reference`),
2. runs every engine the case's shape admits — the column store both
   optimized and unoptimized, so the optimizer's rewrites are covered too,
3. normalises each result into the shape-specific comparison form and
   asserts agreement under :mod:`repro.fuzz.tolerances`,
4. returns a :class:`~repro.fuzz.calibration.CalibrationRecord` pairing
   the optimizer's row estimate (and the MapReduce shuffle-byte estimate)
   with the observed counters.

Admission matrix (why an engine sits a shape out is documented in
``docs/FUZZING.md``):

========== ========= ======== ====== ====== =========
shape      colstore  postgres hadoop scidb  vanilla-r
========== ========= ======== ====== ====== =========
meta       yes       yes      yes    yes    yes
aggregate  yes       yes      yes    no cell predicates  yes
pivot      yes       yes      yes    no cell predicates  yes
sample     yes       no       no     no     no
approx     yes       no       no     no     no
========== ========= ======== ====== ====== =========

Aggregate/pivot cases whose reference long-format output is *empty* are
compared on no engine (the empties' label conventions legitimately
differ); the calibration record is still produced.

Cases carrying a **mutation prelude** (appends/deletes/compaction through
the column store's delta tier, see
:class:`~repro.fuzz.generate.MutationOp`) run on the column store
(optimized and unoptimized) versus the reference interpreter only — the
other engine families load the pristine dataset once and have no write
path.  Both sides replay the identical lowered write history
(:func:`~repro.fuzz.generate.lower_mutations`), the column store through
a per-case store's snapshot machinery, the reference through
:func:`~repro.fuzz.reference.mutated_tables`; shuffle-byte predictions
are skipped (the calibration gate ignores ``None``).
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
from repro.colstore.catalog import ColumnStore
from repro.colstore.planner import (
    ColumnStoreCatalog,
    explain_plan,
    optimize_plan,
    run_plan,
)
from repro.core.queries import dataset_tables
from repro.datagen.dataset import GenBaseDataset
from repro.fuzz.calibration import CalibrationRecord
from repro.fuzz.generate import META_KEYS, FuzzCase, FuzzSchema, lower_mutations
from repro.fuzz.reference import ReferenceTrace, mutated_tables, run_reference
from repro.fuzz.tolerances import (
    EXACT,
    aggregate_tolerance,
    assert_values_match,
    sketch_tolerance,
)
from repro.mapreduce import HiveSession, HiveTable, MapReduceEngine
from repro.mapreduce.bridge import (
    estimate_shuffle_bytes,
    run_shared_plan as run_mr_plan,
)
from repro.plan import logical
from repro.plan.observe import PlanObservation
from repro.plan.optimizer import classify, estimate_output_rows, split_conjuncts
from repro.plan.verify import verified_schema, verify_rewrite
from repro.relational.bridge import run_shared_plan as run_pg_plan
from repro.relational.catalog import ColumnType, Database
from repro.rlang.bridge import run_shared_plan as run_r_plan
from repro.rlang.dataframe import DataFrame

#: Chunk size for the array-DBMS frames — small enough that tiny datasets
#: still exercise multi-chunk grids and synopsis skipping.
_ARRAY_CHUNK = 32


@dataclass
class FuzzOutcome:
    """What one case execution produced (for reports and diagnostics)."""

    case: FuzzCase
    record: CalibrationRecord
    engines_checked: list[str] = field(default_factory=list)
    skipped_empty: bool = False


class FuzzHarness:
    """All five engine contexts over one GenBase dataset."""

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

        # MapReduce (Hive tables + one engine whose counters we snapshot).
        self.hive_tables = {
            name: HiveTable.from_array(
                name, list(columns),
                np.column_stack([v for v in columns.values()]).astype(np.float64),
            )
            for name, columns in self.tables.items()
        }
        self.mr_engine = MapReduceEngine(n_splits=4)
        self.hive = HiveSession(self.mr_engine)

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

    # -- case execution ---------------------------------------------------------------

    def check_case(self, case: FuzzCase,
                   skew_selectivity: bool = False) -> FuzzOutcome:
        """Run one case everywhere it is admitted; assert equivalence.

        Args:
            case: the generated plan plus its admission tags.
            skew_selectivity: compute the calibration *predictions* from
                the plan with every filter stripped — i.e. force every
                selectivity to 1.0.  Comparisons still run normally; this
                exists so the calibration gate's trip-wire can be tested
                against deliberately miscalibrated records.

        Every generated plan is first statically typechecked against the
        column store's schemas, and the optimizer rewrite is checked for
        schema preservation (:mod:`repro.plan.verify`) before any engine
        runs: the fuzzer is exactly where a grammar bug or unsound rewrite
        should be caught.

        Cases with a mutation prelude take the delta-tier path: a
        per-case column store replays the writes, the reference runs over
        the equivalently-mutated tables, and only the two column-store
        lowerings are compared (see the module admission notes).
        """
        if case.mutations:
            return self._check_mutated_case(case, skew_selectivity)
        catalog = ColumnStoreCatalog(self.store)
        verified_schema(case.plan, catalog)
        verify_rewrite(case.plan, optimize_plan(case.plan, self.store), catalog)
        trace = ReferenceTrace()
        reference = run_reference(case.plan, self.tables, trace)
        outcome = FuzzOutcome(case, self._record(case, trace, skew_selectivity))
        if case.shape == "meta":
            self._check_meta(case, reference, outcome)
        elif case.shape == "sample":
            self._check_sample(case, reference, outcome)
        elif trace.terminal_input_rows == 0:
            outcome.skipped_empty = True
        elif case.shape == "approx":
            self._check_approx(case, reference, outcome)
        elif case.shape == "aggregate":
            self._check_aggregate(case, reference, outcome)
        elif case.shape == "pivot":
            self._check_pivot(case, reference, outcome)
        else:
            raise ValueError(f"unknown fuzz shape {case.shape!r}")
        return outcome

    # -- shape checks -----------------------------------------------------------------

    def _check_meta(self, case: FuzzCase, reference: dict, outcome: FuzzOutcome):
        expected = np.sort(np.asarray(reference[case.key], dtype=np.int64))
        context = f"seed={case.seed} shape=meta table={case.table}"
        for label, optimized in (("colstore", True), ("colstore-unopt", False)):
            query = run_plan(case.plan, self.store, optimized=optimized)
            ids = np.sort(np.asarray(query.column(case.key), dtype=np.int64))
            assert_values_match(ids, expected, EXACT, f"{context} [{label}]")
            outcome.engines_checked.append(label)
        result = run_pg_plan(case.plan, self.db)
        ids = np.sort(np.asarray(result.column(case.key), dtype=np.int64))
        assert_values_match(ids, expected, EXACT, f"{context} [postgres]")
        outcome.engines_checked.append("postgres")
        observation = PlanObservation()
        table = run_mr_plan(case.plan, self.hive_tables, self.hive,
                            observation=observation)
        ids = np.sort(np.asarray(table.column_values(case.key), dtype=np.float64)
                      .astype(np.int64))
        assert_values_match(ids, expected, EXACT, f"{context} [hadoop]")
        outcome.engines_checked.append("hadoop")
        outcome.record.observed_shuffle_bytes = observation.shuffle_bytes
        frame = run_r_plan(case.plan, self.frames)
        ids = np.sort(np.asarray(frame[case.key], dtype=np.int64))
        assert_values_match(ids, expected, EXACT, f"{context} [vanilla-r]")
        outcome.engines_checked.append("vanilla-r")
        coordinates = run_array_plan(case.plan, self.array_frames)
        ids = np.sort(np.asarray(coordinates, dtype=np.int64))
        assert_values_match(ids, expected, EXACT, f"{context} [scidb]")
        outcome.engines_checked.append("scidb")

    def _check_sample(self, case: FuzzCase, reference: dict, outcome: FuzzOutcome):
        """Sample plans: column store only — sampling semantics are per-engine."""
        expected = np.asarray(reference[case.key], dtype=np.int64)
        order = np.argsort(expected)
        context = f"seed={case.seed} shape=sample table={case.table}"
        for label, optimized in (("colstore", True), ("colstore-unopt", False)):
            query = run_plan(case.plan, self.store, optimized=optimized)
            ids = np.asarray(query.column(case.key), dtype=np.int64)
            qorder = np.argsort(ids)
            assert_values_match(ids[qorder], expected[order], EXACT,
                                f"{context} [{label}] ids")
            for column in reference:
                assert_values_match(
                    np.asarray(query.column(column))[qorder],
                    np.asarray(reference[column])[order],
                    EXACT, f"{context} [{label}] {column}",
                )
            outcome.engines_checked.append(label)

    def _check_approx(self, case: FuzzCase, reference: float, outcome: FuzzOutcome):
        """Sketch terminals: column store estimates vs the exact reference.

        Both the optimized and unoptimized lowerings must return a
        well-formed ``(estimate, ci_low, ci_high, confidence)`` whose
        estimate agrees with the reference's *exact* answer under the
        per-sketch tolerance — HLL within its three-sigma relative bound,
        the t-digest's deterministic rank bracket covering the truth.
        """
        for label, optimized in (("colstore", True), ("colstore-unopt", False)):
            result = run_plan(case.plan, self.store, optimized=optimized)
            self._assert_approx_run(case, result, reference, label)
            outcome.engines_checked.append(label)

    def _assert_approx_run(self, case: FuzzCase, result, reference: float,
                           label: str) -> None:
        """The per-lowering approx assertions (shared with mutated cases)."""
        plan = case.plan
        assert isinstance(plan, logical.ApproxAggregate)
        tolerance = sketch_tolerance(plan.kind)
        context = (f"seed={case.seed} shape=approx table={case.table} "
                   f"kind={plan.kind}")
        assert result.ci_low <= result.estimate <= result.ci_high, (
            f"{context} [{label}]: malformed interval {result}"
        )
        assert 0.0 < result.confidence < 1.0, (
            f"{context} [{label}]: confidence {result.confidence}"
        )
        if plan.kind == "approx_quantile":
            assert result.ci_low <= reference <= result.ci_high, (
                f"{context} [{label}]: exact quantile {reference} outside "
                f"rank bracket [{result.ci_low}, {result.ci_high}]"
            )
        else:
            assert_values_match(
                np.float64(result.estimate), np.float64(reference),
                tolerance, f"{context} [{label}]",
            )

    # -- mutated cases ----------------------------------------------------------------

    def _check_mutated_case(self, case: FuzzCase,
                            skew_selectivity: bool) -> FuzzOutcome:
        """Replay the write prelude, then compare colstore vs reference.

        A fresh per-case column store replays the lowered steps through
        the real delta API (append/delete/compact → tail, bitmap,
        generation bump), so the plan executes over ``MergedColumn``
        scans; the reference executes over the identically-mutated plain
        tables.  Static verification and the calibration record run
        against the *mutated* store, covering version-aware dtype answers
        and live-row estimates.
        """
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
        outcome = FuzzOutcome(case, self._record(case, trace, skew_selectivity,
                                                 store=store,
                                                 with_shuffle=False))
        runs = (("colstore", True), ("colstore-unopt", False))
        if case.shape == "meta":
            expected = np.sort(np.asarray(reference[case.key], dtype=np.int64))
            context = (f"seed={case.seed} shape=meta table={case.table} "
                       f"[mutated]")
            for label, optimized in runs:
                query = run_plan(case.plan, store, optimized=optimized)
                ids = np.sort(np.asarray(query.column(case.key),
                                         dtype=np.int64))
                assert_values_match(ids, expected, EXACT,
                                    f"{context} [{label}]")
                outcome.engines_checked.append(label)
            return outcome
        if trace.terminal_input_rows == 0:
            outcome.skipped_empty = True
            return outcome
        if case.shape == "approx":
            for label, optimized in runs:
                result = run_plan(case.plan, store, optimized=optimized)
                self._assert_approx_run(case, result, reference,
                                        f"{label} mutated")
                outcome.engines_checked.append(label)
            return outcome
        if case.shape == "aggregate":
            plan = case.plan
            assert isinstance(plan, logical.Aggregate)
            expected_keys = np.asarray(reference[0], dtype=np.int64)
            expected_values = np.asarray(reference[1], dtype=np.float64)
            tolerance = aggregate_tolerance("colstore", plan.function)
            context = (f"seed={case.seed} shape=aggregate table={case.table} "
                       f"fn={plan.function} [mutated]")
            for label, optimized in runs:
                keys, values = run_plan(case.plan, store, optimized=optimized)
                keys = np.asarray(np.asarray(keys, dtype=np.float64),
                                  dtype=np.int64)
                assert_values_match(keys, expected_keys, EXACT,
                                    f"{context} [{label}] keys")
                assert_values_match(np.asarray(values, dtype=np.float64),
                                    expected_values, tolerance,
                                    f"{context} [{label}] values")
                outcome.engines_checked.append(label)
            return outcome
        if case.shape == "pivot":
            matrix, rows, cols = reference
            context = f"seed={case.seed} shape=pivot table={case.table} [mutated]"
            for label, optimized in runs:
                m, r, c = _normalise_pivot(
                    *run_plan(case.plan, store, optimized=optimized)
                )
                assert_values_match(r, rows, EXACT, f"{context} [{label}] rows")
                assert_values_match(c, cols, EXACT, f"{context} [{label}] cols")
                assert_values_match(m, matrix, EXACT,
                                    f"{context} [{label}] matrix")
                outcome.engines_checked.append(label)
            return outcome
        raise ValueError(
            f"shape {case.shape!r} does not admit a mutation prelude"
        )

    def _check_aggregate(self, case: FuzzCase, reference, outcome: FuzzOutcome):
        plan = case.plan
        assert isinstance(plan, logical.Aggregate)
        expected_keys = np.asarray(reference[0], dtype=np.int64)
        expected_values = np.asarray(reference[1], dtype=np.float64)
        context = (f"seed={case.seed} shape=aggregate table={case.table} "
                   f"fn={plan.function}")
        for engine, keys, values in self._aggregate_runs(case, outcome):
            tolerance = aggregate_tolerance(engine, plan.function)
            keys = np.asarray(np.asarray(keys, dtype=np.float64), dtype=np.int64)
            assert_values_match(keys, expected_keys, EXACT,
                                f"{context} [{engine}] keys")
            assert_values_match(np.asarray(values, dtype=np.float64),
                                expected_values, tolerance,
                                f"{context} [{engine}] values")
            outcome.engines_checked.append(engine)

    def _aggregate_runs(self, case: FuzzCase, outcome: FuzzOutcome):
        yield ("colstore", *run_plan(case.plan, self.store, optimized=True))
        yield ("colstore-unopt", *run_plan(case.plan, self.store, optimized=False))
        yield ("postgres", *run_pg_plan(case.plan, self.db))
        observation = PlanObservation()
        keys, values = run_mr_plan(case.plan, self.hive_tables, self.hive,
                                   observation=observation)
        outcome.record.observed_shuffle_bytes = observation.shuffle_bytes
        yield ("hadoop", keys, values)
        yield ("vanilla-r", *run_r_plan(case.plan, self.frames))
        if not case.has_value_predicate:
            yield ("scidb", *run_array_plan(case.plan, self.array_frames))

    def _check_pivot(self, case: FuzzCase, reference, outcome: FuzzOutcome):
        matrix, rows, cols = reference
        context = f"seed={case.seed} shape=pivot table={case.table}"
        runs = [
            ("colstore", run_plan(case.plan, self.store, optimized=True)),
            ("colstore-unopt", run_plan(case.plan, self.store, optimized=False)),
            ("postgres", run_pg_plan(case.plan, self.db)),
        ]
        observation = PlanObservation()
        runs.append(("hadoop", run_mr_plan(case.plan, self.hive_tables, self.hive,
                                           observation=observation)))
        runs.append(("vanilla-r", run_r_plan(case.plan, self.frames)))
        if not case.has_value_predicate:
            runs.append(("scidb", run_array_plan(case.plan, self.array_frames)))
        for engine, (m, r, c) in runs:
            m, r, c = _normalise_pivot(m, r, c)
            assert_values_match(r, rows, EXACT, f"{context} [{engine}] rows")
            assert_values_match(c, cols, EXACT, f"{context} [{engine}] cols")
            assert_values_match(m, matrix, EXACT, f"{context} [{engine}] matrix")
            outcome.engines_checked.append(engine)
        outcome.record.observed_shuffle_bytes = observation.shuffle_bytes

    # -- calibration ------------------------------------------------------------------

    def _record(self, case: FuzzCase, trace: ReferenceTrace,
                skew_selectivity: bool, store: ColumnStore | None = None,
                with_shuffle: bool = True) -> CalibrationRecord:
        store = self.store if store is None else store
        catalog = ColumnStoreCatalog(store)
        predicted_plan = (_strip_filters(case.plan) if skew_selectivity
                          else case.plan)
        predicted = estimate_output_rows(predicted_plan, catalog)
        shuffle = None
        if with_shuffle and case.shape not in ("sample", "approx"):
            shuffle = estimate_shuffle_bytes(
                predicted_plan, self.hive_tables, n_splits=self.mr_engine.n_splits
            )
        record = CalibrationRecord(
            seed=case.seed,
            shape=case.shape,
            classes=_predicate_classes(case.plan),
            predicted_rows=None if predicted is None else float(predicted),
            observed_rows=trace.output_rows,
            predicted_shuffle_bytes=shuffle,
            explain=explain_plan(case.plan, store),
        )
        return record


def _normalise_pivot(matrix, rows, cols):
    """Reorder a pivot result to sorted labels (postgres uses first-seen)."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    row_order = np.argsort(rows)
    col_order = np.argsort(cols)
    return (np.asarray(matrix, dtype=np.float64)[np.ix_(row_order, col_order)],
            rows[row_order], cols[col_order])


def _predicate_classes(plan: logical.PlanNode) -> list[str]:
    """The structural classes of every filter conjunct in the plan."""
    kinds: list[str] = []

    def walk(node: logical.PlanNode):
        if isinstance(node, logical.Filter):
            for conjunct in split_conjuncts(node.predicate):
                kinds.append(classify(conjunct).kind)
        for child in node.children():
            walk(child)

    walk(plan)
    return kinds


def _strip_filters(node: logical.PlanNode) -> logical.PlanNode:
    """Remove every Filter — i.e. pretend all selectivities are 1.0."""
    if isinstance(node, logical.Filter):
        return _strip_filters(node.child)
    if isinstance(node, logical.Project):
        return logical.Project(_strip_filters(node.child), node.columns)
    if isinstance(node, logical.Sample):
        return logical.Sample(_strip_filters(node.child), node.fraction, node.seed)
    if isinstance(node, logical.Join):
        return logical.Join(
            _strip_filters(node.left), _strip_filters(node.right),
            node.left_key, node.right_key,
        )
    if isinstance(node, logical.Aggregate):
        return logical.Aggregate(
            _strip_filters(node.child), node.group_by, node.value, node.function
        )
    if isinstance(node, logical.Pivot):
        return logical.Pivot(
            _strip_filters(node.child), node.row_key, node.column_key, node.value
        )
    if isinstance(node, logical.ApproxAggregate):
        return logical.ApproxAggregate(
            _strip_filters(node.child), node.value, node.kind,
            node.quantile, node.confidence, node.fraction, node.seed,
        )
    return node
