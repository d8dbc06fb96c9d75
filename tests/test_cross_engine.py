"""Cross-engine equivalence: one shared plan, every engine, identical answers.

The tentpole guarantee of the shared query surface: the five GenBase
queries produce **byte-identical summaries** across all five engine
families — column store, row store (postgres), array DBMS (scidb),
MapReduce (hadoop) and the R environment — at tiny and small sizes,
with every filter step running through the shared expression AST.

The only tolerated deviations are analytics-tier, not data-management:
Mahout's MapReduce kernels (naive summation order) differ from the
LAPACK/BLAS tier in the last ulps of their floating-point outputs, and
Mahout has no biclustering at all.  The matrices *entering* those
kernels are verified bitwise-identical through the shared plans.

Also here: the per-engine executor equivalence properties (chunked
shared-plan filters match plain evaluation, including chunk-skip edge
cases) and the MapReduce filter-before-shuffle accounting.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.arraydb import operators as ops
from repro.arraydb.bridge import (
    ArrayFrame,
    metadata_array,
    run_shared_plan as run_array_plan,
)
from repro.cluster import Cluster, PartitionedTable, PartitionStats
from repro.cluster.bridge import (
    expression_skips_partition,
    run_shared_plan as run_cluster_plan,
)
from repro.core import QUERY_NAMES, BenchmarkRunner
from repro.core.engines import MULTI_NODE_ENGINES, SINGLE_NODE_ENGINES, make_engine
from repro.core.queries import (
    bicluster_patient_predicate,
    covariance_patient_predicate,
    dataset_tables,
    expression_pivot_plan,
    gene_expression_plan,
    patient_expression_plan,
    statistics_patient_ids,
    statistics_patient_predicate,
)
from repro.core.runner import RunStatus
from repro.core.spec import default_parameters
from repro.datagen import GenBaseDataset
from repro.fuzz.tolerances import EXACT, MAHOUT_FLOAT_FIELDS, ULP
from repro.mapreduce import HiveSession, HiveTable, MapReduceEngine
from repro.mapreduce.bridge import run_shared_plan as run_mr_plan
from repro.plan import Filter, Scan, col
from repro.relational.bridge import run_shared_plan as run_pg_plan
from repro.rlang.bridge import run_shared_plan as run_r_plan
from repro.rlang.dataframe import DataFrame

#: Pre-migration multi-node summaries (generated on main before the engines
#: moved onto the cluster bridge) — the byte-identity reference.
MULTINODE_SNAPSHOT = json.loads(
    (pathlib.Path(__file__).parent / "data" / "multinode_summaries.json").read_text()
)

#: Single-node summaries (the seven Figure 1 engines + scidb-phi) taken on
#: main before the five query recipes moved into ``Engine``.
ENGINE_SNAPSHOT = json.loads(
    (pathlib.Path(__file__).parent / "data" / "engine_summaries.json").read_text()
)

#: One engine per family; columnstore-udf is the comparison base.
ENGINE_FAMILIES = ("columnstore-udf", "postgres-r", "scidb", "hadoop", "vanilla-r")


@pytest.fixture(scope="module")
def runner() -> BenchmarkRunner:
    return BenchmarkRunner(timeout_seconds=300, verify=False)


def _all_summaries(dataset, runner):
    summaries = {}
    for name in ENGINE_FAMILIES:
        engine = make_engine(name)
        engine.load(dataset)
        summaries[name] = {}
        for query in QUERY_NAMES:
            result = runner.run(query, engine, dataset)
            summaries[name][query] = (result.status, result.output.summary
                                      if result.status is RunStatus.OK else None)
    return summaries


def _assert_summary_equal(engine: str, query: str, actual: dict, base: dict):
    assert set(actual) == set(base), f"{engine}/{query}: summary keys differ"
    for key, value in actual.items():
        # Mahout's reassociated kernels on hadoop are ulp-tolerant, everything
        # else is exact (repro.fuzz.tolerances).
        tolerance = ULP if engine == "hadoop" and key in MAHOUT_FLOAT_FIELDS else EXACT
        if isinstance(value, float):
            ok = tolerance.matches(value, base[key])
        else:
            ok = value == base[key]
        assert ok, (
            f"{engine}/{query}/{key} ({tolerance.label}): {value} vs {base[key]}"
        )


class TestCrossEngineByteIdentity:
    """All five families answer the five queries byte-identically."""

    @pytest.mark.parametrize("fixture_name", ["tiny_dataset", "small_dataset"])
    def test_summaries_identical_across_engines(self, fixture_name, request, runner):
        dataset = request.getfixturevalue(fixture_name)
        summaries = _all_summaries(dataset, runner)
        base = summaries["columnstore-udf"]
        for engine in ENGINE_FAMILIES:
            for query in QUERY_NAMES:
                status, summary = summaries[engine][query]
                if engine == "hadoop" and query == "biclustering":
                    assert status is RunStatus.UNSUPPORTED
                    continue
                assert status is RunStatus.OK, f"{engine}/{query} failed"
                _assert_summary_equal(engine, query, summary, base[query][1])

    def test_migrated_adapters_leave_no_raw_callable_filters(self):
        """The migrated adapters contain no lambda predicates.

        Dataclass ``default_factory`` lambdas are fine; what must be gone
        are the legacy predicate idioms (``lambda v: …`` over attribute
        vectors, ``lambda row: …`` over Hive records, ``lambda f: …``
        over data frames, ``lambda p: …`` over node partitions).
        """
        import inspect

        from repro.core.engines import hadoop, multinode, phi, rlang_engine, scidb

        for module in (scidb, hadoop, rlang_engine, phi, multinode):
            source = inspect.getsource(module)
            for idiom in ("lambda v", "lambda row", "lambda f", "lambda p"):
                assert idiom not in source, (
                    f"{module.__name__} still builds raw callable predicates"
                )


class TestQ2AnnotationJoin:
    """Q2 joins its kept pairs back to the gene metadata.

    No summary records the join, so the engines that report its size in
    the payload are compared here.  On Hive the join matches only when the
    pair keys and the gene ids are of one class.
    """

    def test_joined_rows_agree_across_engines(self, runner):
        dataset = GenBaseDataset.generate("small", seed=7)
        joined_rows = {}
        for name in ("hadoop", "postgres-madlib", "vanilla-r"):
            engine = make_engine(name)
            engine.load(dataset)
            result = runner.run("covariance", engine, dataset)
            assert result.status is RunStatus.OK, name
            joined_rows[name] = result.output.payload["joined_rows"]
        assert joined_rows == dict.fromkeys(joined_rows, 495)


class TestMultiNodeByteIdentity:
    """The bridge migration changed no answer: every multi-node summary is
    byte-identical to the snapshot taken on main before the migration."""

    @pytest.mark.parametrize("engine_name", MULTI_NODE_ENGINES)
    def test_tiny_summaries_match_pre_migration_snapshot(self, engine_name, runner,
                                                         tiny_dataset):
        self._assert_snapshot(engine_name, "tiny", tiny_dataset, (1, 2, 4), runner)

    @pytest.mark.parametrize("engine_name", MULTI_NODE_ENGINES)
    def test_small_summaries_match_pre_migration_snapshot(self, engine_name, runner,
                                                          small_dataset):
        self._assert_snapshot(engine_name, "small", small_dataset, (2,), runner)

    @staticmethod
    def _assert_snapshot(engine_name, size, dataset, node_counts, runner):
        for n_nodes in node_counts:
            for query in QUERY_NAMES:
                result = runner.run(query, engine_name, dataset, n_nodes=n_nodes)
                key = f"{size}/{engine_name}/{n_nodes}/{query}"
                expected = MULTINODE_SNAPSHOT[key]
                if "__status__" in expected:
                    assert result.status.name == expected["__status__"], key
                    continue
                assert result.status is RunStatus.OK, f"{key}: {result.error}"
                assert result.output.summary == expected, key


class TestSingleNodeByteIdentity:
    """Moving the recipes into ``Engine`` changed no answer: every single-node
    summary is byte-identical to the snapshot taken on main before the move."""

    @pytest.mark.parametrize("engine_name", (*SINGLE_NODE_ENGINES, "scidb-phi"))
    @pytest.mark.parametrize("fixture_name", ["tiny_dataset", "small_dataset"])
    def test_summaries_match_pre_recipe_snapshot(self, engine_name, fixture_name,
                                                 request, runner):
        dataset = request.getfixturevalue(fixture_name)
        engine = make_engine(engine_name)
        engine.load(dataset)
        for query in QUERY_NAMES:
            result = runner.run(query, engine, dataset)
            key = f"{dataset.spec.name}/{engine_name}/{query}"
            expected = ENGINE_SNAPSHOT[key]
            if "__status__" in expected:
                assert result.status.name == expected["__status__"], key
                continue
            assert result.status is RunStatus.OK, f"{key}: {result.error}"
            assert json.dumps(result.output.summary, sort_keys=True) == json.dumps(
                expected, sort_keys=True
            ), key


#: ``(row count, sha256 of repr((column names, ordered rows)))`` of the five
#: queries' data-management plans on the row store, taken on main while the
#: row store still planned through its private IR.  Row *order* is pinned
#: because first-seen pivot labels depend on the join's output order.
ROW_STORE_PLAN_ROWS = {
    "tiny/regression": (540, "e7fc5093e65f009172bfcc1f17d9559c7cf85401c8a4087a67225826e443ea34"),
    "tiny/covariance": (1050, "bc4ed1d4555464d01d6e251a856572c01302383b109f34d0cd43b84b546c751c"),
    "tiny/biclustering": (450, "2fda25aa9dbb1e013b45bc094b5407fc404a76546d938e9d361db4de40193c44"),
    "tiny/svd": (540, "e7fc5093e65f009172bfcc1f17d9559c7cf85401c8a4087a67225826e443ea34"),
    "tiny/statistics": (600, "9451dbf7a60fd77fa3a1aec6e2f1558f0d4d6113351dcabb21f79ab2f87eb80c"),
    "small/regression": (2800, "d8d24fba34222fde707f3345ce4633b2a52398710b4a592464ba91323669e969"),
    "small/covariance": (3800, "727579ab23b217114afedbf82b35efe3c2002aed482daa7d644d9f050a23088a"),
    "small/biclustering": (1600, "37b02178a59fcb2e9325723f3a650aec5f74b3bb5e93a61912002cd609c5a272"),
    "small/svd": (2800, "d8d24fba34222fde707f3345ce4633b2a52398710b4a592464ba91323669e969"),
    "small/statistics": (2000, "c70a240d653808f58ff8306b0903166c97ac06f3593ad6ede0fbda35a05c6ac0"),
}


class TestRowStorePlanRowOrder:
    """Lowering straight onto the Volcano operators moved no row."""

    @pytest.mark.parametrize("engine_name", ("postgres-madlib", "postgres-r"))
    @pytest.mark.parametrize("fixture_name", ["tiny_dataset", "small_dataset"])
    def test_ordered_rows_match_pre_lowering_snapshot(self, engine_name, fixture_name,
                                                      request):
        dataset = request.getfixturevalue(fixture_name)
        parameters = default_parameters(dataset.spec)
        by_function = gene_expression_plan(parameters.function_threshold(dataset.spec))
        plans = {
            "regression": by_function,
            "covariance": patient_expression_plan(
                covariance_patient_predicate(parameters)),
            "biclustering": patient_expression_plan(
                bicluster_patient_predicate(parameters)),
            "svd": by_function,
            "statistics": patient_expression_plan(statistics_patient_predicate(
                statistics_patient_ids(dataset, parameters))),
        }
        engine = make_engine(engine_name)
        engine.load(dataset)
        for query, plan in plans.items():
            result = run_pg_plan(plan, engine.db)
            digest = hashlib.sha256(
                repr((tuple(result.schema.names), result.rows)).encode()
            ).hexdigest()
            assert (len(result), digest) == ROW_STORE_PLAN_ROWS[
                f"{dataset.spec.name}/{query}"], (engine_name, query)


def _table(columns_per_partition):
    return PartitionedTable.from_partitions(
        "patients",
        [{name: np.asarray(values) for name, values in part.items()}
         for part in columns_per_partition],
    )


class TestClusterPartitionPruning:
    """The cluster bridge prunes partitions from synopses, exactly."""

    def test_strictness_at_partition_edge(self):
        table = _table([{"age": np.arange(0, 10)}, {"age": np.arange(10, 20)}])
        low, high = table.synopses
        # Partition 2 spans [10, 19]: `< 10` excludes it, `<= 10` must not.
        assert expression_skips_partition(col("age") < 10, high)
        assert not expression_skips_partition(col("age") <= 10, high)
        # Partition 1 spans [0, 9]: `> 9` excludes it, `>= 9` must not.
        assert expression_skips_partition(col("age") > 9, low)
        assert not expression_skips_partition(col("age") >= 9, low)

    def test_filter_prunes_and_matches_plain_evaluation(self):
        ages = [np.arange(0, 10), np.arange(10, 20), np.arange(20, 30)]
        table = _table([{"age": a} for a in ages])
        stats = PartitionStats()
        cluster = Cluster(3)
        fragments = run_cluster_plan(
            Filter(Scan("patients"), col("age") < 10), table, cluster, stats=stats
        )
        np.testing.assert_array_equal(fragments[0], np.arange(10))
        assert all(len(fragment) == 0 for fragment in fragments[1:])
        assert stats.partitions_skipped == 2
        assert stats.partitions_scanned == 1
        assert sum(len(fragment) for fragment in fragments) == 10

    def test_membership_skips_via_distinct_set(self):
        # disease 7 lies inside both partitions' [min, max] spans; only the
        # distinct-set synopsis can prove the second partition empty.
        table = _table([
            {"disease_id": np.array([5, 6, 7, 9])},
            {"disease_id": np.array([5, 9, 5, 9])},
        ])
        predicate = col("disease_id").isin([7])
        assert not expression_skips_partition(predicate, table.synopses[0])
        assert expression_skips_partition(predicate, table.synopses[1])

    def test_all_partitions_pruned_returns_correct_empty_result(self):
        table = _table([{"age": np.arange(0, 10)}, {"age": np.arange(10, 20)}])
        stats = PartitionStats()
        fragments = run_cluster_plan(
            Filter(Scan("patients"), col("age") < -5), table, Cluster(2), stats=stats
        )
        assert [len(fragment) for fragment in fragments] == [0, 0]
        assert stats.partitions_skipped == 2
        assert stats.partitions_scanned == 0
        assert sum(len(fragment) for fragment in fragments) == 0

    def test_single_node_pruning_is_a_noop(self):
        table = _table([{"age": np.arange(0, 20)}])
        stats = PartitionStats()
        fragments = run_cluster_plan(
            Filter(Scan("patients"), col("age") < 5), table, Cluster(1), stats=stats
        )
        np.testing.assert_array_equal(fragments[0], np.arange(5))
        assert stats.partitions_skipped == 0
        assert stats.partitions_scanned == 1

    def test_unoptimized_lowering_matches_optimized(self, rng):
        ages = rng.integers(0, 100, size=60)
        genders = rng.integers(0, 2, size=60)
        parts = np.array_split(np.arange(60), 4)
        table = _table([
            {"age": ages[p], "gender": genders[p]} for p in parts
        ])
        plan = Filter(Scan("patients"), (col("gender") == 1) & (col("age") < 30))
        optimized = run_cluster_plan(plan, table, Cluster(4), optimized=True)
        unoptimized = run_cluster_plan(plan, table, Cluster(4), optimized=False)
        for a, b in zip(optimized, unoptimized, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_engine_statistics_prunes_partitions(self, tiny_dataset, runner):
        # 16 partitions of ~4 patients but only 12 sampled ids: at least
        # four partitions cannot contain any sample and must be pruned.
        engine = make_engine("pbdr", n_nodes=16)
        engine.load(tiny_dataset)
        result = runner.run("statistics", engine, tiny_dataset)
        assert result.status is RunStatus.OK, result.error
        assert engine.partition_stats.partitions_skipped >= 4
        assert engine.partition_stats.partitions_scanned <= 12
        reference = make_engine("pbdr", n_nodes=1)
        reference.load(tiny_dataset)
        baseline = runner.run("statistics", reference, tiny_dataset)
        assert result.output.summary == baseline.output.summary


class TestSciDBChunkSkipping:
    """The array engine's shared-plan filters skip chunks via synopses."""

    def test_engine_filters_skip_chunks(self, tiny_dataset, runner):
        engine = make_engine("scidb", chunk_size=4)
        engine.load(tiny_dataset)
        result = runner.run("biclustering", engine, tiny_dataset)
        assert result.status is RunStatus.OK, result.error
        # The age/gender conjunction runs chunk-wise over the metadata
        # arrays; with 4-wide chunks some chunks' min/max synopses must
        # exclude the predicate (deterministic dataset, seed 7).
        assert engine.filter_stats.chunks_skipped > 0
        assert engine.filter_stats.chunks_scanned > 0
        reference = make_engine("scidb")
        reference.load(tiny_dataset)
        baseline = runner.run("biclustering", reference, tiny_dataset)
        assert result.output.summary == baseline.output.summary

    def test_bridge_membership_skip_on_dimension(self):
        values = np.arange(100.0)
        frames = {"t": ArrayFrame("i", {"v": metadata_array("v", values, "i", "v", 10)})}
        stats = ops.FilterStats()
        coords = run_array_plan(
            Filter(Scan("t"), col("i").isin([3, 55])), frames, stats=stats
        )
        np.testing.assert_array_equal(coords, [3, 55])
        assert stats.chunks_skipped == 8

    def test_bridge_conjunction_skips_via_either_synopsis(self):
        ages = np.repeat([30.0, 70.0], 50)          # second half excludable
        genders = np.tile([0.0, 1.0], 50)           # mixed everywhere
        frames = {
            "patients": ArrayFrame("patient_id", {
                "age": metadata_array("age", ages, "patient_id", "age", 10),
                "gender": metadata_array("gender", genders, "patient_id", "gender", 10),
            })
        }
        stats = ops.FilterStats()
        coords = run_array_plan(
            Filter(Scan("patients"), (col("gender") == 1) & (col("age") < 40)),
            frames, stats=stats,
        )
        expected = np.flatnonzero((genders == 1) & (ages < 40))
        np.testing.assert_array_equal(coords, expected)
        assert stats.chunks_skipped == 5  # the five all-age-70 chunks

    def test_misaligned_metadata_chunking_is_rejected_by_name(self):
        # The filter pass walks one chunk grid for every column of a frame,
        # so a frame whose columns disagree on it cannot be built at all.
        values = np.arange(20.0)
        with pytest.raises(ValueError, match=r"frame 'patient_id'.*'gender': \(0, 19, 5\)"):
            ArrayFrame("patient_id", {
                "age": metadata_array("age", values, "patient_id", "age", 10),
                "gender": metadata_array("gender", values, "patient_id", "gender", 5),
            })


class TestChunkedFilterProperties:
    """Hypothesis: shared-plan filters on chunked arrays match plain numpy."""

    @settings(deadline=None, max_examples=60)
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False, allow_infinity=False, width=64),
            min_size=1, max_size=120,
        ),
        chunk=st.integers(min_value=1, max_value=17),
        threshold=st.floats(min_value=-1e6, max_value=1e6,
                            allow_nan=False, allow_infinity=False, width=64),
    )
    # All chunks skipped: every value below the threshold's reach.
    @example(values=[1.0] * 40, chunk=7, threshold=0.0)
    # Boundary-straddling runs: equal-value runs crossing chunk edges.
    @example(values=[0.0] * 9 + [5.0] * 9 + [0.0] * 9, chunk=6, threshold=5.0)
    # Threshold exactly on a chunk's min (strictness edge).
    @example(values=list(range(30)), chunk=10, threshold=10.0)
    def test_range_filter_matches_plain_evaluation(self, values, chunk, threshold):
        dense = np.asarray(values)
        column = metadata_array("v", dense, "i", "v", chunk)
        stats = ops.FilterStats()
        coords = run_array_plan(Filter(Scan("t"), col("v") < threshold),
                                {"t": ArrayFrame("i", {"v": column})}, stats=stats)
        np.testing.assert_array_equal(coords, np.flatnonzero(dense < threshold))
        assert stats.chunks_skipped + stats.chunks_scanned == column.chunk_count

    @settings(deadline=None, max_examples=40)
    @given(
        ages=st.lists(st.integers(min_value=0, max_value=99),
                      min_size=1, max_size=80),
        chunk=st.integers(min_value=1, max_value=13),
        max_age=st.integers(min_value=-5, max_value=105),
        gender=st.integers(min_value=0, max_value=1),
    )
    def test_metadata_conjunction_matches_plain_evaluation(self, ages, chunk,
                                                           max_age, gender):
        age_values = np.asarray(ages, dtype=np.float64)
        gender_values = np.asarray([i % 2 for i in range(len(ages))], dtype=np.float64)
        frames = {
            "patients": ArrayFrame("patient_id", {
                "age": metadata_array("age", age_values, "patient_id", "age", chunk),
                "gender": metadata_array("gender", gender_values, "patient_id",
                                         "gender", chunk),
            })
        }
        coords = run_array_plan(
            Filter(Scan("patients"),
                   (col("gender") == gender) & (col("age") < max_age)),
            frames,
        )
        expected = np.flatnonzero((gender_values == gender) & (age_values < max_age))
        np.testing.assert_array_equal(coords, expected)


class TestMapReduceFilterBeforeShuffle:
    """The fused join job filters map-side: fewer jobs, smaller shuffles."""

    @pytest.fixture()
    def loaded(self, tiny_dataset):
        engine = MapReduceEngine(n_splits=4)
        session = HiveSession(engine)
        tables = {name: HiveTable.from_columns(name, columns)
                  for name, columns in dataset_tables(tiny_dataset).items()}
        return engine, session, tables

    def test_fused_plan_matches_legacy_three_job_chain(self, loaded, tiny_dataset):
        engine, session, tables = loaded
        threshold = default_parameters(tiny_dataset.spec).function_threshold(
            tiny_dataset.spec
        )
        selected = session.select(tables["genes"], col("function") < threshold)
        projected = session.project(selected, ["gene_id"])
        joined = session.join(projected, tables["microarray"], "gene_id", "gene_id")
        legacy_jobs = len(engine.history)

        fused_engine = MapReduceEngine(n_splits=4)
        fused = run_mr_plan(
            expression_pivot_plan(gene_expression_plan(threshold)),
            tables, HiveSession(fused_engine),
        )
        matrix, rows, cols = fused
        legacy_rows = np.asarray(joined.column_values("patient_id"), dtype=np.int64)
        legacy_cols = np.asarray(joined.column_values("gene_id_right"), dtype=np.int64)
        legacy_values = np.asarray(joined.column_values("expression_value"))
        row_labels, row_pos = np.unique(legacy_rows, return_inverse=True)
        col_labels, col_pos = np.unique(legacy_cols, return_inverse=True)
        legacy_matrix = np.zeros((len(row_labels), len(col_labels)))
        legacy_matrix[row_pos, col_pos] = legacy_values
        np.testing.assert_array_equal(matrix, legacy_matrix)
        np.testing.assert_array_equal(rows, row_labels)
        np.testing.assert_array_equal(cols, col_labels)
        # One fused job replaces the select → project → join chain.
        assert len(fused_engine.history) == 1 < legacy_jobs

    def test_filtered_rows_never_reach_the_shuffle(self, loaded):
        engine, session, tables = loaded
        run_mr_plan(
            patient_expression_plan(col("patient_id").isin([0, 1])),
            tables, session,
        )
        job = engine.history[-1]
        n_micro = len(tables["microarray"])
        n_patients = len(tables["patients"])
        # Every input row is mapped, but the patients the predicate drops
        # are filtered *before* the spill: only the 2 surviving patient
        # rows (plus the unfiltered microarray side) reach the shuffle.
        assert job.counters.map_input_records == n_micro + n_patients
        assert job.counters.map_output_records == n_micro + 2

    def test_unoptimized_lowering_matches_optimized(self, loaded, tiny_dataset):
        _engine, session, tables = loaded
        plan = expression_pivot_plan(
            patient_expression_plan(col("disease_id").isin([1, 2, 3]))
        )
        optimized = run_mr_plan(plan, tables, session, optimized=True)
        unoptimized = run_mr_plan(plan, tables, session, optimized=False)
        for a, b in zip(optimized, unoptimized, strict=True):
            np.testing.assert_array_equal(a, b)


class TestRLangBridge:
    """The R executor matches plain-frame evaluation and both plan shapes."""

    def test_optimized_matches_unoptimized(self, tiny_dataset):
        micro = tiny_dataset.microarray_relational()
        frames = {
            "microarray": DataFrame({
                "gene_id": micro[:, 0].astype(np.int64),
                "patient_id": micro[:, 1].astype(np.int64),
                "expression_value": micro[:, 2],
            }),
            "patients": DataFrame({
                "patient_id": tiny_dataset.patients.patient_id,
                "age": tiny_dataset.patients.age,
                "gender": tiny_dataset.patients.gender,
                "disease_id": tiny_dataset.patients.disease_id,
            }),
        }
        plan = expression_pivot_plan(
            patient_expression_plan(
                (col("gender") == 1) & (col("age") < 50)
            )
        )
        optimized = run_r_plan(plan, frames, optimized=True)
        unoptimized = run_r_plan(plan, frames, optimized=False)
        for a, b in zip(optimized, unoptimized, strict=True):
            np.testing.assert_array_equal(a, b)
        mask = (tiny_dataset.patients.gender == 1) & (tiny_dataset.patients.age < 50)
        np.testing.assert_array_equal(optimized[1], np.flatnonzero(mask))
        np.testing.assert_array_equal(
            optimized[0], tiny_dataset.expression_matrix[np.flatnonzero(mask), :]
        )
