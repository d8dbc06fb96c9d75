"""Cross-engine equivalence: one shared plan, every engine, identical answers.

The tentpole guarantee of the shared query surface: every field of every
answer of all fourteen engines matches ``ReferenceImplementation``'s
under :mod:`repro.fuzz.tolerances`, at tiny and small sizes, with every
filter step running through the shared expression AST, and every summary
is byte-identical to its snapshot.

The only tolerated deviations are analytics-tier, not data-management:
Mahout's MapReduce kernels and the distributed ScaLAPACK tier sum in
their own order and solve Q1 by normal equations, the power-iteration
SVD tiers miss the Lanczos spectrum at ``small`` (ROADMAP item 2, a
strict xfail), and Mahout and Madlib have no biclustering at all.  The
matrices *entering* those kernels are verified bitwise-identical through
the shared plans.

Also here: the per-engine executor equivalence properties (chunked
shared-plan filters match plain evaluation, including chunk-skip edge
cases) and the MapReduce filter-before-shuffle accounting.
"""

from __future__ import annotations

import dataclasses
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
from repro.core import QUERY_NAMES, BenchmarkRunner, ReferenceImplementation
from repro.core.engines import (
    ENGINE_FACTORIES,
    MULTI_NODE_ENGINES,
    SINGLE_NODE_ENGINES,
    make_engine,
)
from repro.core.queries import (
    BiclusteringAnswer,
    CovarianceAnswer,
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
from repro.fuzz.reference import run_reference
from repro.fuzz.tolerances import (
    ANSWER_TOLERANCES,
    EXACT,
    POWER_ITERATION_ENGINES,
    assert_values_match,
)
from repro.mapreduce import HiveTable, MapReduceEngine
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


@pytest.fixture(scope="module")
def runner() -> BenchmarkRunner:
    return BenchmarkRunner(timeout_seconds=300, verify=False)


@pytest.fixture(scope="module")
def runs(runner):
    """``runs(dataset, engine, n_nodes=None) → {query: QueryResult}``, each
    cell run once per module on one freshly loaded engine, so the snapshot
    tests and the answer test read the same runs."""
    cache = {}

    def run(dataset, engine_name: str, n_nodes: int | None = None) -> dict:
        key = (dataset.spec.name, engine_name, n_nodes)
        if key not in cache:
            engine = make_engine(engine_name, **({} if n_nodes is None else {"n_nodes": n_nodes}))
            engine.load(dataset)
            cache[key] = {query: runner.run(query, engine, dataset) for query in QUERY_NAMES}
        return cache[key]

    return run


class TestAdaptersUseSharedExpressions:
    """The adapters' filters are shared-AST expressions, not callables."""

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


class TestMultiNodeByteIdentity:
    """The bridge migration changed no answer: every multi-node summary is
    byte-identical to the snapshot taken on main before the migration."""

    @pytest.mark.parametrize("engine_name", MULTI_NODE_ENGINES)
    def test_tiny_summaries_match_pre_migration_snapshot(self, engine_name, runs,
                                                         tiny_dataset):
        self._assert_snapshot(engine_name, "tiny", tiny_dataset, (1, 2, 4), runs)

    @pytest.mark.parametrize("engine_name", MULTI_NODE_ENGINES)
    def test_small_summaries_match_pre_migration_snapshot(self, engine_name, runs,
                                                          small_dataset):
        self._assert_snapshot(engine_name, "small", small_dataset, (2,), runs)

    @staticmethod
    def _assert_snapshot(engine_name, size, dataset, node_counts, runs):
        for n_nodes in node_counts:
            for query, result in runs(dataset, engine_name, n_nodes).items():
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
                                                 request, runs):
        dataset = request.getfixturevalue(fixture_name)
        for query, result in runs(dataset, engine_name).items():
            key = f"{dataset.spec.name}/{engine_name}/{query}"
            expected = ENGINE_SNAPSHOT[key]
            if "__status__" in expected:
                assert result.status.name == expected["__status__"], key
                continue
            assert result.status is RunStatus.OK, f"{key}: {result.error}"
            assert json.dumps(result.output.summary, sort_keys=True) == json.dumps(
                expected, sort_keys=True
            ), key


#: ROADMAP item 2: the power-iteration SVD tiers miss the Lanczos spectrum
#: at ``small`` (worst relative error 2.7e-3 on Hadoop and 2.0e-2 on Madlib
#: at seed 11).  Strict, so the fix must remove it.
_ITEM_2 = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: Hadoop's and Madlib's power-iteration SVD misses the "
    "Lanczos spectrum at small"))


def _answer_cells():
    """``(fixture, engine, n_nodes, query)`` for every supported cell of all
    14 engines: single-node at both fixtures, multi-node on 1, 2 and 4
    nodes at ``tiny`` and on 2 at ``small`` — the snapshot tests' cells,
    plus ``scidb-phi-cluster``."""
    multi_node = (*MULTI_NODE_ENGINES, "scidb-phi-cluster")
    instances = [(fixture, name, None) for fixture in ("tiny_dataset", "small_dataset")
                 for name in ENGINE_FACTORIES if name not in multi_node]
    instances += [("tiny_dataset", name, n) for name in multi_node for n in (1, 2, 4)]
    instances += [("small_dataset", name, 2) for name in multi_node]
    for fixture, name, n_nodes in instances:
        supported = ENGINE_FACTORIES[name]().capabilities.supported_queries
        for query in QUERY_NAMES:
            if query not in supported:
                continue
            item_2 = (fixture == "small_dataset" and query == "svd"
                      and name in POWER_ITERATION_ENGINES)
            yield pytest.param(fixture, name, n_nodes, query, marks=[_ITEM_2] if item_2 else [],
                               id=f"{fixture[:-8]}-{name}-{n_nodes or 1}-{query}")


def _comparable(answer) -> dict:
    """An answer's fields as ``{name: value}``, with Q2's pairs sorted by gene
    ids and Q3's biclusters split into sorted id sets, one key each."""
    fields = {field.name: getattr(answer, field.name) for field in dataclasses.fields(answer)}
    if isinstance(answer, CovarianceAnswer):
        order = np.lexsort((answer.gene_b, answer.gene_a))
        for name in ("gene_a", "gene_b", "values"):
            fields[name] = fields[name][order]
    if isinstance(answer, BiclusteringAnswer):
        del fields["biclusters"]
        for i, (patients, genes) in enumerate(answer.biclusters):
            fields[f"bicluster {i} patients"] = np.sort(patients)
            fields[f"bicluster {i} genes"] = np.sort(genes)
    return fields


@pytest.fixture(scope="module")
def reference_answers():
    """``reference_answers(dataset) → {query: answer}``, computed once per dataset."""
    cache = {}

    def answers(dataset) -> dict:
        if dataset.spec.name not in cache:
            reference = ReferenceImplementation(dataset)
            cache[dataset.spec.name] = {query: reference.run(query).answer
                                        for query in QUERY_NAMES}
        return cache[dataset.spec.name]

    return answers


class TestAnswersMatchReference:
    """Every field of every engine's answer matches the reference's, exact
    unless :data:`repro.fuzz.tolerances.ANSWER_TOLERANCES` names it.

    This is where cross-engine agreement of Q2's kept pairs and
    ``joined_rows`` (the annotation join), Q3's bicluster memberships and
    Q4's spectra is checked; full covariance matrices agree across the
    kernel tiers in ``tests/test_kernel_operands.py``.
    """

    @pytest.mark.parametrize("fixture_name, engine_name, n_nodes, query", _answer_cells())
    def test_every_field_matches_reference(self, fixture_name, engine_name, n_nodes, query,
                                           request, runs, reference_answers):
        dataset = request.getfixturevalue(fixture_name)
        result = runs(dataset, engine_name, n_nodes)[query]
        assert result.status is RunStatus.OK, result.error
        answer, reference = result.output.answer, reference_answers(dataset)[query]
        assert type(answer) is type(reference)
        got = _comparable(answer)
        expected = _comparable(reference)
        assert got.keys() == expected.keys()
        for name, value in expected.items():
            tolerance = ANSWER_TOLERANCES.get((query, name, engine_name), EXACT)
            assert_values_match(got[name], value, tolerance,
                                f"{engine_name}/{n_nodes}/{query}/{name}")


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
        rows = run_array_plan(
            Filter(Scan("t"), col("i").isin([3, 55])), frames, stats=stats
        )
        np.testing.assert_array_equal(rows.column("i"), [3, 55])
        np.testing.assert_array_equal(rows.column("v"), [3.0, 55.0])
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
        rows = run_array_plan(
            Filter(Scan("patients"), (col("gender") == 1) & (col("age") < 40)),
            frames, stats=stats,
        )
        expected = np.flatnonzero((genders == 1) & (ages < 40))
        np.testing.assert_array_equal(rows.column("patient_id"), expected)
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
        rows = run_array_plan(Filter(Scan("t"), col("v") < threshold),
                              {"t": ArrayFrame("i", {"v": column})}, stats=stats)
        np.testing.assert_array_equal(rows.column("i"), np.flatnonzero(dense < threshold))
        np.testing.assert_array_equal(rows.column("v"), dense[dense < threshold])
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
        rows = run_array_plan(
            Filter(Scan("patients"),
                   (col("gender") == gender) & (col("age") < max_age)),
            frames,
        )
        expected = np.flatnonzero((gender_values == gender) & (age_values < max_age))
        np.testing.assert_array_equal(rows.column("patient_id"), expected)


class TestMapReduceFilterBeforeShuffle:
    """The fused join job filters map-side: fewer jobs, smaller shuffles."""

    @pytest.fixture()
    def loaded(self, tiny_dataset):
        tables = {name: HiveTable.from_columns(name, columns)
                  for name, columns in dataset_tables(tiny_dataset).items()}
        return MapReduceEngine(n_splits=4), tables

    def test_fused_plan_matches_reference_interpreter(self, loaded, tiny_dataset):
        engine, tables = loaded
        threshold = default_parameters(tiny_dataset.spec).function_threshold(
            tiny_dataset.spec
        )
        plan = expression_pivot_plan(gene_expression_plan(threshold))
        fused = run_mr_plan(plan, tables, engine)
        for got, expected in zip(fused, run_reference(plan, dataset_tables(tiny_dataset)),
                                 strict=True):
            np.testing.assert_array_equal(got, expected)
        # The filter and projection ride in the join job's map phase.
        assert len(engine.history) == 1

    def test_filtered_rows_never_reach_the_shuffle(self, loaded):
        engine, tables = loaded
        run_mr_plan(
            patient_expression_plan(col("patient_id").isin([0, 1])),
            tables, engine,
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
        engine, tables = loaded
        plan = expression_pivot_plan(
            patient_expression_plan(col("disease_id").isin([1, 2, 3]))
        )
        optimized = run_mr_plan(plan, tables, engine, optimized=True)
        unoptimized = run_mr_plan(plan, tables, engine, optimized=False)
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
