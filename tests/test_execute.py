"""The executor contract, once, over all five single-node backends and the cluster.

:func:`repro.plan.execute.execute` owns optimise → verify → lower →
terminal → observe for every bridge, so the contract is tested here once
on one tiny schema rather than per bridge: the optimizer never changes an
answer, every backend returns the same answer, and every backend reports
the same observed cardinality.
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

import repro

from repro.arraydb.array import ChunkedArray
from repro.arraydb.bridge import ArrayFrame, MatrixFrame, metadata_array
from repro.arraydb.bridge import run_shared_plan as run_array_plan
from repro.cluster import Cluster, PartitionedTable, PartitionStats
from repro.cluster.bridge import run_shared_plan as run_cluster_plan
from repro.colstore import ColumnStore, run_plan
from repro.mapreduce import HiveTable, MapReduceEngine
from repro.mapreduce.bridge import run_shared_plan as run_mr_plan
from repro.plan import (
    Aggregate,
    Filter,
    Join,
    Pivot,
    PlanObservation,
    Project,
    Sample,
    Scan,
    approx_mean,
    col,
    lit,
)
from repro.plan.execute import Backend
from repro.plan.logical import AGGREGATE_FUNCTIONS
from repro.plan.verify import PlanVerificationError
from repro.relational import ColumnType, Database
from repro.relational.bridge import run_shared_plan as run_pg_plan
from repro.rlang.bridge import run_shared_plan as run_r_plan
from repro.rlang.dataframe import DataFrame

N_PATIENTS, N_GENES = 5, 3
AGES = np.array([30, 50, 20, 60, 41])
MATRIX = np.arange(1.0, 1.0 + N_PATIENTS * N_GENES).reshape(N_PATIENTS, N_GENES)


class FragmentFailed(RuntimeError):
    """Raised by a test fragment on purpose."""


def five_backends() -> dict:
    """``engine label → run(plan, optimized=True, observation=None)``.

    One dense ``patients(patient_id, age)`` ⋈ ``microarray(patient_id,
    gene_id, value)`` world loaded into each engine family, behind each
    bridge's public entry point.  (Also imported by
    ``test_verify.TestSchemaBreakingOptimizerIsCaught``.)
    """
    patient_ids = np.arange(N_PATIENTS)
    long_patients = np.repeat(patient_ids, N_GENES)
    long_genes = np.tile(np.arange(N_GENES), N_PATIENTS)
    long_values = MATRIX.ravel()

    store = ColumnStore()
    store.create_table("patients", {"patient_id": patient_ids, "age": AGES})
    store.create_table("microarray", {"patient_id": long_patients,
                                      "gene_id": long_genes, "value": long_values})

    db = Database()
    db.create_table("patients", [("patient_id", ColumnType.INT),
                                 ("age", ColumnType.INT)])
    db.create_table("microarray", [("patient_id", ColumnType.INT),
                                   ("gene_id", ColumnType.INT),
                                   ("value", ColumnType.FLOAT)])
    db.insert("patients", zip(patient_ids.tolist(), AGES.tolist(), strict=True))
    db.insert("microarray", zip(long_patients.tolist(), long_genes.tolist(),
                                long_values.tolist(), strict=True))

    array_frames = {
        "patients": ArrayFrame("patient_id", {
            "age": metadata_array("age", AGES, "patient_id", "age", chunk_size=2)}),
        "microarray": MatrixFrame(ChunkedArray.from_dense(
            "microarray", MATRIX, ["patient_id", "gene_id"], "value", chunk_sizes=[2, 2]),
            "value"),
    }

    hive_tables = {
        "patients": HiveTable("patients", ("patient_id", "age"),
                              list(zip(patient_ids.tolist(), AGES.tolist(), strict=True))),
        "microarray": HiveTable("microarray", ("patient_id", "gene_id", "value"),
                                list(zip(long_patients.tolist(), long_genes.tolist(),
                                         long_values.tolist(), strict=True))),
    }
    mr_engine = MapReduceEngine()

    r_frames = {
        "patients": DataFrame({"patient_id": patient_ids, "age": AGES}),
        "microarray": DataFrame({"patient_id": long_patients, "gene_id": long_genes,
                                 "value": long_values}),
    }

    return {
        "colstore": lambda plan, **kw: run_plan(plan, store, **kw),
        "postgres": lambda plan, **kw: run_pg_plan(plan, db, **kw),
        "scidb": lambda plan, **kw: run_array_plan(plan, array_frames, **kw),
        "hadoop": lambda plan, **kw: run_mr_plan(plan, hive_tables, mr_engine, **kw),
        "vanilla-r": lambda plan, **kw: run_r_plan(plan, r_frames, **kw),
    }


ENGINES = ("colstore", "postgres", "scidb", "hadoop", "vanilla-r")
#: The engines a GenBase query sends an exact ``Aggregate`` (Q5's mean).
AGGREGATE_ENGINES = ("colstore", "scidb")


@pytest.fixture(scope="module")
def backends() -> dict:
    return five_backends()


YOUNG = AGES < 45
_JOINED = Join(Filter(Scan("patients"), col("age") < 45), Scan("microarray"),
               "patient_id", "patient_id")

#: plan shape → (plan, expected answer, expected output_rows, expected output_cells)
CASES = {
    "filter": (Filter(Scan("patients"), col("age") < 45),
               np.flatnonzero(YOUNG), int(YOUNG.sum()), None),
    "aggregate": (Aggregate(_JOINED, "gene_id", "value", "mean"),
                  (np.arange(N_GENES), MATRIX[YOUNG].mean(axis=0)), N_GENES, None),
    "pivot": (Pivot(_JOINED, "patient_id", "gene_id", "value"),
              (MATRIX[YOUNG], np.flatnonzero(YOUNG), np.arange(N_GENES)),
              int(YOUNG.sum()), int(YOUNG.sum()) * N_GENES),
}


def _patient_ids(engine: str, relation) -> np.ndarray:
    """The selected patient ids out of each backend's native relation."""
    if engine == "hadoop":
        return np.asarray(relation.column_values("patient_id"))
    if engine == "vanilla-r":
        return relation["patient_id"]
    return np.asarray(relation.column("patient_id"))


@pytest.mark.parametrize(("engine", "shape"), [
    pytest.param(engine, shape, id=f"{engine}-{shape}")
    for engine in ENGINES for shape in CASES
    if shape != "aggregate" or engine in AGGREGATE_ENGINES
])
class TestExecutorContract:
    def test_optimizer_never_changes_the_answer(self, backends, engine, shape):
        plan, expected, _rows, _cells = CASES[shape]
        for optimized in (True, False):
            result = backends[engine](plan, optimized=optimized)
            if shape == "filter":
                np.testing.assert_array_equal(
                    np.sort(_patient_ids(engine, result)), expected)
                continue
            for part, reference in zip(result, expected, strict=True):
                np.testing.assert_array_equal(part, reference)

    def test_observation_reports_the_same_cardinality(self, backends, engine, shape):
        plan, _expected, rows, cells = CASES[shape]
        for optimized in (True, False):
            seen = PlanObservation()
            backends[engine](plan, optimized=optimized, observation=seen)
            assert (seen.engine, seen.output_rows, seen.output_cells) == (
                engine, rows, cells)


def test_a_column_both_join_inputs_produce_is_refused_before_lowering(backends, monkeypatch):
    """``Join(Scan a, Scan b)`` whose inputs share a non-key name used to get three
    answers — the verifier typed it from the left input, the column store returned
    the right input's values, the row store raised on its duplicate schema.  Every
    backend that lowers ``Join`` now refuses the plan where it is typed."""
    def lowered(self, node):
        raise AssertionError(f"{type(self).__name__} started lowering {node!r}")

    for backend in Backend.__subclasses__():
        monkeypatch.setattr(backend, "lower", lowered)
    plan = Pivot(Join(Scan("microarray"), Scan("microarray"), "patient_id", "patient_id"),
                 "patient_id", "gene_id", "value")
    refusals = set()
    for engine in ENGINES:
        with pytest.raises(PlanVerificationError) as refused:
            backends[engine](plan)
        assert refused.value.rule == "ambiguous-join-column"
        assert refused.value.path == "Pivot > Join"
        refusals.add(str(refused.value))
    (message,) = refusals  # one error, whichever engine was asked
    assert "['gene_id', 'value']" in message and "left input" in message and "right input" in message


class TestClusterExecutorContract:
    """The sixth backend: one partitioned table, fragments in node order.

    The cluster admits ``Filter* → Scan`` — no exact or approximate
    aggregate, no join, no pivot — so it gets its own rows over the same
    ``patients`` world, split three ways.
    """

    PARTS = [np.array([0, 1]), np.array([2, 3]), np.array([4])]

    def _table(self) -> PartitionedTable:
        return PartitionedTable.from_partitions("patients", [
            {"patient_id": rows, "age": AGES[rows],
             "dose": MATRIX[rows, 0], "arm": rows % 2}
            for rows in self.PARTS
        ])

    def test_filter_prunes_only_when_optimized_with_identical_fragments(self):
        plan = Filter(Scan("patients"), (col("age") > 55) & (col("patient_id") >= 0))
        fragments = {}
        for optimized in (True, False):
            stats = PartitionStats()
            fragments[optimized] = run_cluster_plan(
                plan, self._table(), Cluster(3),
                stats=stats, optimized=optimized)
            # age > 55 holds for patient 3 only: partitions 0 and 2 are prunable.
            kept = sum(len(fragment) for fragment in fragments[optimized])
            assert (stats.partitions_scanned, stats.partitions_skipped, kept) == (
                (1, 2, 1) if optimized else (3, 0, 1))
        for pruned, scanned in zip(fragments[True], fragments[False], strict=True):
            np.testing.assert_array_equal(pruned, scanned)
        assert [fragment.tolist() for fragment in fragments[True]] == [[], [1], []]

    def test_a_fragment_that_raises_charges_nothing(self):
        cluster, stats = Cluster(3), PartitionStats()
        plan = Filter(Scan("patients"), col("age") < 55)
        run_cluster_plan(plan, self._table(), cluster, stats=stats)  # charge the node clocks
        cluster.gather([np.ones(4)] * 3)  # and the network

        def observed():
            return (dict(vars(stats)), cluster.simulated_elapsed_seconds,
                    cluster.network.total_bytes, cluster.network.total_seconds)

        before, calls = observed(), []

        def fragment(node_id, rows):
            calls.append(node_id)
            if node_id == 1:
                raise FragmentFailed(f"node {node_id}")
            return rows

        with pytest.raises(FragmentFailed, match="node 1"):
            run_cluster_plan(plan, self._table(), cluster, stats=stats, on_fragment=fragment)
        assert calls == [0, 1]  # raised once, and the node after it never ran
        assert observed() == before

    @pytest.mark.parametrize("function", AGGREGATE_FUNCTIONS)
    def test_exact_aggregate_is_rejected_before_dispatch(self, function):
        plan = Aggregate(Filter(Scan("patients"), col("age") < 55), "arm", "dose", function)
        for optimized in (True, False):
            stats = PartitionStats()
            with pytest.raises(TypeError,
                               match="cannot execute plan node Aggregate on the cluster"):
                run_cluster_plan(plan, self._table(), Cluster(3),
                                 stats=stats, optimized=optimized)
            assert stats.partitions_scanned == stats.partitions_skipped == 0  # nothing dispatched

    def test_unknown_aggregate_function_is_rejected_before_dispatch(self):
        plan = Aggregate(Scan("patients"), "arm", "dose", "median")
        stats = PartitionStats()
        with pytest.raises(PlanVerificationError, match="unknown aggregate function 'median'"):
            run_cluster_plan(plan, self._table(), Cluster(3), stats=stats)
        with pytest.raises(TypeError, match="cannot execute plan node Aggregate"):
            run_cluster_plan(plan, self._table(), Cluster(3), stats=stats, optimized=False)
        assert stats.partitions_scanned == stats.partitions_skipped == 0  # nothing dispatched

    @pytest.mark.parametrize("plan", [
        Project(Filter(Scan("patients"), col("age") < 55), ("age",)),
        Sample(Scan("patients"), 0.5, seed=1),
        Join(Scan("patients"), Project(Scan("patients"), ("arm",)), "arm", "arm"),
    ], ids=["project", "sample", "join"])
    def test_lowering_names_the_admitted_shape(self, plan):
        for optimized in (True, False):
            stats = PartitionStats()
            with pytest.raises(ValueError, match=r"lowers Filter\*/Scan\('patients'\) plans, got "
                                                 + type(plan).__name__):
                run_cluster_plan(plan, self._table(), Cluster(3),
                                 stats=stats, optimized=optimized)
            assert stats.partitions_scanned == stats.partitions_skipped == 0

    def test_sampled_kinds_and_other_shapes_are_rejected_by_name(self):
        cluster = Cluster(3)
        for optimized in (True, False):
            # The same refusal as an exact Aggregate's: the cluster runs no terminal.
            with pytest.raises(TypeError, match="cannot execute plan node "
                                                "ApproxAggregate on the cluster executor"):
                run_cluster_plan(approx_mean(Scan("patients"), "dose", fraction=0.5),
                                 self._table(), cluster, optimized=optimized)
        with pytest.raises(ValueError, match=r"Filter\*/Scan\('patients'\)"):
            run_cluster_plan(Filter(Scan("genes"), col("age") < 9),
                             self._table(), cluster, optimized=False)
        with pytest.raises(TypeError, match="Pivot on the cluster executor"):
            run_cluster_plan(Pivot(Scan("patients"), "patient_id", "arm", "dose"),
                             self._table(), cluster)


def test_every_bridge_entry_point_is_one_call_into_the_driver():
    """Public ``run_plan`` / ``run_shared_plan`` bodies are one ``return execute(...)``.

    A seventh bridge that grows its own optimise → verify → lower skeleton
    fails here.  The MapReduce bridge may wrap its single return in the
    ``try``/``finally`` that reads the shuffle counters around it.
    """
    package = pathlib.Path(repro.__file__).parent
    statements = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name in ("run_plan", "run_shared_plan"):
                (returned,) = [n for n in ast.walk(node) if isinstance(n, ast.Return)]
                assert isinstance(returned.value, ast.Call), path
                assert returned.value.func.id == "execute", path
                docstring = ast.get_docstring(node) is not None
                statements[str(path.relative_to(package))] = len(node.body) - docstring
    assert statements == {
        "arraydb/bridge.py": 1,
        "cluster/bridge.py": 1,
        "colstore/planner.py": 1,
        "mapreduce/bridge.py": 2,  # jobs_before = …; try: return execute(…) finally: …
        "relational/bridge.py": 1,
        "rlang/bridge.py": 1,
    }


class TestApproxAggregateIsColumnStoreOnly:
    plan = approx_mean(Scan("microarray"), "value")

    def test_column_store_answers_and_observes_one_row(self, backends):
        seen = PlanObservation()
        result = backends["colstore"](self.plan, observation=seen)
        assert tuple(result) == (MATRIX.mean(), MATRIX.mean(), MATRIX.mean(), 0.95)
        assert (seen.engine, seen.output_rows, seen.output_cells) == ("colstore", 1, None)

    @pytest.mark.parametrize("engine", ENGINES[1:])
    def test_other_backends_reject_it_by_name(self, backends, engine):
        for optimized in (True, False):
            with pytest.raises(TypeError, match="ApproxAggregate"):
                backends[engine](self.plan, optimized=optimized)


class TestExactAggregateIsColumnStoreAndArrayOnly:
    @pytest.mark.parametrize("function", AGGREGATE_FUNCTIONS)
    @pytest.mark.parametrize("engine", AGGREGATE_ENGINES)
    def test_answers_match_numpy(self, backends, engine, function):
        young = MATRIX[YOUNG]
        expected = {
            "count": np.full(N_GENES, float(len(young))),
            "sum": young.sum(axis=0),
            "mean": young.mean(axis=0),
            "min": young.min(axis=0),
            "max": young.max(axis=0),
        }[function]
        plan = Aggregate(_JOINED, "gene_id", "value", function)
        for optimized in (True, False):
            keys, values = backends[engine](plan, optimized=optimized)
            np.testing.assert_array_equal(keys, np.arange(N_GENES))
            np.testing.assert_allclose(values, expected, rtol=1e-12)

    @pytest.mark.parametrize("plan", [
        Aggregate(_JOINED, "missing", "value", "mean"),
        Aggregate(_JOINED, "gene_id", "missing", "mean"),
    ], ids=["group", "value"])
    @pytest.mark.parametrize("engine", AGGREGATE_ENGINES)
    def test_unknown_column_raises_naming_it(self, backends, engine, plan):
        # Optimized, the verifier refuses the plan; unoptimized, the engine's
        # own lookup does.  Either way the error names the column.
        for optimized in (True, False):
            with pytest.raises((KeyError, PlanVerificationError), match="'missing'"):
                backends[engine](plan, optimized=optimized)

    @pytest.mark.parametrize("engine", sorted(set(ENGINES) - set(AGGREGATE_ENGINES)))
    def test_other_backends_reject_it_by_name(self, backends, engine):
        plan = CASES["aggregate"][0]
        message = f"cannot execute plan node Aggregate on the {engine} executor"
        for optimized in (True, False):
            with pytest.raises(TypeError, match=f"^{message}$"):
                backends[engine](plan, optimized=optimized)


class TestSampleIsColumnStoreOnly:
    plan = Sample(Filter(Scan("patients"), col("age") < 45), 0.5, seed=3)

    def test_column_store_samples_the_selection(self, backends):
        sampled = _patient_ids("colstore", backends["colstore"](self.plan))
        assert len(sampled) == 2 and set(sampled) <= set(np.flatnonzero(YOUNG))

    @pytest.mark.parametrize("engine", ENGINES[1:])
    def test_other_backends_reject_it_by_name(self, backends, engine):
        for optimized in (True, False):
            with pytest.raises(TypeError, match="Sample"):
                backends[engine](self.plan, optimized=optimized)


def test_a_value_predicate_on_the_array_backend_names_the_value_column(backends):
    # On arrays an absent cell would read as 0, which a row filter on the long
    # fact table never answers, so the array executor refuses the predicate.
    plan = Pivot(Filter(_JOINED, col("value") > 3.0), "patient_id", "gene_id", "value")
    for optimized in (True, False):
        with pytest.raises(TypeError, match="value column 'value'"):
            backends["scidb"](plan, optimized=optimized)
    assert backends["colstore"](plan)[0].size  # the column store answers it
    # A predicate on no column at all filters no dimension either.
    constant = Pivot(Filter(Scan("microarray"), lit(1) < lit(2)), "patient_id", "gene_id", "value")
    with pytest.raises(TypeError, match="exactly one dimension of 'microarray'"):
        backends["scidb"](constant)
