"""The executor contract, once, over all five single-node backends.

:func:`repro.plan.execute.execute` owns optimise → verify → lower →
terminal → observe for every bridge, so the contract is tested here once
on one tiny schema rather than per bridge: the optimizer never changes an
answer, every backend returns the same answer, and every backend reports
the same observed cardinality.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arraydb.bridge import ArrayFrame, matrix_frame, metadata_array
from repro.arraydb.bridge import run_shared_plan as run_array_plan
from repro.colstore import ColumnStore, run_plan
from repro.mapreduce import HiveSession, HiveTable
from repro.mapreduce.bridge import run_shared_plan as run_mr_plan
from repro.plan import (
    Aggregate,
    Filter,
    Join,
    Pivot,
    PlanObservation,
    Scan,
    approx_distinct,
    col,
)
from repro.relational import ColumnType, Database
from repro.relational.bridge import run_shared_plan as run_pg_plan
from repro.rlang.bridge import run_shared_plan as run_r_plan
from repro.rlang.dataframe import DataFrame

N_PATIENTS, N_GENES = 5, 3
AGES = np.array([30, 50, 20, 60, 41])
MATRIX = np.arange(1.0, 1.0 + N_PATIENTS * N_GENES).reshape(N_PATIENTS, N_GENES)


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
        "microarray": matrix_frame("microarray", MATRIX, ["patient_id", "gene_id"],
                                   "value", chunk_sizes=[2, 2]),
    }

    hive_tables = {
        "patients": HiveTable("patients", ("patient_id", "age"),
                              list(zip(patient_ids.tolist(), AGES.tolist(), strict=True))),
        "microarray": HiveTable("microarray", ("patient_id", "gene_id", "value"),
                                list(zip(long_patients.tolist(), long_genes.tolist(),
                                         long_values.tolist(), strict=True))),
    }
    session = HiveSession()

    r_frames = {
        "patients": DataFrame({"patient_id": patient_ids, "age": AGES}),
        "microarray": DataFrame({"patient_id": long_patients, "gene_id": long_genes,
                                 "value": long_values}),
    }

    return {
        "colstore": lambda plan, **kw: run_plan(plan, store, **kw),
        "postgres": lambda plan, **kw: run_pg_plan(plan, db, **kw),
        "scidb": lambda plan, **kw: run_array_plan(plan, array_frames, **kw),
        "hadoop": lambda plan, **kw: run_mr_plan(plan, hive_tables, session, **kw),
        "vanilla-r": lambda plan, **kw: run_r_plan(plan, r_frames, **kw),
    }


ENGINES = ("colstore", "postgres", "scidb", "hadoop", "vanilla-r")


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
    if engine == "colstore":
        return relation.column("patient_id")
    if engine == "postgres":
        return np.asarray(relation.column("patient_id"))
    if engine == "hadoop":
        return np.asarray(relation.column_values("patient_id"))
    if engine == "vanilla-r":
        return relation["patient_id"]
    return relation  # scidb: a metadata subtree answers with its coordinates


@pytest.mark.parametrize("shape", CASES)
@pytest.mark.parametrize("engine", ENGINES)
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


class TestApproxAggregateIsColumnStoreOnly:
    plan = approx_distinct(Scan("microarray"), "gene_id")

    def test_column_store_answers_and_observes_one_row(self, backends):
        seen = PlanObservation()
        result = backends["colstore"](self.plan, observation=seen)
        assert round(result.estimate) == N_GENES
        assert (seen.engine, seen.output_rows, seen.output_cells) == ("colstore", 1, None)

    @pytest.mark.parametrize("engine", ENGINES[1:])
    def test_other_backends_reject_it_by_name(self, backends, engine):
        for optimized in (True, False):
            with pytest.raises(TypeError, match="ApproxAggregate"):
                backends[engine](self.plan, optimized=optimized)
