"""Golden optimized plans: every backend's Q1–Q5 and lookup plans, as text.

Each file under ``tests/data/plans/`` holds the ``logical.explain`` text of
the plans one backend optimizes on ``tiny``, seed 7, phrased the way the
engines of that family send them (a ``Pivot`` on top where the bridge
pivots, the bare long-format plan where the engine pivots itself).  Any
optimizer change then shows up as a reviewed diff of these files.

Re-record after a deliberate plan change, then review the diff::

    PYTHONPATH=src python tests/test_golden_plans.py
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.arraydb.bridge import ArrayBackend
from repro.cluster.bridge import PartitionedBackend
from repro.colstore.planner import ColumnStoreBackend
from repro.core.engines import make_engine
from repro.core.queries import (
    bicluster_patient_predicate,
    covariance_patient_predicate,
    drug_response_plan,
    expression_pivot_plan,
    gene_annotation_plan,
    gene_expression_plan,
    go_membership_plan,
    patient_expression_plan,
    sampled_expression_filter_plan,
    sampled_expression_mean_plan,
    selected_gene_ids,
    statistics_patient_ids,
    statistics_patient_predicate,
)
from repro.core.spec import QueryParameters
from repro.datagen import GenBaseDataset
from repro.mapreduce.bridge import HiveBackend
from repro.plan import Filter, Scan
from repro.plan.logical import explain
from repro.plan.optimizer import optimize
from repro.relational.bridge import RelationalBackend
from repro.rlang.bridge import RBackend

PLANS_DIR = Path(__file__).parent / "data" / "plans"
BACKENDS = ("colstore", "relational", "array", "hive", "r", "cluster")


def _backend(name: str, dataset: GenBaseDataset):
    """The backend of one family over the tables its engine loads."""
    if name == "cluster":
        engine = make_engine("pbdr", n_nodes=2)
    else:
        engine = make_engine({"colstore": "columnstore-r", "relational": "postgres-r",
                              "array": "scidb", "hive": "hadoop",
                              "r": "vanilla-r"}[name])
    engine.load(dataset)
    if name == "colstore":
        return ColumnStoreBackend(engine.store, None)
    if name == "relational":
        return RelationalBackend(engine.db)
    if name == "array":
        return ArrayBackend(engine.frames, None)
    if name == "hive":
        return HiveBackend(engine.tables, engine.mr_engine)
    if name == "r":
        return RBackend(engine.frames)
    return PartitionedBackend(engine._patients_table, engine.cluster, None, None, prune=True)


def _plans(name: str, dataset: GenBaseDataset) -> dict[str, object]:
    """The plans the engines of one family send, by query, as they send them.

    The lookups take the ids a run sends where data management fixes them
    (every patient, every gene); the annotation lookup takes Q1's selected
    genes, because the kept pairs it reads come out of the analytics.
    """
    parameters = QueryParameters()
    threshold = parameters.function_threshold(dataset.spec)
    sampled = statistics_patient_ids(dataset, parameters)
    selections = {
        "q1_regression": gene_expression_plan(threshold),
        "q2_covariance": patient_expression_plan(covariance_patient_predicate(parameters)),
        "q3_biclustering": patient_expression_plan(bicluster_patient_predicate(parameters)),
        "q4_svd": gene_expression_plan(threshold),
        "q5_statistics": patient_expression_plan(statistics_patient_predicate(sampled)),
    }
    if name == "cluster":
        # Q1/Q4 select genes by position on each node, and the lookups run on
        # the driver's replicated column-store metadata: only the patient
        # filters reach the partitioned backend.
        return {query: Filter(Scan("patients"), predicate) for query, predicate in (
            ("q2_covariance", covariance_patient_predicate(parameters)),
            ("q3_biclustering", bicluster_patient_predicate(parameters)),
            ("q5_statistics", statistics_patient_predicate(sampled)),
        )}
    if name in ("colstore", "hive", "r"):
        plans = {query: expression_pivot_plan(plan) for query, plan in selections.items()}
    else:
        plans = dict(selections)
    if name == "colstore":
        plans["q5_statistics"] = sampled_expression_filter_plan(sampled)
    elif name == "array":
        plans["q5_statistics"] = sampled_expression_mean_plan(sampled)
    plans["lookup_drug_response"] = drug_response_plan(np.arange(dataset.n_patients))
    plans["lookup_gene_annotation"] = gene_annotation_plan(
        selected_gene_ids(dataset, parameters))
    plans["lookup_go_membership"] = go_membership_plan(np.arange(dataset.n_genes))
    return plans


def render(name: str, dataset: GenBaseDataset) -> str:
    """One backend's golden text: each optimized plan under a ``# query`` header."""
    backend = _backend(name, dataset)
    sections = [
        f"# {query}\n{explain(optimize(plan, backend.catalog, backend.capabilities))}\n"
        for query, plan in _plans(name, dataset).items()
    ]
    return "\n".join(sections)


@pytest.fixture(scope="module")
def tiny_seed7():
    return GenBaseDataset.generate("tiny", seed=7)


@pytest.mark.parametrize("name", BACKENDS)
def test_optimized_plans_match_the_golden_text(name, tiny_seed7):
    expected = (PLANS_DIR / f"{name}.txt").read_text()
    actual = render(name, tiny_seed7)
    diff = "".join(difflib.unified_diff(
        expected.splitlines(keepends=True), actual.splitlines(keepends=True),
        f"tests/data/plans/{name}.txt", "optimized now"))
    assert actual == expected, f"optimized plans moved; review, then re-record:\n{diff}"


def _scanned_tables(node) -> set[str]:
    if isinstance(node, Scan):
        return {node.table}
    return set().union(*(_scanned_tables(child) for child in node.children()))


@pytest.mark.parametrize("name", BACKENDS)
def test_catalog_types_every_column_its_plans_scan(name, tiny_seed7):
    # The catalog answers names and dtypes only; verification and pushdown
    # read both, so every table a backend's plans scan must be fully typed.
    catalog = _backend(name, tiny_seed7).catalog
    tables = set().union(*(_scanned_tables(plan)
                           for plan in _plans(name, tiny_seed7).values()))
    assert tables
    for table in sorted(tables):
        columns = catalog.columns_of(table)
        assert columns, table
        assert all(isinstance(catalog.dtype_of(table, column), np.dtype)
                   for column in columns), table
        assert catalog.dtype_of(table, "no_such_column") is None


if __name__ == "__main__":
    dataset = GenBaseDataset.generate("tiny", seed=7)
    PLANS_DIR.mkdir(parents=True, exist_ok=True)
    for backend_name in BACKENDS:
        (PLANS_DIR / f"{backend_name}.txt").write_text(render(backend_name, dataset))
        print(f"wrote {PLANS_DIR / backend_name}.txt", file=sys.stderr)
