"""The Postgres-based configurations (paper configurations 2 and 3).

Both engines here use the row store in :mod:`repro.relational` for data
management.  They differ in where the analytics run:

* :class:`PostgresMadlibEngine` — analytics stay *inside* the database as
  Madlib-style UDFs.  Regression and covariance use the compiled tier (fast,
  like Madlib's C++ functions); SVD runs on the interpreted tier (power
  iteration written against list-of-lists arithmetic, like Madlib functions
  that simulate matrix computations in SQL/plpython); biclustering does not
  exist and the query is unsupported.
* :class:`PostgresREngine` — the database only does data management.  Query
  results are exported as CSV text, re-parsed by the R environment, pivoted
  there, and analysed with R's BLAS-backed functions.  The export/parse copy
  is real work and is charged to the data-management phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.engines.base import (
    Engine,
    EngineCapabilities,
    covariance_pairs,
    membership_from_rows,
)
from repro.core.engines.rlang_engine import RAnalytics
from repro.core.queries import EXPRESSION_TRIPLE, dataset_tables
from repro.core.timing import PhaseTimer
from repro.datagen.dataset import GenBaseDataset
from repro.relational import ColumnType, Database
from repro.relational import operators as ops
from repro.relational.bridge import run_shared_plan
from repro.relational.query import QueryResultSet
from repro.relational.udf import UdfRegistry, default_madlib_registry
from repro.rlang.dataframe import DataFrame
from repro.rlang.io import dataframe_from_csv_string, dataframe_to_csv_string


class _RowStoreDataManagement(Engine):
    """Shared row-store loading and data-management hooks.

    The selections execute the same shared logical plans the column store
    runs (:mod:`repro.core.queries` builders): the shared optimizer pushes
    the dimension-side predicate below the join, prunes columns through it
    and annotates the build side from table cardinalities, and
    :mod:`repro.relational.bridge` lowers the optimized plan onto the
    Volcano operators.
    """

    def _load(self, dataset: GenBaseDataset) -> None:
        self.db = Database("genbase")
        for name, columns in dataset_tables(dataset).items():
            self.db.create_table(name, [
                (column, ColumnType.FLOAT if values.dtype.kind == "f" else ColumnType.INT)
                for column, values in columns.items()
            ])
            self.db.load_array(name, np.column_stack(list(columns.values())))
        self.db.create_table(
            "ontology",
            [("gene_id", ColumnType.INT), ("go_id", ColumnType.INT),
             ("belongs", ColumnType.INT)],
        )
        self.db.load_array("ontology", dataset.ontology_relational(include_zeros=False))
        self.n_go_terms = dataset.ontology.n_go_terms

    def _drug_response_for(self, patient_labels, timer: PhaseTimer) -> np.ndarray:
        """Project the drug-response column for the given patient ids, in order."""
        with timer.data_management():
            rows = ops.Project(ops.SeqScan(self.db.table("patients")),
                               ["patient_id", "drug_response"])
            response = {int(patient): value for patient, value in rows}
            return np.asarray([response[int(label)] for label in patient_labels])

    def _membership_matrix(self, gene_labels) -> np.ndarray:
        return membership_from_rows(
            gene_labels, ops.SeqScan(self.db.table("ontology")).rows(), self.n_go_terms
        )


@dataclass
class PostgresMadlibEngine(_RowStoreDataManagement):
    """Row store with in-database (Madlib-style) analytics UDFs."""

    name: str = "postgres-madlib"
    #: Madlib provides no biclustering function.
    capabilities: EngineCapabilities = field(
        default_factory=lambda: EngineCapabilities(
            supported_queries=frozenset({"regression", "covariance", "svd", "statistics"}),
        )
    )
    registry: UdfRegistry = field(default_factory=default_madlib_registry)

    def _pivot(self, child_plan, timer: PhaseTimer):
        with timer.data_management():
            return run_shared_plan(child_plan, self.db).pivot(*EXPRESSION_TRIPLE)

    def _annotate_pairs(self, gene_labels, gene_a, gene_b, values, timer: PhaseTimer) -> dict:
        with timer.data_management():
            gene_labels = np.asarray(gene_labels)
            function_lookup = dict(ops.Project(ops.SeqScan(self.db.table("genes")),
                                               ["gene_id", "function"]))
            joined_rows = sum(
                1 for a in gene_labels[gene_a] if int(a) in function_lookup
            ) if len(gene_a) else 0
        return {"joined_rows": joined_rows}

    def _analytics_regression(self, matrix, response, timer: PhaseTimer):
        with timer.analytics():
            fit = self.registry.call("linear_regression", matrix, response)
        return fit.r_squared, fit

    def _analytics_covariance(self, matrix, parameters, timer: PhaseTimer):
        with timer.analytics():
            return covariance_pairs(self.registry.call("covariance", matrix), parameters)

    def _analytics_svd(self, matrix, k, parameters, timer: PhaseTimer):
        with timer.analytics():
            singular_values = self.registry.call("svd", matrix, k)
        return singular_values, singular_values

    def _analytics_statistics(self, gene_scores, membership, parameters, timer: PhaseTimer):
        with timer.analytics():
            p_values = self.registry.call("enrichment", gene_scores, membership)
        return len(p_values), np.asarray(p_values) < parameters.statistics_alpha, p_values


@dataclass
class PostgresREngine(RAnalytics, _RowStoreDataManagement):
    """Row store for data management, external R for analytics (CSV hand-off)."""

    name: str = "postgres-r"
    capabilities: EngineCapabilities = field(
        default_factory=lambda: EngineCapabilities(uses_external_analytics=True)
    )

    def _export_to_r(self, result_set: QueryResultSet, timer: PhaseTimer) -> DataFrame:
        """Serialise a query result to CSV and re-parse it in the R environment.

        Both halves of the copy are charged to data management, along with a
        note of the number of bytes that crossed the boundary.
        """
        columns = list(result_set.schema.names)
        frame = DataFrame(
            {name: np.asarray(result_set.column(name)) for name in columns}
        )
        payload = dataframe_to_csv_string(frame)
        timer.note("export_bytes", float(len(payload)))
        return dataframe_from_csv_string(payload)

    def _pivot(self, child_plan, timer: PhaseTimer):
        with timer.data_management():
            r_frame = self._export_to_r(run_shared_plan(child_plan, self.db), timer)
            return r_frame.pivot_matrix(*EXPRESSION_TRIPLE)
