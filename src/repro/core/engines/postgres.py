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

from repro.core.engines.base import Engine, EngineCapabilities, UnsupportedQueryError
from repro.core.queries import (
    QueryOutput,
    biclustering_output,
    covariance_output,
    gene_expression_plan,
    patient_expression_plan,
    regression_output,
    statistics_output,
    statistics_patient_ids,
    svd_output,
)
from repro.core.spec import QueryParameters
from repro.core.timing import PhaseTimer
from repro.datagen.dataset import GenBaseDataset
from repro.linalg.covariance import top_covariant_pairs
from repro.plan import col, lit
from repro.relational import ColumnType, Database
from repro.relational.bridge import run_shared_plan
from repro.relational.query import QueryResultSet
from repro.relational.udf import UdfRegistry, default_madlib_registry
from repro.rlang import stats as r
from repro.rlang.dataframe import DataFrame
from repro.rlang.io import dataframe_from_csv_string, dataframe_to_csv_string


class _RowStoreDataManagement(Engine):
    """Shared row-store loading and data-management plans."""

    def _load(self, dataset: GenBaseDataset) -> None:
        self.db = Database("genbase")
        self.db.create_table(
            "microarray",
            [("gene_id", ColumnType.INT), ("patient_id", ColumnType.INT),
             ("expression_value", ColumnType.FLOAT)],
        )
        self.db.load_array("microarray", dataset.microarray_relational())
        self.db.create_table(
            "genes",
            [("gene_id", ColumnType.INT), ("target", ColumnType.INT),
             ("position", ColumnType.INT), ("length", ColumnType.INT),
             ("function", ColumnType.INT)],
        )
        self.db.load_array("genes", dataset.genes_relational())
        self.db.create_table(
            "patients",
            [("patient_id", ColumnType.INT), ("age", ColumnType.INT),
             ("gender", ColumnType.INT), ("zipcode", ColumnType.INT),
             ("disease_id", ColumnType.INT), ("drug_response", ColumnType.FLOAT)],
        )
        self.db.load_array("patients", dataset.patients_relational())
        self.db.create_table(
            "ontology",
            [("gene_id", ColumnType.INT), ("go_id", ColumnType.INT),
             ("belongs", ColumnType.INT)],
        )
        self.db.load_array("ontology", dataset.ontology_relational(include_zeros=False))
        self.n_go_terms = dataset.ontology.n_go_terms

    # -- reusable query plans ----------------------------------------------------------
    #
    # The data-management stages execute the same shared logical plans the
    # column store runs (repro.core.queries builders): the shared optimizer
    # pushes the dimension-side predicate below the join, prunes columns
    # through it and annotates the build side from table cardinalities, and
    # repro.relational.bridge lowers the optimized plan onto the Volcano
    # operators.

    def _genes_by_function(self, threshold: int) -> QueryResultSet:
        """SELECT gene_id, patient_id, value FROM genes ⋈ microarray WHERE function < t."""
        return run_shared_plan(gene_expression_plan(threshold), self.db)

    def _patients_by_predicate(self, predicate) -> QueryResultSet:
        """SELECT patient_id, gene_id, value for patients matching a predicate."""
        return run_shared_plan(patient_expression_plan(predicate), self.db)

    def _patients_by_ids(self, patient_ids: np.ndarray) -> QueryResultSet:
        """SELECT patient_id, gene_id, value for an explicit patient-id list."""
        return self._patients_by_predicate(
            col("patient_id").isin([int(p) for p in patient_ids])
        )

    def _drug_response_for(self, patient_labels: np.ndarray) -> np.ndarray:
        """Project the drug-response column for the given patient ids, in order."""
        rows = (
            self.db.query("patients")
            .select("patient_id", "drug_response")
            .run()
        )
        response = {int(patient): value for patient, value in rows}
        return np.asarray([response[int(label)] for label in patient_labels])

    def _membership_matrix(self, gene_labels: np.ndarray) -> np.ndarray:
        """Build the gene × GO-term membership matrix for the given genes."""
        membership = np.zeros((len(gene_labels), self.n_go_terms), dtype=np.int8)
        positions = {int(label): position for position, label in enumerate(gene_labels)}
        for gene_id, go_id, _belongs in self.db.query("ontology").rows():
            position = positions.get(int(gene_id))
            if position is not None:
                membership[position, int(go_id)] = 1
        return membership


@dataclass
class PostgresMadlibEngine(_RowStoreDataManagement):
    """Row store with in-database (Madlib-style) analytics UDFs."""

    name: str = "postgres-madlib"
    capabilities: EngineCapabilities = field(
        default_factory=lambda: EngineCapabilities(
            supported_queries=frozenset({"regression", "covariance", "svd", "statistics"}),
        )
    )
    registry: UdfRegistry = field(default_factory=default_madlib_registry)

    # -- queries ------------------------------------------------------------------------

    def _run_regression(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        threshold = parameters.function_threshold(self.dataset.spec)
        with timer.data_management():
            result_set = self._genes_by_function(threshold)
            matrix, patient_labels, gene_labels = result_set.pivot(
                "patient_id", "gene_id", "expression_value"
            )
            response = self._drug_response_for(np.asarray(patient_labels))
        with timer.analytics():
            fit = self.registry.call("linear_regression", matrix, response)
        return regression_output(
            len(gene_labels), matrix.shape[0], fit.r_squared,
            payload=fit,
        )

    def _run_covariance(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        diseases = [int(d) for d in sorted(parameters.covariance_diseases)]
        with timer.data_management():
            result_set = self._patients_by_predicate(col("disease_id").isin(diseases))
            matrix, patient_labels, gene_labels = result_set.pivot(
                "patient_id", "gene_id", "expression_value"
            )
        with timer.analytics():
            cov = self.registry.call("covariance", matrix)
            gene_a, gene_b, values = top_covariant_pairs(
                cov, fraction=parameters.covariance_top_fraction
            )
        with timer.data_management():
            gene_labels = np.asarray(gene_labels)
            function_lookup = dict(
                self.db.query("genes").select("gene_id", "function").rows()
            )
            joined_rows = sum(
                1 for a in gene_labels[gene_a] if int(a) in function_lookup
            ) if len(gene_a) else 0
        return covariance_output(
            matrix.shape[0], len(gene_a), values,
            payload={"covariance": cov, "joined_rows": joined_rows},
        )

    def _run_biclustering(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        raise UnsupportedQueryError("Madlib provides no biclustering function")

    def _run_svd(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        threshold = parameters.function_threshold(self.dataset.spec)
        with timer.data_management():
            result_set = self._genes_by_function(threshold)
            matrix, _patients, gene_labels = result_set.pivot(
                "patient_id", "gene_id", "expression_value"
            )
        k = max(1, min(parameters.svd_k(self.dataset.spec), matrix.shape[1]))
        with timer.analytics():
            singular_values = self.registry.call("svd", matrix, k)
        return svd_output(len(gene_labels), singular_values, payload=singular_values)

    def _run_statistics(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        sampled = statistics_patient_ids(self.dataset, parameters)
        with timer.data_management():
            result_set = self._patients_by_ids(sampled)
            matrix, _patients, gene_labels = result_set.pivot(
                "patient_id", "gene_id", "expression_value"
            )
            gene_scores = self._gene_scores(matrix)
            membership = self._membership_matrix(np.asarray(gene_labels))
        with timer.analytics():
            p_values = self.registry.call("enrichment", gene_scores, membership)
        significant = np.asarray(p_values) < parameters.statistics_alpha
        return statistics_output(
            matrix.shape[0], len(p_values), significant,
            payload=p_values,
        )


@dataclass
class PostgresREngine(_RowStoreDataManagement):
    """Row store for data management, external R for analytics (CSV hand-off)."""

    name: str = "postgres-r"
    capabilities: EngineCapabilities = field(
        default_factory=lambda: EngineCapabilities(uses_external_analytics=True)
    )

    # -- the DBMS → R hand-off -----------------------------------------------------------

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

    # -- queries -----------------------------------------------------------------------------

    def _run_regression(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        threshold = parameters.function_threshold(self.dataset.spec)
        with timer.data_management():
            result_set = self._genes_by_function(threshold)
            r_frame = self._export_to_r(result_set, timer)
            matrix, patient_labels, gene_labels = r_frame.pivot_matrix(
                "patient_id", "gene_id", "expression_value"
            )
            response = self._drug_response_for(np.asarray(patient_labels))
        with timer.analytics():
            fit = r.lm(matrix, response)
        return regression_output(
            len(gene_labels), matrix.shape[0], fit.r_squared,
            payload=fit,
        )

    def _run_covariance(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        diseases = [int(d) for d in sorted(parameters.covariance_diseases)]
        with timer.data_management():
            result_set = self._patients_by_predicate(col("disease_id").isin(diseases))
            r_frame = self._export_to_r(result_set, timer)
            matrix, _patients, gene_labels = r_frame.pivot_matrix(
                "patient_id", "gene_id", "expression_value"
            )
        with timer.analytics():
            cov = r.cov(matrix)
            gene_a, gene_b, values = top_covariant_pairs(
                cov, fraction=parameters.covariance_top_fraction
            )
        return covariance_output(
            matrix.shape[0], len(gene_a), values,
            payload={"covariance": cov},
        )

    def _run_biclustering(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        with timer.data_management():
            result_set = self._patients_by_predicate(
                (col("gender") == lit(parameters.bicluster_gender))
                & (col("age") < lit(parameters.bicluster_max_age))
            )
            r_frame = self._export_to_r(result_set, timer)
            matrix, _patients, _genes = r_frame.pivot_matrix(
                "patient_id", "gene_id", "expression_value"
            )
        with timer.analytics():
            result = r.biclust(matrix, n_biclusters=parameters.n_biclusters, seed=parameters.seed)
        return biclustering_output(matrix.shape[0], result, payload=result)

    def _run_svd(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        threshold = parameters.function_threshold(self.dataset.spec)
        with timer.data_management():
            result_set = self._genes_by_function(threshold)
            r_frame = self._export_to_r(result_set, timer)
            matrix, _patients, gene_labels = r_frame.pivot_matrix(
                "patient_id", "gene_id", "expression_value"
            )
        k = max(1, min(parameters.svd_k(self.dataset.spec), matrix.shape[1]))
        with timer.analytics():
            result = r.svd(matrix, k=k, seed=parameters.seed)
        return svd_output(len(gene_labels), result.singular_values, payload=result)

    def _run_statistics(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        sampled = statistics_patient_ids(self.dataset, parameters)
        with timer.data_management():
            result_set = self._patients_by_ids(sampled)
            r_frame = self._export_to_r(result_set, timer)
            matrix, _patients, gene_labels = r_frame.pivot_matrix(
                "patient_id", "gene_id", "expression_value"
            )
            gene_scores = self._gene_scores(matrix)
            membership = self._membership_matrix(np.asarray(gene_labels))
        with timer.analytics():
            result = r.enrichment(gene_scores, membership, alpha=parameters.statistics_alpha)
        return statistics_output(
            matrix.shape[0], len(result.go_ids), result.significant,
            payload=result,
        )
