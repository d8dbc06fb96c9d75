"""The column-store configurations (paper configurations 4 and 5).

Both engines run data management in the compressed, vectorised column store;
they differ in where the analytics run:

* :class:`ColumnStoreREngine` — exports the query result as CSV to the
  external R environment (copy/reformat cost charged to data management),
  then runs R's BLAS-backed analytics; this is the paper's
  "column store + R".
* :class:`ColumnStoreUdfEngine` — runs the same R functions *inside* the
  database through the UDF host, paying per-call marshalling instead of a
  CSV round trip; this is the paper's "column store + UDFs".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.colstore import ColumnStore
from repro.colstore.planner import run_plan
from repro.colstore.udf import UdfHost
from repro.core.engines.base import Engine, EngineCapabilities
from repro.core.queries import (
    QueryOutput,
    bicluster_patient_predicate,
    biclustering_output,
    covariance_output,
    covariance_patient_predicate,
    expression_pivot_plan,
    gene_expression_plan,
    patient_expression_plan,
    regression_output,
    sampled_expression_filter_plan,
    statistics_output,
    statistics_patient_ids,
    svd_output,
)
from repro.core.spec import QueryParameters
from repro.core.timing import PhaseTimer
from repro.datagen.dataset import GenBaseDataset
from repro.linalg.covariance import top_covariant_pairs
from repro.rlang import stats as r
from repro.rlang.dataframe import DataFrame
from repro.rlang.io import dataframe_from_csv_string, dataframe_to_csv_string


class _ColumnStoreDataManagement(Engine):
    """Shared column-store loading and data-management plans."""

    def _load(self, dataset: GenBaseDataset) -> None:
        self.store = ColumnStore("genbase")
        micro = dataset.microarray_relational()
        self.store.create_table(
            "microarray",
            {
                "gene_id": micro[:, 0].astype(np.int64),
                "patient_id": micro[:, 1].astype(np.int64),
                "expression_value": micro[:, 2],
            },
        )
        self.store.create_table(
            "genes",
            {
                "gene_id": dataset.genes.gene_id,
                "target": dataset.genes.target,
                "position": dataset.genes.position,
                "length": dataset.genes.length,
                "function": dataset.genes.function,
            },
        )
        self.store.create_table(
            "patients",
            {
                "patient_id": dataset.patients.patient_id,
                "age": dataset.patients.age,
                "gender": dataset.patients.gender,
                "zipcode": dataset.patients.zipcode,
                "disease_id": dataset.patients.disease_id,
                "drug_response": dataset.patients.drug_response,
            },
        )
        go = dataset.ontology_relational(include_zeros=False)
        self.store.create_table(
            "ontology",
            {"gene_id": go[:, 0].astype(np.int64), "go_id": go[:, 1].astype(np.int64)},
        )
        self.n_go_terms = dataset.ontology.n_go_terms

    # -- reusable vectorised plans --------------------------------------------------------

    def _run_pivot_plan(self, child_plan):
        """Execute one fused ``… → Join → Pivot`` plan on the store.

        The whole data-management stage is a single logical plan from
        :mod:`repro.core.queries`; the optimizer pushes the dimension-side
        predicate below the join, prunes every column the pivot does not
        reference, and picks the join build side from the encodings'
        statistics before :func:`repro.colstore.planner.run_plan` executes
        it compressed.
        """
        return run_plan(expression_pivot_plan(child_plan), self.store)

    def _drug_response_for(self, patient_labels: np.ndarray) -> np.ndarray:
        """Align drug responses with ``patient_labels`` via sorted binary search."""
        patients = self.store.query("patients")
        ids = patients.column("patient_id")
        response = patients.column("drug_response")
        labels = np.asarray(patient_labels, dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        positions = np.searchsorted(ids, labels, sorter=order)
        if positions.size:
            in_range = positions < len(ids)
            matched = in_range.copy()
            matched[in_range] = ids[order[positions[in_range]]] == labels[in_range]
            if not matched.all():
                raise KeyError(int(labels[~matched][0]))
        return response[order[positions]]

    def _membership_matrix(self, gene_labels: np.ndarray) -> np.ndarray:
        """GO-membership matrix built by a fancy-index scatter (no row loop)."""
        labels = np.asarray(gene_labels, dtype=np.int64)
        membership = np.zeros((len(labels), self.n_go_terms), dtype=np.int8)
        ontology = self.store.query("ontology")
        gene_ids = ontology.column("gene_id")
        go_ids = ontology.column("go_id")
        if not len(labels) or not len(gene_ids):
            return membership
        order = np.argsort(labels, kind="stable")
        positions = np.searchsorted(labels, gene_ids, sorter=order)
        in_range = positions < len(labels)
        matched = in_range.copy()
        matched[in_range] = labels[order[positions[in_range]]] == gene_ids[in_range]
        membership[order[positions[matched]], go_ids[matched]] = 1
        return membership

    # -- the common per-query data-management stage ------------------------------------------

    def _pivot_regression(self, parameters: QueryParameters):
        """Q1 data management as one fused plan: genes ⋈ microarray → pivot."""
        threshold = parameters.function_threshold(self.dataset.spec)
        matrix, patient_labels, gene_labels = self._run_pivot_plan(
            gene_expression_plan(threshold)
        )
        response = self._drug_response_for(patient_labels)
        return matrix, patient_labels, gene_labels, response


class _ColumnStoreQueryMixin(_ColumnStoreDataManagement):
    """The five queries, parameterised over how the analytics are invoked.

    Subclasses provide ``_analytics_*`` hooks; the data-management shape is
    identical for both column-store configurations.
    """

    # Analytics hooks -----------------------------------------------------------------

    def _analytics_regression(self, matrix, response, timer):
        raise NotImplementedError

    def _analytics_covariance(self, matrix, timer):
        raise NotImplementedError

    def _analytics_biclustering(self, matrix, parameters, timer):
        raise NotImplementedError

    def _analytics_svd(self, matrix, k, parameters, timer):
        raise NotImplementedError

    def _analytics_statistics(self, gene_scores, membership, parameters, timer):
        raise NotImplementedError

    # Queries --------------------------------------------------------------------------

    def _run_regression(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        with timer.data_management():
            matrix, patient_labels, gene_labels, response = self._pivot_regression(parameters)
        fit = self._analytics_regression(matrix, response, timer)
        return regression_output(
            len(gene_labels), matrix.shape[0], fit.r_squared,
            payload=fit,
        )

    def _run_covariance(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        with timer.data_management():
            # One fused plan: patients(disease ∈ …) ⋈ microarray → pivot.
            # The disease predicate runs below the join on the patients side
            # and only the join key crosses it (see the Q2 plan snapshot).
            matrix, _patients, gene_labels = self._run_pivot_plan(
                patient_expression_plan(covariance_patient_predicate(parameters))
            )
        cov = self._analytics_covariance(matrix, timer)
        with timer.analytics():
            gene_a, gene_b, values = top_covariant_pairs(
                cov, fraction=parameters.covariance_top_fraction
            )
        with timer.data_management():
            functions = self.store.query("genes").column("function")
            gene_labels = np.asarray(gene_labels, dtype=np.int64)
            joined_rows = int(len(gene_a)) if len(gene_a) else 0
            _pair_functions = functions[gene_labels[gene_a]] if joined_rows else np.empty(0)
        return covariance_output(
            matrix.shape[0], len(gene_a), values,
            payload={"covariance": cov},
        )

    def _run_biclustering(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        with timer.data_management():
            # One declarative conjunction inside one fused plan: the
            # optimizer splits it, pushes both halves below the join onto
            # the patients side and runs the more selective half first.
            matrix, _patients, _genes = self._run_pivot_plan(
                patient_expression_plan(bicluster_patient_predicate(parameters))
            )
        result = self._analytics_biclustering(matrix, parameters, timer)
        return biclustering_output(matrix.shape[0], result, payload=result)

    def _run_svd(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        threshold = parameters.function_threshold(self.dataset.spec)
        with timer.data_management():
            matrix, _patients, gene_labels = self._run_pivot_plan(
                gene_expression_plan(threshold)
            )
        k = max(1, min(parameters.svd_k(self.dataset.spec), matrix.shape[1]))
        result = self._analytics_svd(matrix, k, parameters, timer)
        singular_values = np.asarray(
            result.singular_values if hasattr(result, "singular_values") else result
        )
        return svd_output(len(gene_labels), singular_values, payload=result)

    def _run_statistics(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        sampled = statistics_patient_ids(self.dataset, parameters)
        with timer.data_management():
            # The statistics query needs no pivot matrix at all: the shared
            # plan selects the sampled patients' rows once (membership
            # pushdown), then the per-gene score (mean expression) is a
            # compressed group-aggregate whose keys are the sorted distinct
            # gene ids the pivot's column labels used to provide, and the
            # sampled-patient count is a distinct count on the same cached
            # selection.
            sampled_rows = run_plan(
                sampled_expression_filter_plan(sampled), self.store
            )
            gene_labels, gene_scores = sampled_rows.group_aggregate(
                "gene_id", "expression_value", "mean"
            )
            patient_labels = sampled_rows.distinct("patient_id")
            membership = self._membership_matrix(np.asarray(gene_labels, dtype=np.int64))
        result = self._analytics_statistics(gene_scores, membership, parameters, timer)
        return statistics_output(
            len(patient_labels), len(result.go_ids), result.significant,
            payload=result,
        )


@dataclass
class ColumnStoreREngine(_ColumnStoreQueryMixin):
    """Column store for data management, external R (CSV hand-off) for analytics."""

    name: str = "columnstore-r"
    capabilities: EngineCapabilities = field(
        default_factory=lambda: EngineCapabilities(uses_external_analytics=True)
    )

    def _ship_matrix_to_r(self, matrix: np.ndarray, timer: PhaseTimer) -> np.ndarray:
        """Serialise a matrix through CSV into the R environment (DM cost)."""
        with timer.data_management():
            frame = DataFrame({f"c{i}": matrix[:, i] for i in range(matrix.shape[1])}) if matrix.size else DataFrame({"c0": np.empty(0)})
            payload = dataframe_to_csv_string(frame)
            timer.note("export_bytes", float(len(payload)))
            parsed = dataframe_from_csv_string(payload)
            shipped = parsed.as_matrix() if matrix.size else matrix
        return shipped

    def _analytics_regression(self, matrix, response, timer):
        shipped = self._ship_matrix_to_r(np.column_stack([matrix, response]), timer)
        with timer.analytics():
            return r.lm(shipped[:, :-1], shipped[:, -1])

    def _analytics_covariance(self, matrix, timer):
        shipped = self._ship_matrix_to_r(matrix, timer)
        with timer.analytics():
            return r.cov(shipped)

    def _analytics_biclustering(self, matrix, parameters, timer):
        shipped = self._ship_matrix_to_r(matrix, timer)
        with timer.analytics():
            return r.biclust(shipped, n_biclusters=parameters.n_biclusters, seed=parameters.seed)

    def _analytics_svd(self, matrix, k, parameters, timer):
        shipped = self._ship_matrix_to_r(matrix, timer)
        with timer.analytics():
            return r.svd(shipped, k=k, seed=parameters.seed)

    def _analytics_statistics(self, gene_scores, membership, parameters, timer):
        shipped = self._ship_matrix_to_r(
            np.column_stack([gene_scores, membership.astype(np.float64)]), timer
        )
        with timer.analytics():
            return r.enrichment(shipped[:, 0], shipped[:, 1:], alpha=parameters.statistics_alpha)


@dataclass
class ColumnStoreUdfEngine(_ColumnStoreQueryMixin):
    """Column store with in-database R UDFs (argument marshalling, no CSV)."""

    name: str = "columnstore-udf"
    capabilities: EngineCapabilities = field(default_factory=EngineCapabilities)
    udf_host: UdfHost = field(default_factory=UdfHost)

    def __post_init__(self) -> None:
        super().__post_init__()
        # The in-DB registry covers regression/covariance/enrichment; SVD and
        # biclustering are registered here as additional R UDFs.
        if "svd" not in self.udf_host.registry:
            self.udf_host.register(
                "svd",
                lambda matrix, k, seed: r.svd(matrix, k=k, seed=seed),
                description="R svd() via in-DB UDF",
            )
        if "biclustering" not in self.udf_host.registry:
            self.udf_host.register(
                "biclustering",
                lambda matrix, n, seed: r.biclust(matrix, n_biclusters=n, seed=seed),
                description="R biclust() via in-DB UDF",
            )

    def _analytics_regression(self, matrix, response, timer):
        with timer.analytics():
            return self.udf_host.call("linear_regression", matrix, response)

    def _analytics_covariance(self, matrix, timer):
        with timer.analytics():
            return self.udf_host.call("covariance", matrix)

    def _analytics_biclustering(self, matrix, parameters, timer):
        with timer.analytics():
            return self.udf_host.call(
                "biclustering", matrix, parameters.n_biclusters, parameters.seed
            )

    def _analytics_svd(self, matrix, k, parameters, timer):
        with timer.analytics():
            return self.udf_host.call("svd", matrix, k, parameters.seed)

    def _analytics_statistics(self, gene_scores, membership, parameters, timer):
        with timer.analytics():
            return self.udf_host.call("enrichment", gene_scores, membership)
