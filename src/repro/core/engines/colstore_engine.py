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
from repro.core.engines.base import Engine, EngineCapabilities, covariance_pairs
from repro.core.engines.rlang_engine import RAnalytics
from repro.core.queries import (
    dataset_tables,
    expression_pivot_plan,
    sampled_expression_filter_plan,
)
from repro.core.timing import PhaseTimer
from repro.datagen.dataset import GenBaseDataset
from repro.rlang import stats as r
from repro.rlang.dataframe import DataFrame
from repro.rlang.io import dataframe_from_csv_string, dataframe_to_csv_string


class _ColumnStoreDataManagement(Engine):
    """Shared column-store loading and data-management hooks."""

    def _load(self, dataset: GenBaseDataset) -> None:
        self.store = ColumnStore("genbase")
        for name, columns in dataset_tables(dataset).items():
            self.store.create_table(name, columns)

    def _pivot(self, child_plan, timer: PhaseTimer):
        """Execute one fused ``… → Join → Pivot`` plan on the store.

        The whole data-management stage is a single logical plan from
        :mod:`repro.core.queries`; the optimizer pushes the dimension-side
        predicate below the join and prunes every column the pivot does not
        reference before :func:`repro.colstore.planner.run_plan` executes
        it compressed.
        """
        with timer.data_management():
            return run_plan(expression_pivot_plan(child_plan), self.store)

    def _relation(self, plan, timer: PhaseTimer) -> dict:
        with timer.data_management():
            rows = run_plan(plan, self.store)
            return {column: rows.column(column) for column in plan.columns}

    def _scores_and_membership(self, sampled, timer: PhaseTimer):
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
        return len(patient_labels), gene_scores, self._membership_matrix(gene_labels, timer)


@dataclass
class ColumnStoreREngine(RAnalytics, _ColumnStoreDataManagement):
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

    def _analytics_regression(self, matrix, response, timer: PhaseTimer):
        shipped = self._ship_matrix_to_r(np.column_stack([matrix, response]), timer)
        return super()._analytics_regression(shipped[:, :-1], shipped[:, -1], timer)

    def _analytics_covariance(self, matrix, parameters, timer: PhaseTimer):
        shipped = self._ship_matrix_to_r(matrix, timer)
        return super()._analytics_covariance(shipped, parameters, timer)

    def _analytics_biclustering(self, matrix, parameters, timer: PhaseTimer):
        shipped = self._ship_matrix_to_r(matrix, timer)
        return super()._analytics_biclustering(shipped, parameters, timer)

    def _analytics_svd(self, matrix, k, parameters, timer: PhaseTimer):
        shipped = self._ship_matrix_to_r(matrix, timer)
        return super()._analytics_svd(shipped, k, parameters, timer)

    def _analytics_statistics(self, gene_scores, membership, parameters, timer: PhaseTimer):
        shipped = self._ship_matrix_to_r(
            np.column_stack([gene_scores, membership.astype(np.float64)]), timer
        )
        return super()._analytics_statistics(shipped[:, 0], shipped[:, 1:], parameters, timer)


@dataclass
class ColumnStoreUdfEngine(_ColumnStoreDataManagement):
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

    def _analytics_regression(self, matrix, response, timer: PhaseTimer):
        with timer.analytics():
            fit = self.udf_host.call("linear_regression", matrix, response)
        return (fit.coefficients, fit.intercept, fit.r_squared), fit

    def _analytics_covariance(self, matrix, parameters, timer: PhaseTimer):
        with timer.analytics():
            return covariance_pairs(self.udf_host.call("covariance", matrix), parameters), None

    def _analytics_biclustering(self, matrix, parameters, timer: PhaseTimer):
        with timer.analytics():
            result = self.udf_host.call(
                "biclustering", matrix, parameters.n_biclusters, parameters.seed
            )
        return result, result

    def _analytics_svd(self, matrix, k, parameters, timer: PhaseTimer):
        with timer.analytics():
            result = self.udf_host.call("svd", matrix, k, parameters.seed)
        return result.singular_values, result

    def _analytics_statistics(self, gene_scores, membership, parameters, timer: PhaseTimer):
        with timer.analytics():
            result = self.udf_host.call("enrichment", gene_scores, membership)
        return (result.p_values, result.significant), result
