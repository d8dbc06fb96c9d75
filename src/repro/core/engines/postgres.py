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

from repro.core.engines.base import Engine, EngineCapabilities, covariance_pairs
from repro.core.engines.rlang_engine import RAnalytics
from repro.core.queries import EXPRESSION_TRIPLE, dataset_tables
from repro.core.timing import PhaseTimer
from repro.datagen.dataset import GenBaseDataset
from repro.relational import ColumnType, Database
from repro.relational.bridge import run_shared_plan
from repro.relational.query import QueryResultSet
from repro.relational.udf import UdfRegistry, default_madlib_registry
from repro.rlang.dataframe import DataFrame
from repro.rlang.io import dataframe_from_csv_string, dataframe_to_csv_string


class _RowStoreDataManagement(Engine):
    """Shared row-store loading and data-management hooks.

    The selections execute the same shared logical plans the column store
    runs (:mod:`repro.core.queries` builders): the shared optimizer pushes
    the dimension-side predicate below the join and prunes columns through
    it, and :mod:`repro.relational.bridge` lowers the optimized plan onto
    the Volcano operators.
    """

    def _load(self, dataset: GenBaseDataset) -> None:
        self.db = Database("genbase")
        for name, columns in dataset_tables(dataset).items():
            self.db.create_table(name, [
                (column, ColumnType.FLOAT if values.dtype.kind == "f" else ColumnType.INT)
                for column, values in columns.items()
            ])
            self.db.load_array(name, np.column_stack(list(columns.values())))

    def _relation(self, plan, timer: PhaseTimer) -> dict:
        with timer.data_management():
            rows = run_shared_plan(plan, self.db)
            return {column: np.asarray(rows.column(column)) for column in plan.columns}


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

    def _analytics_regression(self, matrix, response, timer: PhaseTimer):
        with timer.analytics():
            fit = self.registry.call("linear_regression", matrix, response)
        return (fit.coefficients, fit.intercept, fit.r_squared), fit

    def _analytics_covariance(self, matrix, parameters, timer: PhaseTimer):
        with timer.analytics():
            return covariance_pairs(self.registry.call("covariance", matrix), parameters), None

    def _analytics_svd(self, matrix, k, parameters, timer: PhaseTimer):
        with timer.analytics():
            singular_values = self.registry.call("svd", matrix, k)
        return singular_values, None

    def _analytics_statistics(self, gene_scores, membership, parameters, timer: PhaseTimer):
        with timer.analytics():
            p_values = self.registry.call("enrichment", gene_scores, membership)
        return (p_values, p_values < parameters.statistics_alpha), None


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
