"""The Hadoop configuration (paper configuration 7): Hive + Mahout.

Data management compiles to MapReduce jobs through the Hive layer and the
analytics run in the Mahout layer, whose kernels are MapReduce-structured
and never touch a tuned linear algebra library.  Biclustering is not
available, as in Mahout.

The data-management stages are the *shared* logical plans of
:mod:`repro.core.queries`, lowered onto MapReduce jobs by
:func:`repro.mapreduce.bridge.run_shared_plan`: the declarative filter is
fused into the map phase of the join job (filter-before-shuffle), so a
selection is one job and dropped rows never cross the serialisation
boundary, and each lookup step (Q1's drug response, Q2's annotation, Q5's
GO membership) is one map-only job.  Even so, every surviving byte of a
join still pays the map/spill/shuffle/reduce round trip — this remains the
configuration the paper finds "good at neither data management nor
analytics", for the same structural reasons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.engines.base import Engine, EngineCapabilities, covariance_pairs
from repro.core.queries import dataset_tables, expression_pivot_plan
from repro.core.timing import PhaseTimer
from repro.datagen.dataset import GenBaseDataset
from repro.mapreduce import HiveTable, Mahout, MapReduceEngine
from repro.mapreduce.bridge import run_shared_plan


class MahoutAnalytics:
    """The analytics hooks as Mahout's MapReduce-structured kernels (``self.mahout``).

    Shared by the single-node and the multi-node Hadoop configuration.
    Mahout has no biclustering: both capability sets exclude the query and
    :meth:`Engine.run` raises ``UnsupportedQueryError`` before dispatch.
    """

    def _analytics_regression(self, matrix, response, timer: PhaseTimer):
        with timer.analytics():
            beta = self.mahout.linear_regression(matrix, response)
            intercept, coefficients = beta[0], beta[1:]
            predictions = matrix @ coefficients + intercept
            residual_ss = float(np.sum((response - predictions) ** 2))
            total_ss = float(np.sum((response - response.mean()) ** 2))
            r_squared = 1.0 - residual_ss / total_ss if total_ss > 0 else 1.0
        return (coefficients, intercept, r_squared), None

    def _analytics_covariance(self, matrix, parameters, timer: PhaseTimer):
        with timer.analytics():
            return covariance_pairs(self.mahout.covariance(matrix), parameters), None

    def _analytics_svd(self, matrix, k, parameters, timer: PhaseTimer):
        with timer.analytics():
            singular_values = self.mahout.truncated_svd(matrix, k=k, seed=parameters.seed)
        return singular_values, None

    def _analytics_statistics(self, gene_scores, membership, parameters, timer: PhaseTimer):
        with timer.analytics():
            p_values = self.mahout.wilcoxon_enrichment(gene_scores, membership)
        return (p_values, p_values < parameters.statistics_alpha), None


@dataclass
class HadoopEngine(MahoutAnalytics, Engine):
    """Hive for data management, Mahout for analytics."""

    name: str = "hadoop"
    n_splits: int = 4
    capabilities: EngineCapabilities = field(
        default_factory=lambda: EngineCapabilities(
            supported_queries=frozenset({"regression", "covariance", "svd", "statistics"}),
        )
    )

    def _load(self, dataset: GenBaseDataset) -> None:
        self.mr_engine = MapReduceEngine(n_splits=self.n_splits)
        self.mahout = Mahout(self.mr_engine)
        #: The logical tables the shared plans scan, typed as
        #: :func:`dataset_tables` types them (int64 keys, float64 values), so
        #: a join's map-output keys are of one class, as Hadoop requires.
        self.tables = {
            name: HiveTable.from_columns(name, columns)
            for name, columns in dataset_tables(dataset).items()
        }

    # -- data-management hooks ------------------------------------------------------------

    def _pivot(self, child_plan, timer: PhaseTimer):
        """Run one shared ``… → Join → Pivot`` plan as MapReduce jobs.

        The optimizer pushes the dimension-side predicate below the join
        and prunes the columns; the bridge fuses both into the join job's
        map phase, then pivots the long output driver-side.
        """
        with timer.data_management():
            return run_shared_plan(
                expression_pivot_plan(child_plan), self.tables, self.mr_engine
            )

    def _relation(self, plan, timer: PhaseTimer) -> dict:
        with timer.data_management():
            rows = run_shared_plan(plan, self.tables, self.mr_engine)
            return {column: np.asarray(rows.column_values(column)) for column in plan.columns}
