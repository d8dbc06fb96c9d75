"""The vanilla R configuration (paper configuration 1).

Everything happens inside the R-like environment: the four tables are data
frames in memory, data management is ``subset`` + ``merge`` (hash join) +
long-to-wide pivots, and the analytics call the BLAS-backed stats functions.
The configuration's two structural weaknesses are reproduced:

* the cell limit / memory ceiling of the environment (``max_cells``) makes
  large datasets fail to pivot, and
* there is no parallelism of any kind.

The data-management stages are the *shared* logical plans of
:mod:`repro.core.queries`, lowered onto the R verbs by
:func:`repro.rlang.bridge.run_shared_plan`: filters evaluate the shared
expression AST vectorised over the data-frame columns (one numpy mask per
conjunct — the idiomatic R ``subset``), the join is ``merge``, and the
pivot is the limit-checked ``pivot_matrix`` reshape, so the memory
ceiling bites exactly where it always did.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.engines.base import Engine, EngineCapabilities, covariance_pairs
from repro.core.queries import dataset_tables, expression_pivot_plan
from repro.core.timing import PhaseTimer
from repro.datagen.dataset import GenBaseDataset
from repro.rlang.bridge import run_shared_plan
from repro.rlang.dataframe import DataFrame, REnvironment
from repro.rlang import stats as r


class RAnalytics:
    """The five analytics hooks as calls into R's BLAS-backed statistics.

    Shared by every configuration whose analytics run in the R environment
    (vanilla R, Postgres + R, column store + R).
    """

    def _analytics_regression(self, matrix, response, timer: PhaseTimer):
        with timer.analytics():
            fit = r.lm(matrix, response)
        return (fit.coefficients, fit.intercept, fit.r_squared), fit

    def _analytics_covariance(self, matrix, parameters, timer: PhaseTimer):
        with timer.analytics():
            return covariance_pairs(r.cov(matrix), parameters), None

    def _analytics_biclustering(self, matrix, parameters, timer: PhaseTimer):
        with timer.analytics():
            result = r.biclust(matrix, n_biclusters=parameters.n_biclusters, seed=parameters.seed)
        return result, result

    def _analytics_svd(self, matrix, k, parameters, timer: PhaseTimer):
        with timer.analytics():
            result = r.svd(matrix, k=k, seed=parameters.seed)
        return result.singular_values, result

    def _analytics_statistics(self, gene_scores, membership, parameters, timer: PhaseTimer):
        with timer.analytics():
            result = r.enrichment(gene_scores, membership, alpha=parameters.statistics_alpha)
        return (result.p_values, result.significant), result


@dataclass
class VanillaREngine(RAnalytics, Engine):
    """Plain R: in-memory data frames + BLAS-backed statistics."""

    name: str = "vanilla-r"
    max_cells: int = 2**31 - 1
    max_total_bytes: int | None = None
    capabilities: EngineCapabilities = field(
        default_factory=lambda: EngineCapabilities(uses_external_analytics=False)
    )

    def _load(self, dataset: GenBaseDataset) -> None:
        self.environment = REnvironment(
            max_cells=self.max_cells, max_total_bytes=self.max_total_bytes
        )
        #: The logical tables the shared plans scan.
        self.frames = {
            name: DataFrame(columns, environment=self.environment)
            for name, columns in dataset_tables(dataset).items()
        }

    # -- data-management hooks -------------------------------------------------------

    def _pivot(self, child_plan, timer: PhaseTimer):
        """Run one shared ``… → Join → Pivot`` plan on the R frames.

        The optimizer pushes the predicate below the merge (subset before
        merge) and prunes the joined columns; every intermediate frame and
        the pivot allocation are checked against the environment limits.
        """
        with timer.data_management():
            return run_shared_plan(expression_pivot_plan(child_plan), self.frames)

    def _relation(self, plan, timer: PhaseTimer) -> dict:
        with timer.data_management():
            rows = run_shared_plan(plan, self.frames)
            return {column: rows[column] for column in plan.columns}
