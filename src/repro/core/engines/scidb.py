"""The array DBMS configuration (paper configuration 6).

Data is stored natively as chunked arrays, so the GenBase queries need no
table→matrix restructuring: the data-management phase is metadata filtering
plus one ``subarray`` gather of the selected coordinates, and the analytics
run either natively over the chunks (covariance, Lanczos SVD, Wilcoxon) or
via the explicit chunked→dense conversion to the "ScaLAPACK" tier
(regression, biclustering) — the two paths Section 6.2 of the paper discusses.

Data management executes the *shared* logical plans of
:mod:`repro.core.queries` — the same ``Scan → Filter → Join →
Aggregate/Pivot`` trees the column store, row store, MapReduce and R
engines run — through the array executor
:func:`repro.arraydb.bridge.run_shared_plan`.  Filters are shared-AST
expressions evaluated chunk-wise over the metadata arrays; classified
range/equality/membership conjuncts consult each chunk's min/max synopsis
and skip whole chunks (``self.filter_stats`` accumulates the skip
counters), and the joins against the expression array are dimension
joins that materialise as one gather of the selected patient and gene
coordinates straight out of the stored chunks
(:func:`repro.arraydb.operators.subarray`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arraydb import ChunkedArray, linalg as array_linalg
from repro.arraydb.bridge import ArrayFrame, MatrixFrame, run_shared_plan
from repro.arraydb.operators import FilterStats
from repro.core.engines.base import Engine, EngineCapabilities, covariance_pairs
from repro.core.queries import sampled_expression_mean_plan
from repro.core.timing import PhaseTimer
from repro.datagen.dataset import GenBaseDataset
from repro.linalg.biclustering import cheng_church
from repro.linalg.qr import linear_regression
from repro.linalg.wilcoxon import enrichment_analysis


@dataclass
class SciDBEngine(Engine):
    """Native array DBMS: chunked storage + chunk-wise analytics."""

    name: str = "scidb"
    chunk_size: int = 128
    capabilities: EngineCapabilities = field(default_factory=EngineCapabilities)

    def _load(self, dataset: GenBaseDataset) -> None:
        chunk = self.chunk_size
        self.expression = ChunkedArray.from_dense(
            "expression",
            dataset.expression_matrix,
            dimension_names=["patient_id", "gene_id"],
            attribute_name="expression_value",
            chunk_sizes=[chunk, chunk],
        )
        self.gene_function = ChunkedArray.from_dense(
            "gene_function",
            dataset.genes.function.astype(np.float64),
            dimension_names=["gene_id"],
            attribute_name="function",
            chunk_sizes=[chunk],
        )
        self.patient_disease = ChunkedArray.from_dense(
            "patient_disease",
            dataset.patients.disease_id.astype(np.float64),
            dimension_names=["patient_id"],
            attribute_name="disease_id",
            chunk_sizes=[chunk],
        )
        self.patient_age = ChunkedArray.from_dense(
            "patient_age",
            dataset.patients.age.astype(np.float64),
            dimension_names=["patient_id"],
            attribute_name="age",
            chunk_sizes=[chunk],
        )
        self.patient_gender = ChunkedArray.from_dense(
            "patient_gender",
            dataset.patients.gender.astype(np.float64),
            dimension_names=["patient_id"],
            attribute_name="gender",
            chunk_sizes=[chunk],
        )
        self.drug_response = ChunkedArray.from_dense(
            "drug_response",
            dataset.patients.drug_response,
            dimension_names=["patient_id"],
            attribute_name="drug_response",
            chunk_sizes=[chunk],
        )
        self.go_membership = ChunkedArray.from_dense(
            "go_membership",
            dataset.ontology.membership.astype(np.float64),
            dimension_names=["gene_id", "go_id"],
            attribute_name="belongs",
            chunk_sizes=[chunk, chunk],
        )
        #: The logical tables the shared plans scan, mapped onto the arrays.
        self.frames = {
            "microarray": MatrixFrame(self.expression, "expression_value"),
            "genes": ArrayFrame("gene_id", {"function": self.gene_function}),
            "patients": ArrayFrame(
                "patient_id",
                {
                    "disease_id": self.patient_disease,
                    "age": self.patient_age,
                    "gender": self.patient_gender,
                    "drug_response": self.drug_response,
                },
            ),
            "ontology": MatrixFrame(self.go_membership, "belongs"),
        }
        #: Cumulative chunk-skip accounting across every shared-plan filter.
        self.filter_stats = FilterStats()

    # -- data-management hooks --------------------------------------------------------------

    def _run_expression_plan(self, plan):
        """Execute one shared logical plan on the array frames.

        Chunk-skip counters accumulate into ``self.filter_stats`` so tests
        and diagnostics can observe how many metadata chunks the min/max
        synopses eliminated.
        """
        return run_shared_plan(plan, self.frames, stats=self.filter_stats)

    def _pivot(self, child_plan, timer: PhaseTimer):
        """The selection *is* the matrix: a chunked subarray, no restructuring."""
        with timer.data_management():
            result = self._run_expression_plan(child_plan)
            return result.array, result.label("patient_id"), result.label("gene_id")

    def _relation(self, plan, timer: PhaseTimer) -> dict:
        """A metadata lookup reads its columns at the selected coordinates;
        the GO lookup is a dimension-filtered subarray of the membership
        array, read back in long form."""
        with timer.data_management():
            rows = self._run_expression_plan(plan)
            return {column: rows.column(column) for column in plan.columns}

    def _scores_and_membership(self, sampled, timer: PhaseTimer):
        with timer.data_management():
            # The per-gene score is the shared Aggregate plan: the patient
            # membership predicate narrows the expression array to the
            # sampled rows (a dimension subarray) and the mean runs
            # chunk-wise along gene_id.
            gene_labels, gene_scores = self._run_expression_plan(
                sampled_expression_mean_plan(sampled)
            )
        return len(sampled), gene_scores, self._membership_matrix(gene_labels, timer)

    # -- analytics hooks: native over the chunks, or via the ScaLAPACK tier ------------------

    def _analytics_regression(self, matrix, response, timer: PhaseTimer):
        with timer.analytics():
            # Regression goes through the ScaLAPACK tier: explicit conversion
            # from chunked to dense layout, then the LAPACK QR solver.
            dense = array_linalg.to_scalapack(matrix)
            fit = linear_regression(dense, response, method="lapack")
        return (fit.coefficients, fit.intercept, fit.r_squared), fit

    def _analytics_covariance(self, matrix, parameters, timer: PhaseTimer):
        with timer.analytics():
            return covariance_pairs(array_linalg.covariance(matrix), parameters), None

    def _analytics_biclustering(self, matrix, parameters, timer: PhaseTimer):
        with timer.analytics():
            dense = array_linalg.to_scalapack(matrix)
            result = cheng_church(
                dense, n_biclusters=parameters.n_biclusters, seed=parameters.seed
            )
        return result, result

    def _analytics_svd(self, matrix, k, parameters, timer: PhaseTimer):
        with timer.analytics():
            result = array_linalg.lanczos_svd_chunked(matrix, k=k, seed=parameters.seed)
        return result.singular_values, result

    def _analytics_statistics(self, gene_scores, membership, parameters, timer: PhaseTimer):
        with timer.analytics():
            result = enrichment_analysis(
                np.nan_to_num(gene_scores), membership, alpha=parameters.statistics_alpha
            )
        return (result.p_values, result.significant), result
