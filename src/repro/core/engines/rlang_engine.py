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

import numpy as np

from repro.core.engines.base import Engine, EngineCapabilities
from repro.core.queries import (
    QueryOutput,
    biclustering_output,
    covariance_output,
    expression_pivot_plan,
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
from repro.plan import col
from repro.rlang.bridge import run_shared_plan
from repro.rlang.dataframe import DataFrame, REnvironment
from repro.rlang import stats as r


@dataclass
class VanillaREngine(Engine):
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
        micro = dataset.microarray_relational()
        self.micro_df = DataFrame(
            {
                "gene_id": micro[:, 0].astype(np.int64),
                "patient_id": micro[:, 1].astype(np.int64),
                "expression_value": micro[:, 2],
            },
            environment=self.environment,
        )
        self.genes_df = DataFrame(
            {
                "gene_id": dataset.genes.gene_id,
                "target": dataset.genes.target,
                "position": dataset.genes.position,
                "length": dataset.genes.length,
                "function": dataset.genes.function,
            },
            environment=self.environment,
        )
        self.patients_df = DataFrame(
            {
                "patient_id": dataset.patients.patient_id,
                "age": dataset.patients.age,
                "gender": dataset.patients.gender,
                "zipcode": dataset.patients.zipcode,
                "disease_id": dataset.patients.disease_id,
                "drug_response": dataset.patients.drug_response,
            },
            environment=self.environment,
        )
        go = dataset.ontology_relational(include_zeros=False)
        self.go_df = DataFrame(
            {
                "gene_id": go[:, 0].astype(np.int64),
                "go_id": go[:, 1].astype(np.int64),
            },
            environment=self.environment,
        )
        self.n_go_terms = dataset.ontology.n_go_terms
        #: The logical tables the shared plans scan.
        self.frames = {
            "microarray": self.micro_df,
            "genes": self.genes_df,
            "patients": self.patients_df,
        }

    # -- shared data-management plans ------------------------------------------------

    def _expression_pivot(self, child_plan):
        """Run one shared ``… → Join → Pivot`` plan on the R frames.

        The optimizer pushes the predicate below the merge (subset before
        merge) and prunes the joined columns; every intermediate frame and
        the pivot allocation are checked against the environment limits.
        """
        return run_shared_plan(expression_pivot_plan(child_plan), self.frames)

    # -- Q1 -----------------------------------------------------------------------------

    def _run_regression(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        threshold = parameters.function_threshold(self.dataset.spec)
        with timer.data_management():
            matrix, patient_labels, gene_labels = self._expression_pivot(
                gene_expression_plan(threshold)
            )
            response = self.patients_df["drug_response"][patient_labels.astype(np.int64)]
        with timer.analytics():
            fit = r.lm(matrix, response)
        return regression_output(
            len(gene_labels), matrix.shape[0], fit.r_squared,
            payload=fit,
        )

    # -- Q2 -----------------------------------------------------------------------------

    def _run_covariance(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        diseases = np.asarray(sorted(parameters.covariance_diseases))
        with timer.data_management():
            matrix, patient_labels, gene_labels = self._expression_pivot(
                patient_expression_plan(col("disease_id").isin(diseases))
            )
        with timer.analytics():
            cov = r.cov(matrix)
            gene_a, gene_b, values = top_covariant_pairs(
                cov, fraction=parameters.covariance_top_fraction
            )
        with timer.data_management():
            gene_ids_a = gene_labels[gene_a].astype(np.int64) if len(gene_a) else np.empty(0, np.int64)
            gene_ids_b = gene_labels[gene_b].astype(np.int64) if len(gene_b) else np.empty(0, np.int64)
            pair_df = DataFrame(
                {"gene_id": gene_ids_a, "partner": gene_ids_b, "covariance": values},
                environment=self.environment,
            )
            enriched_pairs = pair_df.merge(self.genes_df.select(["gene_id", "function"]), by="gene_id")
        return covariance_output(
            matrix.shape[0], len(gene_a), values,
            payload={"covariance": cov, "pairs": (gene_ids_a, gene_ids_b, values),
                     "joined_rows": len(enriched_pairs)},
        )

    # -- Q3 -----------------------------------------------------------------------------

    def _run_biclustering(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        with timer.data_management():
            matrix, patient_labels, _gene_labels = self._expression_pivot(
                patient_expression_plan(
                    (col("gender") == parameters.bicluster_gender)
                    & (col("age") < parameters.bicluster_max_age)
                )
            )
        with timer.analytics():
            result = r.biclust(matrix, n_biclusters=parameters.n_biclusters, seed=parameters.seed)
        return biclustering_output(matrix.shape[0], result, payload=result)

    # -- Q4 -----------------------------------------------------------------------------

    def _run_svd(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        threshold = parameters.function_threshold(self.dataset.spec)
        with timer.data_management():
            matrix, _patient_labels, gene_labels = self._expression_pivot(
                gene_expression_plan(threshold)
            )
        k = min(parameters.svd_k(self.dataset.spec), matrix.shape[1]) if matrix.shape[1] else 1
        with timer.analytics():
            result = r.svd(matrix, k=max(1, k), seed=parameters.seed)
        return svd_output(len(gene_labels), result.singular_values, payload=result)

    # -- Q5 -----------------------------------------------------------------------------

    def _run_statistics(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        sampled = statistics_patient_ids(self.dataset, parameters)
        with timer.data_management():
            matrix, _patients, gene_labels = self._expression_pivot(
                patient_expression_plan(col("patient_id").isin(sampled))
            )
            gene_scores = self._gene_scores(matrix)
            # Join the scored genes with the GO table and build the per-term
            # membership matrix (the "separate the genes based on whether
            # they belong to the GO term" step).
            membership = np.zeros((len(gene_labels), self.n_go_terms), dtype=np.int8)
            go_gene = self.go_df["gene_id"]
            go_term = self.go_df["go_id"]
            label_positions = {int(label): position for position, label in enumerate(gene_labels)}
            for gene_id, go_id in zip(go_gene.tolist(), go_term.tolist(), strict=True):
                position = label_positions.get(int(gene_id))
                if position is not None:
                    membership[position, int(go_id)] = 1
        with timer.analytics():
            result = r.enrichment(gene_scores, membership, alpha=parameters.statistics_alpha)
        return statistics_output(
            matrix.shape[0], len(result.go_ids), result.significant,
            payload=result,
        )
