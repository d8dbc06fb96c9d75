"""The Hadoop configuration (paper configuration 7): Hive + Mahout.

Data management compiles to MapReduce jobs through the Hive layer and the
analytics run in the Mahout layer, whose kernels are MapReduce-structured
and never touch a tuned linear algebra library.  Biclustering is not
available, as in Mahout.

The data-management stages are the *shared* logical plans of
:mod:`repro.core.queries`, lowered onto MapReduce jobs by
:func:`repro.mapreduce.bridge.run_shared_plan`: the declarative filter is
fused into the map phase of the join job (filter-before-shuffle), so one
job replaces the legacy select → project → join chain and dropped rows
never cross the serialisation boundary.  Even so, every surviving byte
still pays the map/spill/shuffle/reduce round trip — this remains the
configuration the paper finds "good at neither data management nor
analytics", for the same structural reasons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.engines.base import Engine, EngineCapabilities
from repro.core.queries import (
    QueryOutput,
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
from repro.mapreduce import HiveSession, HiveTable, Mahout, MapReduceEngine
from repro.mapreduce.bridge import run_shared_plan
from repro.plan import col


@dataclass
class HadoopEngine(Engine):
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
        self.hive = HiveSession(self.mr_engine)
        self.mahout = Mahout(self.mr_engine)
        self.microarray = HiveTable.from_array(
            "microarray",
            ["gene_id", "patient_id", "expression_value"],
            dataset.microarray_relational(),
        )
        self.genes = HiveTable.from_array(
            "genes",
            ["gene_id", "target", "position", "length", "function"],
            dataset.genes_relational(),
        )
        self.patients = HiveTable.from_array(
            "patients",
            ["patient_id", "age", "gender", "zipcode", "disease_id", "drug_response"],
            dataset.patients_relational(),
        )
        go = dataset.ontology_relational(include_zeros=False)
        self.ontology = HiveTable.from_array("ontology", ["gene_id", "go_id", "belongs"], go)
        self.n_go_terms = dataset.ontology.n_go_terms
        #: The logical tables the shared plans scan.
        self.tables = {
            "microarray": self.microarray,
            "genes": self.genes,
            "patients": self.patients,
            "ontology": self.ontology,
        }

    # -- shared data-management plans -----------------------------------------------------

    def _expression_pivot(self, child_plan):
        """Run one shared ``… → Join → Pivot`` plan as MapReduce jobs.

        The optimizer pushes the dimension-side predicate below the join
        and prunes the columns; the bridge fuses both into the join job's
        map phase, then pivots the long output driver-side.
        """
        return run_shared_plan(
            expression_pivot_plan(child_plan), self.tables, self.hive
        )

    def _drug_response_for(self, patient_labels: np.ndarray) -> np.ndarray:
        table = self.hive.project(self.patients, ["patient_id", "drug_response"])
        lookup = {int(p): v for p, v in table.rows}
        return np.asarray([lookup[int(label)] for label in patient_labels])

    def _membership_matrix(self, gene_labels: np.ndarray) -> np.ndarray:
        membership = np.zeros((len(gene_labels), self.n_go_terms), dtype=np.int8)
        positions = {int(label): i for i, label in enumerate(gene_labels)}
        for gene_id, go_id, _belongs in self.ontology.rows:
            position = positions.get(int(gene_id))
            if position is not None:
                membership[position, int(go_id)] = 1
        return membership

    # -- Q1 ------------------------------------------------------------------------------------

    def _run_regression(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        threshold = parameters.function_threshold(self.dataset.spec)
        with timer.data_management():
            matrix, patient_labels, gene_labels = self._expression_pivot(
                gene_expression_plan(threshold)
            )
            response = self._drug_response_for(patient_labels)
        with timer.analytics():
            beta = self.mahout.linear_regression(matrix, response)
            predictions = matrix @ beta[1:] + beta[0]
            residual_ss = float(np.sum((response - predictions) ** 2))
            total_ss = float(np.sum((response - response.mean()) ** 2))
            r_squared = 1.0 - residual_ss / total_ss if total_ss > 0 else 1.0
        return regression_output(
            len(gene_labels), matrix.shape[0], r_squared,
            payload=beta,
        )

    # -- Q2 ------------------------------------------------------------------------------------

    def _run_covariance(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        diseases = [int(d) for d in sorted(parameters.covariance_diseases)]
        with timer.data_management():
            matrix, _patients, gene_labels = self._expression_pivot(
                patient_expression_plan(col("disease_id").isin(diseases))
            )
        with timer.analytics():
            cov = self.mahout.covariance(matrix)
            gene_a, gene_b, values = top_covariant_pairs(
                cov, fraction=parameters.covariance_top_fraction
            )
        with timer.data_management():
            pairs_table = HiveTable(
                "pairs",
                ("gene_id", "covariance"),
                [(int(gene_labels[a]), float(v)) for a, v in zip(gene_a, values, strict=True)],
            )
            joined_meta = self.hive.join(pairs_table, self.genes, "gene_id", "gene_id") if len(pairs_table) else pairs_table
        return covariance_output(
            matrix.shape[0], len(gene_a), values,
            payload={"covariance": cov, "joined_rows": len(joined_meta)},
        )

    # -- Q3 (unsupported) -------------------------------------------------------------------------

    # Mahout has no biclustering; the capability set above excludes the query
    # and the base class raises UnsupportedQueryError before dispatch.

    # -- Q4 ------------------------------------------------------------------------------------

    def _run_svd(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        threshold = parameters.function_threshold(self.dataset.spec)
        with timer.data_management():
            matrix, _patients, gene_labels = self._expression_pivot(
                gene_expression_plan(threshold)
            )
        k = max(1, min(parameters.svd_k(self.dataset.spec), matrix.shape[1]))
        with timer.analytics():
            singular_values = self.mahout.truncated_svd(matrix, k=k, seed=parameters.seed)
        return svd_output(len(gene_labels), singular_values, payload=singular_values)

    # -- Q5 ------------------------------------------------------------------------------------

    def _run_statistics(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        sampled = [int(p) for p in statistics_patient_ids(self.dataset, parameters)]
        with timer.data_management():
            matrix, _patients, gene_labels = self._expression_pivot(
                patient_expression_plan(col("patient_id").isin(sampled))
            )
            gene_scores = self._gene_scores(matrix)
            membership = self._membership_matrix(gene_labels)
        with timer.analytics():
            p_values = self.mahout.wilcoxon_enrichment(gene_scores, membership)
        significant = p_values < parameters.statistics_alpha
        return statistics_output(
            matrix.shape[0], len(p_values), significant,
            payload=p_values,
        )
