"""Engine-independent reference implementations of the five GenBase queries.

Every engine adapter must produce answers equivalent to these.  The
reference implementation works directly on the generated dataset's arrays
with the shared kernels — no storage engine, no timing — and is used by the
test suite to check engine correctness and by the runner's optional
``verify`` mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.spec import QueryParameters, default_parameters, validate_query_name
from repro.datagen.dataset import GenBaseDataset
from repro.linalg.biclustering import cheng_church
from repro.linalg.covariance import covariance_matrix, top_covariant_pairs
from repro.linalg.lanczos import lanczos_svd
from repro.linalg.qr import linear_regression
from repro.linalg.wilcoxon import enrichment_analysis
from repro.plan import Aggregate, Expression, Filter, Join, Pivot, PlanNode, Project, Scan, col


# --------------------------------------------------------------------------- #
# The five answers
# --------------------------------------------------------------------------- #
#
# One frozen answer class per query.  Every engine and the reference
# return one, with ids (not matrix positions) wherever the answer names a
# gene or a patient, so two engines' answers compare field by field under
# ``repro.fuzz.tolerances``.  Each ``summary()`` is the scalar digest the
# runner checks and the snapshots pin: keys, key order and the
# int()/float() coercions live here and nowhere else.


@dataclass(frozen=True)
class RegressionAnswer:
    """Q1: drug response fitted on the selected genes' expression."""

    n_patients: int
    #: One weight per selected gene, in gene-label order; no intercept.
    coefficients: np.ndarray
    intercept: float
    r_squared: float

    def summary(self) -> dict:
        return {
            "n_selected_genes": int(len(self.coefficients)),
            "n_patients": int(self.n_patients),
            "r_squared": float(self.r_squared),
        }


@dataclass(frozen=True)
class CovarianceAnswer:
    """Q2: the kept gene pairs, as gene ids, in the kernel's order (largest |value| first)."""

    n_selected_patients: int
    gene_a: np.ndarray
    gene_b: np.ndarray
    values: np.ndarray
    #: Kept pairs whose gene came back from the join to the gene metadata.
    joined_rows: int

    def summary(self) -> dict:
        return {
            "n_selected_patients": int(self.n_selected_patients),
            "n_pairs_kept": int(len(self.values)),
            "max_covariance": float(self.values[0]) if len(self.values) else 0.0,
        }


@dataclass(frozen=True)
class BiclusteringAnswer:
    """Q3: each bicluster as ``(patient ids, gene ids)``, in discovery order."""

    n_selected_patients: int
    biclusters: tuple[tuple[np.ndarray, np.ndarray], ...]

    def summary(self) -> dict:
        return {
            "n_selected_patients": int(self.n_selected_patients),
            "n_biclusters": int(len(self.biclusters)),
            "largest_bicluster_cells": int(max(
                (len(patients) * len(genes) for patients, genes in self.biclusters), default=0)),
        }


@dataclass(frozen=True)
class SvdAnswer:
    """Q4: the top singular values, largest first."""

    n_selected_genes: int
    singular_values: np.ndarray

    def summary(self) -> dict:
        return {
            "n_selected_genes": int(self.n_selected_genes),
            "k": int(len(self.singular_values)),
            "top_singular_value": (float(self.singular_values[0])
                                   if len(self.singular_values) else 0.0),
        }


@dataclass(frozen=True)
class StatisticsAnswer:
    """Q5: one enrichment p-value and verdict per GO term."""

    n_sampled_patients: int
    go_ids: np.ndarray
    p_values: np.ndarray
    significant: np.ndarray

    def summary(self) -> dict:
        return {
            "n_sampled_patients": int(self.n_sampled_patients),
            "n_terms": int(len(self.go_ids)),
            "n_significant": int(self.significant.sum()),
        }


@dataclass
class QueryOutput:
    """One query's answer, its summary and a side ``payload``.

    ``summary`` is ``answer.summary()``, computed once here.  ``payload``
    is read by no comparison: the kernel's own result object where the
    kernel returns one (``None`` otherwise), and on the coprocessor
    engine ``{"result": kernel result, "offload": OffloadResult}``.
    """

    query: str
    answer: RegressionAnswer | CovarianceAnswer | BiclusteringAnswer | SvdAnswer | StatisticsAnswer
    payload: object | None = None
    summary: dict = field(init=False)

    def __post_init__(self) -> None:
        self.summary = self.answer.summary()


# --------------------------------------------------------------------------- #
# Shared selection helpers (used by the reference and by several engines)
# --------------------------------------------------------------------------- #

def selected_gene_ids(dataset: GenBaseDataset, parameters: QueryParameters) -> np.ndarray:
    """Gene ids passing the Q1/Q4 function filter, sorted ascending."""
    threshold = parameters.function_threshold(dataset.spec)
    return np.flatnonzero(dataset.genes.function < threshold)


def covariance_patient_ids(dataset: GenBaseDataset, parameters: QueryParameters) -> np.ndarray:
    """Patient ids passing the Q2 disease filter, sorted ascending."""
    diseases = np.asarray(sorted(parameters.covariance_diseases))
    return np.flatnonzero(np.isin(dataset.patients.disease_id, diseases))


def bicluster_patient_ids(dataset: GenBaseDataset, parameters: QueryParameters) -> np.ndarray:
    """Patient ids passing the Q3 age/gender filter, sorted ascending."""
    patients = dataset.patients
    mask = (patients.gender == parameters.bicluster_gender) & (
        patients.age < parameters.bicluster_max_age
    )
    return np.flatnonzero(mask)


def statistics_patient_ids(dataset: GenBaseDataset, parameters: QueryParameters) -> np.ndarray:
    """Patient ids in the Q5 sample, sorted ascending (deterministic)."""
    fraction = parameters.sample_fraction(dataset.spec)
    rng = np.random.default_rng(parameters.seed)
    n_keep = max(1, int(round(fraction * dataset.n_patients)))
    return np.sort(rng.choice(dataset.n_patients, size=n_keep, replace=False))


# --------------------------------------------------------------------------- #
# Shared patient predicates (one expression, every engine and every node)
# --------------------------------------------------------------------------- #
#
# The Q2/Q3/Q5 patient filters as shared AST expressions.  Single-node
# engines wrap them in :func:`patient_expression_plan`; the multi-node
# engines lower ``Filter(Scan("patients"), predicate)`` through
# :mod:`repro.cluster.bridge`, where the same conjuncts drive partition
# pruning.  One predicate object therefore runs identically on node 1 of a
# cluster and on the single-node column store.

def covariance_patient_predicate(parameters: QueryParameters) -> Expression:
    """Q2 patient filter: disease membership."""
    return col("disease_id").isin(np.asarray(sorted(parameters.covariance_diseases)))


def bicluster_patient_predicate(parameters: QueryParameters) -> Expression:
    """Q3 patient filter: gender equality and strict age upper bound."""
    return (col("gender") == parameters.bicluster_gender) & (
        col("age") < parameters.bicluster_max_age
    )


def statistics_patient_predicate(sampled_patient_ids: np.ndarray) -> Expression:
    """Q5 patient filter: membership in the (already sorted) sample.

    Build this once per query, not per node — ``isin`` caches its sorted,
    deduplicated key array, so every node probes the same keys.
    """
    return col("patient_id").isin(np.asarray(sampled_patient_ids))


# --------------------------------------------------------------------------- #
# Shared data-management plans (one plan object, every engine)
# --------------------------------------------------------------------------- #
#
# The five queries' data-management stages are whole logical plans built from
# the shared AST; the column store runs them through
# ``repro.colstore.planner.run_plan`` (compressed, vectorised) and the row
# store through ``repro.relational.bridge.run_shared_plan`` (Volcano
# operators).  Each engine therefore optimizes the *same* Scan → Filter →
# Join → terminal tree — predicate pushdown and through-join projection
# pruning both happen at the shared plan layer.

#: The long-format output every GenBase pivot consumes.
EXPRESSION_TRIPLE = ("patient_id", "gene_id", "expression_value")


def dataset_tables(dataset: GenBaseDataset) -> dict[str, dict[str, np.ndarray]]:
    """Name → column → array view of the dataset's relational tables.

    The engine-neutral loading form shared by the cross-engine tests and
    the differential fuzzer's harness: each engine converts these columns
    into its native container (compressed column tables, row-store pages,
    Hive rows, R vectors) without re-deriving the GenBase schemas.  Key
    and metadata columns are ``int64``; ``drug_response`` and
    ``expression_value`` stay ``float64``.
    """
    micro = dataset.microarray_relational()
    return {
        "microarray": {
            "gene_id": micro[:, 0].astype(np.int64),
            "patient_id": micro[:, 1].astype(np.int64),
            "expression_value": micro[:, 2].astype(np.float64),
        },
        **metadata_tables(dataset),
    }


def metadata_tables(dataset: GenBaseDataset) -> dict[str, dict[str, np.ndarray]]:
    """The :func:`dataset_tables` dimension tables: ``patients``, ``genes``, ``ontology``.

    ``ontology`` is the sparse GO membership (one row per gene in a term,
    ``belongs`` = 1), the rows the Q5 lookup selects.
    """
    patients = dataset.patients
    genes = dataset.genes
    gene_id, go_id, belongs = dataset.ontology_relational(include_zeros=False).astype(np.int64).T
    return {
        "patients": {
            "patient_id": patients.patient_id.astype(np.int64),
            "age": patients.age.astype(np.int64),
            "gender": patients.gender.astype(np.int64),
            "zipcode": patients.zipcode.astype(np.int64),
            "disease_id": patients.disease_id.astype(np.int64),
            "drug_response": patients.drug_response.astype(np.float64),
        },
        "genes": {
            "gene_id": genes.gene_id.astype(np.int64),
            "target": genes.target.astype(np.int64),
            "position": genes.position.astype(np.int64),
            "length": genes.length.astype(np.int64),
            "function": genes.function.astype(np.int64),
        },
        "ontology": {"gene_id": gene_id, "go_id": go_id, "belongs": belongs},
    }


def gene_expression_plan(threshold: int) -> PlanNode:
    """Q1/Q4 data management: ``genes(function < t) ⋈ microarray``.

    Projected to the long-format expression triple; top it with
    :func:`expression_pivot_plan` for the dense matrix.
    """
    return Project(
        Filter(
            Join(Scan("genes"), Scan("microarray"), "gene_id", "gene_id"),
            col("function") < threshold,
        ),
        EXPRESSION_TRIPLE,
    )


def patient_expression_plan(predicate: Expression) -> PlanNode:
    """Q2/Q3/Q5 data management: ``patients(predicate) ⋈ microarray``."""
    return Project(
        Filter(
            Join(Scan("patients"), Scan("microarray"), "patient_id", "patient_id"),
            predicate,
        ),
        EXPRESSION_TRIPLE,
    )


def _lookup_plan(table: str, key: str, ids, columns: tuple[str, ...]) -> PlanNode:
    """``Project(Filter(Scan(table), key ∈ ids), columns)``: the rows of ``ids``."""
    return Project(Filter(Scan(table), col(key).isin(np.asarray(ids, dtype=np.int64))), columns)


def drug_response_plan(patient_ids) -> PlanNode:
    """Q1 target lookup: the drug response of each selected patient."""
    return _lookup_plan("patients", "patient_id", patient_ids, ("patient_id", "drug_response"))


def gene_annotation_plan(gene_ids) -> PlanNode:
    """Q2 annotation join: the metadata (function code) of the kept pairs' genes."""
    return _lookup_plan("genes", "gene_id", gene_ids, ("gene_id", "function"))


def go_membership_plan(gene_ids) -> PlanNode:
    """Q5 membership lookup: the GO rows of the scored genes."""
    return _lookup_plan("ontology", "gene_id", gene_ids, ("gene_id", "go_id", "belongs"))


def expression_pivot_plan(child: PlanNode) -> Pivot:
    """Pivot a long-format expression subtree into the dense patient × gene matrix."""
    return Pivot(child, "patient_id", "gene_id", "expression_value")


def sampled_expression_filter_plan(sampled_patient_ids: np.ndarray) -> PlanNode:
    """Q5 row selection: microarray rows of the sampled patients."""
    return Filter(Scan("microarray"), col("patient_id").isin(sampled_patient_ids))


def sampled_expression_mean_plan(sampled_patient_ids: np.ndarray) -> Aggregate:
    """Q5 per-gene score: mean expression over the sampled patients' rows."""
    return Aggregate(
        sampled_expression_filter_plan(sampled_patient_ids),
        "gene_id", "expression_value", "mean",
    )


# --------------------------------------------------------------------------- #
# Reference implementation
# --------------------------------------------------------------------------- #

class ReferenceImplementation:
    """Direct (numpy + shared kernels) implementation of the five queries."""

    def __init__(self, dataset: GenBaseDataset, parameters: QueryParameters | None = None):
        self.dataset = dataset
        self.parameters = parameters or default_parameters(dataset.spec)

    # -- dispatch -------------------------------------------------------------------

    def run(self, query: str) -> QueryOutput:
        """Run one query by name."""
        query = validate_query_name(query)
        method = getattr(self, query)
        return method()

    # -- Q1: predictive modelling -----------------------------------------------------

    def regression(self) -> QueryOutput:
        genes = selected_gene_ids(self.dataset, self.parameters)
        features = self.dataset.expression_matrix[:, genes]
        target = self.dataset.patients.drug_response
        result = linear_regression(features, target, method="lapack")
        return QueryOutput("regression", RegressionAnswer(
            features.shape[0], result.coefficients, result.intercept, result.r_squared,
        ), result)

    # -- Q2: covariance -----------------------------------------------------------------

    def covariance(self) -> QueryOutput:
        patients = covariance_patient_ids(self.dataset, self.parameters)
        matrix = self.dataset.expression_matrix[patients, :]
        gene_a, gene_b, values = top_covariant_pairs(
            covariance_matrix(matrix), fraction=self.parameters.covariance_top_fraction
        )
        # Matrix columns are gene ids 0..n−1; the join back to the gene
        # metadata keeps the pairs whose first gene has a row there.
        joined_rows = np.isin(gene_a, self.dataset.genes.gene_id).sum()
        return QueryOutput("covariance", CovarianceAnswer(
            len(patients), gene_a, gene_b, values, int(joined_rows),
        ))

    # -- Q3: biclustering ------------------------------------------------------------------

    def biclustering(self) -> QueryOutput:
        patients = bicluster_patient_ids(self.dataset, self.parameters)
        matrix = self.dataset.expression_matrix[patients, :]
        result = cheng_church(
            matrix,
            n_biclusters=self.parameters.n_biclusters,
            seed=self.parameters.seed,
        )
        return QueryOutput("biclustering", BiclusteringAnswer(len(patients), tuple(
            (patients[bicluster.rows], bicluster.columns) for bicluster in result
        )), result)

    # -- Q4: SVD --------------------------------------------------------------------------------

    def svd(self) -> QueryOutput:
        genes = selected_gene_ids(self.dataset, self.parameters)
        matrix = self.dataset.expression_matrix[:, genes]
        k = min(self.parameters.svd_k(self.dataset.spec), len(genes)) if len(genes) else 1
        result = lanczos_svd(matrix, k=max(1, k), seed=self.parameters.seed)
        return QueryOutput("svd", SvdAnswer(len(genes), result.singular_values), result)

    # -- Q5: statistics (enrichment) ---------------------------------------------------------------

    def statistics(self) -> QueryOutput:
        patients = statistics_patient_ids(self.dataset, self.parameters)
        sample = self.dataset.expression_matrix[patients, :]
        gene_scores = sample.mean(axis=0)
        result = enrichment_analysis(
            gene_scores,
            self.dataset.ontology.membership,
            alpha=self.parameters.statistics_alpha,
        )
        return QueryOutput("statistics", StatisticsAnswer(
            len(patients), result.go_ids, result.p_values, result.significant,
        ), result)
