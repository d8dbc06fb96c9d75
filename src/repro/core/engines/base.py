"""Base classes shared by every benchmark engine adapter.

An *engine* is one of the configurations the paper evaluates (vanilla R,
Postgres + Madlib, SciDB, ...).  Every engine implements the same contract:

* ``load(dataset)`` — ingest the four GenBase tables into the engine's own
  storage (not timed; the paper pre-loads data too),
* ``run(query, parameters, timer)`` — execute one query, charging its data
  management and analytics work to the :class:`~repro.core.timing.PhaseTimer`
  and returning a :class:`~repro.core.queries.QueryOutput`,
* ``capabilities`` — which queries the configuration can run at all
  (e.g. Hadoop/Mahout has no biclustering).

Engines raise :class:`UnsupportedQueryError` for queries they cannot run and
let ``MemoryError`` (including the R environment's
:class:`~repro.rlang.dataframe.RMemoryError`) propagate — the runner maps
both onto the paper's "infinite result" convention.

The five queries are spelled once, as the ``_run_<query>`` recipes of
:class:`Engine`: a data-management selection feeding an analytics kernel,
whose result the recipe turns into the query's answer class
(:mod:`repro.core.queries`), mapping matrix positions to gene and patient
ids through the selection's labels.  A configuration differs only in
*where and how* each step runs, so an adapter supplies hooks, not queries:
``_pivot`` (or the two selections built on it), ``_relation``, optionally
the whole Q5 ``_scores_and_membership`` step, and the five
``_analytics_*`` kernels.

``_relation(plan, timer)`` runs one lookup plan of
:mod:`repro.core.queries` — ``Project(Filter(Scan(t), key ∈ ids),
columns)`` — through the family's bridge and answers ``{column: array}``.
The three lookups are built and aligned once, here: Q1's drug responses
(:meth:`Engine._drug_response_for`, in label order), Q2's join of the kept
pairs back to the gene metadata (:meth:`Engine._annotate_pairs`, the
answer's ``joined_rows``) and Q5's gene × GO membership
(:meth:`Engine._membership_matrix`).

**Hooks own all timing.**  A recipe never opens a phase: each hook receives
the :class:`~repro.core.timing.PhaseTimer` and charges its own work —
measured (``with timer.analytics()``), simulated-cluster
(``timer.add_data_management(simulated delta)``) or modelled-coprocessor
(``timer.add_analytics(device seconds)``) — or deliberately nothing, so the
recipes never branch on which engine is running them.  What a recipe does
itself (building the plan and predicate, drawing the Q5 sample, clamping
the SVD rank, the answer) is charged to no phase.

Two engines wrap ``run`` instead of supplying hooks, because they re-charge
a whole inner run rather than execute steps of their own:
``ColumnStoreUdfClusterEngine`` (gather, then the single-node UDF engine)
and ``SciDBPhiClusterEngine`` (the offload model applied to the multi-node
SciDB phases).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.queries import (
    BiclusteringAnswer,
    CovarianceAnswer,
    QueryOutput,
    RegressionAnswer,
    StatisticsAnswer,
    SvdAnswer,
    bicluster_patient_predicate,
    covariance_patient_predicate,
    drug_response_plan,
    gene_annotation_plan,
    gene_expression_plan,
    go_membership_plan,
    patient_expression_plan,
    statistics_patient_ids,
    statistics_patient_predicate,
)
from repro.core.spec import QUERY_NAMES, QueryParameters, validate_query_name
from repro.core.timing import PhaseTimer
from repro.datagen.dataset import GenBaseDataset
from repro.linalg.covariance import top_covariant_pairs
from repro.plan import Expression, PlanNode


class UnsupportedQueryError(RuntimeError):
    """The engine configuration has no implementation for this query."""


@dataclass(frozen=True)
class EngineCapabilities:
    """What an engine can do, used by the runner and the reports."""

    supported_queries: frozenset[str] = frozenset(QUERY_NAMES)
    multi_node: bool = False
    uses_external_analytics: bool = False
    uses_coprocessor: bool = False

    def supports(self, query: str) -> bool:
        return validate_query_name(query) in self.supported_queries


@dataclass
class Engine:
    """Base engine adapter.

    Attributes:
        name: registry name of the configuration.
        capabilities: see :class:`EngineCapabilities`.
    """

    name: str = "engine"
    capabilities: EngineCapabilities = field(default_factory=EngineCapabilities)

    def __post_init__(self) -> None:
        self.dataset: GenBaseDataset | None = None

    # -- lifecycle ----------------------------------------------------------------

    def load(self, dataset: GenBaseDataset) -> None:
        """Ingest the dataset into the engine's storage (not timed)."""
        self.dataset = dataset
        self._load(dataset)

    def _load(self, dataset: GenBaseDataset) -> None:
        raise NotImplementedError

    # -- execution -----------------------------------------------------------------

    def run(self, query: str, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        """Run one query; dispatches to ``_run_<query>``."""
        if self.dataset is None:
            raise RuntimeError(f"engine {self.name!r} has no dataset loaded")
        query = validate_query_name(query)
        if not self.capabilities.supports(query):
            raise UnsupportedQueryError(
                f"engine {self.name!r} does not support the {query!r} query"
            )
        return getattr(self, f"_run_{query}")(parameters, timer)

    # -- the five query recipes ------------------------------------------------------

    def _run_regression(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        threshold = parameters.function_threshold(self.dataset.spec)
        matrix, patient_labels, gene_labels = self._select_by_function(threshold, timer)
        response = self._drug_response_for(patient_labels, timer)
        (coefficients, intercept, r_squared), payload = self._analytics_regression(
            matrix, response, timer)
        return QueryOutput("regression", RegressionAnswer(
            len(patient_labels), coefficients, intercept, r_squared), payload)

    def _run_covariance(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        matrix, patient_labels, gene_labels = self._select_patients(
            covariance_patient_predicate(parameters), timer
        )
        (gene_a, gene_b, values), payload = self._analytics_covariance(matrix, parameters, timer)
        genes = np.asarray(gene_labels, dtype=np.int64)
        joined_rows = self._annotate_pairs(genes, gene_a, timer)
        return QueryOutput("covariance", CovarianceAnswer(
            len(patient_labels), genes[gene_a], genes[gene_b], values, joined_rows), payload)

    def _run_biclustering(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        matrix, patient_labels, gene_labels = self._select_patients(
            bicluster_patient_predicate(parameters), timer
        )
        biclusters, payload = self._analytics_biclustering(matrix, parameters, timer)
        patients = np.asarray(patient_labels, dtype=np.int64)
        genes = np.asarray(gene_labels, dtype=np.int64)
        return QueryOutput("biclustering", BiclusteringAnswer(len(patient_labels), tuple(
            (patients[bicluster.rows], genes[bicluster.columns]) for bicluster in biclusters
        )), payload)

    def _run_svd(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        threshold = parameters.function_threshold(self.dataset.spec)
        matrix, _patient_labels, gene_labels = self._select_by_function(threshold, timer)
        k = svd_rank(parameters.svd_k(self.dataset.spec), len(gene_labels))
        singular_values, payload = self._analytics_svd(matrix, k, parameters, timer)
        return QueryOutput("svd", SvdAnswer(len(gene_labels), singular_values), payload)

    def _run_statistics(self, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        sampled = statistics_patient_ids(self.dataset, parameters)
        n_patients, gene_scores, membership = self._scores_and_membership(sampled, timer)
        (p_values, significant), payload = self._analytics_statistics(
            gene_scores, membership, parameters, timer
        )
        # Column j of the membership matrix is GO term j.
        return QueryOutput("statistics", StatisticsAnswer(
            n_patients, np.arange(membership.shape[1]), p_values, significant), payload)

    # -- data-management hooks ---------------------------------------------------------
    #
    # A selection returns ``(matrix, patient_labels, gene_labels)``: the
    # labels are the ids of the matrix's rows and columns, through which
    # the recipes map kernel positions to ids; ``matrix`` is whatever the
    # engine's own analytics hooks consume (dense array, chunked array,
    # per-node blocks).

    def _pivot(self, child_plan: PlanNode, timer: PhaseTimer):
        """Run one long-format expression plan through the family's bridge and pivot it."""
        raise NotImplementedError

    def _select_by_function(self, threshold: int, timer: PhaseTimer):
        """Q1/Q4 selection: every patient, genes with ``function < threshold``."""
        return self._pivot(gene_expression_plan(threshold), timer)

    def _select_patients(self, predicate: Expression, timer: PhaseTimer):
        """Q2/Q3/Q5 selection: every gene, patients matching ``predicate``."""
        return self._pivot(patient_expression_plan(predicate), timer)

    def _relation(self, plan: PlanNode, timer: PhaseTimer) -> dict[str, np.ndarray]:
        """Run one lookup plan through the family's bridge: ``{column: array}``."""
        raise NotImplementedError

    def _drug_response_for(self, patient_labels, timer: PhaseTimer) -> np.ndarray:
        """Q1 target: drug responses aligned with ``patient_labels``.

        Raises ``KeyError`` for a label with no patient row.
        """
        labels = np.asarray(patient_labels, dtype=np.int64)
        rows = self._relation(drug_response_plan(labels), timer)
        return np.asarray(rows["drug_response"])[positions_of(rows["patient_id"], labels)]

    def _scores_and_membership(self, sampled: np.ndarray, timer: PhaseTimer):
        """Q5 data management: ``(n_patients, per-gene scores, gene × GO membership)``."""
        matrix, patient_labels, gene_labels = self._select_patients(
            statistics_patient_predicate(sampled), timer
        )
        with timer.data_management():
            # Per-gene score: mean expression over the sampled patients.
            gene_scores = np.asarray(matrix, dtype=np.float64).mean(axis=0)
        return len(patient_labels), gene_scores, self._membership_matrix(gene_labels, timer)

    def _membership_matrix(self, gene_labels, timer: PhaseTimer) -> np.ndarray:
        """The gene × GO-term 0/1 ``int8`` matrix for the given genes, in label order."""
        labels = np.asarray(gene_labels, dtype=np.int64)
        rows = self._relation(go_membership_plan(labels), timer)
        membership = np.zeros((len(labels), self.dataset.ontology.n_go_terms), dtype=np.int8)
        belongs = np.asarray(rows["belongs"])
        # A zero cell (SciDB's long form has one per non-member) scatters nothing.
        member = belongs != 0
        gene_ids = np.asarray(rows["gene_id"])[member]
        go_ids = np.asarray(rows["go_id"], dtype=np.int64)[member]
        membership[positions_of(labels, gene_ids), go_ids] = belongs[member]
        return membership

    def _annotate_pairs(self, genes: np.ndarray, gene_a, timer: PhaseTimer) -> int:
        """Q2 join of the kept pairs back to gene metadata: the number of kept
        pairs whose gene came back (the answer's ``joined_rows``).  ``genes``
        holds the selected genes' int64 ids, ``gene_a`` positions into it."""
        # Per selected gene, not per pair: Q2 keeps tens of thousands of pairs.
        paired = np.zeros(len(genes), dtype=bool)
        paired[gene_a] = True
        rows = self._relation(gene_annotation_plan(genes[paired]), timer)
        came_back = np.isin(genes, np.asarray(rows["gene_id"], dtype=np.int64))
        return int(came_back[gene_a].sum())

    # -- analytics hooks: each returns ``(what the kernel computed, payload)`` ----------
    #
    # Positions index the hook's ``matrix``; the recipe maps them to ids.

    def _analytics_regression(self, matrix, response, timer: PhaseTimer):
        """``((coefficients, intercept, r_squared), payload)``, no intercept in
        ``coefficients``."""
        raise NotImplementedError

    def _analytics_covariance(self, matrix, parameters: QueryParameters, timer: PhaseTimer):
        """``((gene_a, gene_b, values), payload)`` — see :func:`covariance_pairs`."""
        raise NotImplementedError

    def _analytics_biclustering(self, matrix, parameters: QueryParameters, timer: PhaseTimer):
        """``(biclusters, payload)``: each bicluster has ``rows`` and ``columns`` positions."""
        raise NotImplementedError

    def _analytics_svd(self, matrix, k: int, parameters: QueryParameters, timer: PhaseTimer):
        """``(singular_values, payload)``, values largest first."""
        raise NotImplementedError

    def _analytics_statistics(self, gene_scores, membership, parameters: QueryParameters,
                              timer: PhaseTimer):
        """``((p_values, significant), payload)``, one of each per membership column."""
        raise NotImplementedError


# -- helpers shared by the recipes and several adapters ------------------------------------


def svd_rank(requested: int, n_genes: int) -> int:
    """The Q4 rank: the requested ``k`` clamped to the selected genes, at least 1.

    >>> svd_rank(50, 28), svd_rank(5, 28), svd_rank(50, 0)
    (28, 5, 1)
    """
    return max(1, min(requested, n_genes))


def covariance_pairs(cov: np.ndarray, parameters: QueryParameters):
    """Q2's top-pairs pass: ``(gene_a, gene_b, values)``, largest |value| first."""
    return top_covariant_pairs(cov, fraction=parameters.covariance_top_fraction)


def positions_of(keys, wanted) -> np.ndarray:
    """The position in ``keys`` of each of ``wanted``; ``KeyError`` for one not there.

    >>> positions_of([30, 10, 20], [20, 30, 20]).tolist()
    [2, 0, 2]
    >>> positions_of([30, 10, 20], [40])
    Traceback (most recent call last):
    KeyError: 40
    """
    keys = np.asarray(keys, dtype=np.int64)
    wanted = np.asarray(wanted, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    found = np.searchsorted(ordered, wanted)
    hit = found < len(keys)
    hit[hit] = ordered[found[hit]] == wanted[hit]
    if not hit.all():
        raise KeyError(int(wanted[~hit][0]))
    return order[found]
