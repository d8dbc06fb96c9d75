"""Multi-node engine configurations (paper Figures 3 and 4).

Five configurations run multi-node in the paper: SciDB, Hadoop, the column
store with pbdR, the column store with UDFs, and pbdR on its own.  All of
them are built here on the :mod:`repro.cluster` substrate:

* the expression matrix and patient metadata are row-partitioned across the
  simulated nodes at load time (gene metadata and GO data are replicated,
  as every real system does for small dimension tables);
* the data-management phase is a shared logical plan
  (``Filter(Scan("patients"), predicate)`` with predicates built by
  :mod:`repro.core.queries`) lowered through :mod:`repro.cluster.bridge`:
  partitions whose min/max + distinct-set synopses exclude the predicate
  are pruned on the driver before dispatch (``partition_stats`` counts
  them), and the surviving fragments run one per node, each timed alone;
  simulated elapsed time is the slowest node plus any network traffic;
* the analytics phase differs by configuration:

  - **pbdR** and **column store + pbdR** use the ScaLAPACK layer: the
    shared covariance / Lanczos kernels of :mod:`repro.linalg` on a
    :class:`~repro.cluster.scalapack.DistributedMatrix` operand (every
    product a broadcast and an all-reduce), and distributed normal equations,
  - **SciDB** uses the same distributed kernels but pays an extra
    re-chunking redistribution after its filters (the data movement the
    paper suggests explains its 1→2 node regression),
  - **column store + UDFs** gathers the filtered partitions to one node and
    runs the single-node UDF analytics there (UDFs do not parallelise),
  - **Hadoop** runs per-node Hive jobs for data management, gathers the
    joined output, and runs the driver-side Mahout analytics without
    parallelism credit (a conservative simplification recorded in
    ``docs/ENGINES.md``; the paper's qualitative finding — Hadoop is slowest and
    scales poorly — is insensitive to it).

Phase times recorded by these engines are *simulated parallel* times:
measured per-node compute combined with modelled network seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster import (
    Cluster,
    DistributedMatrix,
    PartitionedTable,
    PartitionStats,
    ScaLAPACK,
    merge_gathered,
    reduce_partial_sums,
)
from repro.cluster.bridge import run_shared_plan as run_cluster_plan
from repro.core.engines.base import Engine, EngineCapabilities, covariance_pairs
from repro.core.engines.hadoop import MahoutAnalytics
from repro.core.queries import QueryOutput, dataset_tables, statistics_patient_predicate
from repro.core.spec import QueryParameters
from repro.core.timing import PhaseTimer
from repro.datagen.dataset import GenBaseDataset
from repro.linalg.biclustering import cheng_church
from repro.linalg.wilcoxon import enrichment_analysis
from repro.mapreduce import HiveSession, HiveTable, Mahout, MapReduceEngine
from repro.mapreduce.bridge import driver_pivot, run_shared_plan
from repro.plan import Filter, Scan


@dataclass
class NodePartition:
    """One node's slice of the GenBase data (patients are the partition key)."""

    patient_ids: np.ndarray
    expression: np.ndarray
    age: np.ndarray
    gender: np.ndarray
    disease_id: np.ndarray
    drug_response: np.ndarray


@dataclass
class _MultiNodeEngine(Engine):
    """Shared loading, partitioning and phase-accounting machinery."""

    name: str = "multi-node"
    n_nodes: int = 2
    capabilities: EngineCapabilities = field(
        default_factory=lambda: EngineCapabilities(multi_node=True)
    )
    #: Whether the filtered matrix is redistributed (re-chunked) after the
    #: data-management filters — SciDB pays this, the pbdR variants do not.
    redistribute_after_filter: bool = False

    def _load(self, dataset: GenBaseDataset) -> None:
        self.cluster = Cluster(self.n_nodes)
        boundaries = np.array_split(np.arange(dataset.n_patients), self.n_nodes)
        matrix = dataset.expression_matrix
        patients = dataset.patients
        self.partitions = [
            NodePartition(
                patient_ids=ids,
                expression=matrix[ids],
                age=patients.age[ids],
                gender=patients.gender[ids],
                disease_id=patients.disease_id[ids],
                drug_response=patients.drug_response[ids],
            )
            for ids in boundaries
        ]
        # Driver-resident metadata for the shared-plan bridge: per-partition
        # synopses over the patient columns drive partition pruning, and
        # partition_stats mirrors the array engine's filter_stats.
        self.partition_stats = PartitionStats()
        self._patients_table = PartitionedTable.from_partitions(
            "patients",
            [
                {
                    "patient_id": partition.patient_ids,
                    "age": partition.age,
                    "gender": partition.gender,
                    "disease_id": partition.disease_id,
                }
                for partition in self.partitions
            ],
        )
        self.gene_function = dataset.genes.function
        self.go_membership = dataset.ontology.membership
        self.n_go_terms = dataset.ontology.n_go_terms

    # -- phase accounting helpers -----------------------------------------------------------

    def _timed_cluster_phase(self, timer_add, work):
        """Run ``work`` (which uses the cluster), charge its simulated time, return its result."""
        before = self.cluster.simulated_elapsed_seconds
        outputs = work()
        timer_add(self.cluster.simulated_elapsed_seconds - before)
        return outputs

    # -- per-node data-management primitives ---------------------------------------------------

    def _patient_filter_plan(self, predicate) -> Filter:
        """The shared logical plan for a patient filter on this cluster."""
        return Filter(Scan("patients"), predicate)

    def _filter_patients_plan(self, predicate) -> list[NodePartition]:
        """Lower a shared patient predicate through the cluster bridge.

        Partitions whose synopsis excludes the predicate are pruned on the
        driver (counted in ``partition_stats``); surviving fragments
        evaluate the expression and subset their partition on the node.
        """
        def subset(node_id: int, local_rows: np.ndarray) -> NodePartition:
            partition = self.partitions[node_id]
            return NodePartition(
                patient_ids=partition.patient_ids[local_rows],
                expression=partition.expression[local_rows],
                age=partition.age[local_rows],
                gender=partition.gender[local_rows],
                disease_id=partition.disease_id[local_rows],
                drug_response=partition.drug_response[local_rows],
            )

        return run_cluster_plan(
            self._patient_filter_plan(predicate), self._patients_table, self.cluster,
            stats=self.partition_stats, on_fragment=subset,
        )

    def _project_genes_local(self, partitions: list[NodePartition], gene_ids: np.ndarray) -> list[np.ndarray]:
        """Project each node's expression block onto the selected gene columns."""
        def local(partition: NodePartition, _node: int) -> np.ndarray:
            return partition.expression[:, gene_ids]

        return [np.asarray(block) for block in self.cluster.map_partitions(partitions, local)]

    def _maybe_redistribute(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Charge a re-chunking shuffle of the filtered blocks (SciDB only)."""
        if not self.redistribute_after_filter or self.n_nodes == 1:
            return blocks
        return [np.asarray(block) for block in self.cluster.scatter(self.cluster.gather(blocks))]

    def _distributed(self, blocks: list[np.ndarray], n_columns: int) -> DistributedMatrix:
        return DistributedMatrix(cluster=self.cluster, partitions=blocks, n_columns=n_columns)

    def _gather_dense(self, blocks: list[np.ndarray], timer_add) -> np.ndarray:
        """Gather per-node blocks to the driver, charging the network."""
        outputs = self._timed_cluster_phase(timer_add, lambda: self.cluster.gather(blocks))
        n_columns = blocks[0].shape[1] if blocks and blocks[0].ndim == 2 else 0
        return merge_gathered(outputs, n_columns)


def _patient_ids(partitions: list[NodePartition]) -> np.ndarray:
    """The patient labels of a list of (possibly filtered) node partitions."""
    return np.concatenate([partition.patient_ids for partition in partitions])


class _DistributedAnalyticsMixin(_MultiNodeEngine):
    """Hooks over per-node blocks, analytics via the ScaLAPACK layer.

    Used by pbdR, column store + pbdR and SciDB.  A selection's ``matrix``
    is the list of per-node expression blocks; phases are charged with the
    cluster's simulated elapsed time, so driver-side glue costs nothing.
    """

    def _select_by_function(self, threshold, timer: PhaseTimer):
        genes = np.flatnonzero(self.gene_function < threshold)

        def dm():
            blocks = self._project_genes_local(self.partitions, genes)
            return self._maybe_redistribute(blocks)

        blocks = self._timed_cluster_phase(timer.add_data_management, dm)
        return blocks, _patient_ids(self.partitions), genes

    def _select_patients(self, predicate, timer: PhaseTimer):
        filtered = self._timed_cluster_phase(
            timer.add_data_management, lambda: self._filter_patients_plan(predicate)
        )
        blocks = [partition.expression for partition in filtered]
        return blocks, _patient_ids(filtered), np.arange(self.dataset.n_genes)

    def _drug_response_for(self, patient_labels, timer: PhaseTimer):
        return [partition.drug_response.reshape(-1, 1) for partition in self.partitions]

    def _scores_and_membership(self, sampled, timer: PhaseTimer):
        # Built once on the driver: the isin predicate caches its sorted key
        # array, so no node re-sorts the sample.
        predicate = statistics_patient_predicate(sampled)

        def dm():
            # Per-node partial sums of the sampled rows (the distributed
            # "rank genes by expression" step), fused into the filter
            # fragment so each surviving node is dispatched once.
            def partial(node_id: int, local_rows: np.ndarray):
                rows = self.partitions[node_id].expression[local_rows]
                if rows.size == 0:
                    return (np.zeros(self.dataset.n_genes), 0)
                return (rows.sum(axis=0), rows.shape[0])

            return run_cluster_plan(
                self._patient_filter_plan(predicate), self._patients_table,
                self.cluster, stats=self.partition_stats, on_fragment=partial,
            )

        partials = self._timed_cluster_phase(timer.add_data_management, dm)
        totals, count = reduce_partial_sums(partials)
        return count, totals / max(count, 1), self.go_membership

    def _analytics_regression(self, blocks, responses, timer: PhaseTimer):
        def analytics():
            features = self._distributed(blocks, blocks[0].shape[1])
            target = self._distributed(responses, 1)
            return ScaLAPACK(self.cluster).linear_regression(features, target)

        fit = self._timed_cluster_phase(timer.add_analytics, analytics)
        return fit.r_squared, fit

    def _analytics_covariance(self, blocks, parameters, timer: PhaseTimer):
        blocks = self._timed_cluster_phase(
            timer.add_data_management, lambda: self._maybe_redistribute(blocks)
        )

        def analytics():
            matrix = self._distributed(blocks, self.dataset.n_genes)
            return covariance_pairs(ScaLAPACK(self.cluster).covariance(matrix), parameters)

        return self._timed_cluster_phase(timer.add_analytics, analytics)

    def _analytics_biclustering(self, blocks, parameters, timer: PhaseTimer):
        dense = self._gather_dense(blocks, timer.add_analytics)
        with timer.analytics():
            result = cheng_church(
                dense, n_biclusters=parameters.n_biclusters, seed=parameters.seed
            )
        return result, result

    def _analytics_svd(self, blocks, k, parameters, timer: PhaseTimer):
        def analytics():
            matrix = self._distributed(blocks, blocks[0].shape[1])
            return ScaLAPACK(self.cluster).lanczos_svd(matrix, k=k, seed=parameters.seed)

        result = self._timed_cluster_phase(timer.add_analytics, analytics)
        return result.singular_values, result

    def _analytics_statistics(self, gene_scores, membership, parameters, timer: PhaseTimer):
        with timer.analytics():
            result = enrichment_analysis(
                gene_scores, membership, alpha=parameters.statistics_alpha
            )
        return len(result.go_ids), result.significant, result


@dataclass
class PbdREngine(_DistributedAnalyticsMixin):
    """pbdR: R partitioned across nodes with ScaLAPACK analytics."""

    name: str = "pbdr"
    redistribute_after_filter: bool = False


@dataclass
class ColumnStorePbdREngine(_DistributedAnalyticsMixin):
    """Column store for local data management, pbdR/ScaLAPACK for analytics."""

    name: str = "columnstore-pbdr"
    redistribute_after_filter: bool = False


@dataclass
class SciDBClusterEngine(_DistributedAnalyticsMixin):
    """SciDB multi-node: same distributed kernels, plus re-chunking shuffles."""

    name: str = "scidb-cluster"
    redistribute_after_filter: bool = True


@dataclass
class ColumnStoreUdfClusterEngine(_MultiNodeEngine):
    """Column store + UDFs multi-node: analytics gathered to a single node."""

    name: str = "columnstore-udf-cluster"

    def __post_init__(self) -> None:
        super().__post_init__()
        from repro.core.engines.colstore_engine import ColumnStoreUdfEngine

        self._single_node = ColumnStoreUdfEngine()

    def _load(self, dataset: GenBaseDataset) -> None:
        super()._load(dataset)
        self._single_node.load(dataset)

    def run(self, query: str, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        """Charge a gather of the working set, then run the query single node."""
        if self.dataset is None:
            raise RuntimeError(f"engine {self.name!r} has no dataset loaded")
        blocks = [partition.expression for partition in self.partitions]
        if self.n_nodes > 1:
            self._timed_cluster_phase(
                timer.add_data_management,
                lambda: self.cluster.gather(blocks),
            )
        return self._single_node.run(query, parameters, timer)


@dataclass
class HadoopClusterEngine(MahoutAnalytics, _MultiNodeEngine):
    """Hadoop multi-node: per-node Hive jobs, driver-side Mahout analytics."""

    name: str = "hadoop-cluster"
    capabilities: EngineCapabilities = field(
        default_factory=lambda: EngineCapabilities(
            supported_queries=frozenset({"regression", "covariance", "svd", "statistics"}),
            multi_node=True,
        )
    )

    def _load(self, dataset: GenBaseDataset) -> None:
        super()._load(dataset)
        # Each node gets its own Hive session over its patients' microarray
        # and patient rows, typed as on the single-node Hadoop engine.
        tables = dataset_tables(dataset)

        def node_table(name: str, patient_ids) -> HiveTable:
            keep = np.isin(tables[name]["patient_id"], patient_ids)
            return HiveTable.from_columns(
                name, {column: values[keep] for column, values in tables[name].items()}
            )

        self.node_hive: list[tuple[HiveSession, HiveTable, HiveTable]] = [
            (HiveSession(MapReduceEngine(n_splits=2)),
             node_table("microarray", partition.patient_ids),
             node_table("patients", partition.patient_ids))
            for partition in self.partitions
        ]
        self.genes_table = HiveTable.from_columns("genes", tables["genes"])
        self.mahout = Mahout(MapReduceEngine(n_splits=self.n_nodes))

    # -- data-management hooks ---------------------------------------------------------------------

    def _pivot(self, child_plan, timer: PhaseTimer):
        """Run the shared filter ⋈ microarray plan on every node's Hive session.

        The same plan every single-node engine consumes is lowered per node
        by the MapReduce bridge; the pushed-down predicate runs in the join
        job's map phase against that node's partition.  Every node's join
        output is then shipped to the driver and pivoted there; the pivot
        itself is charged to no phase.
        """
        def local(node_data, _node: int) -> HiveTable:
            session, micro_table, patients_table = node_data
            tables = {
                "microarray": micro_table,
                "genes": self.genes_table,
                "patients": patients_table,
            }
            return run_shared_plan(child_plan, tables, session)

        tables = self._timed_cluster_phase(
            timer.add_data_management,
            lambda: self.cluster.map_partitions(self.node_hive, local),
        )
        outputs = self._timed_cluster_phase(
            timer.add_data_management,
            lambda: self.cluster.gather([table.rows for table in tables]),
        )
        all_rows = [row for rows in outputs for row in rows]
        if not all_rows:
            return np.empty((0, 0)), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        table = HiveTable("gathered", tables[0].columns, all_rows)
        return driver_pivot(table, "patient_id", "gene_id", "expression_value")

    def _drug_response_for(self, patient_labels, timer: PhaseTimer) -> np.ndarray:
        # Driver-side lookup over the partitions' metadata, charged to no phase.
        response_lookup = {
            int(pid): float(dr)
            for partition in self.partitions
            for pid, dr in zip(partition.patient_ids, partition.drug_response, strict=True)
        }
        return np.asarray([response_lookup[int(p)] for p in patient_labels])

    def _membership_matrix(self, gene_labels) -> np.ndarray:
        membership = np.zeros((len(gene_labels), self.n_go_terms), dtype=np.int8)
        for position, gene_id in enumerate(gene_labels):
            membership[position] = self.go_membership[int(gene_id)]
        return membership
