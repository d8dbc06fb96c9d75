"""Multi-node execution simulator.

The paper's multi-node experiments (Figures 3 and 4) run SciDB, Hadoop, the
column store and pbdR on clusters of 1, 2 and 4 machines and find that
"the scalability of all systems is less than ideal": per-node compute drops
with more nodes but data movement grows, and SciDB is sometimes *slower* on
two nodes than on one.

This package provides the substrate those experiments need without real
hardware:

* :mod:`repro.cluster.network` — an interconnect model that *actually
  serialises* every transferred object to count bytes, then converts bytes
  to time with a configurable latency + bandwidth model,
* :mod:`repro.cluster.cluster` — the cluster itself: executes per-partition
  work (really, one node after another in-process, with per-partition
  wall-clock measurement) and combines per-node compute with network time into a
  simulated parallel elapsed time,
* :mod:`repro.cluster.scalapack` — a ScaLAPACK/pbdR-style distributed dense
  linear algebra layer (covariance, least squares and Lanczos) over block
  row-partitioned matrices, themselves kernel operands of
  :mod:`repro.linalg`.

The substitution is documented in ``docs/ENGINES.md``: per-node
computation is real measured work; only the interconnect is modelled.
"""

from repro.cluster.network import NetworkModel, TransferRecord
from repro.cluster.cluster import Cluster, NodeTiming, ParallelRunResult
from repro.cluster.scalapack import DistributedMatrix, ScaLAPACK
from repro.cluster.bridge import (
    ColumnSynopsis,
    PartitionedTable,
    PartitionStats,
    PartitionSynopsis,
    expression_skips_partition,
    merge_gathered,
    reduce_partial_sums,
    run_shared_plan,
)

__all__ = [
    "NetworkModel",
    "TransferRecord",
    "Cluster",
    "NodeTiming",
    "ParallelRunResult",
    "DistributedMatrix",
    "ScaLAPACK",
    "ColumnSynopsis",
    "PartitionedTable",
    "PartitionStats",
    "PartitionSynopsis",
    "expression_skips_partition",
    "merge_gathered",
    "reduce_partial_sums",
    "run_shared_plan",
]
