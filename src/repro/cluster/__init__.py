"""Multi-node execution simulator.

The paper's multi-node experiments (Figures 3 and 4) run SciDB, Hadoop, the
column store and pbdR on clusters of 1, 2 and 4 machines and find that
"the scalability of all systems is less than ideal": per-node compute drops
with more nodes but data movement grows, and SciDB is sometimes *slower* on
two nodes than on one.

This package provides the substrate those experiments need without real
hardware:

* :mod:`repro.cluster.network` — an interconnect model that *actually
  serialises* every transferred object to count bytes, then prices each
  collective (point to point, binomial-tree broadcast, ring all-reduce)
  with a fixed latency + bandwidth model,
* :mod:`repro.cluster.cluster` — the cluster itself: executes per-partition
  work (really, one node after another in-process, with per-partition
  wall-clock measurement) and issues every collective, so one simulated
  clock holds the slowest node of each dispatch plus every priced second,
* :mod:`repro.cluster.scalapack` — a ScaLAPACK/pbdR-style distributed dense
  linear algebra layer (covariance, least squares and Lanczos) over block
  row-partitioned matrices, themselves kernel operands of
  :mod:`repro.linalg`.

The substitution is documented in ``docs/ENGINES.md``: per-node
computation is real measured work; only the interconnect is modelled.
"""

from repro.cluster.network import NetworkModel
from repro.cluster.cluster import Cluster
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
    "Cluster",
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
