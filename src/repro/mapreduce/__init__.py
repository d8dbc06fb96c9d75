"""An in-process MapReduce stack (the benchmark's Hadoop analog).

The paper's Hadoop configuration runs the GenBase data management in Hive
and the analytics in Mahout, and lands one to two orders of magnitude behind
the best systems because every step is a materialised MapReduce job and the
analytics never touch a tuned linear algebra library.  This package rebuilds
that stack faithfully, in miniature:

* :mod:`repro.mapreduce.engine` — a single-node MapReduce engine with input
  splits, map, combine, sort-based shuffle (with real serialisation of the
  intermediate key/value pairs), and reduce; every job reports counters.
* :mod:`repro.mapreduce.hive` — a Hive-like relational layer: tables are
  line-oriented records, and ``select`` / ``project`` / ``join`` each
  compile to one MapReduce job (joins are reduce-side).
* :mod:`repro.mapreduce.mahout` — a Mahout-like analytics layer: linear
  regression, covariance and a power-iteration SVD expressed as MapReduce
  jobs over the naive kernels in :mod:`repro.linalg.naive`; biclustering is
  (as in Mahout) simply not provided.
* :mod:`repro.mapreduce.bridge` — the shared-plan executor: lowers the
  engine-agnostic logical plans of :mod:`repro.plan` onto MapReduce jobs,
  fusing pushed-down predicates and pruned projections into the map phase
  of the join job (filter-before-shuffle).
"""

from repro.mapreduce.engine import JobCounters, MapReduceEngine, MapReduceJob
from repro.mapreduce.hive import HiveSession, HiveTable
from repro.mapreduce.mahout import Mahout
from repro.mapreduce import bridge

__all__ = [
    "MapReduceEngine",
    "MapReduceJob",
    "JobCounters",
    "HiveTable",
    "HiveSession",
    "Mahout",
    "bridge",
]
