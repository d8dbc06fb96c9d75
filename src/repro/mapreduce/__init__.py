"""An in-process MapReduce stack (the benchmark's Hadoop analog).

The paper's Hadoop configuration runs the GenBase data management in Hive
and the analytics in Mahout, and lands one to two orders of magnitude behind
the best systems because every step is a materialised MapReduce job and the
analytics never touch a tuned linear algebra library.  This package rebuilds
that stack faithfully, in miniature:

* :mod:`repro.mapreduce.engine` — a single-node MapReduce engine with input
  splits, map, combine, sort-based shuffle (with real serialisation of the
  intermediate key/value pairs), and reduce; a job without a reducer is
  map-only.  Every job reports counters.
* :mod:`repro.mapreduce.hive` — Hive tables: typed, line-oriented records.
* :mod:`repro.mapreduce.mahout` — a Mahout-like analytics layer: linear
  regression, covariance and a power-iteration SVD expressed as MapReduce
  jobs over the naive kernels in :mod:`repro.linalg.naive`; biclustering is
  (as in Mahout) simply not provided.
* :mod:`repro.mapreduce.bridge` — the Hive layer, the stack's one
  relational lowering: the engine-agnostic logical plans of
  :mod:`repro.plan` become a reduce-side job per join and a map-only job
  per stand-alone filter/projection, with pushed-down predicates and
  pruned projections fused into the join job's map phase
  (filter-before-shuffle).
"""

from repro.mapreduce.engine import JobCounters, MapReduceEngine, MapReduceJob
from repro.mapreduce.hive import HiveTable
from repro.mapreduce.mahout import Mahout
from repro.mapreduce import bridge

__all__ = [
    "MapReduceEngine",
    "MapReduceJob",
    "JobCounters",
    "HiveTable",
    "Mahout",
    "bridge",
]
