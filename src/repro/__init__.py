"""GenBase reproduction: a complex analytics genomics benchmark.

This package is a from-scratch Python reproduction of *GenBase: A Complex
Analytics Genomics Benchmark* (Taft, Vartak, Satish, Sundaram, Madden,
Stonebraker — SIGMOD 2014).  It contains:

* ``repro.datagen`` — the synthetic genomics data generators (microarray,
  patient metadata, gene metadata, gene-ontology membership).
* ``repro.linalg`` — the numerical kernels used by the benchmark queries
  (Householder QR regression, Lanczos SVD, covariance, biclustering,
  Wilcoxon rank-sum), each in "BLAS-backed" and deliberately naive variants.
* ``repro.relational`` — a row-store relational engine (Postgres analog).
* ``repro.colstore`` — a compressed, vectorised column-store engine.
* ``repro.arraydb`` — a chunked array DBMS (SciDB analog).
* ``repro.mapreduce`` — an in-process MapReduce stack with Hive-like and
  Mahout-like layers (Hadoop analog).
* ``repro.rlang`` — an R-like in-memory data-frame and statistics environment.
* ``repro.cluster`` — a multi-node execution simulator with partition
  pruning, a network cost model and ScaLAPACK-style distributed linear
  algebra.
* ``repro.accelerator`` — a Xeon-Phi-style offload coprocessor model.
* ``repro.core`` — the benchmark itself: the five GenBase queries, engine
  adapters for every configuration the paper evaluates, and the runner /
  reporting code that regenerates every figure and table.

The heavyweight sub-packages are imported lazily (PEP 562) so that
``import repro`` stays cheap and utilities like the data generators can be
used without pulling in every engine.

Quickstart::

    from repro import GenBaseDataset, BenchmarkRunner

    dataset = GenBaseDataset.generate("tiny", seed=7)
    runner = BenchmarkRunner()
    result = runner.run("regression", "scidb", dataset)
    print(result.total_seconds, result.analytics_seconds)
"""

from __future__ import annotations

__version__ = "1.0.0"

#: Public names re-exported from sub-packages, resolved lazily on first use.
_LAZY_EXPORTS = {
    "GenBaseDataset": ("repro.datagen", "GenBaseDataset"),
    "SizeSpec": ("repro.datagen", "SizeSpec"),
    "SIZE_PRESETS": ("repro.datagen", "SIZE_PRESETS"),
    "BenchmarkRunner": ("repro.core", "BenchmarkRunner"),
    "QueryResult": ("repro.core", "QueryResult"),
    "QUERY_NAMES": ("repro.core", "QUERY_NAMES"),
    "make_engine": ("repro.core", "make_engine"),
}

__all__ = ["__version__", *sorted(_LAZY_EXPORTS)]


def __getattr__(name: str):
    """Resolve the lazily exported public names on first access."""
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attribute)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
