"""The GenBase benchmark core.

This package is the paper's primary contribution: the benchmark itself.

* :mod:`repro.core.spec` — query parameters and the query registry.
* :mod:`repro.core.queries` — engine-independent reference implementations
  of the five queries (used to validate every engine's answers).
* :mod:`repro.core.timing` — the data-management / analytics phase timer.
* :mod:`repro.core.engines` — one adapter per evaluated configuration:
  vanilla R, Postgres+Madlib, Postgres+R, column store+R, column store+UDFs,
  SciDB, Hadoop, the multi-node variants and SciDB+coprocessor.
* :mod:`repro.core.runner` — the benchmark runner (timeouts, memory-failure
  handling, result records); ``examples/paper_figures.py`` prints the
  paper's figures from its results.
"""

from repro.core.spec import QUERY_NAMES, QueryParameters, default_parameters
from repro.core.timing import PhaseTimer
from repro.core.queries import ReferenceImplementation, QueryOutput
from repro.core.engines import make_engine, EngineCapabilities
from repro.core.runner import BenchmarkRunner, QueryResult, RunStatus

__all__ = [
    "QUERY_NAMES",
    "QueryParameters",
    "default_parameters",
    "PhaseTimer",
    "ReferenceImplementation",
    "QueryOutput",
    "make_engine",
    "EngineCapabilities",
    "BenchmarkRunner",
    "QueryResult",
    "RunStatus",
]
