"""Engine adapter registry.

Maps the configuration names used throughout the benchmark (and in the
paper's figure legends) to the engine classes that implement them.

Single-node configurations (Figures 1 and 2):

======================  =====================================================
name                    paper legend
======================  =====================================================
``vanilla-r``           Vanilla R
``postgres-madlib``     Postgres + Madlib
``postgres-r``          Postgres + R
``columnstore-r``       Column store + R
``columnstore-udf``     Column store + UDFs
``scidb``               SciDB
``hadoop``              Hadoop
======================  =====================================================

Multi-node configurations (Figures 3 and 4) take an ``n_nodes`` argument:
``scidb-cluster``, ``hadoop-cluster``, ``columnstore-udf-cluster``,
``columnstore-pbdr``, ``pbdr``.

Coprocessor configurations (Figure 5 and Table 1): ``scidb-phi`` and
``scidb-phi-cluster``.
"""

from __future__ import annotations

from repro.core.engines.base import Engine, EngineCapabilities, UnsupportedQueryError
from repro.core.engines.rlang_engine import VanillaREngine
from repro.core.engines.postgres import PostgresMadlibEngine, PostgresREngine
from repro.core.engines.colstore_engine import ColumnStoreREngine, ColumnStoreUdfEngine
from repro.core.engines.scidb import SciDBEngine
from repro.core.engines.hadoop import HadoopEngine
from repro.core.engines.multinode import (
    ColumnStorePbdREngine,
    ColumnStoreUdfClusterEngine,
    HadoopClusterEngine,
    PbdREngine,
    SciDBClusterEngine,
)
from repro.core.engines.phi import SciDBPhiClusterEngine, SciDBPhiEngine

#: Registry of engine factories.  Multi-node engines accept ``n_nodes``.
ENGINE_FACTORIES = {
    "vanilla-r": VanillaREngine,
    "postgres-madlib": PostgresMadlibEngine,
    "postgres-r": PostgresREngine,
    "columnstore-r": ColumnStoreREngine,
    "columnstore-udf": ColumnStoreUdfEngine,
    "scidb": SciDBEngine,
    "hadoop": HadoopEngine,
    "scidb-cluster": SciDBClusterEngine,
    "hadoop-cluster": HadoopClusterEngine,
    "columnstore-udf-cluster": ColumnStoreUdfClusterEngine,
    "columnstore-pbdr": ColumnStorePbdREngine,
    "pbdr": PbdREngine,
    "scidb-phi": SciDBPhiEngine,
    "scidb-phi-cluster": SciDBPhiClusterEngine,
}

#: The seven single-node configurations of Figure 1, in legend order.
SINGLE_NODE_ENGINES = (
    "columnstore-r",
    "columnstore-udf",
    "hadoop",
    "postgres-madlib",
    "postgres-r",
    "scidb",
    "vanilla-r",
)

#: The five multi-node configurations of Figure 3, in legend order.
MULTI_NODE_ENGINES = (
    "columnstore-pbdr",
    "columnstore-udf-cluster",
    "hadoop-cluster",
    "pbdr",
    "scidb-cluster",
)


def make_engine(name: str, **options) -> Engine:
    """Instantiate an engine by registry name.

    Args:
        name: one of the names in :data:`ENGINE_FACTORIES`.
        options: forwarded to the engine constructor (e.g. ``n_nodes=4`` for
            multi-node engines, ``max_cells=...`` for vanilla R).

    Raises:
        KeyError: for unknown engine names.
    """
    try:
        factory = ENGINE_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(ENGINE_FACTORIES))
        raise KeyError(f"unknown engine {name!r}; known engines: {known}") from None
    return factory(**options)


__all__ = [
    "Engine",
    "EngineCapabilities",
    "UnsupportedQueryError",
    "ENGINE_FACTORIES",
    "SINGLE_NODE_ENGINES",
    "MULTI_NODE_ENGINES",
    "make_engine",
    "VanillaREngine",
    "PostgresMadlibEngine",
    "PostgresREngine",
    "ColumnStoreREngine",
    "ColumnStoreUdfEngine",
    "SciDBEngine",
    "HadoopEngine",
    "SciDBClusterEngine",
    "HadoopClusterEngine",
    "ColumnStoreUdfClusterEngine",
    "ColumnStorePbdREngine",
    "PbdREngine",
    "SciDBPhiEngine",
    "SciDBPhiClusterEngine",
]
