"""A row-store relational engine (the benchmark's Postgres analog).

This package implements a small but complete single-node RDBMS in Python:

* typed schemas and a catalog (:mod:`repro.relational.schema`,
  :mod:`repro.relational.catalog`),
* slotted-page heap storage with binary tuple serialisation
  (:mod:`repro.relational.storage`, :mod:`repro.relational.table`),
* the shared expression language for predicates and projections
  (:mod:`repro.plan.expressions`, compiled to per-row-tuple callables),
* Volcano-style iterator operators — sequential scan, filter, projection,
  hash join (:mod:`repro.relational.operators`),
* the lowering of shared, already optimised plans onto them
  (:mod:`repro.relational.bridge`), whose results are
  :class:`~repro.relational.query.QueryResultSet` objects,
* a UDF registry used by the Madlib-style in-database analytics adapter
  (:mod:`repro.relational.udf`).

The engine processes one Python tuple at a time through materialised pages,
which is exactly the execution profile the paper's row-store results
reflect: fine constant factors for data management, but every analytics
operation either leaves the engine (export to R) or runs as an interpreted
UDF.
"""

from repro.relational.schema import Column, ColumnType, Schema
from repro.relational.table import HeapTable
from repro.relational.catalog import Database
from repro.plan.expressions import col, lit, and_
from repro.relational.udf import UdfRegistry, default_madlib_registry

__all__ = [
    "Column",
    "ColumnType",
    "Schema",
    "HeapTable",
    "Database",
    "col",
    "lit",
    "and_",
    "UdfRegistry",
    "default_madlib_registry",
]
