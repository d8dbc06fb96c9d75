"""A compressed, vectorised column-store engine.

This package is the benchmark's "popular column store" analog.  Its design
follows the classic column-store recipe:

* each column is stored separately as a typed, *compressed* vector
  (:mod:`repro.colstore.compression` implements run-length, dictionary and
  delta encodings with automatic selection),
* queries execute vectorised: predicates produce selection bitmaps over
  whole columns, joins and aggregations work on integer index vectors, and
  row materialisation is deferred until output (late materialisation),
* analytics can run outside the store (export to the R environment, paying
  the copy/reformat cost) or inside it through the UDF interface
  (:mod:`repro.colstore.udf`).

The engine's data-management performance profile therefore differs from the
row store in exactly the way the paper discusses: per-column scans are cheap,
but GenBase's narrow tables and multi-column fetches blunt the advantage
("our tables are very narrow and we retrieve several columns in some of our
tasks, a situation where column stores do not excel").

DESIGN — compressed execution
=============================

Queries operate *directly on the encoded columns* wherever the encoding
admits a fast path.  There is one dispatch level: a ``ColumnVector``
delegates every operator to its ``Encoding``, which answers from the
compressed form or inherits the generic decode-then-numpy answer.  Every
such fallback reads ``Encoding.values()`` — the decode-once buffer, the
only place a column is ever decoded — so the cost rule is: *once decoded,
gather and compare on the buffer; dictionary/RLE keep answering from
codes/runs.*  The per-encoding matrix:

===========  ==============================  ===================================
encoding     ``take(indices)``               ``filter_mask`` / ``isin``
===========  ==============================  ===================================
plain        fancy indexing on the stored    vectorised predicate on the stored
             array (it *is* the buffer)      array — zero-copy, never decoded
rle          ``searchsorted`` over the       predicate on the run *values* only,
             cumulative run ends             verdicts ``repeat``-expanded
dictionary   gather codes, one dictionary    predicate on the *distinct* values;
             lookup                          prefix/suffix verdicts (range
                                             predicates on the sorted dict)
                                             become a single code comparison,
                                             otherwise a code gather
delta        fancy indexing on the buffer    vectorised predicate on the buffer
             (decoded by the first operator  (same buffer)
             that needs it, kept for the
             rest)
===========  ==============================  ===================================

(``take`` on an already-decoded column is fancy indexing on the buffer for
every encoding.)

Consequences for the query layer:

* predicates handed to ``where``/``filter_mask`` must be element-wise and
  stateless — dictionary/RLE columns evaluate them on distinct values only;
* ``where`` narrows the selection vector through these pushdowns
  without materialising the filtered column;
* ``group_aggregate``/``pivot`` push the *grouping* down too: a dictionary
  column's ``(keys, codes)`` pair is consumed directly (``bincount`` over
  codes, min/max via one ``ufunc.at`` scatter); every other encoding (and
  every join intermediate) groups its buffer, bounded-span integers by
  direct addressing — presence table, ``cumsum`` codes — and only floats,
  strings and sparse keys by ``np.unique``'s sort (see
  ``distinct_inverse``/``group_reduce``).  Every encoding then reduces
  with the same ``bincount``/``ufunc.at`` calls, so a sealed column's
  grouped result is bit-identical whatever its encoding; the one float
  reassociation left is ``MergedColumn``'s sealed+tail partial merge;
* plain and delta columns trade memory for time: the buffer a delta column
  fills stays resident (a plain column's stored array *is* its buffer);
* statistics are a pure function of the stored form (a delta column keeps
  its min/max from encode time), never of which columns were decoded;
* a query sees two column classes — ``ColumnVector``, and ``MergedColumn``
  (sealed vector + plain tail) once a table has been appended to — in one
  table class, through one read path: every table is a ``DeltaStore`` from
  creation, and a snapshot's table is the sealed one while the tail is empty;
* the equi-join computes aligned position arrays with no per-row Python:
  unique dense integer build keys (every GenBase PK–FK join) make it a
  semi-join on the probe side's *compressed* key column plus one table
  lookup, and an unfiltered input is never gathered through an ``arange``
  selection; duplicate dense keys expand hit ranges over a direct-address
  (counting-sort) table, anything else takes an ``argsort`` +
  ``searchsorted`` sort-merge;
* ``best_encoding`` predicts every candidate's exact footprint from cheap
  column statistics (run count, cardinality, delta width — see
  ``encoding_sizes``) and builds only the winner.

``benchmarks/bench_colstore_ops.py`` sweeps these paths against the
decode-everything baselines and records the speedups in
``BENCH_colstore.json``.
"""

from repro.colstore.column import ColumnVector
from repro.colstore.compression import (
    AGGREGATE_FUNCTIONS,
    DeltaEncoding,
    DictionaryEncoding,
    PlainEncoding,
    RunLengthEncoding,
    best_encoding,
    encoding_sizes,
    make_encoding,
    reduce_by_inverse,
)
from repro.colstore.table import ColumnTable
from repro.colstore.delta import DeltaStore, MergedColumn, Snapshot
from repro.colstore.catalog import ColumnStore
from repro.colstore.query import (
    ColumnQuery,
    JoinedQuery,
    materialise_join,
    merge_join_positions,
)
from repro.colstore.planner import (
    ColumnStoreCatalog,
    explain_plan,
    optimize_plan,
    run_plan,
)

__all__ = [
    "AGGREGATE_FUNCTIONS",
    "ColumnVector",
    "PlainEncoding",
    "RunLengthEncoding",
    "DictionaryEncoding",
    "DeltaEncoding",
    "best_encoding",
    "encoding_sizes",
    "make_encoding",
    "reduce_by_inverse",
    "ColumnTable",
    "ColumnStore",
    "DeltaStore",
    "MergedColumn",
    "Snapshot",
    "ColumnQuery",
    "JoinedQuery",
    "materialise_join",
    "merge_join_positions",
    "ColumnStoreCatalog",
    "explain_plan",
    "optimize_plan",
    "run_plan",
]
