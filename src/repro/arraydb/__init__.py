"""A chunked array DBMS (the benchmark's SciDB analog).

SciDB stores data as multi-dimensional arrays split into rectangular chunks
and executes queries chunk-by-chunk; analytics either run natively over the
chunks or hand off to ScaLAPACK.  This package reproduces that architecture:

* :mod:`repro.arraydb.schema` — array schemas: named *dimensions* (with
  chunk sizes) plus typed *attributes*,
* :mod:`repro.arraydb.chunk` / :mod:`repro.arraydb.array` — chunked storage
  in dense rectangular chunks,
* :mod:`repro.arraydb.operators` — the AFL-style operators the GenBase
  queries need: the chunk-skip test, ``subarray`` and ``aggregate``,
* :mod:`repro.arraydb.linalg` — the native analytics (a chunked array is a
  kernel operand of :mod:`repro.linalg`: chunk-wise matrix-vector products
  and Gram matrices), plus the conversion that hands whole arrays to the
  ScaLAPACK tier,
* :mod:`repro.arraydb.bridge` — the shared-plan executor: lowers the
  engine-agnostic logical plans of :mod:`repro.plan` onto these operators
  (metadata filters run chunk-wise with min/max chunk skipping; joins
  against the fact array become one gather of the selected coordinates).

Because data is already an array, the GenBase queries need no
table-to-matrix restructuring here — the property that makes SciDB
competitive in the paper's results.
"""

from repro.arraydb.schema import ArraySchema, Attribute, Dimension
from repro.arraydb.chunk import Chunk
from repro.arraydb.array import ChunkedArray
from repro.arraydb import operators
from repro.arraydb import linalg
from repro.arraydb import bridge

__all__ = [
    "ArraySchema",
    "Attribute",
    "Dimension",
    "Chunk",
    "ChunkedArray",
    "operators",
    "linalg",
    "bridge",
]
