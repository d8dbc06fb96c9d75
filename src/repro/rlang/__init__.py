"""An R-like in-memory statistics environment (the benchmark's "vanilla R").

The paper's baseline configuration is plain R: everything lives in main
memory, arrays are capped at 2³¹−1 cells, execution is single threaded, the
``merge`` function provides a hash join, and the analytics call down into
BLAS/LAPACK.  This package reproduces that environment:

* :mod:`repro.rlang.dataframe` — a column-oriented data frame with
  ``merge`` (hash join), ``subset`` and matrix conversion,
  plus an explicit cell limit enforced on every allocation,
* :mod:`repro.rlang.io` — ``read_csv`` / ``write_csv``, used both for
  loading datasets and as the copy/reformat channel the "DBMS + external R"
  configurations pay for,
* :mod:`repro.rlang.stats` — ``lm``, ``cov``, ``svd``, ``biclust`` and
  ``enrichment`` built on the shared kernels of :mod:`repro.linalg`
  (the BLAS tier, as in R),
* :mod:`repro.rlang.bridge` — the shared-plan executor: lowers the
  engine-agnostic logical plans of :mod:`repro.plan` onto the R verbs
  (vectorised ``subset``, ``merge``, ``pivot_matrix``).
"""

from repro.rlang.dataframe import DataFrame, RMemoryError, REnvironment
from repro.rlang.io import read_csv, write_csv, dataframe_from_csv_string, dataframe_to_csv_string
from repro.rlang.stats import lm, cov, svd, biclust, enrichment
from repro.rlang import bridge

__all__ = [
    "DataFrame",
    "REnvironment",
    "RMemoryError",
    "read_csv",
    "write_csv",
    "dataframe_from_csv_string",
    "dataframe_to_csv_string",
    "lm",
    "cov",
    "svd",
    "biclust",
    "enrichment",
    "bridge",
]
