"""Chunk-wise linear algebra for the array DBMS.

SciDB runs some analytics natively over its chunks (the paper notes its
custom Wilcoxon and biclustering code) and delegates dense factorizations to
ScaLAPACK.  This module provides both paths:

* :func:`covariance` and :func:`lanczos_svd_chunked` hand the array itself
  to the shared kernels of :mod:`repro.linalg` — a
  :class:`~repro.arraydb.array.ChunkedArray` is a kernel operand whose
  ``gram`` / ``matmat`` stream chunk blocks through numpy and accumulate,
  never materialising the whole array on one side — and
* :func:`to_scalapack`, the explicit conversion from the DBMS's chunked
  layout to the dense layout the external solver wants (the "O(N)
  conversion with a fairly large constant" the paper's Section 6.2
  discusses — the copy really happens here).
"""

from __future__ import annotations

import numpy as np

from repro.arraydb.array import ChunkedArray
from repro.linalg.covariance import covariance as operand_covariance
from repro.linalg.lanczos import LanczosResult, truncated_svd


def to_scalapack(array: ChunkedArray) -> np.ndarray:
    """Convert a chunked array to the dense layout an external solver expects.

    This is a real reformat: every chunk is copied into its place in a new
    dense buffer.
    """
    return array.to_dense().astype(np.float64, copy=True)


def covariance(array: ChunkedArray, ddof: int = 1) -> np.ndarray:
    """Column covariance of a 2-D chunked array, computed without densifying it."""
    return operand_covariance(array, ddof)


def lanczos_svd_chunked(array: ChunkedArray, k: int = 50, seed: int = 0) -> LanczosResult:
    """Truncated SVD of a 2-D chunked array via Lanczos on its chunk-wise Gram matrix.

    The Gram matrix and the left vectors each take one pass over the stored
    chunks, so the array is never converted to the external dense layout —
    this is SciDB's "native" analytics path.
    """
    return truncated_svd(array, k, seed)
