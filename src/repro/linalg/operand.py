"""The kernel operand: what a matrix must offer for Q2 and Q4 to run on it.

:func:`repro.linalg.covariance.covariance` and
:func:`repro.linalg.lanczos.truncated_svd` are written once, over anything
with

* ``shape`` — ``(m, n)``,
* ``matmat(B)`` — ``A @ B`` for a dense ``(n, k)`` matrix,
* ``gram(center=False)`` — ``AᵀA``, of the column-centred matrix when asked.

Both are one pass over the data and neither kernel asks for more than one of
each: the covariance is a centred Gram, the SVD iterates on the Gram matrix.

Three classes do: :class:`DenseOperand` here (one BLAS call per method),
:class:`repro.arraydb.array.ChunkedArray` (streams its chunks, in row
panels no taller than it is wide plus one band) and
:class:`repro.cluster.scalapack.DistributedMatrix` (per-node partials plus a
charged collective).  The engines differ in which operand they hand the
kernel and in who is charged for its products — not in the algorithm.  The protocol is duck-typed: there is no base class to inherit.
"""

from __future__ import annotations

import numpy as np


class DenseOperand:
    """A dense in-memory matrix as a kernel operand."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ValueError("a kernel operand is a 2-D matrix")
        self.shape = self.matrix.shape

    def matmat(self, dense_right: np.ndarray) -> np.ndarray:
        return self.matrix @ dense_right

    def gram(self, center: bool = False) -> np.ndarray:
        matrix = self.matrix
        if center:
            matrix = matrix - matrix.mean(axis=0, keepdims=True)
        return matrix.T @ matrix
