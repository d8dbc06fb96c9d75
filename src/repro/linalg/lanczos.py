"""Lanczos iteration for truncated eigen/singular value decomposition.

GenBase Query 4 de-noises the expression matrix with a truncated SVD and the
paper specifies the Lanczos algorithm — "a power method that can iteratively
find the largest eigenvalues of symmetric positive semidefinite matrices"
(Section 3.2.4).  The benchmark asks for the 50 largest singular values and
their vectors.

This module implements Lanczos tridiagonalisation with full
reorthogonalisation on the symmetric operator ``AᵀA``, then recovers the
singular triplets of ``A`` — once, in :func:`truncated_svd`, over any
operand of :mod:`repro.linalg.operand`.  Full
reorthogonalisation costs extra GEMV work but keeps the Ritz values accurate
without the ghost-eigenvalue bookkeeping of selective schemes — the right
trade-off at benchmark matrix sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg.operand import DenseOperand


@dataclass
class LanczosResult:
    """Truncated SVD result ``A ≈ U diag(s) Vᵀ``.

    Attributes:
        singular_values: top-``k`` singular values, descending.
        left_vectors: ``(m, k)`` matrix ``U``.
        right_vectors: ``(n, k)`` matrix ``V``.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    @property
    def iterations(self) -> int:
        """The number of singular triplets computed (``k`` after clipping).

        Not a Lanczos step count — :func:`lanczos_eigsh` does not report
        one.  ``genbase_bench/layers.py`` reads this name for its
        ``linalg.lanczos_iterations`` metric.
        """
        return len(self.singular_values)

    def reconstruct(self) -> np.ndarray:
        """Return the rank-``k`` approximation ``U diag(s) Vᵀ``."""
        return (self.left_vectors * self.singular_values) @ self.right_vectors.T


def lanczos_eigsh(
    operator,
    dimension: int,
    k: int,
    max_iterations: int | None = None,
    seed: int = 0,
    tolerance: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Find the ``k`` largest eigenpairs of a symmetric PSD linear operator.

    Args:
        operator: a callable ``v -> A @ v`` for a symmetric PSD matrix ``A``.
        dimension: the dimension of the operator's domain.
        k: number of eigenpairs wanted.
        max_iterations: maximum Krylov dimension (default
            ``min(dim, max(2k+20, 4k))``).
        seed: seed for the random start vector.
        tolerance: breakdown tolerance on the off-diagonal recurrence terms.

    Returns:
        ``(eigenvalues, eigenvectors)`` — the eigenvalues in descending order
        and the corresponding Ritz vectors as columns.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if dimension < 1:
        raise ValueError("operator dimension must be positive")
    k = min(k, dimension)
    if max_iterations is None:
        max_iterations = min(dimension, max(2 * k + 20, 4 * k))
    max_iterations = max(k, min(max_iterations, dimension))

    rng = np.random.default_rng(seed)
    q = rng.standard_normal(dimension)
    q /= np.linalg.norm(q)

    basis = np.zeros((max_iterations, dimension))
    alphas = np.zeros(max_iterations)
    betas = np.zeros(max_iterations)

    basis[0] = q
    steps = 0
    for j in range(max_iterations):
        w = operator(basis[j])
        alpha = float(basis[j] @ w)
        alphas[j] = alpha
        w = w - alpha * basis[j]
        if j > 0:
            w = w - betas[j - 1] * basis[j - 1]
        # Full reorthogonalisation against the existing Krylov basis.
        w = w - basis[: j + 1].T @ (basis[: j + 1] @ w)
        beta = float(np.linalg.norm(w))
        steps = j + 1
        if beta <= tolerance:
            break
        if j + 1 < max_iterations:
            betas[j] = beta
            basis[j + 1] = w / beta

    # Eigen-decompose the small tridiagonal matrix.
    tri = np.diag(alphas[:steps])
    for i in range(steps - 1):
        tri[i, i + 1] = betas[i]
        tri[i + 1, i] = betas[i]
    eigenvalues, eigenvectors = np.linalg.eigh(tri)
    order = np.argsort(eigenvalues)[::-1][:k]
    ritz_values = eigenvalues[order]
    ritz_vectors = basis[:steps].T @ eigenvectors[:, order]
    # Normalise the Ritz vectors (reorthogonalisation keeps them close already).
    norms = np.linalg.norm(ritz_vectors, axis=0)
    norms[norms == 0] = 1.0
    ritz_vectors = ritz_vectors / norms
    return ritz_values, ritz_vectors


def truncated_svd(operand, k: int = 50, seed: int = 0) -> LanczosResult:
    """Top-``k`` singular triplets of any kernel operand via Lanczos on ``AᵀA``.

    The recurrence only needs ``Aᵀ(A v)`` products, so the operand decides
    what one costs (a GEMV pair, a pass over the chunks, a broadcast and an
    all-reduce — see :mod:`repro.linalg.operand`); the left vectors are
    recovered with one ``matmat`` and rescaled.  This is the only caller of
    :func:`lanczos_eigsh`.

    Args:
        operand: anything with ``shape``, ``matvec``, ``rmatvec``, ``matmat``.
        k: number of singular triplets (clipped to ``min(m, n)``).
        seed: start-vector seed.
    """
    m, n = operand.shape
    if m == 0 or n == 0:
        raise ValueError("cannot compute the SVD of an empty matrix")
    k = max(1, min(k, m, n))
    eigenvalues, right = lanczos_eigsh(
        lambda vector: operand.rmatvec(operand.matvec(vector)), dimension=n, k=k, seed=seed
    )
    singular_values = np.sqrt(np.clip(eigenvalues, 0.0, None))
    left = operand.matmat(right) / np.where(singular_values > 0, singular_values, 1.0)
    # The Ritz vectors arrive normalised; the derived side is brought to unit length.
    norms = np.linalg.norm(left, axis=0)
    norms[norms == 0] = 1.0
    return LanczosResult(singular_values, left / norms, right)


def lanczos_svd(matrix: np.ndarray, k: int = 50, seed: int = 0) -> LanczosResult:
    """Top-``k`` singular triplets of a dense ``(m, n)`` matrix.

    A wide matrix runs as its transpose, so the recurrence is always on the
    smaller Gram operator, and ``U`` / ``V`` are swapped back.
    """
    operand = DenseOperand(matrix)
    if operand.shape[0] >= operand.shape[1]:
        return truncated_svd(operand, k, seed)
    flipped = truncated_svd(operand.T, k, seed)
    return LanczosResult(flipped.singular_values, flipped.right_vectors, flipped.left_vectors)
