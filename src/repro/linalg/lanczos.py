"""Lanczos iteration for truncated eigen/singular value decomposition.

GenBase Query 4 de-noises the expression matrix with a truncated SVD and the
paper specifies the Lanczos algorithm — "a power method that can iteratively
find the largest eigenvalues of symmetric positive semidefinite matrices"
(Section 3.2.4).  The benchmark asks for the 50 largest singular values and
their vectors.

This module implements Lanczos tridiagonalisation with full
reorthogonalisation on the symmetric matrix ``AᵀA``, then recovers the
singular triplets of ``A`` — once, in :func:`truncated_svd`, over any
operand of :mod:`repro.linalg.operand`.  The operand forms its Gram matrix
once and the recurrence runs on that ``n × n`` matrix, so a truncated SVD
costs one ``gram()`` + *s* ``n × n`` mat-vecs + one ``matmat``: two passes
over the data (distributed: one all-reduce, one broadcast) however many
steps *s* it takes.  Full reorthogonalisation costs extra GEMV work but keeps
the Ritz values accurate without the ghost-eigenvalue bookkeeping of
selective schemes — the right trade-off at benchmark matrix sizes.

When Lanczos is the wrong tool: k = 50 of n ≈ 300 values makes the Krylov
space (*s* = max(2k + 20, 4k) = 200) two thirds of the whole space, and a
dense ``eigh`` of the Gram matrix (≈ 7 ms at ``xlarge``, ≈ 9 for the
recurrence) would do.  It stays because the paper's Q4 specifies Lanczos;
``tests/test_linalg.py`` checks its values against LAPACK's SVD.

Supported domain: a finite float64 matrix of any rank and scale (a
non-finite entry raises ``ValueError``); ``k`` is clipped to ``min(m, n)``
and exactly that many triplets come back.  Singular values below
``sqrt(max(m, n) · eps) · σ₁`` cannot be told from zero through a Gram
matrix: they are reported as 0, with orthonormal vectors completing ``U``.
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


def lanczos_eigsh(operator, dimension: int, k: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Find the ``k`` largest eigenpairs of a symmetric PSD linear operator.

    Args:
        operator: a callable ``v -> A @ v`` for a symmetric PSD matrix ``A``.
        dimension: the dimension of the operator's domain.
        k: number of eigenpairs wanted (clipped to ``dimension``).
        seed: seed for the random start vector.

    Returns:
        ``(eigenvalues, eigenvectors)`` — exactly ``k`` eigenvalues, descending,
        and the orthonormal Ritz vectors as columns.  The recurrence runs
        ``min(dim, max(2k+20, 4k))`` steps; on breakdown (an invariant Krylov
        space: a rank below ``k``, or a lucky start) it restarts from a fresh
        vector orthogonal to the basis, so a deficient operator returns zeros,
        not fewer pairs.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if dimension < 1:
        raise ValueError("operator dimension must be positive")
    k = min(k, dimension)
    max_iterations = min(dimension, max(2 * k + 20, 4 * k))

    rng = np.random.default_rng(seed)
    q = rng.standard_normal(dimension)
    q /= np.linalg.norm(q)

    basis = np.zeros((max_iterations, dimension))
    alphas = np.zeros(max_iterations)
    betas = np.zeros(max_iterations - 1)

    basis[0] = q
    scale = 0.0
    for j in range(max_iterations):
        w = operator(basis[j])
        alpha = float(basis[j] @ w)
        alphas[j] = alpha
        if j + 1 == max_iterations:
            break
        w = w - alpha * basis[j]
        if j > 0:
            w = w - betas[j - 1] * basis[j - 1]
        # Full reorthogonalisation against the existing Krylov basis.
        w = w - basis[: j + 1].T @ (basis[: j + 1] @ w)
        beta = float(np.linalg.norm(w))
        # Breakdown is judged against the largest coefficient seen: the operator's scale.
        scale = max(scale, abs(alpha), beta)
        if beta <= 1e-10 * scale:
            # Leave betas[j] = 0 and restart orthogonal to the basis (twice,
            # so the rounding of the first pass is projected out too).
            w = rng.standard_normal(dimension)
            for _ in range(2):
                w = w - basis[: j + 1].T @ (basis[: j + 1] @ w)
            beta = float(np.linalg.norm(w))
        else:
            betas[j] = beta
        basis[j + 1] = w / beta

    # Eigen-decompose the small tridiagonal matrix.
    tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    eigenvalues, eigenvectors = np.linalg.eigh(tri)
    order = np.argsort(eigenvalues)[::-1][:k]
    ritz_values = eigenvalues[order]
    ritz_vectors = basis.T @ eigenvectors[:, order]
    # Normalise the Ritz vectors (reorthogonalisation keeps them close already).
    return ritz_values, ritz_vectors / np.linalg.norm(ritz_vectors, axis=0)


def truncated_svd(operand, k: int = 50, seed: int = 0) -> LanczosResult:
    """Top-``k`` singular triplets of any kernel operand via Lanczos on ``AᵀA``.

    One ``gram()``, the recurrence on that ``n × n`` matrix at the caller,
    one ``matmat`` for the left vectors (domain and cost: module docstring).
    This is the only caller of :func:`lanczos_eigsh`.

    Args:
        operand: anything with ``shape``, ``gram`` and ``matmat``; an empty
            one or a non-finite entry raises ``ValueError``.
        k: number of singular triplets (clipped to ``min(m, n)``).
        seed: start-vector seed.
    """
    m, n = operand.shape
    if m == 0 or n == 0:
        raise ValueError("cannot compute the SVD of an empty matrix")
    k = max(1, min(k, m, n))
    gram = operand.gram()
    if not np.isfinite(gram).all():
        raise ValueError("truncated_svd: operand must be finite (its Gram matrix holds NaN or infinity)")
    eigenvalues, right = lanczos_eigsh(lambda vector: gram @ vector, dimension=n, k=k, seed=seed)
    # Rounding in the Gram matrix is of order max(m, n) · eps · λ₁: nothing below is resolved.
    eigenvalues[eigenvalues <= max(m, n) * np.finfo(np.float64).eps * eigenvalues[0]] = 0.0
    singular_values = np.sqrt(np.clip(eigenvalues, 0.0, None))
    resolved = singular_values > 0
    # U = A V / s, dividing each column by its own norm ‖A v‖ = s so that it is unit length.
    left = operand.matmat(right[:, resolved])
    left /= np.linalg.norm(left, axis=0)
    if not resolved.all():
        # A v = 0 gives no direction: complete U with an orthonormal basis of the rest.
        filler = np.random.default_rng(seed).standard_normal((m, k - left.shape[1]))
        completed = np.linalg.qr(np.column_stack([left, filler]))[0]
        left = np.column_stack([left, completed[:, left.shape[1]:]])
    return LanczosResult(singular_values, left, right)


def lanczos_svd(matrix: np.ndarray, k: int = 50, seed: int = 0) -> LanczosResult:
    """Top-``k`` singular triplets of a dense ``(m, n)`` matrix.

    A wide matrix runs as its transpose, so the recurrence is always on the
    smaller Gram operator, and ``U`` / ``V`` are swapped back.
    """
    operand = DenseOperand(matrix)
    if operand.shape[0] >= operand.shape[1]:
        return truncated_svd(operand, k, seed)
    flipped = truncated_svd(DenseOperand(operand.matrix.T), k, seed)
    return LanczosResult(flipped.singular_values, flipped.right_vectors, flipped.left_vectors)
