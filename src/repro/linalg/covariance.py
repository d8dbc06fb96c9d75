"""Covariance and correlation kernels (GenBase Query 2).

Query 2 computes the covariance between the expression time series of all
pairs of genes for a selected patient subset, thresholds it, and joins the
surviving pairs back to the gene metadata (paper Section 3.2.2).  The heavy
step is the ``genes × genes`` covariance matrix — the ``S × Sᵀ``-style
computation the paper's Wall Street example motivates.

The kernel is written once, over an operand (:mod:`repro.linalg.operand`):
:func:`covariance` asks it for the centred Gram matrix and divides.  On the
dense operand that is one SYRK, the "do it with BLAS" strategy; the
deliberately slow per-pair loop lives in :mod:`repro.linalg.naive`.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.operand import DenseOperand


def covariance(operand, ddof: int = 1) -> np.ndarray:
    """Column covariance of any kernel operand: centred Gram ÷ ``(n − ddof)``.

    Args:
        operand: anything with ``shape`` and ``gram(center=True)`` — see
            :mod:`repro.linalg.operand`.
        ddof: delta degrees of freedom (1 gives the unbiased estimator).

    Returns:
        ``(n_features, n_features)`` covariance matrix, as symmetric as the
        operand's Gram (the dense and chunked ones are SYRK, so exactly).

    Raises:
        ValueError: when ``n_samples - ddof <= 0`` (which covers no samples).
    """
    n_samples = operand.shape[0]
    if n_samples - ddof <= 0:
        raise ValueError(
            f"need more than {ddof} samples for ddof={ddof}, got {n_samples}"
        )
    return operand.gram(center=True) / (n_samples - ddof)


def covariance_matrix(matrix: np.ndarray, ddof: int = 1) -> np.ndarray:
    """Covariance between the *columns* (genes) of a dense ``(n_samples, n_features)`` matrix."""
    return covariance(DenseOperand(matrix), ddof)


def top_covariant_pairs(
    cov: np.ndarray,
    fraction: float = 0.10,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Select the top fraction of off-diagonal gene pairs by absolute covariance.

    This is the thresholding step of Query 2 ("covariance greater than a
    threshold, e.g. top 10%"); strong negative covariance counts as
    interesting too, so pairs rank by ``|cov|``.

    Args:
        cov: square covariance matrix of finite float64 values.
        fraction: fraction of (unordered) off-diagonal pairs to keep.

    Returns:
        ``(gene_a, gene_b, value)`` arrays for the selected pairs, sorted by
        decreasing ``|value|``; ``gene_a < gene_b`` for every pair (none
        below two genes).  Which of several pairs tied exactly at the cut
        survive is unspecified.  A non-square or non-finite ``cov`` (a NaN
        would outrank every real covariance) raises ``ValueError``.
    """
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("top_covariant_pairs expects a square matrix")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if not np.isfinite(cov).all():
        raise ValueError("top_covariant_pairs: cov must be finite (found NaN or infinity)")
    n = cov.shape[0]
    if n < 2:
        return (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))

    row_idx, col_idx = np.triu_indices(n, k=1)
    values = cov[row_idx, col_idx]
    scores = np.abs(values)
    n_keep = max(1, int(np.ceil(fraction * len(values))))
    # Select the survivors in linear time, then sort only them.
    kept = np.argpartition(scores, len(scores) - n_keep)[len(scores) - n_keep:]
    order = kept[np.argsort(scores[kept])[::-1]]
    return row_idx[order], col_idx[order], values[order]
