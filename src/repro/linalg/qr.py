"""Householder QR decomposition and QR-based linear regression.

Query 1 of the GenBase benchmark builds a linear model predicting patient
drug response from gene expression values and explicitly calls for a QR
decomposition technique (paper Section 3.2.1).  This module implements:

* :func:`householder_qr` — a from-scratch Householder-reflection QR,
* :func:`lstsq_qr` — least squares via QR with back substitution,
* :func:`linear_regression` — the full regression fit (intercept, R²,
  residuals) used by the engine adapters.

The from-scratch QR is the reference implementation; engines that model a
BLAS-backed system may pass ``method="lapack"`` to use numpy's LAPACK QR,
which produces the same coefficients to numerical precision but runs much
faster — exactly the gap the paper attributes to tuned linear algebra
packages.  An overdetermined LAPACK solve never forms ``Q``: the R factor of
``[X | y]`` carries ``Qᵀy`` in its last column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RegressionResult:
    """Result of fitting ``y ≈ X @ coefficients (+ intercept)``.

    Attributes:
        coefficients: per-feature weights (excludes the intercept).
        intercept: fitted intercept, 0.0 when ``fit_intercept=False``.
        residuals: ``y - predictions``.
        r_squared: coefficient of determination on the training data.
        rank: numerical rank of the design matrix used.
        method: "householder" or "lapack".
    """

    coefficients: np.ndarray
    intercept: float
    residuals: np.ndarray
    r_squared: float
    rank: int
    method: str


#: Column norms inside this range keep every sum of squares the reflector
#: needs within the float64 normal range; outside it squares go subnormal
#: (or overflow) and lose their leading digits.
_NORM_SAFE_MIN = np.sqrt(np.finfo(np.float64).tiny) / np.finfo(np.float64).eps
_NORM_SAFE_MAX = np.sqrt(np.finfo(np.float64).max) * np.finfo(np.float64).eps


def householder_qr(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compute the thin QR decomposition using Householder reflections.

    Args:
        matrix: an ``(m, n)`` array with ``m >= n``.

    Returns:
        ``(Q, R)`` where ``Q`` is ``(m, n)`` with orthonormal columns and
        ``R`` is ``(n, n)`` upper triangular, such that ``Q @ R == matrix``
        to numerical precision.

    Raises:
        ValueError: if the matrix has more columns than rows.
    """
    a = np.array(matrix, dtype=np.float64, copy=True)
    if a.ndim != 2:
        raise ValueError("householder_qr expects a 2-D matrix")
    m, n = a.shape
    if m < n:
        raise ValueError(f"need m >= n for thin QR, got shape {a.shape}")

    # Accumulate the Householder vectors in-place below the diagonal of `a`
    # and apply them to an identity to build the thin Q at the end.
    q_full = np.eye(m, dtype=np.float64)
    for k in range(n):
        column = a[k:, k]
        norm = np.linalg.norm(column)
        if not _NORM_SAFE_MIN <= norm <= _NORM_SAFE_MAX:
            # Entries like 4e-162 square into subnormals, so the norm — and
            # the "reflector" built from it — would be wrong in its leading
            # digits.  The reflector's direction is scale-invariant: build
            # it from the column rescaled by its max-abs (as LAPACK's
            # dnrm2/dlarfg do).  In-range columns skip this and keep their
            # bits.
            scale = np.abs(column).max()
            if scale == 0.0 or not np.isfinite(scale):
                continue
            column = column / scale
            norm = np.linalg.norm(column)
        # Choose the sign that avoids cancellation.
        alpha = -np.sign(column[0]) * norm if column[0] != 0 else -norm
        v = column.copy()
        v[0] -= alpha
        v_norm = np.linalg.norm(v)
        if v_norm == 0.0:
            continue
        v /= v_norm
        # Apply the reflector H = I - 2 v v^T to the trailing submatrix.
        a[k:, k:] -= 2.0 * np.outer(v, v @ a[k:, k:])
        # Accumulate into Q (apply H on the right of the growing product).
        q_full[:, k:] -= 2.0 * np.outer(q_full[:, k:] @ v, v)

    r = np.triu(a[:n, :])
    q = q_full[:, :n]
    return q, r


#: Pivots at or below this are numerically zero whatever the matrix's own
#: scale: dividing an O(1) right-hand side by one overflows float64, so a
#: design whose columns are that small has no representable coefficients.
_PIVOT_FLOOR = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


def _pivot_tolerance(diagonal: np.ndarray, dimension: int) -> float:
    """Magnitude at or below which a pivot of ``|diagonal|`` is numerically zero."""
    largest = diagonal.max() if diagonal.size else 0.0
    return max(_PIVOT_FLOOR, dimension * np.finfo(np.float64).eps * largest)


def _back_substitute(r: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the upper-triangular system ``r @ x = rhs``.

    Numerically zero diagonal entries (relative to the largest pivot, or
    below :data:`_PIVOT_FLOOR`) produce zero coefficients so the solve
    never divides by ~0.  This keeps rank-deficient systems finite, but the
    result is only the true least-squares minimiser for full-column-rank
    designs (GenBase's expression matrices always are); a column-pivoted QR
    would be needed for exact rank-deficient handling.
    """
    n = r.shape[0]
    x = np.zeros(n, dtype=np.float64)
    tolerance = _pivot_tolerance(np.abs(np.diag(r)), max(r.shape))
    for i in range(n - 1, -1, -1):
        pivot = r[i, i]
        if abs(pivot) <= tolerance:
            x[i] = 0.0
            continue
        x[i] = (rhs[i] - r[i, i + 1:] @ x[i + 1:]) / pivot
    return x


def _forward_substitute(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the lower-triangular system ``lower @ x = rhs``."""
    n = lower.shape[0]
    x = np.zeros(n, dtype=np.float64)
    tolerance = _pivot_tolerance(np.abs(np.diag(lower)), max(lower.shape))
    for i in range(n):
        pivot = lower[i, i]
        if abs(pivot) <= tolerance:
            x[i] = 0.0
            continue
        x[i] = (rhs[i] - lower[i, :i] @ x[:i]) / pivot
    return x


def lstsq_qr(
    design: np.ndarray,
    target: np.ndarray,
    method: str = "householder",
) -> tuple[np.ndarray, int]:
    """Solve ``min ||design @ beta - target||`` via QR decomposition.

    Overdetermined systems (``m >= n``) use the thin QR of the design
    matrix; underdetermined systems (``m < n``) return the minimum-norm
    solution via the QR of the transposed design — the same convention
    LAPACK's ``gelsy``/``gelsd`` follow, which matters for GenBase Query 1
    when a heavily filtered gene set leaves more genes than patients.

    Args:
        design: ``(m, n)`` design matrix.
        target: length-``m`` response vector.
        method: ``"householder"`` (from-scratch) or ``"lapack"`` (numpy QR).

    Returns:
        ``(beta, rank)`` — the coefficient vector and the numerical rank of
        the design matrix.
    """
    design = np.asarray(design, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64).ravel()
    if design.ndim != 2:
        raise ValueError("design must be 2-D")
    if design.shape[0] != target.shape[0]:
        raise ValueError(
            f"design has {design.shape[0]} rows but target has {target.shape[0]} entries"
        )
    if method not in ("householder", "lapack"):
        raise ValueError(f"unknown QR method {method!r}")

    m, n = design.shape
    if m >= n:
        if method == "householder":
            q, r = householder_qr(design)
            rhs = q.T @ target
        else:
            # The first n reflectors of [X | y] are those of X, and applying
            # them to y is the last column: R of X and Qᵀy, with no explicit Q.
            augmented = np.linalg.qr(np.column_stack([design, target]), mode="r")
            r, rhs = augmented[:n, :n], augmented[:n, n]
        diag = np.abs(np.diag(r))
        rank = int(np.sum(diag > _pivot_tolerance(diag, max(design.shape))))
        return _back_substitute(r, rhs), rank

    # Underdetermined: minimum-norm solution via QR of the transpose.
    q, r = householder_qr(design.T) if method == "householder" else np.linalg.qr(design.T)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > _pivot_tolerance(diag, max(design.shape))))
    z = _forward_substitute(r.T, target)
    beta = q @ z
    return beta, rank


def linear_regression(
    features: np.ndarray,
    target: np.ndarray,
    fit_intercept: bool = True,
    method: str = "householder",
) -> RegressionResult:
    """Fit an ordinary-least-squares model via QR decomposition.

    This is the analytics kernel of GenBase Query 1: ``features`` is the
    patients × selected-genes expression sub-matrix and ``target`` is the
    drug-response column from the patient metadata.

    Args:
        features: ``(n_samples, n_features)`` matrix.
        target: length ``n_samples`` response vector.
        fit_intercept: prepend a constant column when True.
        method: ``"householder"`` or ``"lapack"`` (see :func:`lstsq_qr`).
    """
    features = np.asarray(features, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64).ravel()
    if features.ndim == 1:
        features = features.reshape(-1, 1)
    n_samples = features.shape[0]
    if n_samples != target.shape[0]:
        raise ValueError("features and target disagree on sample count")
    if n_samples == 0:
        raise ValueError("cannot fit a regression on zero samples")

    if fit_intercept:
        design = np.column_stack([np.ones(n_samples), features])
    else:
        design = features

    beta, rank = lstsq_qr(design, target, method=method)

    if fit_intercept:
        intercept = float(beta[0])
        coefficients = beta[1:]
    else:
        intercept = 0.0
        coefficients = beta

    predictions = features @ coefficients + intercept
    residuals = target - predictions
    total_ss = float(np.sum((target - target.mean()) ** 2))
    residual_ss = float(np.sum(residuals ** 2))
    r_squared = 1.0 - residual_ss / total_ss if total_ss > 0 else 1.0

    return RegressionResult(
        coefficients=coefficients,
        intercept=intercept,
        residuals=residuals,
        r_squared=r_squared,
        rank=rank,
        method=method,
    )
