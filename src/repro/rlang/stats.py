"""The R-like statistics library.

These functions mirror the R calls the original GenBase scripts make —
``lm`` for the regression query, ``cov`` for covariance, ``svd`` (here the
Lanczos truncated variant the benchmark specifies), the ``biclust`` package's
Cheng–Church method, and ``wilcox.test`` for enrichment.  They are thin,
named wrappers over the shared kernels in :mod:`repro.linalg`, because that
is what R itself is: an interface over BLAS/LAPACK plus contributed packages.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.biclustering import BiclusteringResult, cheng_church
from repro.linalg.covariance import covariance_matrix
from repro.linalg.lanczos import LanczosResult, lanczos_svd
from repro.linalg.qr import RegressionResult, linear_regression
from repro.linalg.wilcoxon import EnrichmentResult, enrichment_analysis
from repro.rlang.dataframe import DataFrame


def lm(frame_or_features, target=None, feature_names=None,
       target_name: str | None = None) -> RegressionResult:
    """Fit a linear model, R's ``lm``.

    Two call styles are supported:

    * ``lm(features_matrix, target_vector)`` — plain arrays.
    * ``lm(frame, feature_names=[...], target_name="drug_response")`` — a
      data frame plus column names, closer to R's formula interface.
    """
    if isinstance(frame_or_features, DataFrame):
        if feature_names is None or target_name is None:
            raise ValueError("data-frame form needs feature_names and target_name")
        features = frame_or_features.as_matrix(feature_names)
        response = frame_or_features[target_name].astype(np.float64)
    else:
        if target is None:
            raise ValueError("array form needs an explicit target vector")
        features = np.asarray(frame_or_features, dtype=np.float64)
        response = np.asarray(target, dtype=np.float64)
    # R's lm is backed by LAPACK's QR.
    return linear_regression(features, response, method="lapack")


def cov(matrix: np.ndarray) -> np.ndarray:
    """Column covariance, R's ``cov``."""
    return covariance_matrix(matrix, ddof=1)


def svd(matrix: np.ndarray, k: int = 50, seed: int = 0) -> LanczosResult:
    """Truncated SVD via the Lanczos algorithm (the benchmark's choice)."""
    return lanczos_svd(matrix, k=k, seed=seed)


def biclust(matrix: np.ndarray, n_biclusters: int = 3, delta: float | None = None,
            seed: int = 0) -> BiclusteringResult:
    """Cheng–Church biclustering, the R ``biclust::BCCC`` equivalent."""
    return cheng_church(matrix, n_biclusters=n_biclusters, delta=delta, seed=seed)


def enrichment(gene_scores: np.ndarray, membership: np.ndarray,
               alpha: float = 0.05) -> EnrichmentResult:
    """Per-GO-term enrichment via repeated ``wilcox.test`` calls."""
    return enrichment_analysis(gene_scores, membership, alpha=alpha)
