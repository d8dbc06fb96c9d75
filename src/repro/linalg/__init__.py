"""Numerical kernels for the GenBase analytics.

Every benchmark query's analytics step is backed by a kernel in this package.
Each kernel exists in (at least) two tiers, mirroring the performance spread
the paper observes between systems:

* **BLAS tier** (the default implementations here) — vectorised
  numpy/LAPACK-backed code, standing in for R/BLAS/ScaLAPACK/MKL.  Q2 and
  Q4 are each written once, over an operand (:mod:`repro.linalg.operand`):
  :func:`repro.linalg.covariance.covariance` and
  :func:`repro.linalg.lanczos.truncated_svd` run unchanged on a dense
  matrix, the array DBMS's chunks or the cluster's row blocks, so the
  engines differ in what a ``gram`` / ``matmat`` costs and who is charged
  for it, not in the algorithm.  No kernel of this tier loops in Python
  over genes, tie groups or columns, or re-reads its input per iteration;
  each docstring states the kernel's domain, and a value outside it raises
  a ``ValueError`` naming the kernel and the argument.
* **Naive tier** (:mod:`repro.linalg.naive`) — deliberately loop-based,
  interpreter-bound implementations, standing in for Mahout-style code that
  "does not benefit from a sophisticated linear algebra package" and for
  analytics simulated in SQL/plpython.

Kernels:

* :func:`repro.linalg.qr.householder_qr`, :func:`repro.linalg.qr.lstsq_qr`,
  :func:`repro.linalg.qr.linear_regression` — Q1 (predictive modelling).
* :func:`repro.linalg.covariance.covariance_matrix` — Q2 (dense entry point).
* :func:`repro.linalg.biclustering.cheng_church` — Q3.
* :func:`repro.linalg.lanczos.lanczos_svd` — Q4 (dense entry point).
* :func:`repro.linalg.wilcoxon.enrichment_analysis` — Q5.
"""

from repro.linalg.qr import (
    householder_qr,
    lstsq_qr,
    linear_regression,
    RegressionResult,
)
from repro.linalg.covariance import covariance_matrix, top_covariant_pairs
from repro.linalg.lanczos import lanczos_svd, lanczos_eigsh, LanczosResult
from repro.linalg.biclustering import cheng_church, Bicluster, BiclusteringResult
from repro.linalg.wilcoxon import (
    enrichment_analysis,
    WilcoxonResult,
    EnrichmentResult,
)

__all__ = [
    "householder_qr",
    "lstsq_qr",
    "linear_regression",
    "RegressionResult",
    "covariance_matrix",
    "top_covariant_pairs",
    "lanczos_svd",
    "lanczos_eigsh",
    "LanczosResult",
    "cheng_church",
    "Bicluster",
    "BiclusteringResult",
    "enrichment_analysis",
    "WilcoxonResult",
    "EnrichmentResult",
]
