"""Distributed dense linear algebra (the ScaLAPACK / pbdR analog).

pbdR partitions matrices across nodes and calls ScaLAPACK, whose routines
work on block-distributed data and communicate partial results.  The
:class:`DistributedMatrix` here is row-block distributed across a
:class:`~repro.cluster.cluster.Cluster` and is a kernel operand
(:mod:`repro.linalg.operand`): ``matmat`` broadcasts the right-hand side
once and dispatches once, ``gram`` all-reduces per-node Gram matrices — so a
``truncated_svd`` is one all-reduce and one broadcast, whatever the number of
Lanczos steps.
The :class:`ScaLAPACK` facade is what the GenBase queries call:

* ``covariance`` and ``lanczos_svd`` — the shared kernels of
  :mod:`repro.linalg`, handed the distributed operand,
* ``linear_regression`` — per-node ``XᵀX`` / ``Xᵀy`` partials, reduced, then
  solved at the driver (the standard distributed normal-equations path).

Per-node work is real compute; every cross-node movement of partials is a
cluster collective (``broadcast`` or ``all_reduce_sum``), priced by the
network model and charged to the simulated clock of the phase that issued it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.linalg.covariance import covariance
from repro.linalg.lanczos import LanczosResult, truncated_svd
from repro.linalg.qr import RegressionResult


@dataclass
class DistributedMatrix:
    """A dense matrix row-partitioned across cluster nodes.

    Attributes:
        cluster: the owning cluster.
        partitions: one row-block per node (node ``i`` holds ``partitions[i]``).
        n_columns: the (shared) number of columns.
    """

    cluster: Cluster
    partitions: list[np.ndarray]
    n_columns: int

    @property
    def shape(self) -> tuple[int, int]:
        return (sum(part.shape[0] for part in self.partitions), self.n_columns)

    # -- kernel operand (see repro.linalg.operand) ------------------------------------

    def matmat(self, dense_right: np.ndarray) -> np.ndarray:
        """``A B``: broadcast ``B`` once, one GEMM per node, concatenate the row blocks."""
        dense_right = np.asarray(dense_right, dtype=np.float64)
        self.cluster.broadcast(dense_right)
        return np.concatenate(self.cluster.map_partitions(
            self.partitions, lambda part, _node: part @ dense_right))

    def gram(self, center: bool = False) -> np.ndarray:
        """``AᵀA`` (pdgemm-style): per-node Gram partials, all-reduced.

        Centring costs one more pass and all-reduce for the column means.
        The one operand whose Gram may be asymmetric: GEMM, unlike SYRK, does
        not mirror a triangle, so the halves can round apart (Q2's at ``medium`` do).
        """
        n_columns = self.n_columns
        means = self._column_means() if center else None

        def partial(part, _node):
            if not part.size:
                return np.zeros((n_columns, n_columns))
            if means is None:
                return part.T @ part
            # Two temporaries on purpose: numpy then calls GEMM, where one
            # shared buffer would make it SYRK and round differently.
            return (part - means).T @ (part - means)

        partials = self.cluster.map_partitions(self.partitions, partial)
        return self.cluster.all_reduce_sum([np.asarray(g) for g in partials])

    def _column_means(self) -> np.ndarray:
        partials = self.cluster.map_partitions(
            self.partitions,
            lambda part, _node: (part.sum(axis=0) if part.size else np.zeros(self.n_columns),
                                 part.shape[0]),
        )
        sums = self.cluster.all_reduce_sum([np.asarray(s) for s, _ in partials])
        count = sum(c for _, c in partials)
        return sums / max(count, 1)


class ScaLAPACK:
    """Distributed dense kernels over :class:`DistributedMatrix` operands."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    def covariance(self, matrix: DistributedMatrix, ddof: int = 1) -> np.ndarray:
        """Distributed column covariance (pdgemm-style partial Gram reduce).

        Symmetrised here, because :meth:`DistributedMatrix.gram` may not be."""
        cov = covariance(matrix, ddof)
        return (cov + cov.T) / 2.0

    def linear_regression(self, features: DistributedMatrix, target: DistributedMatrix) -> RegressionResult:
        """Distributed OLS via reduced normal equations.

        ``target`` must be row-partitioned like ``features`` (one column).
        """
        if target.n_columns != 1:
            raise ValueError("target must be a single-column distributed matrix")
        n_features = features.n_columns

        def partial(node_data, _node):
            x_part, y_part = node_data
            if x_part.size == 0:
                return (np.zeros((n_features + 1, n_features + 1)), np.zeros(n_features + 1))
            design = np.column_stack([np.ones(x_part.shape[0]), x_part])
            return (design.T @ design, design.T @ y_part.ravel())

        paired = list(zip(features.partitions, target.partitions, strict=True))
        partials = self.cluster.map_partitions(paired, partial)
        xtx = self.cluster.all_reduce_sum([np.asarray(a) for a, _ in partials])
        xty = self.cluster.all_reduce_sum([np.asarray(b) for _, b in partials])
        beta = np.linalg.solve(xtx + 1e-12 * np.eye(n_features + 1), xty)

        intercept = float(beta[0])
        coefficients = beta[1:]

        # Residuals / R² need one more distributed pass.
        def residual_stats(node_data, _node):
            x_part, y_part = node_data
            if x_part.size == 0:
                return (0.0, 0.0, 0.0, 0)
            predictions = x_part @ coefficients + intercept
            residuals = y_part.ravel() - predictions
            return (float(np.sum(residuals ** 2)), float(np.sum(y_part)), float(np.sum(y_part ** 2)), len(residuals))

        stats = self.cluster.map_partitions(paired, residual_stats)
        residual_ss = sum(s[0] for s in stats)
        y_sum = sum(s[1] for s in stats)
        y_sq_sum = sum(s[2] for s in stats)
        count = sum(s[3] for s in stats)
        total_ss = y_sq_sum - (y_sum ** 2) / count if count else 0.0
        r_squared = 1.0 - residual_ss / total_ss if total_ss > 0 else 1.0

        residuals = np.empty(0)
        return RegressionResult(
            coefficients=coefficients,
            intercept=intercept,
            residuals=residuals,
            r_squared=r_squared,
            rank=n_features + 1,
            method="scalapack",
        )

    def lanczos_svd(self, matrix: DistributedMatrix, k: int = 50, seed: int = 0) -> LanczosResult:
        """Distributed truncated SVD: Lanczos on the all-reduced Gram matrix."""
        return truncated_svd(matrix, k, seed)
