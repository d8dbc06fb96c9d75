"""A Mahout-like analytics layer on top of the MapReduce engine.

Mahout expresses its linear algebra as MapReduce jobs over row vectors and
"does not benefit from a sophisticated linear algebra package, such as BLAS
or ScaLAPACK" (paper Section 4.1).  The kernels here follow that model:

* matrices are lists of ``(row_index, row_values)`` records, and the
  covariance's two jobs (column means, outer products) emit row vectors as
  their map-output values, as Mahout's ``VectorWritable`` records do: one
  record per input row and output row, not one per matrix entry;
* those jobs share one combiner, :func:`_vector_sum` (Mahout's
  ``VectorSumReducer``), which sums a key's vectors column by column in
  arrival order, so every entry adds the same floats in the same order as
  a job emitting one scalar per entry would, and keeps its bits;
* the normal-equation job still emits one scalar record per ``XᵀX`` and
  ``Xᵀy`` entry;
* each analytic is one or more MapReduce jobs whose per-record work is plain
  Python arithmetic (via :mod:`repro.linalg.naive` helpers where convenient),
  with every engine phase — map, spill, combine, shuffle sort, group,
  reduce — run and paid for;
* there is no biclustering — as in Mahout — so the benchmark marks that
  query "not supported" for the Hadoop configuration.

The results are numerically correct; only the *route* taken to compute them
is deliberately the slow, job-structured one.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import naive
from repro.mapreduce.engine import MapReduceEngine, MapReduceJob


class Mahout:
    """MapReduce-structured analytics kernels."""

    def __init__(self, engine: MapReduceEngine | None = None):
        self.engine = engine or MapReduceEngine()

    # -- helpers -------------------------------------------------------------------

    @staticmethod
    def _matrix_records(matrix: np.ndarray) -> list[tuple[int, list[float]]]:
        """Represent a dense matrix as Mahout-style (row index, row vector) records."""
        matrix = np.asarray(matrix, dtype=np.float64)
        return [(i, row) for i, row in enumerate(matrix.tolist())]

    # -- covariance ------------------------------------------------------------------

    def covariance(self, matrix: np.ndarray) -> np.ndarray:
        """Column covariance as two MR jobs: column means, then outer products.

        The second job emits, per input row and column ``i``, the row vector
        of centred products ``c_i * c_j`` for ``j >= i``; the sum of key
        ``i``'s vectors is row ``i`` of the upper triangle.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        n_samples, n_features = matrix.shape
        if n_samples < 2:
            raise ValueError("need at least two samples")
        records = self._matrix_records(matrix)

        # Job 1: column sums -> means, as one vector under one key.
        def mean_mapper(record):
            return ((0, record[1]),)

        def mean_reducer(key, vectors):
            return ((key, [total / n_samples for total in _column_sums(vectors)]),)

        ((_, means),) = self.engine.run(
            MapReduceJob("mahout-colmeans", mean_mapper, mean_reducer, _vector_sum), records
        )

        # Job 2: accumulate centred outer products, one row vector per column.
        def outer_mapper(record):
            centred = [value - mean for value, mean in zip(record[1], means)]
            return [(i, [c_i * c_j for c_j in centred[i:]]) for i, c_i in enumerate(centred)]

        def outer_reducer(i, vectors):
            return ((i, [total / (n_samples - 1) for total in _column_sums(vectors)]),)

        rows = self.engine.run(
            MapReduceJob("mahout-covariance", outer_mapper, outer_reducer, _vector_sum), records
        )
        cov = np.zeros((n_features, n_features))
        for i, row in rows:
            cov[i, i:] = row
            cov[i:, i] = row
        return cov

    # -- linear regression ---------------------------------------------------------------

    def linear_regression(self, features: np.ndarray, target: np.ndarray) -> np.ndarray:
        """OLS via MR-assembled normal equations; returns [intercept, coefficients...].

        One job accumulates ``XᵀX`` and ``Xᵀy`` entries; the (small) system is
        then solved on the "driver" with naive Gaussian elimination, which is
        how Mahout-era pipelines handled the final dense solve.
        """
        features = np.asarray(features, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64).ravel()
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        if features.shape[0] != len(target):
            raise ValueError("features and target disagree on sample count")
        n_features = features.shape[1] + 1  # plus intercept
        records = [
            (i, ([1.0] + row, float(y)))
            for i, (row, y) in enumerate(zip(features.tolist(), target.tolist(), strict=True))
        ]

        def mapper(record):
            _, (row, y) = record
            for i in range(n_features):
                yield (("xty", i), row[i] * y)
                for j in range(i, n_features):
                    yield (("xtx", i, j), row[i] * row[j])

        def combiner(key, values):
            yield (key, sum(values))

        def reducer(key, values):
            yield (key, sum(values))

        pairs = self.engine.run(
            MapReduceJob("mahout-normal-equations", mapper, reducer, combiner), records
        )
        xtx = [[0.0] * n_features for _ in range(n_features)]
        xty = [0.0] * n_features
        for key, value in pairs:
            if key[0] == "xty":
                xty[key[1]] = value
            else:
                _, i, j = key
                xtx[i][j] = value
                xtx[j][i] = value
        beta = naive._gaussian_solve(xtx, xty)
        return np.asarray(beta, dtype=np.float64)

    # -- SVD ---------------------------------------------------------------------------------

    def truncated_svd(self, matrix: np.ndarray, k: int, n_iterations: int = 60,
                      seed: int = 0) -> np.ndarray:
        """Top-``k`` singular values via MR-structured power iteration.

        Each iteration is one MapReduce job computing ``Gram @ v`` row by row;
        deflation happens on the driver.  Only singular values are returned.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        m, n = matrix.shape
        k = max(1, min(k, m, n))
        gram = (matrix.T @ matrix) if n <= m else (matrix @ matrix.T)
        gram_records = self._matrix_records(gram)
        dimension = gram.shape[0]
        rng = np.random.default_rng(seed)

        singular_values = []
        for _ in range(k):
            vector = rng.standard_normal(dimension)
            vector /= np.linalg.norm(vector)
            eigenvalue = 0.0
            for _ in range(n_iterations):
                current = vector.tolist()

                def mapper(record, current=current):
                    row_index, row = record
                    total = 0.0
                    for value, v in zip(row, current, strict=True):
                        total += value * v
                    yield (row_index, total)

                def reducer(key, values):
                    yield (key, sum(values))

                pairs = self.engine.run(
                    MapReduceJob("mahout-poweriter", mapper, reducer), gram_records
                )
                next_vector = np.zeros(dimension)
                for row_index, value in pairs:
                    next_vector[row_index] = value
                norm = float(np.linalg.norm(next_vector))
                if norm == 0.0:
                    break
                vector = next_vector / norm
                eigenvalue = norm
            singular_values.append(float(np.sqrt(max(eigenvalue, 0.0))))
            # Deflate on the driver and rebuild the job input.
            gram = gram - eigenvalue * np.outer(vector, vector)
            gram_records = self._matrix_records(gram)
        return np.asarray(singular_values)

    # -- statistics ------------------------------------------------------------------------------

    def wilcoxon_enrichment(self, gene_scores: np.ndarray, membership: np.ndarray) -> np.ndarray:
        """Per-GO-term rank-sum p-values, one reduce group per GO term."""
        gene_scores = np.asarray(gene_scores, dtype=np.float64).ravel()
        membership = np.asarray(membership)
        n_genes, n_terms = membership.shape
        if n_genes != len(gene_scores):
            raise ValueError("scores and membership disagree on gene count")
        records = [
            (gene, (float(gene_scores[gene]), membership[gene].tolist()))
            for gene in range(n_genes)
        ]

        def mapper(record):
            _, (score, memberships) = record
            for term, belongs in enumerate(memberships):
                yield (term, (score, int(belongs)))

        def reducer(term, values):
            inside = [score for score, belongs in values if belongs]
            outside = [score for score, belongs in values if not belongs]
            if not inside or not outside:
                yield (term, 1.0)
                return
            yield (term, naive.wilcoxon_rank_sum(inside, outside))

        pairs = self.engine.run(MapReduceJob("mahout-wilcoxon", mapper, reducer), records)
        p_values = np.ones(n_terms)
        for term, p_value in pairs:
            p_values[term] = p_value
        return p_values


def _column_sums(vectors: list[list[float]]) -> list[float]:
    """Equal-length vectors summed column by column, each column in list order."""
    return [sum(column) for column in zip(*vectors)]


def _vector_sum(key, vectors):
    """Mahout's ``VectorSumReducer``: one key's row vectors summed into one.

    The combiner of both covariance jobs.  Each column is summed in the
    order its values arrive, so a split's partial adds the same floats in
    the same order as one scalar record per matrix entry would.
    """
    return ((key, _column_sums(vectors)),)
