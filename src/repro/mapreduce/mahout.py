"""A Mahout-like analytics layer on top of the MapReduce engine.

Mahout expresses its linear algebra as MapReduce jobs over row vectors and
"does not benefit from a sophisticated linear algebra package, such as BLAS
or ScaLAPACK" (paper Section 4.1).  The kernels here follow that model:

* matrices are lists of ``(row_index, row_values)`` records,
* each analytic is one or more MapReduce jobs whose per-record work is plain
  Python arithmetic (via :mod:`repro.linalg.naive` helpers where convenient),
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
        """Column covariance as two MR jobs: column means, then outer products."""
        matrix = np.asarray(matrix, dtype=np.float64)
        n_samples, n_features = matrix.shape
        if n_samples < 2:
            raise ValueError("need at least two samples")
        records = self._matrix_records(matrix)

        # Job 1: column sums -> means.
        def mean_mapper(record):
            _, row = record
            for column, value in enumerate(row):
                yield (column, value)

        def mean_combiner(key, values):
            yield (key, (sum(values_or_partials(values)), count_of(values)))

        def mean_reducer(key, values):
            partials = [value if isinstance(value, tuple) else (value, 1) for value in values]
            total = sum(p[0] for p in partials)
            count = sum(p[1] for p in partials)
            yield (key, total / count)

        def values_or_partials(values):
            return [value[0] if isinstance(value, tuple) else value for value in values]

        def count_of(values):
            return sum(value[1] if isinstance(value, tuple) else 1 for value in values)

        mean_pairs = self.engine.run(
            MapReduceJob("mahout-colmeans", mean_mapper, mean_reducer, mean_combiner),
            records,
        )
        means = [0.0] * n_features
        for column, mean in mean_pairs:
            means[column] = mean

        # Job 2: accumulate centred outer products per (i, j) pair.
        def outer_mapper(record):
            _, row = record
            centred = [value - means[column] for column, value in enumerate(row)]
            for i in range(n_features):
                c_i = centred[i]
                for j in range(i, n_features):
                    yield ((i, j), c_i * centred[j])

        def outer_combiner(key, values):
            yield (key, sum(values))

        def outer_reducer(key, values):
            yield (key, sum(values) / (n_samples - 1))

        pairs = self.engine.run(
            MapReduceJob("mahout-covariance", outer_mapper, outer_reducer, outer_combiner),
            records,
        )
        cov = np.zeros((n_features, n_features))
        for (i, j), value in pairs:
            cov[i, j] = value
            cov[j, i] = value
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
