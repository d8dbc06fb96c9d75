"""Tests for the numerical kernels (QR, covariance, Lanczos, biclustering, Wilcoxon)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.queries import bicluster_patient_ids
from repro.core.spec import default_parameters
from repro.datagen import GenBaseDataset
from repro.linalg import (
    cheng_church,
    covariance_matrix,
    enrichment_analysis,
    householder_qr,
    lanczos_svd,
    linear_regression,
    lstsq_qr,
    top_covariant_pairs,
)
from repro.linalg import naive
from repro.linalg.biclustering import _residues, mean_squared_residue
from repro.linalg.lanczos import lanczos_eigsh
from repro.linalg.wilcoxon import _normal_approximation, _rank_with_ties


def _rank_sum_test(first, second):
    """One two-sample rank-sum test, as Q5 was first written: rank the pooled samples."""
    ranks, tie_sizes = _rank_with_ties(np.concatenate([first, second]).astype(np.float64))
    return _normal_approximation(float(ranks[:len(first)].sum()), len(first), len(second),
                                 float(np.sum(tie_sizes ** 3 - tie_sizes)))


class TestHouseholderQR:
    def test_reconstruction(self, rng):
        matrix = rng.standard_normal((20, 8))
        q, r = householder_qr(matrix)
        np.testing.assert_allclose(q @ r, matrix, atol=1e-10)

    def test_q_orthonormal_r_triangular(self, rng):
        matrix = rng.standard_normal((15, 6))
        q, r = householder_qr(matrix)
        np.testing.assert_allclose(q.T @ q, np.eye(6), atol=1e-10)
        np.testing.assert_allclose(r, np.triu(r))

    def test_rejects_wide_matrix(self, rng):
        with pytest.raises(ValueError):
            householder_qr(rng.standard_normal((3, 5)))

    def test_rank_deficient_matrix(self):
        matrix = np.column_stack([np.ones(10), np.ones(10) * 2, np.arange(10)])
        q, r = householder_qr(matrix)
        np.testing.assert_allclose(q @ r, matrix, atol=1e-10)

    @pytest.mark.parametrize("tiny", [4e-162, np.finfo(np.float64).tiny])
    def test_reconstructs_columns_whose_squares_underflow(self, tiny):
        # Regression: 4e-162 squares into a subnormal, so the unscaled
        # column norm lost its leading digits and Q @ R was 4 % off in the
        # O(1) entry (hypothesis' falsifying example for
        # test_qr_reconstructs_input).  At the smallest normal float the
        # repeated column leaves a subnormal residue whose *rounded* norm
        # made a non-unit reflector (20 % off) until the column itself was
        # rescaled.
        matrix = np.full((7, 3), tiny)
        matrix[0, 2] = 1.0
        for case in (matrix[:3, 1:], matrix):
            q, r = householder_qr(case)
            np.testing.assert_allclose(q @ r, case, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(q.T @ q, np.eye(case.shape[1]), atol=1e-12)

    def test_subnormal_design_solves_to_finite_coefficients(self):
        # 1 / 5e-324 is not a float64: the pivot floor treats the column as
        # numerically zero instead of returning inf/nan coefficients.
        design = np.full((4, 1), 5e-324)
        beta, rank = lstsq_qr(design, np.ones(4))
        assert rank == 0 and beta.tolist() == [0.0]

    def test_matches_lapack_lstsq(self, rng):
        design = rng.standard_normal((30, 5))
        target = rng.standard_normal(30)
        ours, _ = lstsq_qr(design, target, method="householder")
        reference = np.linalg.lstsq(design, target, rcond=None)[0]
        np.testing.assert_allclose(ours, reference, atol=1e-8)

    def test_underdetermined_minimum_norm(self, rng):
        design = rng.standard_normal((4, 9))
        target = rng.standard_normal(4)
        for method in ("householder", "lapack"):
            beta, _ = lstsq_qr(design, target, method=method)
            np.testing.assert_allclose(design @ beta, target, atol=1e-8)
            reference = np.linalg.lstsq(design, target, rcond=None)[0]
            np.testing.assert_allclose(beta, reference, atol=1e-8)

    @pytest.mark.parametrize("shape", [(40, 6), (7, 7), (300, 60)])
    def test_lapack_path_matches_householder_and_lstsq(self, rng, shape):
        # The LAPACK path reads Qᵀy off the R factor of [X | y]; the oracles
        # form Q (householder) or do not use QR at all (lstsq's SVD).
        design, target = rng.standard_normal(shape), rng.standard_normal(shape[0])
        beta, rank = lstsq_qr(design, target, method="lapack")
        reference = np.linalg.lstsq(design, target, rcond=None)[0]
        np.testing.assert_allclose(beta, reference, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            beta, lstsq_qr(design, target, method="householder")[0], rtol=1e-9, atol=1e-12)
        assert rank == shape[1]

    def test_lapack_path_on_rank_deficient_and_wide_designs(self, rng):
        design = rng.standard_normal((30, 4))
        design = np.column_stack([design, design[:, 0] + design[:, 1]])
        target = rng.standard_normal(30)
        beta, rank = lstsq_qr(design, target, method="lapack")
        assert rank == 4 and np.isfinite(beta).all() and beta[4] == 0.0
        np.testing.assert_allclose(
            beta, lstsq_qr(design, target, method="householder")[0], atol=1e-8)
        wide, response = rng.standard_normal((5, 9)), rng.standard_normal(5)
        minimum_norm, rank = lstsq_qr(wide, response, method="lapack")
        assert rank == 5
        np.testing.assert_allclose(
            minimum_norm, np.linalg.lstsq(wide, response, rcond=None)[0], atol=1e-10)

    def test_unknown_method_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown QR method"):
            lstsq_qr(rng.random((4, 2)), rng.random(4), method="cholesky")


class TestLinearRegression:
    def test_recovers_known_coefficients(self, rng):
        features = rng.standard_normal((200, 4))
        true_beta = np.array([1.5, -2.0, 0.5, 3.0])
        target = features @ true_beta + 2.0 + 0.01 * rng.standard_normal(200)
        for method in ("householder", "lapack"):
            fit = linear_regression(features, target, method=method)
            np.testing.assert_allclose(fit.coefficients, true_beta, atol=0.05)
            assert fit.intercept == pytest.approx(2.0, abs=0.05)
            assert fit.r_squared > 0.99

    def test_no_intercept(self, rng):
        features = rng.standard_normal((100, 3))
        target = features @ np.array([1.0, 2.0, 3.0])
        fit = linear_regression(features, target, fit_intercept=False)
        assert fit.intercept == 0.0
        np.testing.assert_allclose(fit.coefficients, [1.0, 2.0, 3.0], atol=1e-8)

    def test_predict(self, rng):
        features = rng.standard_normal((50, 2))
        target = features @ np.array([1.0, -1.0]) + 0.5
        fit = linear_regression(features, target)
        np.testing.assert_allclose(features @ fit.coefficients + fit.intercept, target, atol=1e-8)

    def test_one_dimensional_features(self, rng):
        x = rng.standard_normal(60)
        fit = linear_regression(x, 3 * x + 1)
        assert fit.coefficients[0] == pytest.approx(3.0, abs=1e-8)

    def test_errors(self, rng):
        with pytest.raises(ValueError):
            linear_regression(rng.random((5, 2)), rng.random(6))
        with pytest.raises(ValueError):
            linear_regression(np.empty((0, 2)), np.empty(0))

    def test_naive_matches_fast(self, rng):
        features = rng.standard_normal((40, 3))
        target = rng.standard_normal(40)
        fast = linear_regression(features, target)
        slow = naive.linear_regression(features, target)
        assert slow[0] == pytest.approx(fast.intercept, abs=1e-6)
        np.testing.assert_allclose(slow[1:], fast.coefficients, atol=1e-6)


class TestCovariance:
    def test_matches_numpy(self, rng):
        matrix = rng.standard_normal((30, 12))
        np.testing.assert_allclose(
            covariance_matrix(matrix), np.cov(matrix, rowvar=False), atol=1e-12
        )

    def test_symmetric_and_psd(self, rng):
        matrix = rng.standard_normal((25, 8))
        cov = covariance_matrix(matrix)
        np.testing.assert_array_equal(cov, cov.T)
        eigenvalues = np.linalg.eigvalsh(cov)
        assert eigenvalues.min() > -1e-10

    def test_errors(self, rng):
        with pytest.raises(ValueError):
            covariance_matrix(np.empty((0, 3)))
        with pytest.raises(ValueError):
            covariance_matrix(rng.random((1, 3)), ddof=1)
        with pytest.raises(ValueError):
            covariance_matrix(rng.random(5))

    def test_naive_matches_fast(self, rng):
        matrix = rng.standard_normal((15, 6))
        np.testing.assert_allclose(
            naive.covariance_matrix(matrix), covariance_matrix(matrix), atol=1e-10
        )

    def test_top_pairs_fraction_and_order(self, rng):
        matrix = rng.standard_normal((50, 10))
        cov = covariance_matrix(matrix)
        gene_a, gene_b, values = top_covariant_pairs(cov, fraction=0.2)
        assert len(gene_a) == int(np.ceil(0.2 * 45))
        assert np.all(gene_a < gene_b)
        assert np.all(np.diff(np.abs(values)) <= 1e-12)

    @pytest.mark.parametrize("fraction", [0.01, 0.1, 0.5, 1.0])
    def test_top_pairs_match_a_full_sort(self, rng, fraction):
        cov = covariance_matrix(rng.standard_normal((30, 40)))
        gene_a, gene_b, values = top_covariant_pairs(cov, fraction=fraction)
        rows, cols = np.triu_indices(40, k=1)
        every = cov[rows, cols]
        scores = np.abs(every)
        keep = np.argsort(scores, kind="stable")[::-1][:max(1, int(np.ceil(fraction * 780)))]
        assert set(zip(gene_a.tolist(), gene_b.tolist(), strict=True)) == set(
            zip(rows[keep].tolist(), cols[keep].tolist(), strict=True))
        np.testing.assert_array_equal(values, cov[gene_a, gene_b])
        np.testing.assert_array_equal(values, every[keep])
        assert np.all(np.diff(np.abs(values)) <= 0) and np.all(gene_a < gene_b)

    def test_top_pairs_validation(self, rng):
        cov = covariance_matrix(rng.random((10, 4)))
        with pytest.raises(ValueError):
            top_covariant_pairs(cov, fraction=0.0)
        with pytest.raises(ValueError):
            top_covariant_pairs(rng.random((3, 4)))
        a, b, v = top_covariant_pairs(np.ones((1, 1)))
        assert len(a) == 0


class TestLanczos:
    def test_matches_lapack_singular_values(self, rng):
        matrix = rng.standard_normal((60, 40))
        result = lanczos_svd(matrix, k=10, seed=1)
        reference = np.linalg.svd(matrix, compute_uv=False)[:10]
        np.testing.assert_allclose(result.singular_values, reference, atol=1e-6)

    def test_singular_vectors_reconstruct(self, rng):
        # A genuinely low-rank matrix should be reconstructed exactly.
        left = rng.standard_normal((50, 5))
        right = rng.standard_normal((5, 30))
        matrix = left @ right
        result = lanczos_svd(matrix, k=5, seed=0)
        rank_k = (result.left_vectors * result.singular_values) @ result.right_vectors.T
        np.testing.assert_allclose(rank_k, matrix, atol=1e-6)

    def test_orthonormal_vectors(self, rng):
        matrix = rng.standard_normal((40, 25))
        result = lanczos_svd(matrix, k=6, seed=0)
        np.testing.assert_allclose(
            result.right_vectors.T @ result.right_vectors, np.eye(6), atol=1e-6
        )

    def test_wide_matrix_uses_smaller_gram(self, rng):
        matrix = rng.standard_normal((20, 80))
        result = lanczos_svd(matrix, k=5, seed=0)
        reference = np.linalg.svd(matrix, compute_uv=False)[:5]
        np.testing.assert_allclose(result.singular_values, reference, atol=1e-6)

    def test_k_clipped_to_dimensions(self, rng):
        matrix = rng.standard_normal((6, 4))
        result = lanczos_svd(matrix, k=50)
        assert len(result.singular_values) == 4

    def test_eigsh_on_diagonal_operator(self):
        diagonal = np.arange(1.0, 21.0)
        eigenvalues, vectors = lanczos_eigsh(lambda v: diagonal * v, dimension=20, k=3, seed=2)
        np.testing.assert_allclose(eigenvalues, [20.0, 19.0, 18.0], atol=1e-8)
        assert vectors.shape == (20, 3)

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            lanczos_svd(rng.random(5), k=2)
        with pytest.raises(ValueError):
            lanczos_svd(np.empty((0, 4)), k=2)
        with pytest.raises(ValueError):
            lanczos_eigsh(lambda v: v, dimension=10, k=0)

    def test_lapack_svd_agrees(self, rng):
        matrix = rng.standard_normal((30, 20))
        s = np.linalg.svd(matrix, compute_uv=False)[:5]
        result = lanczos_svd(matrix, k=5)
        np.testing.assert_allclose(result.singular_values, s, atol=1e-6)


class TestBiclustering:
    def test_msr_zero_for_additive_block(self):
        rows = np.arange(5).reshape(-1, 1)
        cols = np.arange(4).reshape(1, -1)
        block = rows + cols  # perfectly additive
        assert mean_squared_residue(block) == pytest.approx(0.0, abs=1e-12)

    def test_msr_positive_for_noise(self, rng):
        assert mean_squared_residue(rng.standard_normal((10, 10))) > 0.1

    def test_finds_planted_bicluster(self, rng):
        # High-variance background with a flat (coherent) planted block: the
        # same shape the generator plants and Q3 looks for.
        matrix = rng.standard_normal((60, 40)) * 4.0
        rows = np.arange(10, 25)
        cols = np.arange(5, 20)
        matrix[np.ix_(rows, cols)] = 0.05 * rng.standard_normal((15, 15))
        result = cheng_church(matrix, n_biclusters=1, delta=0.1, seed=0)
        found = result.biclusters[0]
        row_overlap = len(np.intersect1d(found.rows, rows)) / len(rows)
        col_overlap = len(np.intersect1d(found.columns, cols)) / len(cols)
        assert row_overlap >= 0.75
        assert col_overlap >= 0.75
        assert found.msr < mean_squared_residue(matrix)

    def test_requested_number_of_biclusters(self, rng):
        matrix = rng.standard_normal((30, 20))
        result = cheng_church(matrix, n_biclusters=3, seed=1)
        assert len(result.biclusters) == 3
        for bicluster in result:
            assert len(bicluster.rows) >= 2 and len(bicluster.columns) >= 2

    def test_small_matrix_returns_empty(self):
        result = cheng_church(np.ones((1, 1)), n_biclusters=2)
        assert result.biclusters == []

    def test_invalid_alpha(self, rng):
        with pytest.raises(ValueError):
            cheng_church(rng.random((10, 10)), alpha=0.5)


# --------------------------------------------------------------------------- #
# Cheng–Church oracle: the kernel as it was before it carried its block, when
# every deletion round re-gathered the block from the full matrix.
# --------------------------------------------------------------------------- #

def _oracle_residues(block: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    row_means = block.mean(axis=1, keepdims=True)
    col_means = block.mean(axis=0, keepdims=True)
    squared = (block - row_means - col_means + block.mean()) ** 2
    return float(squared.mean()), squared.mean(axis=1), squared.mean(axis=0)


def _oracle_msr(block: np.ndarray) -> float:
    block = np.asarray(block, dtype=np.float64)
    if block.size == 0:
        return 0.0
    return _oracle_residues(block)[0]


def _oracle_single_node_deletion(matrix, rows, cols, delta, min_rows, min_cols):
    rows = rows.copy()
    cols = cols.copy()
    while len(rows) > min_rows and len(cols) > min_cols:
        msr, row_res, col_res = _oracle_residues(matrix[np.ix_(rows, cols)])
        if msr <= delta:
            break
        worst_row = int(np.argmax(row_res))
        worst_col = int(np.argmax(col_res))
        if row_res[worst_row] >= col_res[worst_col] and len(rows) > min_rows:
            rows = np.delete(rows, worst_row)
        elif len(cols) > min_cols:
            cols = np.delete(cols, worst_col)
        else:
            rows = np.delete(rows, worst_row)
    return rows, cols


def _oracle_multiple_node_deletion(matrix, rows, cols, delta, alpha, min_rows, min_cols):
    rows = rows.copy()
    cols = cols.copy()
    changed = True
    while changed and len(rows) > min_rows and len(cols) > min_cols:
        changed = False
        msr, row_res, col_res = _oracle_residues(matrix[np.ix_(rows, cols)])
        if msr <= delta:
            break
        keep_rows = row_res <= alpha * msr
        if keep_rows.sum() >= min_rows and not keep_rows.all():
            rows = rows[keep_rows]
            changed = True
            # The column scores are of the block the rows just left.
            msr, _, col_res = _oracle_residues(matrix[np.ix_(rows, cols)])
            if msr <= delta:
                break
        keep_cols = col_res <= alpha * msr
        if keep_cols.sum() >= min_cols and not keep_cols.all():
            cols = cols[keep_cols]
            changed = True
    return rows, cols


def _oracle_node_addition(matrix, rows, cols):
    all_rows = np.arange(matrix.shape[0])
    all_cols = np.arange(matrix.shape[1])

    block = matrix[np.ix_(rows, cols)]
    msr = _oracle_msr(block)

    # Column addition.
    col_candidates = np.setdiff1d(all_cols, cols, assume_unique=False)
    if len(col_candidates):
        sub = matrix[np.ix_(rows, col_candidates)]
        row_means = matrix[np.ix_(rows, cols)].mean(axis=1, keepdims=True)
        col_means = sub.mean(axis=0, keepdims=True)
        overall = matrix[np.ix_(rows, cols)].mean()
        residues = ((sub - row_means - col_means + overall) ** 2).mean(axis=0)
        additions = col_candidates[residues <= msr]
        if len(additions):
            cols = np.sort(np.concatenate([cols, additions]))

    block = matrix[np.ix_(rows, cols)]
    msr = _oracle_msr(block)

    # Row addition.
    row_candidates = np.setdiff1d(all_rows, rows, assume_unique=False)
    if len(row_candidates):
        sub = matrix[np.ix_(row_candidates, cols)]
        col_means = matrix[np.ix_(rows, cols)].mean(axis=0, keepdims=True)
        row_means = sub.mean(axis=1, keepdims=True)
        overall = matrix[np.ix_(rows, cols)].mean()
        residues = ((sub - row_means - col_means + overall) ** 2).mean(axis=1)
        additions = row_candidates[residues <= msr]
        if len(additions):
            rows = np.sort(np.concatenate([rows, additions]))

    return rows, cols


def _oracle_cheng_church(matrix, n_biclusters=3, alpha=1.2, min_rows=2, min_cols=2, seed=0):
    """``(rows, columns, msr)`` per bicluster; the default ``delta`` only."""
    working = np.array(matrix, dtype=np.float64, copy=True)
    n_rows, n_cols = working.shape
    if n_rows < min_rows or n_cols < min_cols:
        return []
    rng = np.random.default_rng(seed)
    delta = 0.1 * _oracle_msr(working)
    if delta <= 0:
        delta = 1e-12
    value_min = float(working.min())
    value_max = float(working.max())
    if value_max <= value_min:
        value_max = value_min + 1.0
    found = []
    for _ in range(n_biclusters):
        rows, cols = _oracle_multiple_node_deletion(
            working, np.arange(n_rows), np.arange(n_cols), delta, alpha, min_rows, min_cols)
        rows, cols = _oracle_single_node_deletion(working, rows, cols, delta, min_rows, min_cols)
        rows, cols = _oracle_node_addition(working, rows, cols)
        block = working[np.ix_(rows, cols)]
        found.append((rows, cols, _oracle_msr(block)))
        working[np.ix_(rows, cols)] = rng.uniform(value_min, value_max, size=block.shape)
    return found


def _assert_same_as_oracle(matrix, **options):
    found = cheng_church(matrix, **options).biclusters
    expected = _oracle_cheng_church(matrix, **options)
    assert len(found) == len(expected)
    for bicluster, (rows, cols, msr) in zip(found, expected, strict=True):
        np.testing.assert_array_equal(bicluster.rows, rows)
        np.testing.assert_array_equal(bicluster.columns, cols)
        assert bicluster.msr == msr  # bit-equal, not close
        assert len(bicluster.rows) >= options.get("min_rows", 2)
        assert len(bicluster.columns) >= options.get("min_cols", 2)


@st.composite
def _bicluster_inputs(draw):
    """A matrix and options: tall, wide or at the minimum shape, with constant
    rows or columns and values offset by 1e6."""
    min_rows, min_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["tall", "wide", "minimum"]))
    if shape == "tall":
        n_rows, n_cols = draw(st.integers(20, 70)), draw(st.integers(min_cols, 12))
    elif shape == "wide":
        n_rows, n_cols = draw(st.integers(min_rows, 12)), draw(st.integers(20, 90))
    else:
        n_rows, n_cols = min_rows + draw(st.integers(0, 1)), min_cols + draw(st.integers(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.standard_normal((n_rows, n_cols)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    for row in draw(st.lists(st.integers(0, n_rows - 1), max_size=3)):
        matrix[row] = matrix[row, 0]
    for col in draw(st.lists(st.integers(0, n_cols - 1), max_size=3)):
        matrix[:, col] = matrix[0, col]
    matrix += draw(st.sampled_from([0.0, 1e6]))
    options = {"n_biclusters": draw(st.integers(1, 3)), "min_rows": min_rows,
               "min_cols": min_cols, "seed": draw(st.integers(0, 100))}
    return matrix, options


def _mean_formula_residues(block: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """``_residues``'s formula with ``np.mean``, which ``_mean`` must equal bit for bit."""
    squared = block - block.mean(axis=1, keepdims=True)
    squared -= block.mean(axis=0, keepdims=True)
    squared += block.mean()
    np.square(squared, out=squared)
    return float(squared.mean()), squared.mean(axis=1), squared.mean(axis=0)


@st.composite
def _residue_blocks(draw):
    """A 1×n, n×1 or general block with |values| from 1e-150 to 1e150, laid out
    contiguously, strided, transposed (Fortran order) or as a column slice."""
    shape = draw(st.sampled_from(["row", "column", "block"]))
    n = draw(st.integers(1, 60))
    n_rows, n_cols = {"row": (1, n), "column": (n, 1),
                      "block": (draw(st.integers(1, 30)), draw(st.integers(1, 30)))}[shape]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-150, 150))
    layout = draw(st.sampled_from(["contiguous", "strided", "transposed", "sliced"]))
    if layout == "strided":
        return rng.standard_normal((2 * n_rows, 3 * n_cols))[::2, ::3] * scale
    if layout == "transposed":
        return (rng.standard_normal((n_cols, n_rows)) * scale).T
    if layout == "sliced":
        return (rng.standard_normal((n_rows, n_cols + 5)) * scale)[:, 2:2 + n_cols]
    return rng.standard_normal((n_rows, n_cols)) * scale


@settings(max_examples=200, deadline=None)
@given(_residue_blocks())
def test_residues_are_the_mean_formula_bit_for_bit(block):
    msr, row_scores, col_scores = _residues(block)
    expected_msr, expected_rows, expected_cols = _mean_formula_residues(block)
    assert np.float64(msr).tobytes() == np.float64(expected_msr).tobytes()
    assert row_scores.tobytes() == expected_rows.tobytes()
    assert col_scores.tobytes() == expected_cols.tobytes()


class TestBiclusteringOracle:
    """``cheng_church`` gives the oracle's members and bit-equal MSRs."""

    @settings(max_examples=150, deadline=None)
    @given(_bicluster_inputs())
    def test_same_biclusters_as_the_oracle(self, inputs):
        matrix, options = inputs
        _assert_same_as_oracle(matrix, **options)

    @pytest.mark.parametrize("size", ["tiny", "small", "medium", "large", "xlarge"])
    def test_same_biclusters_as_the_oracle_on_the_stock_matrices(self, size):
        dataset = GenBaseDataset.generate(size, seed=1337)  # seed 42 is in kernel_pins.json
        parameters = default_parameters(dataset.spec)
        matrix = dataset.expression_matrix[bicluster_patient_ids(dataset, parameters), :]
        _assert_same_as_oracle(matrix, n_biclusters=parameters.n_biclusters,
                               seed=parameters.seed)


class TestWilcoxon:
    def test_matches_scipy_without_ties(self, rng):
        scipy_stats = pytest.importorskip("scipy.stats")
        first = rng.standard_normal(30)
        second = rng.standard_normal(40) + 0.5
        ours = _rank_sum_test(first, second)
        reference = scipy_stats.mannwhitneyu(first, second, alternative="two-sided")
        assert ours.statistic == pytest.approx(reference.statistic)
        assert ours.p_value == pytest.approx(reference.pvalue, rel=1e-6)

    def test_matches_scipy_with_ties(self, rng):
        scipy_stats = pytest.importorskip("scipy.stats")
        first = rng.integers(0, 5, size=25).astype(float)
        second = rng.integers(0, 5, size=35).astype(float)
        ours = _rank_sum_test(first, second)
        reference = scipy_stats.mannwhitneyu(
            first, second, alternative="two-sided", method="asymptotic"
        )
        assert ours.p_value == pytest.approx(reference.pvalue, rel=1e-6)

    def test_identical_samples_p_one(self):
        result = _rank_sum_test(np.ones(10), np.ones(12))
        assert result.p_value == 1.0
        assert result.z_score == 0.0

    def test_clear_shift_is_significant(self, rng):
        first = rng.standard_normal(50) + 3.0
        second = rng.standard_normal(50)
        result = _rank_sum_test(first, second)
        assert result.p_value < 1e-6
        assert result.z_score > 0

    def test_naive_matches_reference(self, rng):
        first = rng.standard_normal(20)
        second = rng.standard_normal(25) + 1.0
        assert naive.wilcoxon_rank_sum(first, second) == pytest.approx(
            _rank_sum_test(first, second).p_value, rel=1e-9
        )

    def test_enrichment_finds_planted_term(self, rng):
        n_genes, n_terms = 200, 10
        scores = rng.standard_normal(n_genes)
        membership = (rng.random((n_genes, n_terms)) < 0.1).astype(np.int8)
        # Term 3's members get very high scores.
        members = rng.choice(n_genes, size=25, replace=False)
        membership[:, 3] = 0
        membership[members, 3] = 1
        scores[members] += 4.0
        result = enrichment_analysis(scores, membership)
        assert result.significant[3]
        assert result.p_values[3] < 0.001
        assert result.z_scores[3] > 0

    def test_enrichment_validation(self, rng):
        with pytest.raises(ValueError):
            enrichment_analysis(rng.random(10), rng.integers(0, 2, (11, 3)))
        with pytest.raises(ValueError):
            enrichment_analysis(rng.random(10), rng.integers(0, 2, (10,)))
        with pytest.raises(ValueError):
            enrichment_analysis(rng.random(10), rng.integers(0, 2, (10, 3)), go_ids=np.arange(2))

    def test_enrichment_full_or_empty_terms_get_p_one(self, rng):
        scores = rng.random(20)
        membership = np.zeros((20, 2), dtype=np.int8)
        membership[:, 1] = 1  # every gene is a member
        result = enrichment_analysis(scores, membership)
        np.testing.assert_array_equal(result.p_values, [1.0, 1.0])
        assert not result.significant.any()


def _per_term_loop(scores, membership):
    """Q5 as it was written first: one rank-sum test of inside vs outside per term."""
    p_values, z_scores = np.ones(membership.shape[1]), np.zeros(membership.shape[1])
    for term in range(membership.shape[1]):
        members = membership[:, term] != 0
        if 0 < members.sum() < len(scores):
            result = _rank_sum_test(scores[members], scores[~members])
            p_values[term], z_scores[term] = result.p_value, result.z_score
    return p_values, z_scores


ENRICHMENT_CASES = {
    "continuous": lambda rng: (rng.standard_normal(120), rng.random((120, 9)) < 0.2),
    "heavy-ties": lambda rng: (rng.integers(0, 4, 150).astype(float), rng.random((150, 12)) < 0.3),
    "all-equal": lambda rng: (np.full(40, 2.5), rng.random((40, 5)) < 0.5),
    "every-and-no-gene": lambda rng: (
        rng.standard_normal(30),
        np.column_stack([np.ones(30), np.zeros(30), rng.random(30) < 0.4])),
    "weighted-membership": lambda rng: (
        rng.integers(0, 9, 60).astype(float), rng.integers(0, 3, (60, 7)) * 5),
    "one-gene": lambda rng: (np.array([1.5]), np.array([[1, 0]])),
    "zero-terms": lambda rng: (rng.standard_normal(10), np.zeros((10, 0))),
}


@pytest.mark.parametrize("case", list(ENRICHMENT_CASES))
class TestEnrichmentOracles:
    """Q5 against implementations that share no code with ``enrichment_analysis``."""

    def test_same_bytes_as_the_per_term_rank_sum_loop(self, rng, case):
        scores, membership = ENRICHMENT_CASES[case](rng)
        result = enrichment_analysis(scores, membership)
        p_values, z_scores = _per_term_loop(scores, membership)
        np.testing.assert_array_equal(result.p_values, p_values)
        np.testing.assert_array_equal(result.z_scores, z_scores)
        np.testing.assert_array_equal(result.significant, p_values < 0.05)
        assert len(result.go_ids) == membership.shape[1]

    def test_matches_the_naive_tier(self, rng, case):
        scores, membership = ENRICHMENT_CASES[case](rng)
        result = enrichment_analysis(scores, membership)
        for term in range(membership.shape[1]):
            members = membership[:, term] != 0
            expected = (naive.wilcoxon_rank_sum(scores[members], scores[~members])
                        if 0 < members.sum() < len(scores) else 1.0)
            assert result.p_values[term] == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_matches_scipy(self, rng, case):
        stats = pytest.importorskip("scipy.stats")
        scores, membership = ENRICHMENT_CASES[case](rng)
        ranks, tie_sizes = _rank_with_ties(scores)
        np.testing.assert_array_equal(ranks, stats.rankdata(scores))
        assert tie_sizes.sum() == len(scores)
        result = enrichment_analysis(scores, membership)
        for term in range(membership.shape[1]):
            members = membership[:, term] != 0
            if not 0 < members.sum() < len(scores):
                assert (result.p_values[term], result.z_scores[term]) == (1.0, 0.0)
            elif np.ptp(scores) == 0:  # scipy answers nan when every score ties
                assert (result.p_values[term], result.z_scores[term]) == (1.0, 0.0)
            else:
                reference = stats.mannwhitneyu(
                    scores[members], scores[~members], alternative="two-sided",
                    use_continuity=True, method="asymptotic")
                assert result.p_values[term] == pytest.approx(reference.pvalue, rel=1e-9)


class TestStatedDomain:
    """Outside the documented domain a kernel raises, naming itself and the argument."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_a_named_error(self, rng, bad):
        scores = rng.standard_normal(12)
        scores[5] = bad
        membership = rng.integers(0, 2, (12, 3))
        with pytest.raises(ValueError, match=r"^enrichment_analysis: gene_scores must be finite"):
            enrichment_analysis(scores, membership)
        cov = covariance_matrix(rng.standard_normal((8, 5)))
        cov[1, 3] = cov[3, 1] = bad
        with pytest.raises(ValueError, match=r"^top_covariant_pairs: cov must be finite"):
            top_covariant_pairs(cov)
        matrix = rng.standard_normal((10, 6))
        matrix[2, 2] = bad
        with pytest.raises(ValueError, match=r"^cheng_church: matrix must be finite"):
            cheng_church(matrix)
        with pytest.raises(ValueError, match=r"^truncated_svd: operand must be finite"):
            lanczos_svd(matrix, k=2)
        with pytest.raises(ValueError, match=r"^truncated_svd: operand must be finite"):
            lanczos_svd(matrix.T, k=2)

    def test_the_edges_of_the_domain_are_answered(self, rng):
        ties = enrichment_analysis(np.zeros(6), np.eye(6)[:, :2])
        np.testing.assert_array_equal(ties.p_values, [1.0, 1.0])
        np.testing.assert_array_equal(ties.z_scores, [0.0, 0.0])
        assert [len(part) for part in top_covariant_pairs(np.ones((1, 1)))] == [0, 0, 0]
        rank_one = np.outer(rng.standard_normal(9), rng.standard_normal(5))
        result = lanczos_svd(rank_one, k=8)  # k clipped to min(m, n), rank below it
        assert len(result.singular_values) == 5
        np.testing.assert_array_equal(result.singular_values[1:], 0.0)
        rank_k = (result.left_vectors * result.singular_values) @ result.right_vectors.T
        np.testing.assert_allclose(rank_k, rank_one, atol=1e-12)


class TestNaiveKernels:
    def test_matmul_matches_numpy(self, rng):
        a = rng.random((6, 4))
        b = rng.random((4, 5))
        np.testing.assert_allclose(naive.matmul(a, b), a @ b, atol=1e-12)

    def test_matmul_dimension_check(self, rng):
        with pytest.raises(ValueError):
            naive.matmul(rng.random((3, 2)), rng.random((3, 2)))

    def test_transpose(self, rng):
        a = rng.random((3, 5))
        np.testing.assert_array_equal(naive.transpose(a), a.T)

    def test_power_iteration_svd(self, rng):
        matrix = rng.random((15, 8))
        values = naive.power_iteration_svd(matrix, k=3, n_iterations=100, seed=0)
        reference = np.linalg.svd(matrix, compute_uv=False)[:3]
        np.testing.assert_allclose(values, reference, rtol=1e-3)

    def test_gaussian_solve_singular_system(self):
        # A singular system should not blow up; free variables go to zero.
        solution = naive._gaussian_solve([[1.0, 1.0], [2.0, 2.0]], [3.0, 6.0])
        assert len(solution) == 2
        assert np.isfinite(solution).all()
