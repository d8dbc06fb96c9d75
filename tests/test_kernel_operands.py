"""The kernel operand contract: one covariance, one Lanczos SVD, three operands.

* ``TestParentPins`` — this tree's Q2 / Q4 kernel bytes (``kernel_pins.py``)
  against ``tests/data/kernel_pins.json``, recorded from a clone of the commit
  before the kernels were written once over an operand: "same bytes as the
  three hand-written copies".  Bytes depend on the BLAS build and its thread
  count, so the pins are computed in a child interpreter on one BLAS thread
  and the test skips when the canary product hashes differently from the
  recording host's.
* ``TestOperandContract`` — the operand protocol (``shape``, ``matvec``,
  ``rmatvec``, ``matmat``, ``gram``) and the two shared kernels against numpy,
  the independent naive tier and scipy, parametrised over the three operands.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.arraydb import ChunkedArray, linalg as array_linalg
from repro.arraydb.chunk import Chunk
from repro.cluster import Cluster, DistributedMatrix, ScaLAPACK
from repro.linalg import naive
from repro.linalg.covariance import covariance, covariance_matrix
from repro.linalg.lanczos import lanczos_svd, truncated_svd
from repro.linalg.operand import DenseOperand

TESTS = Path(__file__).parent
PIN_FILE = TESTS / "data" / "kernel_pins.json"
PINNED = json.loads(PIN_FILE.read_text())


@pytest.fixture(scope="module")
def computed_pins() -> dict:
    """This tree's pins, computed in a child interpreter on one BLAS thread."""
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    child = subprocess.run([sys.executable, str(TESTS / "kernel_pins.py")], env=env,
                           check=True, capture_output=True, text=True)
    return json.loads(child.stdout)


@pytest.mark.parametrize("operand", list(PINNED["tiny"]))
@pytest.mark.parametrize("size", [size for size in PINNED if size != "canary"])
class TestParentPins:
    def test_same_bytes_as_the_three_hand_written_copies(self, computed_pins, size, operand):
        if computed_pins["canary"] != PINNED["canary"]:
            pytest.skip("kernel_pins.json was recorded on a different BLAS build")
        computed, pinned = dict(computed_pins[size][operand]), dict(PINNED[size][operand])
        renormalised = computed.pop("right_vectors_renormalised")
        pinned.pop("right_vectors_renormalised")
        if operand == "dense":  # equal up to that one re-normalisation, exactly
            computed["right_vectors"] = renormalised
        assert computed == pinned


# --------------------------------------------------------------------------- #
# The operand contract
# --------------------------------------------------------------------------- #

def _chunked(matrix: np.ndarray) -> ChunkedArray:
    # 16 × 8 chunks: neither 45 × 30 nor any other shape used here is a multiple.
    return ChunkedArray.from_dense("a", matrix, ["i", "j"], chunk_sizes=[16, 8])


def _distributed(n_nodes: int):
    return lambda matrix: DistributedMatrix.from_dense(Cluster(n_nodes), matrix)


def _distributed_with_an_idle_node(matrix: np.ndarray) -> DistributedMatrix:
    """Three nodes, the middle one holding a zero-row block."""
    half = matrix.shape[0] // 2
    return DistributedMatrix(
        cluster=Cluster(3), n_columns=matrix.shape[1],
        partitions=[matrix[:half], np.empty((0, matrix.shape[1])), matrix[half:]])


OPERANDS = {
    "dense": DenseOperand,
    "chunked": _chunked,
    "distributed-1": _distributed(1),
    "distributed-2": _distributed(2),
    "distributed-4": _distributed(4),
    "distributed-idle-node": _distributed_with_an_idle_node,
}


@pytest.fixture(params=list(OPERANDS))
def build(request):
    """``matrix -> operand`` for one of the operand kinds."""
    return OPERANDS[request.param]


@pytest.fixture()
def matrix(rng) -> np.ndarray:
    return rng.standard_normal((45, 30))


class TestOperandContract:
    def test_products_match_numpy(self, build, matrix, rng):
        operand = build(matrix)
        assert tuple(operand.shape) == (45, 30)
        x, y, right = rng.random(30), rng.random(45), rng.random((30, 4))
        np.testing.assert_allclose(operand.matvec(x), matrix @ x, atol=1e-10)
        np.testing.assert_allclose(operand.rmatvec(y), matrix.T @ y, atol=1e-10)
        np.testing.assert_allclose(operand.matmat(right), matrix @ right, atol=1e-10)
        with pytest.raises(ValueError):
            operand.matvec(rng.random(7))

    def test_gram_matches_numpy(self, build, matrix):
        operand = build(matrix)
        np.testing.assert_allclose(operand.gram(), matrix.T @ matrix, atol=1e-9)
        centred = matrix - matrix.mean(axis=0)
        np.testing.assert_allclose(operand.gram(center=True), centred.T @ centred, atol=1e-9)

    def test_covariance_matches_numpy_and_the_naive_tier(self, build, matrix):
        cov = covariance(build(matrix), ddof=1)
        np.testing.assert_array_equal(cov, cov.T)
        np.testing.assert_allclose(cov, np.cov(matrix, rowvar=False), atol=1e-10)
        np.testing.assert_allclose(cov, naive.covariance_matrix(matrix), atol=1e-10)
        np.testing.assert_allclose(
            covariance(build(matrix), ddof=0), np.cov(matrix, rowvar=False, ddof=0), atol=1e-10)

    def test_constant_column_has_zero_covariance(self, build, matrix):
        matrix[:, 3] = 7.0
        cov = covariance(build(matrix), ddof=1)
        np.testing.assert_allclose(cov[3], 0.0, atol=1e-12)
        np.testing.assert_allclose(cov[:, 3], 0.0, atol=1e-12)

    def test_truncated_svd_matches_lapack_and_the_naive_tier(self, build, matrix):
        result = truncated_svd(build(matrix), k=5, seed=0)
        reference = np.linalg.svd(matrix, compute_uv=False)
        np.testing.assert_allclose(result.singular_values, reference[:5], atol=1e-6)
        np.testing.assert_allclose(
            result.singular_values[:2],
            naive.power_iteration_svd(matrix, k=2, n_iterations=300), rtol=1e-3)
        u, s, v = result.left_vectors, result.singular_values, result.right_vectors
        assert u.shape == (45, 5) and v.shape == (30, 5)
        np.testing.assert_allclose(u.T @ u, np.eye(5), atol=1e-6)
        np.testing.assert_allclose(v.T @ v, np.eye(5), atol=1e-6)
        np.testing.assert_allclose(matrix @ v, u * s, atol=1e-6)

    def test_truncated_svd_matches_scipy(self, build, matrix):
        svds = pytest.importorskip("scipy.sparse.linalg").svds
        expected = np.sort(svds(matrix, k=5, return_singular_vectors=False))[::-1]
        np.testing.assert_allclose(
            truncated_svd(build(matrix), k=5, seed=0).singular_values, expected, atol=1e-6)

    def test_every_singular_value_when_k_is_min_m_n(self, build, rng):
        matrix = rng.standard_normal((11, 7))
        for k in (7, 50):  # k = min(m, n), and k clipped to it
            result = truncated_svd(build(matrix), k=k, seed=0)
            np.testing.assert_allclose(
                result.singular_values, np.linalg.svd(matrix, compute_uv=False), atol=1e-6)

    def test_wide_matrix(self, build, rng):
        matrix = rng.standard_normal((12, 40))
        result = truncated_svd(build(matrix), k=4, seed=0)
        np.testing.assert_allclose(
            result.singular_values, np.linalg.svd(matrix, compute_uv=False)[:4], atol=1e-6)
        assert result.left_vectors.shape == (12, 4) and result.right_vectors.shape == (40, 4)

    def test_k_larger_than_the_rank(self, build, rng):
        matrix = rng.standard_normal((45, 3)) @ rng.standard_normal((3, 30))
        result = truncated_svd(build(matrix), k=6, seed=0)
        values = result.singular_values
        assert 3 <= len(values) <= 6  # the recurrence may stop at the rank
        np.testing.assert_allclose(
            values[:3], np.linalg.svd(matrix, compute_uv=False)[:3], atol=1e-6)
        np.testing.assert_allclose(values[3:], 0.0, atol=1e-5)
        assert np.isfinite(result.left_vectors).all() and np.isfinite(result.right_vectors).all()
        np.testing.assert_allclose(result.reconstruct(), matrix, atol=1e-5)

    def test_too_few_samples_is_one_error(self, build, rng):
        message = r"need more than 1 samples for ddof=1, got 1$"
        with pytest.raises(ValueError, match=message):
            covariance(build(rng.random((1, 4))), ddof=1)
        with pytest.raises(ValueError, match=r"need more than 3 samples for ddof=3, got 2$"):
            covariance(build(rng.random((2, 4))), ddof=3)

    # A chunked array cannot be empty: a dimension holds at least one coordinate.
    @pytest.mark.parametrize("kind", [k for k in OPERANDS if k != "chunked"])
    def test_empty_input_is_one_error(self, kind):
        empty = np.empty((0, 4))
        with pytest.raises(ValueError, match=r"need more than 1 samples for ddof=1, got 0$"):
            covariance(OPERANDS[kind](empty), ddof=1)
        with pytest.raises(ValueError, match=r"cannot compute the SVD of an empty matrix$"):
            truncated_svd(OPERANDS[kind](empty), k=2)


class TestOperandSpecifics:
    def test_the_six_entry_points_only_choose_the_operand(self, matrix):
        chunked, cluster = _chunked(matrix), Cluster(2)
        distributed = DistributedMatrix.from_dense(cluster, matrix)
        for entry, operand in (
                (covariance_matrix(matrix), DenseOperand(matrix)),
                (array_linalg.covariance(chunked), chunked),
                (ScaLAPACK(cluster).covariance(distributed), distributed)):
            np.testing.assert_array_equal(entry, covariance(operand, ddof=1))
        for entry, operand in (
                (lanczos_svd(matrix, k=4, seed=3), DenseOperand(matrix)),
                (array_linalg.lanczos_svd_chunked(chunked, k=4, seed=3), chunked),
                (ScaLAPACK(cluster).lanczos_svd(distributed, k=4, seed=3), distributed)):
            shared = truncated_svd(operand, k=4, seed=3)
            np.testing.assert_array_equal(entry.singular_values, shared.singular_values)
            np.testing.assert_array_equal(entry.left_vectors, shared.left_vectors)
            np.testing.assert_array_equal(entry.right_vectors, shared.right_vectors)
            assert entry.iterations == 4  # genbase_bench/layers.py reads this name

    def test_dense_entry_point_runs_a_wide_matrix_as_its_transpose(self, rng):
        matrix = rng.standard_normal((20, 80))
        wide, tall = lanczos_svd(matrix, k=5, seed=0), lanczos_svd(matrix.T, k=5, seed=0)
        np.testing.assert_array_equal(wide.singular_values, tall.singular_values)
        np.testing.assert_array_equal(wide.left_vectors, tall.right_vectors)
        np.testing.assert_array_equal(wide.right_vectors, tall.left_vectors)
        assert wide.left_vectors.shape == (20, 5) and wide.right_vectors.shape == (80, 5)

    def test_operands_reject_what_is_not_a_matrix(self, rng):
        with pytest.raises(ValueError):
            DenseOperand(rng.random(5))
        vector = ChunkedArray.from_dense("v", rng.random(5), ["i"])
        with pytest.raises(ValueError):
            vector.gram()
        with pytest.raises(ValueError):
            DistributedMatrix.from_dense(Cluster(2), rng.random(5))

    def test_fully_masked_chunk_reads_as_zeros_and_stays_out_of_the_means(self, matrix, rng):
        array = _chunked(matrix)
        hidden = array.chunk_at((1, 2))  # rows 16:32, columns 16:24
        array.put_chunk(Chunk(hidden.coordinates, hidden.origin, hidden.data,
                              mask=np.zeros(hidden.shape, dtype=bool)))
        filled = matrix.copy()
        filled[16:32, 16:24] = 0.0
        x, y = rng.random(30), rng.random(45)
        np.testing.assert_allclose(array.matvec(x), filled @ x, atol=1e-10)
        np.testing.assert_allclose(array.rmatvec(y), filled.T @ y, atol=1e-10)
        np.testing.assert_allclose(array.gram(), filled.T @ filled, atol=1e-9)
        # Column means are over the non-empty cells; empty cells then read as 0.
        counts = np.full(30, 45.0)
        counts[16:24] -= 16
        centred = filled - filled.sum(axis=0) / counts
        np.testing.assert_allclose(array.gram(center=True), centred.T @ centred, atol=1e-9)

    def test_distributed_products_charge_the_network_per_call(self, matrix, rng):
        distributed = DistributedMatrix.from_dense(Cluster(4), matrix, scatter_from=None)
        network = distributed.cluster.network
        distributed.matvec(rng.random(30))
        assert len(network.transfers) == 3  # the vector, to each other node
        distributed.matmat(rng.random((30, 5)))  # one broadcast per column
        assert len(network.transfers) == 3 + 5 * 3
        before = distributed.cluster.simulated_elapsed_seconds
        distributed.gram(center=True)  # two all-reduces, charged to the clock only
        assert distributed.cluster.simulated_elapsed_seconds > before
        assert len(network.transfers) == 18
