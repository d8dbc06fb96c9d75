"""The kernel operand contract: one covariance, one Lanczos SVD, three operands.

* ``TestKernelPins`` — this tree's kernel bytes (``kernel_pins.py``) against
  ``tests/data/kernel_pins.json``: Q2 covariance and Q4 triplets per operand,
  and the driver-side kernels (Q1 fit, Q2 top pairs, Q3 membership, Q5 p and
  z).  Everything but the Q4 rows and the ``"chunked"`` rows at ``large``
  and ``xlarge`` is what a clone of the commit before the kernels stopped
  looping in Python prints.  Bytes depend on the BLAS build
  and its thread count, so the pins are computed in a child interpreter on
  one BLAS thread and the test skips when the canary product hashes
  differently from the recording host's.
* ``TestOperandContract`` — the operand protocol (``shape``, ``matmat``,
  ``gram``) and the two shared kernels against numpy, the independent naive
  tier and scipy, parametrised over the three operands.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kernel_pins
from repro.arraydb import ChunkedArray, linalg as array_linalg
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


@pytest.mark.parametrize("entry", list(PINNED["tiny"]))
@pytest.mark.parametrize("size", [size for size in PINNED if size != "canary"])
class TestKernelPins:
    def test_same_bytes_as_recorded(self, computed_pins, size, entry):
        if computed_pins["canary"] != PINNED["canary"]:
            pytest.skip("kernel_pins.json was recorded on a different BLAS build")
        computed, pinned = dict(computed_pins[size][entry]), dict(PINNED[size][entry])
        for name in [name for name in pinned if name.startswith(("q1_", "q3_msr"))]:  # numbers
            np.testing.assert_allclose(computed.pop(name), pinned.pop(name), rtol=1e-12, atol=0)
        assert computed == pinned


@pytest.mark.parametrize("size", kernel_pins.PIN_SIZES)
def test_q4_is_as_accurate_as_lapack_on_the_stock_matrices(size):
    """Every operand's k triplets against ``np.linalg.svd``, whatever the BLAS."""
    _, q4, k, seed = kernel_pins._query_matrices(
        kernel_pins.GenBaseDataset.generate(size, seed=kernel_pins.PIN_SEED))
    u, s, vt = np.linalg.svd(q4, full_matrices=False)
    best_rank_k = (u[:, :k] * s[:k]) @ vt[:k]
    for operand in kernel_pins.PIN_OPERANDS:
        result = kernel_pins._entry_points(operand, q4)[1](k, seed)
        np.testing.assert_allclose(result.singular_values, s[:k], rtol=1e-10, err_msg=operand)
        rank_k = (result.left_vectors * result.singular_values) @ result.right_vectors.T
        error = np.linalg.norm(rank_k - best_rank_k) / np.linalg.norm(q4)
        assert error <= 1e-10, (operand, error)


# --------------------------------------------------------------------------- #
# The operand contract
# --------------------------------------------------------------------------- #

def _chunked(matrix: np.ndarray) -> ChunkedArray:
    # 16 × 8 chunks: neither 45 × 30 nor any other shape used here is a multiple.
    return ChunkedArray.from_dense("a", matrix, ["i", "j"], chunk_sizes=[16, 8])


def _distributed(n_nodes: int):
    return lambda matrix: kernel_pins.distributed(Cluster(n_nodes), matrix)


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
        for right in (rng.random((30, 4)), rng.random((30, 1)), rng.random((30, 0))):
            product = operand.matmat(right)
            assert product.shape == (45, right.shape[1])
            np.testing.assert_allclose(product, matrix @ right, atol=1e-10)
        with pytest.raises(ValueError):
            operand.matmat(rng.random((7, 2)))

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

    @pytest.mark.parametrize("scale", [1e-7, 1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_singular_values_scale_with_the_matrix(self, build, scale):
        # Breakdown is judged against the operator's scale, not against 1e-10.
        matrix = np.random.default_rng(5).standard_normal((200, 40)) * scale
        result = truncated_svd(build(matrix), k=10, seed=0)
        assert len(result.singular_values) == 10
        np.testing.assert_allclose(
            result.singular_values, np.linalg.svd(matrix, compute_uv=False)[:10], rtol=1e-10)
        np.testing.assert_allclose(
            matrix @ result.right_vectors, result.left_vectors * result.singular_values,
            atol=1e-9 * scale)

    @pytest.mark.parametrize("shape", [(45, 30), (200, 40)])
    def test_k_larger_than_the_rank(self, build, rng, shape):
        matrix = rng.standard_normal((shape[0], 3)) @ rng.standard_normal((3, shape[1]))
        result = truncated_svd(build(matrix), k=6, seed=0)
        values = result.singular_values
        assert len(values) == 6  # a breakdown restarts the recurrence, it does not shrink k
        np.testing.assert_allclose(
            values[:3], np.linalg.svd(matrix, compute_uv=False)[:3], rtol=1e-10)
        np.testing.assert_array_equal(values[3:], 0.0)
        u, v = result.left_vectors, result.right_vectors
        assert u.shape == (shape[0], 6) and v.shape == (shape[1], 6)
        np.testing.assert_allclose(u.T @ u, np.eye(6), atol=1e-10)
        np.testing.assert_allclose(v.T @ v, np.eye(6), atol=1e-10)
        rank_k = (result.left_vectors * result.singular_values) @ result.right_vectors.T
        np.testing.assert_allclose(rank_k, matrix, atol=1e-10)

    def test_zero_matrix_has_k_zero_triplets(self, build):
        result = truncated_svd(build(np.zeros((20, 9))), k=4, seed=0)
        np.testing.assert_array_equal(result.singular_values, np.zeros(4))
        for vectors in (result.left_vectors, result.right_vectors):
            np.testing.assert_allclose(vectors.T @ vectors, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_a_named_error(self, build, matrix, bad):
        matrix[7, 3] = bad
        with pytest.raises(ValueError, match=r"^truncated_svd: operand must be finite"):
            truncated_svd(build(matrix), k=3)

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


class TestSymmetry:
    """``covariance()`` does not symmetrise: the dense and chunked Grams are
    SYRK products, which mirror one triangle, so they come out exactly
    symmetric.  The distributed Gram is GEMM on two temporaries, whose halves
    may round differently, so ``ScaLAPACK.covariance`` symmetrises."""

    @pytest.mark.parametrize("size", kernel_pins.PIN_SIZES)
    def test_dense_and_chunked_grams_are_exactly_symmetric(self, size):
        q2, q4, _, _ = kernel_pins._query_matrices(
            kernel_pins.GenBaseDataset.generate(size, seed=kernel_pins.PIN_SEED))
        for matrix in (q2, q4):
            chunked = ChunkedArray.from_dense(
                "expression", matrix, ["patient_id", "gene_id"],
                chunk_sizes=[kernel_pins.SCIDB_CHUNK, kernel_pins.SCIDB_CHUNK])
            for operand in (DenseOperand(matrix), chunked):
                for center in (False, True):
                    gram = operand.gram(center=center)
                    assert np.array_equal(gram, gram.T), (matrix.shape, operand, center)

    def test_dense_gram_is_exactly_symmetric_for_any_layout(self, rng):
        matrix = rng.standard_normal((300, 200))
        for variant in (np.asfortranarray(matrix), matrix[::2, ::3],
                        (matrix * 100).astype(np.int64)):
            for center in (False, True):
                gram = DenseOperand(variant).gram(center=center)
                assert np.array_equal(gram, gram.T), (variant.flags, variant.dtype, center)

    @pytest.mark.parametrize("size", kernel_pins.PIN_SIZES)
    def test_covariance_is_exactly_symmetric_through_every_entry_point(self, size):
        q2, q4, _, _ = kernel_pins._query_matrices(
            kernel_pins.GenBaseDataset.generate(size, seed=kernel_pins.PIN_SEED))
        for matrix in (q2, q4):
            for operand in kernel_pins.PIN_OPERANDS:
                cov = kernel_pins._entry_points(operand, matrix)[0]()
                assert np.array_equal(cov, cov.T), (size, matrix.shape, operand)


class TestOperandSpecifics:
    def test_the_six_entry_points_only_choose_the_operand(self, matrix):
        chunked, cluster = _chunked(matrix), Cluster(2)
        distributed = kernel_pins.distributed(cluster, matrix)
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
            kernel_pins.distributed(Cluster(2), rng.random(5))

    @staticmethod
    def _count_broadcasts(cluster, monkeypatch) -> list:
        payloads, broadcast = [], cluster.broadcast
        monkeypatch.setattr(cluster, "broadcast",
                            lambda payload: payloads.append(payload) or broadcast(payload))
        return payloads

    def test_distributed_products_charge_the_network_per_call(self, matrix, rng, monkeypatch):
        distributed = kernel_pins.distributed(Cluster(4), matrix)
        network = distributed.cluster.network
        broadcasts = self._count_broadcasts(distributed.cluster, monkeypatch)
        right = rng.random((30, 5))
        distributed.matmat(right)
        assert len(broadcasts) == 1  # all five columns at once
        wire = len(pickle.dumps(right, protocol=pickle.HIGHEST_PROTOCOL))
        assert network.total_bytes == 3 * wire  # a copy to each other node
        before = (distributed.cluster.simulated_elapsed_seconds, network.total_seconds)
        distributed.gram(center=True)  # two all-reduces (means, Gram), no broadcast
        assert len(broadcasts) == 1
        assert network.total_bytes == 3 * wire + 4 * 6 * (30 * 8 // 4) + 4 * 6 * (30 * 30 * 8 // 4)
        assert network.total_seconds > before[1]
        assert distributed.cluster.simulated_elapsed_seconds > before[0]

    def test_a_distributed_svd_is_one_all_reduce_and_one_broadcast(self, matrix, monkeypatch):
        cluster = Cluster(4)
        distributed = kernel_pins.distributed(cluster, matrix)
        reduced = []
        all_reduce = cluster.all_reduce_sum
        monkeypatch.setattr(
            cluster, "all_reduce_sum",
            lambda arrays: reduced.append(arrays[0].shape) or all_reduce(arrays))
        broadcasts = self._count_broadcasts(cluster, monkeypatch)
        truncated_svd(distributed, k=5, seed=0)
        assert reduced == [(30, 30)]  # the Gram matrix
        assert [np.shape(payload) for payload in broadcasts] == [(30, 5)]  # V
        wire = len(pickle.dumps(broadcasts[0], protocol=pickle.HIGHEST_PROTOCOL))
        assert cluster.network.total_bytes == 3 * wire + 4 * 6 * (30 * 30 * 8 // 4)
