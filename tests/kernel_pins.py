"""Print the Q2 / Q4 kernel pins of whatever ``repro`` is on ``PYTHONPATH``, as JSON.

Q2 covariance matrices and Q4 singular triplets on the stock ``tiny`` …
``xlarge`` matrices, through each engine family's entry point (dense, chunked,
distributed on 1 / 2 / 4 nodes), as SHA-256 digests, plus a canary that
identifies the BLAS kernels in use.  ``tests/data/kernel_pins.json`` is this
script's output on a clone of the commit *before* the kernels were written
once over an operand::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<that clone>/src python tests/kernel_pins.py \\
        > tests/data/kernel_pins.json

and ``test_kernel_operands.py`` runs it on this tree.  It therefore imports
only the six entry points both sides have.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.arraydb import ChunkedArray, linalg as array_linalg
from repro.cluster import Cluster, DistributedMatrix, ScaLAPACK
from repro.core.queries import covariance_patient_ids, selected_gene_ids
from repro.core.spec import default_parameters
from repro.datagen import GenBaseDataset
from repro.linalg.covariance import covariance_matrix
from repro.linalg.lanczos import lanczos_svd

PIN_SIZES = ("tiny", "small", "medium", "large", "xlarge")
PIN_SEED = 42  # the benchmark's first seed
PIN_OPERANDS = ("dense", "chunked", "distributed-1", "distributed-2", "distributed-4")
SCIDB_CHUNK = 128  # SciDBEngine.chunk_size


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def _unit_columns(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=0)
    norms[norms == 0] = 1.0
    return vectors / norms


def _entry_points(operand: str, matrix: np.ndarray):
    """``(covariance(), svd(k, seed))`` through one engine family's entry points."""
    if operand == "dense":
        return (lambda: covariance_matrix(matrix),
                lambda k, seed: lanczos_svd(matrix, k=k, seed=seed))
    if operand == "chunked":
        array = ChunkedArray.from_dense(
            "expression", matrix, ["patient_id", "gene_id"],
            chunk_sizes=[SCIDB_CHUNK, SCIDB_CHUNK])
        return (lambda: array_linalg.covariance(array),
                lambda k, seed: array_linalg.lanczos_svd_chunked(array, k=k, seed=seed))
    cluster = Cluster(int(operand.rsplit("-", 1)[1]))
    distributed = DistributedMatrix.from_dense(cluster, matrix)
    return (lambda: ScaLAPACK(cluster).covariance(distributed),
            lambda k, seed: ScaLAPACK(cluster).lanczos_svd(distributed, k=k, seed=seed))


def _query_matrices(size: str):
    """The matrices Q2 and Q4 hand their kernels, and Q4's ``k`` and seed."""
    dataset = GenBaseDataset.generate(size, seed=PIN_SEED)
    parameters = default_parameters(dataset.spec)
    q2 = dataset.expression_matrix[covariance_patient_ids(dataset, parameters), :]
    genes = selected_gene_ids(dataset, parameters)
    q4 = dataset.expression_matrix[:, genes]
    k = max(1, min(parameters.svd_k(dataset.spec), len(genes)))
    return q2, q4, k, parameters.seed


def _pins_for(q2, q4, k, seed, operand: str) -> dict:
    covariance, _ = _entry_points(operand, q2)
    _, svd = _entry_points(operand, q4)
    result = svd(k, seed)
    return {
        "q2_shape": list(q2.shape), "q4_shape": list(q4.shape), "k": k,
        "covariance": _digest(covariance()),
        "singular_values": _digest(result.singular_values),
        "left_vectors": _digest(result.left_vectors),
        "right_vectors": _digest(result.right_vectors),
        # The dense copy divided the Ritz vectors lanczos_eigsh had already
        # normalised by their norms once more; the shared kernel does not.
        "right_vectors_renormalised": _digest(_unit_columns(result.right_vectors)),
    }


def _canary() -> str:
    """A GEMV, a GEMM and a SYRK whose bytes identify the BLAS kernels in use."""
    matrix = np.random.default_rng(0).standard_normal((300, 200))
    return _digest(np.concatenate([
        matrix @ matrix[0], (matrix.T @ (matrix + 1.0)).ravel(), (matrix.T @ matrix).ravel()]))


def _all_pins() -> dict:
    pins = {}
    for size in PIN_SIZES:
        matrices = _query_matrices(size)
        pins[size] = {operand: _pins_for(*matrices, operand) for operand in PIN_OPERANDS}
    return {"canary": _canary(), **pins}


if __name__ == "__main__":
    print(json.dumps(_all_pins(), indent=1))
