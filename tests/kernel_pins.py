"""Print the kernel pins of whatever ``repro`` is on ``PYTHONPATH``, as JSON.

On the stock ``tiny`` … ``xlarge`` matrices, as SHA-256 digests: Q2 covariance
matrices and Q4 singular triplets through each engine family's entry point
(dense, chunked, distributed on 1 / 2 / 4 nodes), and under ``"driver"`` the
kernels every engine runs on a dense matrix — Q2's top pairs, Q3's bicluster
membership, Q5's p-values and z-scores (digests) and Q1's fit and Q3's MSRs
(numbers, compared to 1e-12) — plus a canary that identifies the BLAS kernels
in use.  ``tests/data/kernel_pins.json`` is this script's output::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/kernel_pins.py \\
        > tests/data/kernel_pins.json

last recorded at the commit that made the array Gram run in row panels;
against a clone of its parent only the ``"chunked"`` rows at ``large`` and
``xlarge`` differ (covariance and the Q4 triplets: the sizes where a panel
stacks more than one 128-row band).  The recording before it, at the commit
that made Lanczos run on the Gram matrix, moved only the Q4 rows.
``test_kernel_operands.py`` runs it on this tree.  It imports only entry
points both sides have.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.arraydb import ChunkedArray, linalg as array_linalg
from repro.cluster import Cluster, DistributedMatrix, ScaLAPACK
from repro.core.queries import (
    bicluster_patient_ids,
    covariance_patient_ids,
    selected_gene_ids,
    statistics_patient_ids,
)
from repro.core.spec import default_parameters
from repro.datagen import GenBaseDataset
from repro.linalg.biclustering import cheng_church
from repro.linalg.covariance import covariance_matrix, top_covariant_pairs
from repro.linalg.lanczos import lanczos_svd
from repro.linalg.qr import linear_regression
from repro.linalg.wilcoxon import enrichment_analysis

PIN_SIZES = ("tiny", "small", "medium", "large", "xlarge")
PIN_SEED = 42  # the benchmark's first seed
PIN_OPERANDS = ("dense", "chunked", "distributed-1", "distributed-2", "distributed-4")
SCIDB_CHUNK = 128  # SciDBEngine.chunk_size


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def distributed(cluster: Cluster, matrix: np.ndarray) -> DistributedMatrix:
    """``matrix`` in contiguous row blocks, node ``p`` of ``k`` holding rows
    ``[p·n/k, (p+1)·n/k)`` (the layout the pins were recorded on)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("DistributedMatrix needs a 2-D matrix")
    n, k = matrix.shape[0], cluster.n_nodes
    return DistributedMatrix(cluster, [matrix[p * n // k:(p + 1) * n // k].copy()
                                       for p in range(k)], matrix.shape[1])


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
    operand = distributed(cluster, matrix)
    return (lambda: ScaLAPACK(cluster).covariance(operand),
            lambda k, seed: ScaLAPACK(cluster).lanczos_svd(operand, k=k, seed=seed))


def _query_matrices(dataset: GenBaseDataset):
    """The matrices Q2 and Q4 hand their kernels, and Q4's ``k`` and seed."""
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
    }


def _driver_pins(dataset: GenBaseDataset) -> dict:
    """Q1, Q2's top pairs, Q3 and Q5 as ``ReferenceImplementation`` calls them."""
    parameters = default_parameters(dataset.spec)
    expression = dataset.expression_matrix
    fit = linear_regression(expression[:, selected_gene_ids(dataset, parameters)],
                            dataset.patients.drug_response, method="lapack")
    cov = covariance_matrix(expression[covariance_patient_ids(dataset, parameters), :])
    gene_a, gene_b, values = top_covariant_pairs(
        cov, fraction=parameters.covariance_top_fraction)
    biclusters = cheng_church(
        expression[bicluster_patient_ids(dataset, parameters), :],
        n_biclusters=parameters.n_biclusters, seed=parameters.seed).biclusters
    enrichment = enrichment_analysis(
        expression[statistics_patient_ids(dataset, parameters), :].mean(axis=0),
        dataset.ontology.membership, alpha=parameters.statistics_alpha)
    return {
        "q1_r_squared": fit.r_squared, "q1_intercept": fit.intercept,
        "q1_coefficient_norm": float(np.linalg.norm(fit.coefficients)),
        "q2_pairs": [_digest(gene_a), _digest(gene_b), _digest(values)],
        "q3_rows": [_digest(b.rows) for b in biclusters],
        "q3_columns": [_digest(b.columns) for b in biclusters],
        "q3_msr": [b.msr for b in biclusters],
        "q5_p_values": _digest(enrichment.p_values),
        "q5_z_scores": _digest(enrichment.z_scores),
    }


def _canary() -> str:
    """A GEMV, a GEMM and a SYRK whose bytes identify the BLAS kernels in use."""
    matrix = np.random.default_rng(0).standard_normal((300, 200))
    return _digest(np.concatenate([
        matrix @ matrix[0], (matrix.T @ (matrix + 1.0)).ravel(), (matrix.T @ matrix).ravel()]))


def _all_pins() -> dict:
    pins = {}
    for size in PIN_SIZES:
        dataset = GenBaseDataset.generate(size, seed=PIN_SEED)
        matrices = _query_matrices(dataset)
        pins[size] = {operand: _pins_for(*matrices, operand) for operand in PIN_OPERANDS}
        pins[size]["driver"] = _driver_pins(dataset)
    return {"canary": _canary(), **pins}


if __name__ == "__main__":
    print(json.dumps(_all_pins(), indent=1))
