"""Scaling-shape checks and design-choice ablations (paper Sections 4.3 and 6).

This module regenerates the paper's *qualitative* claims that are not a
single figure:

* the fraction of time spent in analytics grows with dataset size
  (Section 4.3), measured on the SciDB configuration;
* the copy/reformat cost of bolting external R onto a DBMS explains much of
  the gap between the "+ R" and "+ UDFs" column-store configurations
  (Section 6.2);
* algorithm choice matters (Section 6.3): the Lanczos truncated SVD vs the
  full LAPACK SVD, and the naive (interpreted) covariance vs the BLAS one.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import bench_sizes, record
from repro.core import ResultTable
from repro.linalg import naive
from repro.linalg.covariance import covariance_matrix
from repro.linalg.lanczos import lanczos_svd


# --------------------------------------------------------------------------- #
# Analytics fraction grows with dataset size (SciDB, covariance query)
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("size", bench_sizes())
def test_analytics_fraction_by_size(benchmark, size, datasets, runner, engine_cache,
                                    collected_results):
    dataset = datasets[size]
    engine = engine_cache("scidb", dataset)

    def run_once():
        return runner.run("covariance", engine, dataset)

    result = benchmark.pedantic(run_once, rounds=1, iterations=1)
    record(benchmark, result, collected_results)


def test_analytics_fraction_report(benchmark, collected_results, capsys):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = ResultTable([r for r in collected_results if r.query == "covariance"])
    with capsys.disabled():
        print("\n=== Section 4.3: analytics fraction of the covariance query (SciDB) ===")
        for result in table:
            fraction = (
                result.analytics_seconds / result.total_seconds if result.total_seconds else 0.0
            )
            print(f"  {result.dataset_size:8s} analytics fraction = {fraction:.2f}")


# --------------------------------------------------------------------------- #
# Export/reformat cost: column store + external R vs column store + UDFs
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("engine_name", ("columnstore-r", "columnstore-udf"))
def test_export_cost_ablation(benchmark, engine_name, datasets, runner, engine_cache,
                              collected_results):
    dataset = datasets[bench_sizes()[-1]]
    engine = engine_cache(engine_name, dataset)

    def run_once():
        return runner.run("covariance", engine, dataset)

    result = benchmark.pedantic(run_once, rounds=1, iterations=1)
    record(benchmark, result, collected_results)


def test_export_cost_report(benchmark, collected_results, capsys):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    external = [r for r in collected_results if r.engine == "columnstore-r"]
    in_db = [r for r in collected_results if r.engine == "columnstore-udf"]
    if not external or not in_db:
        return
    with capsys.disabled():
        print("\n=== Section 6.2: copy/reformat cost of external analytics ===")
        print(f"  column store + external R : dm={external[0].data_management_seconds:.3f}s "
              f"(export bytes={int(external[0].notes.get('export_bytes', 0))})")
        print(f"  column store + in-DB UDFs : dm={in_db[0].data_management_seconds:.3f}s")


# --------------------------------------------------------------------------- #
# Algorithm ablations (Section 6.3)
# --------------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def ablation_matrix(datasets):
    dataset = datasets[bench_sizes()[-1]]
    return dataset.expression_matrix


def test_ablation_lanczos_svd(benchmark, ablation_matrix):
    result = benchmark(lambda: lanczos_svd(ablation_matrix, k=10, seed=0))
    assert len(result.singular_values) == 10


def test_ablation_full_lapack_svd(benchmark, ablation_matrix):
    singular_values = benchmark(
        lambda: np.linalg.svd(ablation_matrix, compute_uv=False)[:10])
    assert len(singular_values) == 10


def test_ablation_blas_covariance(benchmark, ablation_matrix):
    cov = benchmark(lambda: covariance_matrix(ablation_matrix))
    assert cov.shape[0] == ablation_matrix.shape[1]


def test_ablation_naive_covariance(benchmark, ablation_matrix):
    # Keep the interpreted-tier ablation tractable: a sub-matrix is enough to
    # show the orders-of-magnitude gap per cell.
    sub = ablation_matrix[:40, :40]
    cov = benchmark.pedantic(lambda: naive.covariance_matrix(sub), rounds=1, iterations=1)
    np.testing.assert_allclose(cov, np.cov(sub, rowvar=False), atol=1e-8)


def test_ablation_householder_vs_lapack_regression(benchmark, ablation_matrix, datasets):
    dataset = datasets[bench_sizes()[-1]]
    features = ablation_matrix[:, :20]
    target = dataset.patients.drug_response
    from repro.linalg.qr import linear_regression

    fit = benchmark(lambda: linear_regression(features, target, method="householder"))
    reference = linear_regression(features, target, method="lapack")
    np.testing.assert_allclose(fit.coefficients, reference.coefficients, atol=1e-6)
