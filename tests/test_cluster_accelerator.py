"""Tests for the cluster simulator, distributed linalg and the coprocessor model."""

from __future__ import annotations

import numpy as np
import pytest

from kernel_pins import distributed
from repro.accelerator import Coprocessor, DeviceSpec, OffloadRuntime, XEON_PHI_5110P
from repro.cluster import Cluster, NetworkModel, ScaLAPACK
from repro.linalg.biclustering import cheng_church
from repro.linalg.covariance import covariance_matrix
from repro.linalg.lanczos import lanczos_svd
from repro.linalg.wilcoxon import enrichment_analysis


class TestNetworkModel:
    def test_transfer_counts_real_bytes(self):
        network = NetworkModel()
        payload = np.ones(1000)
        copy, seconds = network.transfer(payload, source=0, destination=1)
        np.testing.assert_array_equal(copy, payload)
        assert network.total_bytes >= payload.nbytes
        assert seconds > network.latency_seconds

    def test_local_transfer_is_free(self):
        network = NetworkModel()
        _copy, seconds = network.transfer(np.ones(10), source=2, destination=2)
        assert seconds == 0.0
        assert network.total_bytes == 0

    def test_broadcast_and_gather(self):
        network = NetworkModel()
        copies, seconds = network.broadcast("hello", source=0, destinations=[1, 2, 3])
        assert copies == ["hello"] * 3
        assert seconds > 0
        gathered, _ = network.gather(["a", "b"], sources=[1, 2], destination=0)
        assert gathered == ["a", "b"]
        assert len(network.transfers) == 5
        # The running totals track the recorded transfers.
        assert network.total_bytes == sum(record.n_bytes for record in network.transfers)
        assert network.total_seconds == pytest.approx(
            sum(record.seconds for record in network.transfers)
        )

    def test_all_reduce_cost_scaling(self):
        network = NetworkModel()
        assert network.all_reduce_cost(1_000_000, 1) == 0.0
        two = network.all_reduce_cost(1_000_000, 2)
        four = network.all_reduce_cost(1_000_000, 4)
        assert two > 0 and four > two

    def test_reset(self):
        network = NetworkModel()
        network.transfer(np.ones(10), 0, 1)
        network.reset()
        assert network.total_bytes == 0 and network.total_seconds == 0.0


class TestCluster:
    def test_map_partitions_and_clock(self, rng):
        cluster = Cluster(3)
        partitions = [rng.random((10, 2)) for _ in range(3)]
        result = cluster.map_partitions(partitions, lambda part, node: part.sum())
        assert len(result.outputs) == 3
        assert result.elapsed_seconds >= max(result.per_node_seconds)
        assert cluster.simulated_elapsed_seconds >= result.elapsed_seconds

    def test_partition_count_mismatch(self):
        cluster = Cluster(2)
        with pytest.raises(ValueError):
            cluster.map_partitions([1, 2, 3], lambda part, node: part)
        with pytest.raises(ValueError):
            cluster.run_on_nodes([lambda node: None])

    def test_scatter_gather_charge_network(self):
        cluster = Cluster(3)
        blocks = [np.ones(100) * i for i in range(3)]
        scattered = cluster.scatter(blocks, source=0)
        assert scattered.network_seconds > 0
        gathered = cluster.gather(scattered.outputs, destination=0)
        np.testing.assert_allclose(gathered.outputs[2], blocks[2])
        assert cluster.network.total_bytes > 0

    def test_single_node_has_no_network_cost(self):
        cluster = Cluster(1)
        cluster.scatter([np.ones(10)], source=0)
        assert cluster.network.total_bytes == 0

    def test_reset_clock(self):
        cluster = Cluster(2)
        cluster.scatter([np.ones(10), np.ones(10)], source=0)
        cluster.reset_clock()
        assert cluster.simulated_elapsed_seconds == 0.0
        assert cluster.network.total_bytes == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Cluster(0)

    def test_executor_stays_a_plain_attribute_assignment(self):
        # genbase_bench/workloads.py (frozen) sets this on every cluster engine.
        cluster = Cluster(3)
        cluster.executor = "sequential"
        result = cluster.run_on_nodes([
            (lambda node, i=i: (i, np.arange(i + 1).sum())) for i in range(3)
        ])
        assert [output[0] for output in result.outputs] == [0, 1, 2]
        assert result.wall_seconds >= sum(result.per_node_seconds) > 0
        assert all(t.compute_seconds > 0 for t in cluster.node_timings)
        assert cluster.simulated_elapsed_seconds >= result.elapsed_seconds


class TestScaLAPACK:
    @pytest.fixture(params=[1, 2, 4])
    def cluster(self, request) -> Cluster:
        return Cluster(request.param)

    def test_distributed_covariance(self, cluster, rng):
        matrix = rng.random((60, 12))
        operand = distributed(cluster, matrix)
        assert operand.shape == matrix.shape
        cov = ScaLAPACK(cluster).covariance(operand)
        np.testing.assert_allclose(cov, np.cov(matrix, rowvar=False), atol=1e-10)

    def test_distributed_regression(self, cluster, rng):
        features = rng.random((80, 5))
        beta_true = np.arange(1.0, 6.0)
        target = features @ beta_true + 2.0 + 0.01 * rng.standard_normal(80)
        fit = ScaLAPACK(cluster).linear_regression(
            distributed(cluster, features),
            distributed(cluster, target.reshape(-1, 1)),
        )
        np.testing.assert_allclose(fit.coefficients, beta_true, atol=0.05)
        assert fit.r_squared > 0.99

    def test_multi_node_charges_the_clock(self, rng):
        cluster = Cluster(4)
        ScaLAPACK(cluster).covariance(distributed(cluster, rng.random((40, 10))))
        assert cluster.simulated_elapsed_seconds > 0

    def test_regression_validation(self, rng):
        cluster = Cluster(2)
        features = distributed(cluster, rng.random((10, 2)))
        bad_target = distributed(cluster, rng.random((10, 2)))
        with pytest.raises(ValueError):
            ScaLAPACK(cluster).linear_regression(features, bad_target)


class TestCoprocessor:
    def test_offload_timing_breakdown(self, rng):
        device = Coprocessor()
        matrix = rng.random((200, 50))
        result = device.offload(lambda m: np.cov(m, rowvar=False), matrix,
                                offloadable_fraction=0.9)
        assert result.device_kernel_seconds < result.host_kernel_seconds
        assert result.transfer_seconds > 0
        assert result.bytes_transferred >= matrix.nbytes
        assert result.fits_in_device_memory
        assert device.offloads[0].device_total_seconds == result.device_total_seconds

    def test_small_problems_dominated_by_transfer(self, rng):
        device = Coprocessor()
        tiny = rng.random((5, 5))
        result = device.offload(lambda m: m.sum(), tiny)
        # Transfer latency swamps the microsecond kernel: no speedup.
        assert result.speedup < 1.0

    def test_memory_oversubscription_penalty(self, rng):
        spec = DeviceSpec(
            name="tiny-device", memory_bytes=1_000,
            transfer_bandwidth_bytes_per_second=1e9,
            transfer_latency_seconds=0.0, compute_speedup=4.0,
            oversubscription_penalty=3.0,
        )
        device = Coprocessor(spec=spec)
        big = rng.random((100, 100))
        result = device.offload(lambda m: m @ m.T, big, offloadable_fraction=1.0)
        assert not result.fits_in_device_memory
        assert result.device_kernel_seconds == pytest.approx(
            result.host_kernel_seconds / 4.0 * 3.0, rel=0.2
        )

    def test_invalid_fraction(self, rng):
        with pytest.raises(ValueError):
            Coprocessor().offload(lambda m: m, rng.random(4), offloadable_fraction=1.5)

    # Every output array of a kernel's result is copied back to the host.

    def test_output_bytes_ndarray(self, rng):
        matrix = rng.random((40, 10))
        result = Coprocessor().offload(covariance_matrix, matrix)
        assert result.bytes_transferred == matrix.nbytes + result.value.nbytes

    def test_output_bytes_lanczos_result(self, rng):
        matrix = rng.random((40, 10))
        result = Coprocessor().offload(lanczos_svd, matrix, k=3)
        svd = result.value
        copied_back = svd.singular_values.nbytes + svd.left_vectors.nbytes + svd.right_vectors.nbytes
        assert result.bytes_transferred == matrix.nbytes + copied_back

    def test_output_bytes_enrichment_result(self, rng):
        scores = rng.random(30)
        membership = (rng.random((30, 5)) < 0.4).astype(np.float64)
        result = Coprocessor().offload(enrichment_analysis, scores, membership)
        terms = result.value
        copied_back = (terms.go_ids.nbytes + terms.p_values.nbytes
                       + terms.z_scores.nbytes + terms.significant.nbytes)
        assert result.bytes_transferred == scores.nbytes + membership.nbytes + copied_back

    def test_output_bytes_biclustering_result(self, rng):
        matrix = rng.random((30, 20))
        result = Coprocessor().offload(cheng_church, matrix, n_biclusters=2)
        copied_back = sum(b.rows.nbytes + b.columns.nbytes for b in result.value)
        assert copied_back > 0
        assert result.bytes_transferred == matrix.nbytes + copied_back

    def test_paper_device_spec(self):
        assert XEON_PHI_5110P.memory_bytes == 8 * 1024**3
        assert XEON_PHI_5110P.compute_speedup > 1.0

    def test_runtime_policy(self, rng):
        runtime = OffloadRuntime()
        assert not runtime.should_offload("regression")
        assert runtime.should_offload("covariance")
        host_result = runtime.run("regression", lambda m: m.mean(), rng.random(100))
        assert host_result.transfer_seconds == 0.0
        assert host_result.device_total_seconds == host_result.host_kernel_seconds
        offloaded = runtime.run("covariance", lambda m: np.cov(m, rowvar=False), rng.random((50, 10)))
        assert offloaded.transfer_seconds > 0
        assert len(runtime.device.offloads) == 2
