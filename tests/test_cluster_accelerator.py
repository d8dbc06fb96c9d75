"""Tests for the cluster simulator, distributed linalg and the coprocessor model."""

from __future__ import annotations

import itertools
import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from kernel_pins import distributed
from repro.accelerator import Coprocessor, DeviceSpec, OffloadRuntime, XEON_PHI_5110P
from repro.accelerator.offload import DEFAULT_OFFLOAD_FRACTIONS
from repro.cluster import Cluster, NetworkModel, ScaLAPACK
from repro.cluster import cluster as cluster_module
from repro.cluster.network import LATENCY_SECONDS, message_seconds
from repro.core.engines import make_engine
from repro.core.engines.multinode import SciDBClusterEngine
from repro.core.timing import PhaseTimer
from repro.linalg.biclustering import cheng_church
from repro.linalg.covariance import covariance_matrix
from repro.linalg.lanczos import lanczos_svd, truncated_svd
from repro.linalg.wilcoxon import enrichment_analysis


def _pickled(payload) -> int:
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


class TestNetworkModel:
    def test_send_counts_real_bytes(self):
        network = NetworkModel()
        payload = np.ones(1000)
        copy, seconds = network.send(payload)
        np.testing.assert_array_equal(copy, payload)
        assert copy is not payload
        assert network.total_bytes == _pickled(payload) > payload.nbytes
        assert seconds == network.total_seconds == message_seconds(_pickled(payload))
        assert seconds > LATENCY_SECONDS

    def test_one_node_is_free(self):
        network = NetworkModel()
        assert network.broadcast(np.ones(10), 1) == 0.0
        assert network.all_reduce(1_000_000, 1) == 0.0
        assert (network.total_bytes, network.total_seconds) == (0, 0.0)

    @pytest.mark.parametrize("n_nodes, rounds", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3)])
    def test_broadcast_is_a_binomial_tree(self, n_nodes, rounds):
        network = NetworkModel()
        payload = np.arange(50.0)
        seconds = network.broadcast(payload, n_nodes)
        size = _pickled(payload)
        assert seconds == network.total_seconds == rounds * message_seconds(size)
        assert network.total_bytes == (n_nodes - 1) * size

    @pytest.mark.parametrize("n_nodes", [2, 3, 4])
    def test_all_reduce_cost_scaling(self, n_nodes):
        network = NetworkModel()
        seconds = network.all_reduce(1_000_000, n_nodes)
        steps, chunk = 2 * (n_nodes - 1), 1_000_000 // n_nodes
        assert seconds == network.total_seconds == steps * message_seconds(chunk)
        assert network.total_bytes == n_nodes * steps * chunk
        assert seconds > NetworkModel().all_reduce(1_000_000, n_nodes - 1)

    def test_reset(self):
        network = NetworkModel()
        network.send(np.ones(10))
        network.all_reduce(800, 2)
        network.reset()
        assert network.total_bytes == 0 and network.total_seconds == 0.0


class TestCluster:
    def test_map_partitions_and_clock(self, rng):
        cluster = Cluster(3)
        partitions = [rng.random((10, 2)) for _ in range(3)]
        outputs = cluster.map_partitions(partitions, lambda part, node: part.sum())
        assert outputs == [part.sum() for part in partitions]
        assert cluster.simulated_elapsed_seconds > 0
        assert cluster.network.total_bytes == 0  # a dispatch moves nothing

    def test_partition_count_mismatch(self):
        cluster = Cluster(2)
        with pytest.raises(ValueError):
            cluster.map_partitions([1, 2, 3], lambda part, node: part)
        with pytest.raises(ValueError):
            cluster.run_on_nodes([lambda node: None])

    @pytest.mark.parametrize("collective", ["scatter", "gather"])
    def test_scatter_gather_charge_network(self, collective, monkeypatch):
        cluster = Cluster(3)
        blocks = [np.ones(100) * i for i in range(3)]
        sent, send = [], cluster.network.send
        monkeypatch.setattr(cluster.network, "send",
                            lambda payload: sent.append(payload) or send(payload))
        outputs = getattr(cluster, collective)(blocks)
        # Node 0 keeps its own; one message per other node.
        assert len(sent) == 2 and all(p is b for p, b in zip(sent, blocks[1:], strict=True))
        assert outputs[0] is blocks[0]
        for output, block in zip(outputs[1:], blocks[1:], strict=True):
            assert output is not block
            np.testing.assert_array_equal(output, block)
        sizes = [_pickled(block) for block in blocks[1:]]
        assert cluster.network.total_bytes == sum(sizes)
        assert cluster.network.total_seconds == sum(message_seconds(size) for size in sizes)
        assert cluster.simulated_elapsed_seconds == cluster.network.total_seconds

    def test_single_node_has_no_network_cost(self):
        cluster = Cluster(1)
        cluster.scatter([np.ones(10)])
        cluster.gather([np.ones(10)])
        cluster.broadcast(np.ones(10))
        cluster.all_reduce_sum([np.ones(10)])
        assert cluster.network.total_bytes == 0
        assert cluster.simulated_elapsed_seconds == 0.0

    def test_reset_clock(self):
        cluster = Cluster(2)
        cluster.scatter([np.ones(10), np.ones(10)])
        cluster.broadcast(np.ones(10))
        cluster.all_reduce_sum([np.ones(10), np.ones(10)])
        cluster.run_on_nodes([lambda node: node] * 2)
        cluster.reset_clock()
        assert cluster.simulated_elapsed_seconds == 0.0
        assert cluster.network.total_bytes == 0
        assert cluster.network.total_seconds == 0.0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Cluster(0)

    def test_executor_stays_a_plain_attribute_assignment(self):
        # genbase_bench/workloads.py (frozen) sets this on every cluster engine.
        cluster = Cluster(3)
        cluster.executor = "sequential"
        outputs = cluster.run_on_nodes([
            (lambda node, i=i: (i, np.arange(i + 1).sum())) for i in range(3)
        ])
        assert [output[0] for output in outputs] == [0, 1, 2]
        assert cluster.simulated_elapsed_seconds > 0


class TestClockInvariant:
    """The simulated clock is the dispatches' slowest nodes plus every second
    the network model priced — nothing else, and nothing left out."""

    TICK = 2.0 ** -10  # exact in binary, so tick sums carry no rounding

    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 4])
    def test_clock_is_the_ticks_plus_the_network(self, n_nodes, rng, monkeypatch):
        calls = itertools.count()
        monkeypatch.setattr(cluster_module, "time", SimpleNamespace(
            perf_counter=lambda: next(calls) * self.TICK))
        cluster = Cluster(n_nodes)
        dispatches, run = [], cluster.run_on_nodes
        monkeypatch.setattr(cluster, "run_on_nodes",
                            lambda work: dispatches.append(len(work)) or run(work))

        matrix, target = rng.random((40, 8)), rng.random((40, 1))
        scalapack = ScaLAPACK(cluster)
        scalapack.covariance(distributed(cluster, matrix))
        scalapack.linear_regression(distributed(cluster, matrix), distributed(cluster, target))
        truncated_svd(distributed(cluster, matrix), k=3, seed=0)
        blocks = distributed(cluster, matrix).partitions
        cluster.scatter(cluster.gather(blocks))  # SciDB's re-chunking shuffle

        # Every node's work takes one tick, so each dispatch's slowest node does too.
        assert dispatches
        assert cluster.simulated_elapsed_seconds == pytest.approx(
            len(dispatches) * self.TICK + cluster.network.total_seconds, rel=1e-12)
        assert (cluster.network.total_seconds > 0) == (n_nodes > 1)


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
        assert result.device_total_seconds > result.host_kernel_seconds

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


class TestPhiClusterDeviceModel:
    """``scidb-phi-cluster`` prices through the device model's own methods,
    to the same seconds as the arithmetic it used to spell out itself."""

    HOST_ANALYTICS = 0.0371

    @pytest.mark.parametrize("memory_bytes", [XEON_PHI_5110P.memory_bytes, 1])
    @pytest.mark.parametrize("query", ["covariance", "svd", "statistics", "biclustering"])
    def test_seconds_are_unchanged(self, tiny_dataset, tiny_parameters, monkeypatch,
                                   query, memory_bytes):
        def inner_run(self, query, parameters, timer):
            timer.add_data_management(0.002)
            timer.add_analytics(TestPhiClusterDeviceModel.HOST_ANALYTICS)
            return "output"

        monkeypatch.setattr(SciDBClusterEngine, "run", inner_run)
        engine = make_engine("scidb-phi-cluster", n_nodes=2)
        engine.device = Coprocessor(spec=replace(XEON_PHI_5110P, memory_bytes=memory_bytes))
        engine.load(tiny_dataset)
        timer = PhaseTimer()
        assert engine.run(query, tiny_parameters, timer) == "output"

        spec, compute = engine.device.spec, self.HOST_ANALYTICS
        fraction = DEFAULT_OFFLOAD_FRACTIONS[query]
        per_node_bytes = tiny_dataset.spec.microarray_bytes / 2
        transfer = spec.transfer_latency_seconds + per_node_bytes / spec.transfer_bandwidth_bytes_per_second
        device_compute = compute * (1 - fraction) + compute * fraction / spec.compute_speedup
        if per_node_bytes > spec.memory_bytes:
            device_compute *= spec.oversubscription_penalty
        assert timer.analytics_seconds == transfer + device_compute
        assert timer.data_management_seconds == 0.002
        assert timer.notes["host_analytics_seconds"] == compute
