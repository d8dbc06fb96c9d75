"""SciDB + coprocessor configurations (paper Section 5, Figure 5, Table 1).

Two engines:

* :class:`SciDBPhiEngine` — single node.  Data management is identical to
  :class:`~repro.core.engines.scidb.SciDBEngine`; the analytics kernels of
  the covariance, SVD, statistics and biclustering queries are routed
  through the :class:`~repro.accelerator.OffloadRuntime`, which executes
  them on the host and reports a *modelled* device time (transfer +
  Amdahl-scaled compute).  Linear regression is not offloaded, matching the
  paper's note that the MKL automatic offload of that operation was not yet
  supported.
* :class:`SciDBPhiClusterEngine` — the multi-node variant used by Table 1.
  It reuses the multi-node SciDB engine and transforms the analytics phase
  of each query with the same offload model, using the per-node partition
  size for the transfer term.

Because the device time is modelled rather than measured, runs of these
engines label their analytics seconds as modelled in the runner output; the
substitution is documented in ``docs/ENGINES.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accelerator import Coprocessor, OffloadRuntime
from repro.accelerator.offload import DEFAULT_OFFLOAD_FRACTIONS
from repro.arraydb import linalg as array_linalg
from repro.core.engines.base import covariance_pairs
from repro.core.engines.multinode import SciDBClusterEngine
from repro.core.engines.scidb import SciDBEngine
from repro.core.queries import QueryOutput
from repro.core.spec import QueryParameters
from repro.core.timing import PhaseTimer
from repro.linalg.biclustering import cheng_church
from repro.linalg.covariance import covariance_matrix
from repro.linalg.lanczos import lanczos_svd
from repro.linalg.wilcoxon import enrichment_analysis


@dataclass
class SciDBPhiEngine(SciDBEngine):
    """Single-node SciDB with analytics offloaded to the modelled coprocessor."""

    name: str = "scidb-phi"
    runtime: OffloadRuntime = field(default_factory=OffloadRuntime)

    def __post_init__(self) -> None:
        super().__post_init__()
        self.capabilities = type(self.capabilities)(
            supported_queries=self.capabilities.supported_queries,
            multi_node=False,
            uses_external_analytics=False,
            uses_coprocessor=True,
        )

    # -- analytics hooks: host-side preparation is data management, the kernel is offloaded --
    #
    # Regression is inherited: its offload is unsupported, host time stands.

    def _offload(self, timer: PhaseTimer, kernel: str, function, *args, **kwargs):
        """Run one kernel through the runtime, charging the modelled device seconds.

        Returns the kernel's result and the payload ``{"result", "offload"}``.
        """
        offloaded = self.runtime.run(kernel, function, *args, **kwargs)
        timer.add_analytics(offloaded.device_total_seconds)
        return offloaded.value, {"result": offloaded.value, "offload": offloaded}

    def _analytics_covariance(self, matrix, parameters, timer: PhaseTimer):
        with timer.data_management():
            dense = array_linalg.to_scalapack(matrix)
        cov, payload = self._offload(timer, "covariance", covariance_matrix, dense)
        # The host-side top-pairs pass is charged to no phase.
        return covariance_pairs(cov, parameters), payload

    def _analytics_biclustering(self, matrix, parameters, timer: PhaseTimer):
        with timer.data_management():
            dense = array_linalg.to_scalapack(matrix)
        return self._offload(
            timer, "biclustering", cheng_church, dense,
            n_biclusters=parameters.n_biclusters, seed=parameters.seed,
        )

    def _analytics_svd(self, matrix, k, parameters, timer: PhaseTimer):
        with timer.data_management():
            dense = array_linalg.to_scalapack(matrix)
        result, payload = self._offload(timer, "svd", lanczos_svd, dense, k=k, seed=parameters.seed)
        return result.singular_values, payload

    def _analytics_statistics(self, gene_scores, membership, parameters, timer: PhaseTimer):
        with timer.data_management():
            gene_scores = np.nan_to_num(gene_scores)
        result, payload = self._offload(
            timer, "statistics", enrichment_analysis, gene_scores, membership,
            alpha=parameters.statistics_alpha,
        )
        return (result.p_values, result.significant), payload


@dataclass
class SciDBPhiClusterEngine(SciDBClusterEngine):
    """Multi-node SciDB with per-node analytics transformed by the offload model.

    The whole analytics time of the underlying multi-node SciDB run — the
    slowest nodes' compute *and* the network seconds charged inside it — is
    scaled by the coprocessor's Amdahl model
    (:meth:`~repro.accelerator.Coprocessor.kernel_seconds`, per-query
    offloadable fraction), and one transfer of that node's share of the
    microarray over the device bus
    (:meth:`~repro.accelerator.Coprocessor.transfer_seconds`) is added.
    """

    name: str = "scidb-phi-cluster"
    device: Coprocessor = field(default_factory=Coprocessor)

    def __post_init__(self) -> None:
        super().__post_init__()
        self.capabilities = type(self.capabilities)(
            supported_queries=self.capabilities.supported_queries,
            multi_node=True,
            uses_external_analytics=False,
            uses_coprocessor=True,
        )

    _QUERY_KERNELS = {
        "covariance": "covariance",
        "svd": "svd",
        "statistics": "statistics",
        "biclustering": "biclustering",
        "regression": "regression",  # host-only (no offload)
    }

    def run(self, query: str, parameters: QueryParameters, timer: PhaseTimer) -> QueryOutput:
        inner = PhaseTimer()
        output = super().run(query, parameters, inner)
        timer.add_data_management(inner.data_management_seconds)
        for key, value in inner.notes.items():
            timer.note(key, value)

        kernel = self._QUERY_KERNELS.get(query, "covariance")
        if kernel == "regression":
            # The regression offload is unsupported; host time is unchanged.
            timer.add_analytics(inner.analytics_seconds)
            return output

        fraction = DEFAULT_OFFLOAD_FRACTIONS.get(kernel, 0.9)
        # Per-node working set: this node's share of the microarray.
        per_node_bytes = self.dataset.spec.microarray_bytes / max(self.n_nodes, 1)
        compute = inner.analytics_seconds
        device_compute = self.device.kernel_seconds(
            compute, fraction, fits=per_node_bytes <= self.device.spec.memory_bytes)
        timer.add_analytics(self.device.transfer_seconds(per_node_bytes) + device_compute)
        timer.note("host_analytics_seconds", compute)
        return output
