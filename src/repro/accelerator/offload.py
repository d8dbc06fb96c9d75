"""The offload runtime: which GenBase kernels go to the device, and how.

The paper's accelerated configuration offloads covariance, SVD and the
statistics kernels (linear regression offload was "not fully supported" in
the MKL release they used, so it is excluded — Section 5.2), and notes that
biclustering "takes very little computation time and cannot be expected to
show significant speedup on any accelerator".

:class:`OffloadRuntime` encodes exactly that policy: a per-kernel
offloadable fraction (biclustering's is small, the dense kernels' are
large), a list of kernels that are never offloaded, and a convenience
``run`` method the SciDB+Phi engine adapter calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.accelerator.device import Coprocessor, OffloadResult


#: Per-analytic offloadable fractions.  Dense factorizations are almost all
#: parallel FLOPs; the rank-sum statistics are about half ranking/bookkeeping;
#: Cheng–Church biclustering is dominated by control flow.
DEFAULT_OFFLOAD_FRACTIONS: dict[str, float] = {
    "covariance": 0.92,
    "svd": 0.95,
    "statistics": 0.55,
    "biclustering": 0.15,
    "regression": 0.90,
}

#: Kernels the runtime refuses to offload (runs them on the host), mirroring
#: the unsupported automatic offload of the regression path in the paper.
DEFAULT_HOST_ONLY: frozenset[str] = frozenset({"regression"})


@dataclass
class OffloadRuntime:
    """Decides per kernel whether to offload, and runs it either way."""

    device: Coprocessor = field(default_factory=Coprocessor)
    fractions: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_OFFLOAD_FRACTIONS))
    host_only: frozenset = DEFAULT_HOST_ONLY

    def should_offload(self, kernel_name: str) -> bool:
        """Whether this kernel is eligible for the device."""
        return kernel_name not in self.host_only

    def run(self, kernel_name: str, kernel: Callable, *arrays: np.ndarray,
            **kwargs) -> OffloadResult:
        """Run a kernel, offloading it if the policy allows.

        Returns an :class:`OffloadResult` either way; for host-only kernels
        the device time equals the host time and no transfer is charged.
        """
        if not self.should_offload(kernel_name):
            import time

            started = time.perf_counter()
            value = kernel(*arrays, **kwargs)
            host_seconds = time.perf_counter() - started
            result = OffloadResult(
                value=value,
                host_kernel_seconds=host_seconds,
                device_kernel_seconds=host_seconds,
                transfer_seconds=0.0,
                device_total_seconds=host_seconds,
                bytes_transferred=0,
                fits_in_device_memory=True,
            )
            self.device.record(result)
            return result
        fraction = self.fractions.get(kernel_name, 0.9)
        return self.device.offload(
            kernel, *arrays, offloadable_fraction=fraction, **kwargs
        )
