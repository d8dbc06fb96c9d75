"""The coprocessor device model.

The model is Amdahl-style: each offloaded kernel declares what fraction of
its work is dense, massively parallel computation (the part a many-core
device accelerates); the rest stays at host speed.  Device time for one
offloaded call is::

    transfer_in + host_time * (1 - f) + host_time * f / compute_speedup + transfer_out

where ``f`` is the kernel's offloadable fraction and the transfers are
charged from the real byte sizes of the arrays moved.  The kernel itself
executes on the host — the acceleration is modelled, the data movement and
kernel timing are measured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class DeviceSpec:
    """Static characteristics of an offload device.

    Attributes:
        name: device name for reports.
        memory_bytes: on-device memory; working sets beyond this pay the
            ``oversubscription_penalty`` on their compute time.
        transfer_bandwidth_bytes_per_second: host↔device copy bandwidth
            (PCIe gen2 x16 for the Phi 5110P ≈ 6 GB/s effective).
        transfer_latency_seconds: per-offload fixed setup cost.
        compute_speedup: dense-compute advantage over the host for the
            fraction of a kernel that is offloadable.
        oversubscription_penalty: multiplier applied to device compute when
            the working set exceeds device memory.
    """

    name: str
    memory_bytes: int
    transfer_bandwidth_bytes_per_second: float
    transfer_latency_seconds: float
    compute_speedup: float
    oversubscription_penalty: float = 2.5


#: The device evaluated in the paper (Section 5.1), with its 8 GB memory.
XEON_PHI_5110P = DeviceSpec(
    name="Intel Xeon Phi 5110P (modelled)",
    memory_bytes=8 * 1024**3,
    transfer_bandwidth_bytes_per_second=6e9,
    transfer_latency_seconds=0.004,
    compute_speedup=3.2,
    oversubscription_penalty=2.5,
)


@dataclass
class OffloadResult:
    """Timing breakdown of one offloaded kernel call.

    Attributes:
        value: the kernel's return value.
        host_kernel_seconds: measured host execution time of the kernel.
        device_kernel_seconds: modelled device execution time.
        transfer_seconds: modelled host↔device copy time.
        device_total_seconds: transfer + device kernel time.
        bytes_transferred: total bytes copied to and from the device.
        fits_in_device_memory: whether the working set fit on the device.
    """

    value: object
    host_kernel_seconds: float
    device_kernel_seconds: float
    transfer_seconds: float
    device_total_seconds: float
    bytes_transferred: int
    fits_in_device_memory: bool


@dataclass
class Coprocessor:
    """An offload device instance with accumulated usage statistics."""

    spec: DeviceSpec = field(default_factory=lambda: XEON_PHI_5110P)
    offloads: list[OffloadResult] = field(default_factory=list)

    def transfer_seconds(self, n_bytes: int) -> float:
        """Modelled time to copy ``n_bytes`` across the host↔device bus."""
        return self.spec.transfer_latency_seconds + n_bytes / self.spec.transfer_bandwidth_bytes_per_second

    def kernel_seconds(self, host_seconds: float, offloadable_fraction: float, fits: bool) -> float:
        """Modelled device time of a kernel that took ``host_seconds`` on the host.

        Amdahl: only ``offloadable_fraction`` runs ``compute_speedup`` times
        faster; a working set that does not ``fit`` in device memory pays the
        ``oversubscription_penalty`` on the whole.
        """
        accelerated = host_seconds * offloadable_fraction / self.spec.compute_speedup
        unaccelerated = host_seconds * (1.0 - offloadable_fraction)
        device_kernel = accelerated + unaccelerated
        if not fits:
            device_kernel *= self.spec.oversubscription_penalty
        return device_kernel

    def offload(
        self,
        kernel: Callable,
        *arrays: np.ndarray,
        offloadable_fraction: float = 0.9,
        **kwargs,
    ) -> OffloadResult:
        """Run ``kernel(*arrays, **kwargs)`` and model its offloaded execution.

        Args:
            kernel: the analytics kernel to execute.
            arrays: numpy array arguments; their sizes determine transfer cost
                and device-memory fit.
            offloadable_fraction: fraction of the kernel's work that is dense
                parallel computation (Amdahl's ``f``).
            kwargs: forwarded to the kernel.
        """
        if not 0.0 <= offloadable_fraction <= 1.0:
            raise ValueError("offloadable_fraction must be in [0, 1]")

        input_bytes = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))

        started = time.perf_counter()
        value = kernel(*arrays, **kwargs)
        host_seconds = time.perf_counter() - started

        output_bytes = _result_bytes(value)
        total_bytes = input_bytes + output_bytes
        transfer = self.transfer_seconds(input_bytes) + self.transfer_seconds(output_bytes)

        fits = total_bytes <= self.spec.memory_bytes
        device_kernel = self.kernel_seconds(host_seconds, offloadable_fraction, fits)

        result = OffloadResult(
            value=value,
            host_kernel_seconds=host_seconds,
            device_kernel_seconds=device_kernel,
            transfer_seconds=transfer,
            device_total_seconds=transfer + device_kernel,
            bytes_transferred=total_bytes,
            fits_in_device_memory=fits,
        )
        self.record(result)
        return result

    def record(self, result: OffloadResult) -> None:
        """Keep one call's timing; its ``value`` belongs to the caller alone."""
        self.offloads.append(replace(result, value=None))


def _result_bytes(value) -> int:
    """Bytes copied back to the host: every ndarray in the kernel's return
    value, found through tuples, lists and dataclass fields."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_result_bytes(item) for item in value)
    if is_dataclass(value):
        return sum(_result_bytes(getattr(value, f.name)) for f in fields(value))
    return 0
