"""Coprocessor offload model (the benchmark's Intel Xeon Phi analog).

Section 5 of the paper offloads the analytics of the SciDB configuration to
a Xeon Phi 5110P: 60 cores, 8 GB of on-board memory, connected over PCIe.
The observed behaviour is entirely explained by three mechanisms, all of
which this package models explicitly:

1. data must be copied to the device before compute and back afterwards, so
   small problems are dominated by transfer overhead;
2. the device's dense-compute throughput is a problem-specific 1.4–2.9×
   better than the host, so only analytics-heavy queries benefit;
3. the device memory is limited, so data sets that do not fit pay extra
   streaming cost (and the paper only reports up to the large dataset for
   this reason).

:class:`~repro.accelerator.device.Coprocessor` executes the actual kernel on
the host (there is no real accelerator in this reproduction) and reports a
*modelled* device time built from the measured host kernel time and the
transfer model — the substitution is documented in ``docs/ENGINES.md``.
"""

from repro.accelerator.device import Coprocessor, DeviceSpec, OffloadResult, XEON_PHI_5110P
from repro.accelerator.offload import OffloadRuntime

__all__ = [
    "Coprocessor",
    "DeviceSpec",
    "OffloadResult",
    "OffloadRuntime",
    "XEON_PHI_5110P",
]
