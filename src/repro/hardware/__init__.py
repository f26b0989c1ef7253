"""Simulated heterogeneous hardware platform.

This package substitutes the paper's physical testbed (Intel Xeon
E5-1607 v2, NVIDIA GTX 770, PCIe) with a deterministic model running
inside the DES kernel:

* :class:`Processor` — CPU or GPU with a bounded number of kernel slots.
* :class:`DeviceHeap` — the co-processor heap; allocations can fail with
  :class:`DeviceOutOfMemory`, which drives the paper's abort/fallback path.
* :class:`DeviceCache` — the co-processor column cache with LRU/LFU
  eviction, pinning, and reference counts.
* :class:`CopyEngine` — the one PCIe link model, in one of two
  topologies chosen by ``SystemConfig.copy_engine``: *serialized* (the
  default; a shared, contended channel — ``PCIeBus`` constructs it) or
  *async* (per-device DMA channels with in-flight transfer coalescing
  and prefetch support).
* :class:`HardwareSystem` — wires everything to one environment, based
  on a :class:`SystemConfig` mirroring the paper's platform.
"""

from repro.hardware.errors import (
    DeviceFault,
    DeviceOutOfMemory,
    DeviceReset,
    DeviceStall,
    HeapPressureFault,
    INJECTABLE_FAULTS,
    KernelLaunchFault,
    PCIeTransferFault,
    TransientDeviceFault,
)
from repro.hardware.memory import Allocation, DeviceHeap
from repro.hardware.cache import CacheEntry, DeviceCache
from repro.hardware.copy_engine import CopyEngine, PCIeBus, TransferHandle
from repro.hardware.processor import Processor, ProcessorKind
from repro.hardware.calibration import (
    COGADB_PROFILE,
    OCELOT_PROFILE,
    EngineProfile,
    OperatorCosts,
)
from repro.hardware.system import GpuDevice, HardwareSystem, SystemConfig

__all__ = [
    "Allocation",
    "CacheEntry",
    "COGADB_PROFILE",
    "CopyEngine",
    "DeviceCache",
    "DeviceFault",
    "DeviceHeap",
    "DeviceOutOfMemory",
    "DeviceReset",
    "DeviceStall",
    "EngineProfile",
    "GpuDevice",
    "HardwareSystem",
    "HeapPressureFault",
    "INJECTABLE_FAULTS",
    "KernelLaunchFault",
    "OCELOT_PROFILE",
    "OperatorCosts",
    "PCIeBus",
    "Processor",
    "ProcessorKind",
    "SystemConfig",
    "TransferHandle",
    "TransientDeviceFault",
]
