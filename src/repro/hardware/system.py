"""System configuration and assembly.

:class:`SystemConfig` mirrors the paper's experimentation platform
(Sec. 6.1): a four-core Xeon host with 32 GB RAM and a GTX 770 with
4 GB device memory behind PCIe.  :class:`HardwareSystem` instantiates
the simulated devices against one DES environment and one metrics
collector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.hardware.cache import DeviceCache
from repro.hardware.calibration import COGADB_PROFILE, GIB, EngineProfile
from repro.hardware.copy_engine import ASYNC, SERIALIZED, CopyEngine
from repro.hardware.memory import DeviceHeap
from repro.hardware.processor import Processor, ProcessorKind
from repro.metrics import MetricsCollector
from repro.sim import Environment


@dataclass(frozen=True)
class SystemConfig:
    """Dimensions and calibration of the simulated platform."""

    #: number of co-processors (Sec. 6.3: multiple GPUs scale the
    #: approach to larger databases and more users); sizes below are
    #: per device
    gpu_count: int = 1
    #: total device memory (bytes); GTX 770: 4 GiB.  The selection
    #: micro-benchmarks of Sec. 2.3/3.4 assume a 5 GiB device.
    gpu_memory_bytes: int = 4 * GIB
    #: slice of device memory used as column cache ("GPU buffer size");
    #: the remainder is operator heap
    gpu_cache_bytes: int = 2 * GIB
    #: effective PCIe bandwidth and latency (page-locked, async streams)
    pcie_bandwidth_bytes_per_second: float = 2.4 * GIB
    pcie_latency_seconds: float = 15e-6
    #: PCIe link topology (repro.hardware.copy_engine).  True = async:
    #: independent h2d/d2h DMA channels per device, operator staging
    #: overlapped with the kernel (Sec. 5.5), in-flight transfer
    #: coalescing and placement-driven prefetch.  False (default) =
    #: serialized: one blocking channel for everything, the
    #: paper-faithful baseline.
    copy_engine: bool = False
    #: intra-operator split execution (repro.engine.execution.split):
    #: one operator's morsel range divided between CPU and GPU by a
    #: HyPE-chosen ratio, both shares running at once.
    #: Off by default — placement stays all-or-nothing per operator.
    split: bool = False
    #: fixed GPU work fraction in [0, 1] (None = let the split cost
    #: model choose)
    split_ratio: Optional[float] = None
    #: coupled/integrated-GPU platform (arXiv 1307.1955): CPU and GPU
    #: share one physical memory, so staging to the device and merging
    #: results back skip the PCIe hop entirely
    coupled: bool = False
    #: cost calibration
    profile: EngineProfile = COGADB_PROFILE

    def __post_init__(self):
        if self.gpu_cache_bytes > self.gpu_memory_bytes:
            raise ValueError("cache cannot exceed device memory")
        if self.gpu_cache_bytes < 0 or self.gpu_memory_bytes < 0:
            raise ValueError("memory sizes must be >= 0")
        if self.gpu_count < 1:
            raise ValueError("at least one co-processor is required")
        if self.split_ratio is not None and not (
                0.0 <= self.split_ratio <= 1.0):
            raise ValueError("split_ratio must be in [0, 1]")

    @property
    def gpu_heap_bytes(self) -> int:
        """Device memory left for operator intermediates and results."""
        return self.gpu_memory_bytes - self.gpu_cache_bytes

    @classmethod
    def coupled_gpu(cls, **overrides) -> "SystemConfig":
        """The coupled CPU-GPU platform of arXiv 1307.1955: an
        integrated GPU sharing the host's physical memory.  The PCIe
        hop disappears (modelled as shared-memory bandwidth with
        negligible latency, and split staging/merging skipping the bus
        entirely), so the split cost model's transfer term vanishes and
        ratios shift toward the GPU.  Compute calibration is left
        unchanged on purpose: the ratio shift then isolates the
        transfer effect."""
        defaults = dict(
            coupled=True,
            split=True,
            pcie_bandwidth_bytes_per_second=25.6 * GIB,
            pcie_latency_seconds=1e-7,
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class GpuDevice:
    """One co-processor: compute, heap, and column cache."""

    name: str
    processor: Processor
    heap: DeviceHeap
    cache: DeviceCache


class HardwareSystem:
    """All simulated devices wired to one environment.

    With ``config.gpu_count > 1`` the system carries several identical
    co-processors (named ``gpu``, ``gpu2``, ``gpu3``, ...) sharing one
    PCIe link; ``gpu``/``gpu_cache`` keep referring to the first device
    so single-GPU code is unaffected.
    """

    def __init__(
        self,
        env: Environment,
        config: Optional[SystemConfig] = None,
        metrics: Optional[MetricsCollector] = None,
    ):
        self.env = env
        self.config = config if config is not None else SystemConfig()
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.cpu = Processor(env, "cpu", ProcessorKind.CPU, metrics=self.metrics)
        #: the one PCIe link every copy crosses; ``SystemConfig
        #: .copy_engine`` picks its topology
        self.bus = CopyEngine(
            env,
            bandwidth_bytes_per_second=self.config.pcie_bandwidth_bytes_per_second,
            latency_seconds=self.config.pcie_latency_seconds,
            metrics=self.metrics,
            busy_probe=self._device_computing,
            topology=ASYNC if self.config.copy_engine else SERIALIZED,
        )
        self.gpus = []
        for index in range(self.config.gpu_count):
            name = "gpu" if index == 0 else "gpu{}".format(index + 1)
            self.gpus.append(
                GpuDevice(
                    name=name,
                    processor=Processor(env, name, ProcessorKind.GPU,
                                        metrics=self.metrics),
                    heap=DeviceHeap(self.config.gpu_heap_bytes,
                                    metrics=self.metrics, name=name),
                    cache=DeviceCache(
                        self.config.gpu_cache_bytes,
                        metrics=self.metrics,
                        clock=lambda: env.now,
                    ),
                )
            )
        self.profile = self.config.profile
        #: fault injector shared by every device (None = faults off)
        self.injector = None

    def _device_computing(self, name: str) -> bool:
        """True while the named device has kernels in flight (the async
        link's overlap classifier)."""
        try:
            return self.processor(name).active_jobs > 0
        except KeyError:
            return False

    # -- transfers ------------------------------------------------------

    def host_transfer(self, nbytes: int, direction: str = "d2h",
                      device: Optional[str] = None) -> Generator:
        """DES process: a guaranteed (never fault-injected) transfer —
        the CPU fallback path and final result delivery.  It contends
        for ``device``'s channel like any copy but cannot fault, so the
        CPU-only floor stays reachable.  (Demand copies, which can
        fault, call ``bus.transfer`` directly.)"""
        return self.bus.transfer(nbytes, direction, device=device,
                                 inject=False)

    # -- fault injection ------------------------------------------------

    def install_faults(self, injector) -> None:
        """Hook a :class:`~repro.faults.FaultInjector` into every
        injection site: the PCIe link, each co-processor's submission
        path, and each device heap.  Injected device resets flush the
        owning device's column cache."""
        self.injector = injector
        self.bus.injector = injector
        for gpu_device in self.gpus:
            gpu_device.processor.injector = injector
            gpu_device.processor.on_reset = gpu_device.cache.reset
            gpu_device.heap.injector = injector

    @property
    def fault_config(self):
        """The active :class:`~repro.faults.FaultConfig`, or None."""
        return self.injector.config if self.injector is not None else None

    # -- first-device aliases (single-GPU code paths) ------------------

    @property
    def gpu(self) -> Processor:
        return self.gpus[0].processor

    @property
    def gpu_cache(self) -> DeviceCache:
        return self.gpus[0].cache

    # -- lookups ----------------------------------------------------------

    @property
    def processors(self):
        """All processors, CPU first."""
        return (self.cpu,) + tuple(d.processor for d in self.gpus)

    @property
    def gpu_names(self):
        return [d.name for d in self.gpus]

    def processor(self, name: str) -> Processor:
        for proc in self.processors:
            if proc.name == name:
                return proc
        raise KeyError("unknown processor {!r}".format(name))

    def device(self, name: str) -> GpuDevice:
        """The co-processor with the given name."""
        for gpu_device in self.gpus:
            if gpu_device.name == name:
                return gpu_device
        raise KeyError("unknown co-processor {!r}".format(name))
