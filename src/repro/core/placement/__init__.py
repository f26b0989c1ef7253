"""Operator placement strategies.

The registry maps the paper's strategy names to implementations:

========================  ==========  ============  ====================
name                      placement   executor      data placement
========================  ==========  ============  ====================
``cpu_only``              compile     eager         —
``gpu_only``              compile     eager         operator-driven
``critical_path``         compile     eager         operator-driven
``data_driven``           compile     eager         data-driven (pinned)
``runtime``               run time    eager         operator-driven
``chopping``              run time    thread pool   operator-driven
``data_driven_chopping``  run time    thread pool   data-driven (pinned)
``admission_control``     compile     eager         operator-driven,
                                                    one query at a time
========================  ==========  ============  ====================
"""

from repro.core.placement.base import PlacementStrategy
from repro.core.placement.compile_time import (
    AdmissionControlGpu,
    CpuOnly,
    GpuPreferred,
)
from repro.core.placement.critical_path import CriticalPath
from repro.core.placement.data_driven import DataDrivenCompile, DataDrivenRuntime
from repro.core.placement.runtime import RuntimeHype, SplitHype

_REGISTRY = {
    "cpu_only": CpuOnly,
    "gpu_only": GpuPreferred,
    "critical_path": CriticalPath,
    "data_driven": DataDrivenCompile,
    "runtime": RuntimeHype,
    "chopping": lambda: RuntimeHype(executor="chopping", name="chopping"),
    "data_driven_chopping": lambda: DataDrivenRuntime(
        executor="chopping", name="data_driven_chopping"
    ),
    "admission_control": AdmissionControlGpu,
    "split": SplitHype,
}

#: Canonical strategy names, in the order the paper's figures use.
STRATEGY_NAMES = (
    "cpu_only",
    "gpu_only",
    "critical_path",
    "data_driven",
    "runtime",
    "chopping",
    "data_driven_chopping",
    "admission_control",
    "split",
)


def get_strategy(name: str) -> PlacementStrategy:
    """Instantiate a placement strategy by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            "unknown strategy {!r}; choose from {}".format(
                name, sorted(_REGISTRY)
            )
        )
    return factory()


__all__ = [
    "AdmissionControlGpu",
    "CpuOnly",
    "CriticalPath",
    "DataDrivenCompile",
    "DataDrivenRuntime",
    "GpuPreferred",
    "PlacementStrategy",
    "RuntimeHype",
    "SplitHype",
    "STRATEGY_NAMES",
    "get_strategy",
]
