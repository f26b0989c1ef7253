"""Processor load tracking.

"To balance the load between CPU and GPU, we keep track of the load on
each processor by estimating the completion time of each processor's
ready queue" (Sec. 5.2).  The tracker holds the sum of estimated
runtimes of all operators assigned to but not yet finished on each
processor.
"""

from __future__ import annotations

from typing import Dict


class LoadTracker:
    """Outstanding estimated work per processor.

    With a resilience manager attached (fault injection active), the
    estimated completion of a device whose circuit breaker is open is
    infinite — cost-based placement then routes around the flaky device
    without every strategy needing breaker-specific code.
    """

    def __init__(self):
        self._outstanding: Dict[str, float] = {}
        self._resilience = None
        self._clock = None
        #: breaker-penalty snapshots, refreshed explicitly so a
        #: placement decision reads the breaker state of its own moment,
        #: not one snapshotted at an earlier placement
        self._penalty: Dict[str, float] = {}

    def attach_resilience(self, resilience, clock) -> None:
        """Penalise devices with open breakers in the load estimates."""
        self._resilience = resilience
        self._clock = clock
        self._penalty.clear()

    def refresh(self, processor_name: str = None) -> None:
        """Re-snapshot the breaker penalty for one processor (or all
        known ones).  Placement strategies and the split's busy-device
        check call this at choose time, so breaker transitions since an
        earlier placement show up in :meth:`estimated_completion`
        instead of a stale reading."""
        if self._resilience is None or not self._resilience.enabled:
            self._penalty.clear()
            return
        now = self._clock()
        names = ([processor_name] if processor_name is not None
                 else list(self._penalty) or list(self._outstanding))
        for name in names:
            self._penalty[name] = self._resilience.placement_penalty(
                name, now)

    def assign(self, processor_name: str, estimated_seconds: float) -> None:
        """An operator was queued on ``processor_name``."""
        self._outstanding[processor_name] = (
            self._outstanding.get(processor_name, 0.0) + estimated_seconds
        )

    def finish(self, processor_name: str, estimated_seconds: float) -> None:
        """The operator completed (or moved elsewhere)."""
        remaining = self._outstanding.get(processor_name, 0.0) - estimated_seconds
        self._outstanding[processor_name] = max(remaining, 0.0)

    def estimated_completion(self, processor_name: str) -> float:
        """Estimated seconds until the ready queue drains."""
        outstanding = self._outstanding.get(processor_name, 0.0)
        if self._resilience is not None and self._resilience.enabled:
            penalty = self._penalty.get(processor_name)
            if penalty is None:
                # First read snapshots the penalty; it stays until the
                # next refresh() so repeated reads inside one placement
                # decision agree with each other.
                penalty = self._resilience.placement_penalty(
                    processor_name, self._clock()
                )
                self._penalty[processor_name] = penalty
            outstanding += penalty
        return outstanding

    def reset(self) -> None:
        self._outstanding.clear()
        self._penalty.clear()
