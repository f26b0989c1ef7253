"""Runtime observations feeding the learned cost models."""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.hardware.processor import ProcessorKind


class Observation(NamedTuple):
    """One measured operator execution.

    ``source`` tags where the measurement came from: ``"pure"`` for a
    whole-operator execution on one device, ``"split"`` for the
    per-device share of a split execution (PR9).  Split shares are
    real throughput measurements of the device, so they feed the same
    regressions — the tag exists so diagnostics can tell them apart.
    """

    input_bytes: float
    seconds: float
    source: str = "pure"


class Window:
    """One key's history: ``input_bytes`` over ``seconds`` in a float64
    buffer that doubles up to ``(2, 2·max)``, the window its columns
    ``[start, end)`` (copied to the front once ``end`` hits the end),
    ``sources`` the tags of ``[0, end)``, and the cost model's fit."""

    __slots__ = ("buffer", "sources", "start", "end", "fit", "since_fit")

    def __init__(self, max_observations: int):
        self.buffer = np.empty((2, min(16, 2 * max_observations)))
        self.sources: List[str] = []
        self.start = self.end = 0
        #: ``(intercept, slope)`` once fitted, and observations since
        self.fit: Optional[Tuple[float, float]] = None
        self.since_fit = 0

    def views(self) -> np.ndarray:
        """The window's ``(input_bytes, seconds)`` rows, as a view."""
        return self.buffer[:, self.start:self.end]


class ObservationStore:
    """Bounded per-(operator kind, processor kind) observation history.

    One table per processor kind, picked by identity and keyed by the
    operator kind alone: a lookup hashes one (cached) ``str`` and never
    an enum member.  A store feeds one cost model.
    """

    def __init__(self, max_observations_per_key: int = 512):
        self.max_observations = max_observations_per_key
        self._cpu: Dict[str, Window] = {}
        self._gpu: Dict[str, Window] = {}
        #: every key, in the order each was first observed
        self._keys: List[Tuple[str, ProcessorKind]] = []

    def window(self, op_kind: str,
               processor_kind: ProcessorKind) -> Optional[Window]:
        """The key's window, or None before its first observation."""
        return (self._gpu if processor_kind is ProcessorKind.GPU
                else self._cpu).get(op_kind)

    def add(self, op_kind: str, processor_kind: ProcessorKind,
            input_bytes: float, seconds: float,
            source: str = "pure") -> Window:
        """Record one execution; returns the window it joined."""
        table = (self._gpu if processor_kind is ProcessorKind.GPU
                 else self._cpu)
        window = table.get(op_kind)
        if window is None:
            window = table[op_kind] = Window(self.max_observations)
            self._keys.append((op_kind, processor_kind))
        buffer, start, end = window.buffer, window.start, window.end
        if end == buffer.shape[1]:
            # Still filling: double the buffer, up to two windows; else
            # the window (the most recent observations, workload drift)
            # moves to the front.
            if not start:
                window.buffer = np.empty(
                    (2, min(2 * end, 2 * self.max_observations)))
            window.buffer[:, :end - start] = buffer[:, start:end]
            buffer = window.buffer
            del window.sources[:start]
            window.start = 0
            end -= start
        buffer[0, end] = input_bytes
        buffer[1, end] = seconds
        window.sources.append(source)
        window.end = end = end + 1
        if end - window.start > self.max_observations:
            window.start += 1
        return window

    def get(self, op_kind: str,
            processor_kind: ProcessorKind) -> List[Observation]:
        """The key's window as observations, oldest first."""
        window = self.window(op_kind, processor_kind)
        return list(map(Observation, *window.views().tolist(),
                        window.sources[window.start:])) if window else []

    def series(self, op_kind: str, processor_kind: ProcessorKind
               ) -> Tuple[List[float], List[float]]:
        """``(input_bytes, seconds)`` of the key's window, in
        observation order."""
        window = self.window(op_kind, processor_kind)
        return tuple(window.views().tolist()) if window else ([], [])

    def count(self, op_kind: str, processor_kind: ProcessorKind) -> int:
        window = self.window(op_kind, processor_kind)
        return window.end - window.start if window else 0

    def keys(self):
        return list(self._keys)

    def clear(self) -> None:
        for part in (self._cpu, self._gpu, self._keys):
            part.clear()
