"""Runtime observations feeding the learned cost models."""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

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
    """One key's history: the observations and, beside them, their
    ``input_bytes`` and ``seconds`` as two plain float lists — what a
    regression reads — grown and trimmed together, plus the fit the
    cost model keeps over them (one lookup serves an observation)."""

    __slots__ = ("observations", "inputs", "durations", "fit", "since_fit")

    def __init__(self):
        self.observations: List[Observation] = []
        self.inputs: List[float] = []
        self.durations: List[float] = []
        #: ``(intercept, slope)`` once fitted, and observations since
        self.fit: Optional[Tuple[float, float]] = None
        self.since_fit = 0


class ObservationStore:
    """Bounded per-(operator kind, processor kind) observation history.

    One table per processor kind, picked by identity and keyed by the
    operator kind alone: a lookup hashes one (cached) ``str`` and never
    an enum member.  A store feeds one cost model.
    """

    def __init__(self, max_observations_per_key: int = 512):
        self._max = max_observations_per_key
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
            window = table[op_kind] = Window()
            self._keys.append((op_kind, processor_kind))
        input_bytes = float(input_bytes)
        seconds = float(seconds)
        observations = window.observations
        observations.append(Observation(input_bytes, seconds, source))
        window.inputs.append(input_bytes)
        window.durations.append(seconds)
        excess = len(observations) - self._max
        if excess > 0:
            # Keep the most recent window (workload drift).
            del (observations[:excess], window.inputs[:excess],
                 window.durations[:excess])
        return window

    def get(self, op_kind: str,
            processor_kind: ProcessorKind) -> List[Observation]:
        window = self.window(op_kind, processor_kind)
        return window.observations if window else []

    def series(self, op_kind: str, processor_kind: ProcessorKind
               ) -> Tuple[List[float], List[float]]:
        """``(input_bytes, seconds)`` of the key's window, in
        observation order."""
        window = self.window(op_kind, processor_kind)
        return (window.inputs, window.durations) if window else ([], [])

    def count(self, op_kind: str, processor_kind: ProcessorKind) -> int:
        return len(self.get(op_kind, processor_kind))

    def keys(self):
        return list(self._keys)

    def clear(self) -> None:
        for part in (self._cpu, self._gpu, self._keys):
            part.clear()
