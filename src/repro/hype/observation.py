"""Runtime observations feeding the learned cost models."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, NamedTuple, Tuple

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


class ObservationStore:
    """Bounded per-(operator kind, processor kind) observation history.

    Each key keeps its observations and, beside them, their
    ``input_bytes`` and ``seconds`` as two plain float lists — what a
    regression reads (:meth:`series`).  The three lists grow and are
    trimmed together, so they always describe the same window in the
    same order.
    """

    def __init__(self, max_observations_per_key: int = 512):
        self._max = max_observations_per_key
        #: key -> (observations, their input_bytes, their seconds)
        self._data: Dict[
            Tuple[str, ProcessorKind],
            Tuple[List[Observation], List[float], List[float]],
        ] = defaultdict(lambda: ([], [], []))

    def add(self, op_kind: str, processor_kind: ProcessorKind,
            input_bytes: float, seconds: float,
            source: str = "pure") -> None:
        """Record one execution."""
        observation = Observation(float(input_bytes), float(seconds), source)
        observations, inputs, durations = self._data[
            (op_kind, processor_kind)]
        observations.append(observation)
        inputs.append(observation.input_bytes)
        durations.append(observation.seconds)
        excess = len(observations) - self._max
        if excess > 0:
            # Keep the most recent window (workload drift).
            del observations[:excess], inputs[:excess], durations[:excess]

    def get(self, op_kind: str,
            processor_kind: ProcessorKind) -> List[Observation]:
        window = self._data.get((op_kind, processor_kind))
        return window[0] if window is not None else []

    def series(self, op_kind: str, processor_kind: ProcessorKind
               ) -> Tuple[List[float], List[float]]:
        """``(input_bytes, seconds)`` of the key's window, in
        observation order."""
        window = self._data.get((op_kind, processor_kind))
        return window[1:] if window is not None else ([], [])

    def count(self, op_kind: str, processor_kind: ProcessorKind) -> int:
        return len(self.get(op_kind, processor_kind))

    def keys(self):
        return list(self._data)

    def clear(self) -> None:
        self._data.clear()
