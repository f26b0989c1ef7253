"""Learned cost models.

HyPE fits ``time = a + b * input_bytes`` per (operator kind, processor
kind) by least squares over the observation history.  Before enough
observations exist, estimates fall back to the analytical calibration
profile — mirroring how HyPE bootstraps its learning-based models.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hardware.calibration import EngineProfile
from repro.hardware.processor import ProcessorKind
from repro.hype.observation import ObservationStore, Window


class LearnedCostModel:
    """Per-operator-kind linear regression with analytical fallback."""

    def __init__(
        self,
        profile: EngineProfile,
        store: Optional[ObservationStore] = None,
        min_observations: int = 8,
        refit_interval: int = 16,
    ):
        self.profile = profile
        self.store = store if store is not None else ObservationStore()
        self.min_observations = min_observations
        self.refit_interval = refit_interval

    # -- learning -------------------------------------------------------

    def observe(self, op_kind: str, processor_kind: ProcessorKind,
                input_bytes: float, seconds: float,
                source: str = "pure") -> None:
        """Record a measured execution and refit lazily."""
        window = self.store.add(op_kind, processor_kind, input_bytes,
                                seconds, source=source)
        window.since_fit += 1
        if window.fit is None or window.since_fit >= self.refit_interval:
            self._refit(window)

    def _refit(self, window: Window) -> None:
        if len(window.inputs) < self.min_observations:
            return
        x = np.array(window.inputs)
        y = np.array(window.durations)
        if np.ptp(x) == 0:
            # Degenerate input sizes: constant model.
            window.fit = (float(y.mean()), 0.0)
        else:
            design = np.vstack([np.ones_like(x), x]).T
            (a, b), *_ = np.linalg.lstsq(design, y, rcond=None)
            window.fit = (float(a), float(b))
        window.since_fit = 0

    # -- estimation -------------------------------------------------------

    def is_learned(self, op_kind: str, processor_kind: ProcessorKind) -> bool:
        """True once a fitted model (not the fallback) is in use."""
        window = self.store.window(op_kind, processor_kind)
        return window is not None and window.fit is not None

    def estimate(self, op_kind: str, processor_kind: ProcessorKind,
                 input_bytes: float) -> float:
        """Estimated runtime; never negative."""
        window = self.store.window(op_kind, processor_kind)
        if window is None or window.fit is None:
            return self.profile.compute_seconds(
                op_kind, processor_kind, input_bytes
            )
        a, b = window.fit
        seconds = a + b * input_bytes
        return 0.0 if seconds < 0.0 else seconds


class SplitCostModel:
    """Choose the GPU work fraction for a split operator execution.

    With ``t_c``/``t_g`` the learned whole-operator runtimes on CPU
    and GPU and ``t_x`` the transfer time of the operator's full input
    over PCIe, shipping fraction ``r`` to the GPU costs
    ``max(r * (t_g + t_x), (1 - r) * t_c)`` — the two devices run
    concurrently, so the split finishes when the slower side does.
    The minimising ratio equalises the sides::

        r* = t_c / (t_c + t_g + t_x)

    On a coupled (integrated-GPU) system ``t_x`` is ~0 and ``r*``
    collapses to the pure throughput ratio — exactly the shift
    arXiv 1307.1955 reports when the PCIe hop disappears.
    """

    def __init__(self, cost_model: LearnedCostModel):
        self.cost_model = cost_model

    @staticmethod
    def balance(t_cpu: float, t_gpu: float, t_x: float = 0.0) -> float:
        """Equalising GPU fraction for measured side runtimes."""
        denominator = t_cpu + t_gpu + t_x
        if denominator <= 0.0:
            return 0.5
        return min(max(t_cpu / denominator, 0.0), 1.0)

    def ratio(self, op_kind: str, input_bytes: float,
              transfer_seconds: float,
              hint: Optional[float] = None) -> float:
        """GPU fraction for one operator; ``hint`` (e.g. the fraction
        of inputs already device-resident, from the placement strategy)
        is blended in at half weight."""
        t_cpu = self.cost_model.estimate(op_kind, ProcessorKind.CPU,
                                         input_bytes)
        t_gpu = self.cost_model.estimate(op_kind, ProcessorKind.GPU,
                                         input_bytes)
        ratio = self.balance(t_cpu, t_gpu, max(transfer_seconds, 0.0))
        if hint is not None:
            ratio = 0.5 * (ratio + min(max(hint, 0.0), 1.0))
        return min(max(ratio, 0.0), 1.0)

    def rebalance(self, remaining: float, ratio: float,
                  t_cpu: float, t_gpu: float, t_x: float,
                  load_cpu: float, load_gpu: float) -> float:
        """Adjusted GPU fraction *of the remaining work* given current
        per-device queue depths.  ``remaining`` is the untouched
        fraction of the operator; the absolute GPU share that equalises
        finish times is::

            r_abs = (load_cpu - load_gpu + remaining * t_cpu)
                    / (t_cpu + t_gpu + t_x)

        normalised back to a fraction of ``remaining``.  An infinite
        ``load_gpu`` (open breaker) yields 0.0 — degrade to pure CPU.
        """
        if remaining <= 0.0:
            return ratio
        if load_gpu == float("inf"):
            return 0.0
        if load_cpu == float("inf"):
            return 1.0
        denominator = t_cpu + t_gpu + t_x
        if denominator <= 0.0:
            return ratio
        r_abs = (load_cpu - load_gpu + remaining * t_cpu) / denominator
        return min(max(r_abs / remaining, 0.0), 1.0)
