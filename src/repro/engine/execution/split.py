"""Intra-operator co-processing: split one operator across CPU + GPU.

Placement is all-or-nothing per operator.  arXiv 1307.1955
("Revisiting Co-Processing for Hash Joins on the Coupled CPU-GPU
Architecture") shows another point: divide one operator's work
between the processors by a *ratio*, so neither the GPU's heap ceiling
nor the CPU's throughput floor caps it alone.  Over the morsel substrate of
:mod:`repro.engine.morsel`:

* **Identity gate first.**  At warm-up, :meth:`SplitState.prepare`
  runs every query's fused pipeline as two chunk schedules (an even
  and an uneven three-way split), merges the partials at the breaker
  as the morsel pool does, and compares the result byte for byte with
  the operator path.  Other plans decline (reason-counted) and run on
  the pure placement.
* **Ratio from HyPE.**  :class:`~repro.hype.models.SplitCostModel`
  picks the GPU fraction ``r* = t_c / (t_c + t_g + t_x)`` from the
  learned runtimes and the PCIe time of the operator's input, blended
  with the strategy's ``ratio_hint``.  On a coupled system ``t_x`` is
  zero and the ratio shifts toward the GPU.
* **The one device attempt with a share.**  The GPU share ``r`` and
  the CPU share ``1 - r`` run at once as
  :func:`~repro.engine.execution.operator_task.device_attempt`; a
  device fault wastes the GPU share, which then runs on the CPU.  An
  open breaker declines the split up front.

The result is still served by ``op.produce`` (the memoised functional
layer), so a split is byte-identical to a pure execution by
construction; the gate proves the division would merge identically
were the work physically divided.  Disabled, ``ctx.split`` is None and
costs one ``is not None`` test.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.engine import morsel
from repro.engine.execution.context import resident_fraction
from repro.engine.execution.functional import execute_operators
from repro.engine.execution.operator_task import SHARE, device_attempt
from repro.hardware.processor import ProcessorKind
from repro.hype.models import SplitCostModel

#: Operator kinds eligible for splitting: chunkable over the fact
#: range (selections, materialising projections), probe-partitionable
#: (joins), or partial-merge aggregations — the shapes the morsel
#: substrate proves.
SPLIT_KINDS = frozenset(("selection", "join", "groupby", "projection"))

#: Below this share the split degenerates: run the pure placement.
MIN_SHARE = 0.05

#: Decline to split when the device's queued *other* work exceeds this
#: multiple of the op's own GPU share — the split finishes only when
#: its GPU share does, so splitting onto a congested device slows the
#: operator below its pure-CPU time.
BUSY_FACTOR = 1.0


def merged_split_result(pipe, boundaries):
    """Run ``pipe`` as chunks cut at ``boundaries`` and merge at the
    breaker — the same absorb/replay/finalize/tail sequence the morsel
    pool applies.  Returns the root :class:`OperatorResult`."""
    rows = pipe.fact_rows
    edges = sorted({0, rows}
                   | {min(max(int(b), 0), rows) for b in boundaries})
    chunks = (list(zip(edges[:-1], edges[1:]))
              if rows > 0 else [(0, 0)])
    return pipe.merge(pipe.run_chunk(start, stop) for start, stop in chunks)


class SplitState:
    """Per-run split-execution state hung off the execution context."""

    def __init__(self, config, cost_model, strategy=None):
        self.config = config
        self.model = SplitCostModel(cost_model)
        self.strategy = strategy
        #: plan names whose chunked merge proved byte-identical
        self.splittable = set()
        #: plan names that failed or declined the gate (skip quickly)
        self.ungated = set()

    # -- warm-up identity gate ----------------------------------------

    def prepare(self, database, queries, metrics=None) -> None:
        """Gate every query template: chunk-merge it two ways and
        require byte identity with the operator path.  Failures
        decline silently (the plan simply never splits)."""
        for query in queries:
            reason = self._gate_query(database, query)
            if reason is None:
                self.splittable.add(query.name)
            else:
                self.ungated.add(query.name)
                if metrics is not None:
                    metrics.count("split_declines", reason=reason)

    def _gate_query(self, database, query) -> Optional[str]:
        """None when the query may split, else the decline reason."""
        try:
            reference = execute_operators(query.instantiate(), database)
            pipe = morsel.build(query.instantiate(), database)
            if not pipe.supports_partials:
                return "no_partials"
            rows = pipe.fact_rows
            schedules = ([rows // 2],
                         [rows // 4, rows // 2, (3 * rows) // 4])
            for boundaries in schedules:
                merged = merged_split_result(pipe, boundaries)
                if (merged.payload.row_tuples()
                        != reference.payload.row_tuples()
                        or merged.actual_rows != reference.actual_rows
                        or merged.nominal_rows != reference.nominal_rows
                        or merged.row_width_bytes
                        != reference.row_width_bytes):
                    return "identity"
            return None
        except morsel.Decline as decline:
            return decline.reason
        except Exception:
            return "error"

    # -- ratio selection ----------------------------------------------

    def _transfer_seconds(self, ctx, nbytes: float) -> float:
        """PCIe time for ``nbytes`` (zero on a coupled platform)."""
        return 0.0 if self.config.coupled else ctx.bus.transfer_time(nbytes)

    def choose_ratio(self, ctx, op, device, input_bytes: float) -> float:
        """Up-front GPU fraction for one operator."""
        if self.config.split_ratio is not None:
            return self.config.split_ratio
        hint = None
        if self.strategy is not None:
            hint = self.strategy.ratio_hint(ctx, op, device)
        # only the non-resident share of the input actually crosses
        # the bus; a warm cache shifts the balance toward the GPU
        t_x = (self._transfer_seconds(ctx, input_bytes)
               * (1.0 - (resident_fraction(ctx, op, device) or 0.0)))
        return self.model.ratio(op.kind, input_bytes, t_x, hint=hint)

    # -- the split execution itself ------------------------------------

    def _decline(self, ctx, reason: str) -> None:
        ctx.metrics.count("split_declines", reason=reason)

    def try_split(self, ctx, device, op, child_results, input_bytes,
                  qctx) -> Generator:
        """DES process: split ``op`` between the CPU and ``device``.

        Returns the :class:`OperatorResult`, or None when the split
        declines *before any simulated time passed* — the caller then
        proceeds with the ordinary pure placement, unaffected.
        """
        if op.kind not in SPLIT_KINDS:
            self._decline(ctx, "op_kind")
            return None
        if op.plan_name not in self.splittable:
            self._decline(ctx,
                          "identity_gate" if op.plan_name in self.ungated
                          else "ungated_plan")
            return None
        if not ctx.resilience.available(device.name, ctx.env.now):
            self._decline(ctx, "breaker_open")
            return None

        footprint = op.device_footprint_bytes(
            ctx.profile, ctx.database, child_results, input_bytes)
        ratio = self.choose_ratio(ctx, op, device, input_bytes)
        if footprint > 0 and not self.config.coupled:
            ratio = min(ratio, device.heap.available / footprint, 1.0)
        if ratio < MIN_SHARE:
            self._decline(ctx, "ratio_floor")
            return None
        if ratio > 1.0 - MIN_SHARE and self.config.split_ratio is None:
            self._decline(ctx, "ratio_ceiling")
            return None
        if self.config.split_ratio is None:
            # the dispatcher already queued this op's own estimate on
            # the device; anything beyond that is other operators' work
            # our GPU share would wait behind
            t_gpu_est = ctx.cost_model.estimate(
                op.kind, ProcessorKind.GPU, input_bytes)
            ctx.load.refresh(device.name)
            other_load = max(
                ctx.load.estimated_completion(device.name) - t_gpu_est,
                0.0)
            if other_load > BUSY_FACTOR * max(ratio * t_gpu_est, 1e-12):
                self._decline(ctx, "device_busy")
                return None
        # the device attempt with a share: both shares run at once, a
        # device fault degrades the operator to the CPU
        return (yield from device_attempt(
            ctx, device, op, child_results, input_bytes, qctx, SHARE,
            ratio, False))


__all__ = ["SplitState", "merged_split_result", "SPLIT_KINDS",
           "MIN_SHARE"]
