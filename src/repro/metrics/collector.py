"""Collects the measurements the paper reports.

One :class:`MetricsCollector` instance accompanies one workload run and
records everything Figures 1–25 need:

* per-query latencies,
* PCIe transfer time and volume per direction, plus the channel
  queueing delay contended transfers spent waiting,
* copy-engine accounting: coalesced duplicate copies, background
  prefetch traffic and hits, and wire time overlapped with compute,
* operator abort counts and the *wasted time* metric (Sec. 6.2.2:
  time from operator begin to abort, accumulated),
* per-processor operator execution counts and busy time,
* peak device heap usage and cache hit statistics,
* fault-injection accounting: observed faults per class, retries,
  circuit-breaker transitions, and per-query abort attribution.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class QueryRecord:
    """Latency record for one executed query.

    Abort/retry attribution is keyed by query *name* at recording time,
    so when several in-flight queries share a name the counts land on
    whichever finishes next — exact for distinct names, name-level
    approximate under self-concurrency.
    """

    name: str
    user: int
    start: float
    end: float
    #: co-processor aborts attributed to this query
    aborts: int = 0
    #: accumulated begin-to-abort time attributed to this query
    wasted_seconds: float = 0.0
    #: transient-fault retries attributed to this query
    retries: int = 0
    #: service-mode attribution (None for batch runs)
    tenant: Optional[str] = None
    slo_class: Optional[str] = None
    #: when fair-share admission dispatched the query (``start`` is the
    #: arrival time, so ``admitted_at - start`` is the admission wait
    #: and ``end - admitted_at`` the service time)
    admitted_at: Optional[float] = None

    @property
    def latency(self) -> float:
        return self.end - self.start

    @property
    def wait_seconds(self) -> float:
        """Admission wait (zero for batch runs without service mode)."""
        if self.admitted_at is None:
            return 0.0
        return self.admitted_at - self.start

    @property
    def service_seconds(self) -> float:
        """Time from dispatch to completion."""
        if self.admitted_at is None:
            return self.latency
        return self.end - self.admitted_at


@dataclass
class CancelledQueryRecord:
    """One query that was cancelled (deadline or explicit) mid-flight."""

    name: str
    user: int
    start: float
    end: float
    reason: str = "cancelled"
    #: service-mode attribution (None for batch runs)
    tenant: Optional[str] = None
    slo_class: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class MetricsCollector:
    """Accumulates measurements during one simulated workload run."""

    #: seconds spent copying host -> device, and bytes moved
    cpu_to_gpu_seconds: float = 0.0
    cpu_to_gpu_bytes: int = 0
    #: seconds spent copying device -> host, and bytes moved
    gpu_to_cpu_seconds: float = 0.0
    gpu_to_cpu_bytes: int = 0
    #: time transfers spent *waiting* for a channel, per direction —
    #: contention, recorded separately from the wire time above
    h2d_queue_seconds: float = 0.0
    d2h_queue_seconds: float = 0.0
    #: copy-engine accounting: duplicate copies absorbed by in-flight
    #: coalescing, background prefetch copies, and demand accesses
    #: served from prefetched cache content
    coalesced_transfers: int = 0
    coalesced_bytes: int = 0
    prefetch_transfers: int = 0
    prefetch_bytes: int = 0
    prefetch_hits: int = 0
    #: wire seconds that elapsed while the destination device was
    #: computing — the transfer/compute overlap the engine buys
    overlapped_transfer_seconds: float = 0.0
    #: number of operators that aborted on the co-processor
    aborts: int = 0
    #: accumulated time from operator begin to abort (paper's metric)
    wasted_seconds: float = 0.0
    #: cache behaviour
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    #: operator counts per processor name
    operators_per_processor: Counter = field(default_factory=Counter)
    #: executions per selected algorithm (HyPE's algorithm selection)
    algorithms: Counter = field(default_factory=Counter)
    #: busy seconds per processor name
    busy_seconds: Dict[str, float] = field(default_factory=dict)
    #: peak bytes allocated on the device heap
    peak_heap_bytes: int = 0
    #: observed fault aborts per fault class ("oom", "pcie", ...)
    faults: Counter = field(default_factory=Counter)
    #: observed fault aborts per (fault class, device)
    faults_per_device: Counter = field(default_factory=Counter)
    #: transient-fault retries (total and per device)
    retries: int = 0
    retries_per_device: Counter = field(default_factory=Counter)
    #: circuit-breaker transitions: (device, old_state, new_state, time)
    breaker_transitions: List[Tuple[str, str, str, float]] = field(
        default_factory=list
    )
    #: operator attempts denied because a device's breaker was open
    breaker_skips: Counter = field(default_factory=Counter)
    #: per-query latency records
    queries: List[QueryRecord] = field(default_factory=list)
    #: abort/wasted/retry totals per query name not yet attributed to a
    #: finished QueryRecord (drained by record_query)
    _pending_aborts: Counter = field(default_factory=Counter, repr=False)
    _pending_wasted: Dict[str, float] = field(default_factory=dict, repr=False)
    _pending_retries: Counter = field(default_factory=Counter, repr=False)
    #: query-lifecycle accounting (admission control / deadlines /
    #: hedging; all zero when the lifecycle layer is off)
    admission_waits: int = 0
    admission_wait_seconds: float = 0.0
    admission_queue_peak: int = 0
    sheds: Counter = field(default_factory=Counter)
    degraded_to_cpu: Counter = field(default_factory=Counter)
    deadline_misses: Counter = field(default_factory=Counter)
    cancels: int = 0
    cancel_seconds: float = 0.0
    cancelled_queries: List[CancelledQueryRecord] = field(
        default_factory=list
    )
    cancelled_task_skips: int = 0
    hedges_started: int = 0
    hedge_wins: int = 0
    hedge_losses: int = 0
    #: straggler-hedging wasted time: seconds the losing copy of a
    #: hedged operator had already executed when the race resolved
    hedge_wasted_seconds: float = 0.0
    #: intra-operator split-execution accounting
    #: (repro.engine.execution.split; all zero when --split is off)
    split_operators: int = 0
    split_rebalances: int = 0
    split_degrades: int = 0
    split_declines: Counter = field(default_factory=Counter)
    split_chosen_ratio_sum: float = 0.0
    split_realized_ratio_sum: float = 0.0
    split_gpu_seconds: float = 0.0
    split_cpu_seconds: float = 0.0
    split_wasted_seconds: float = 0.0
    #: self-healing morsel-pool accounting (harness.parallel.MorselPool;
    #: all zero when no pool ran or no process faults fired)
    worker_crashes: int = 0
    worker_hangs: int = 0
    heartbeat_misses: int = 0
    worker_restarts: int = 0
    worker_slow_exits: int = 0
    worker_init_failures: int = 0
    chunk_requeues: int = 0
    chunk_quarantines: int = 0
    pool_degrades: int = 0
    pool_degrade_reason: Optional[str] = None
    degraded_chunks: int = 0
    pool_fallbacks: int = 0
    float_gate_declines: int = 0
    shm_reexports: int = 0
    shm_integrity_failures: int = 0
    shm_orphans_reaped: int = 0
    #: planned process faults per class (crash/hang/slowexit/unlinkrace)
    process_faults: Counter = field(default_factory=Counter)
    #: order-sensitive digest of the planned process-fault schedule
    process_fault_digest: Optional[str] = None
    #: service-mode accounting (harness.service; all zero/empty when no
    #: service harness ran — the batch path never touches these)
    arrivals_by_tenant: Counter = field(default_factory=Counter)
    arrivals_by_class: Counter = field(default_factory=Counter)
    sheds_by_tenant: Counter = field(default_factory=Counter)
    sheds_by_class: Counter = field(default_factory=Counter)
    degraded_by_tenant: Counter = field(default_factory=Counter)
    degraded_by_class: Counter = field(default_factory=Counter)
    #: chaos blame per tenant: fault aborts, wasted time, retries
    aborts_by_tenant: Counter = field(default_factory=Counter)
    wasted_by_tenant: Dict[str, float] = field(default_factory=dict)
    retries_by_tenant: Counter = field(default_factory=Counter)
    faults_by_tenant: Counter = field(default_factory=Counter)
    #: table epochs advanced by concurrent appends, and snapshots whose
    #: caches were invalidated through the registry after draining
    service_epochs: int = 0
    snapshots_retired: int = 0
    #: starvation-guard activations (an aged head request served out of
    #: deficit order)
    starvation_promotions: int = 0
    #: makespan of the run (set by the harness)
    workload_seconds: float = 0.0
    #: *wall-clock* seconds per harness phase (plan / des / numpy /
    #: validate) — the real time the host spends producing a run, as
    #: opposed to every other field, which is simulated time.  This is
    #: what the throughput benchmarks optimise.
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    # -- recording hooks ---------------------------------------------

    def record_transfer(self, direction: str, nbytes: int, seconds: float) -> None:
        """Record one PCIe transfer; direction is 'h2d' or 'd2h'."""
        if direction == "h2d":
            self.cpu_to_gpu_seconds += seconds
            self.cpu_to_gpu_bytes += nbytes
        elif direction == "d2h":
            self.gpu_to_cpu_seconds += seconds
            self.gpu_to_cpu_bytes += nbytes
        else:
            raise ValueError("unknown transfer direction {!r}".format(direction))

    def record_transfer_queueing(self, direction: str, seconds: float) -> None:
        """Record time one transfer spent queued for a channel."""
        if direction == "h2d":
            self.h2d_queue_seconds += seconds
        elif direction == "d2h":
            self.d2h_queue_seconds += seconds
        else:
            raise ValueError("unknown transfer direction {!r}".format(direction))

    def record_coalesced(self, nbytes: int) -> None:
        """Record a copy absorbed by an identical in-flight transfer."""
        self.coalesced_transfers += 1
        self.coalesced_bytes += nbytes

    def record_prefetch(self, nbytes: int) -> None:
        """Record one completed background prefetch copy."""
        self.prefetch_transfers += 1
        self.prefetch_bytes += nbytes

    def record_prefetch_hit(self) -> None:
        """Record a demand access served from prefetched cache content."""
        self.prefetch_hits += 1

    def record_overlapped_transfer(self, seconds: float) -> None:
        """Record wire time that overlapped compute on its device."""
        self.overlapped_transfer_seconds += seconds

    def record_abort(self, wasted_seconds: float,
                     query: Optional[str] = None,
                     device: Optional[str] = None,
                     fault: Optional[str] = None,
                     tenant: Optional[str] = None) -> None:
        """Record a co-processor operator abort and its wasted time.

        ``query``/``device``/``fault`` (the fault class, e.g. ``"oom"``
        or ``"pcie"``) attribute the abort for the per-query and
        per-fault-class reports; ``tenant`` additionally blames service
        chaos to the owning tenant (exact, unlike the name-keyed query
        attribution).  Legacy call sites passing only the wasted time
        keep recording the global totals.
        """
        self.aborts += 1
        self.wasted_seconds += wasted_seconds
        if fault is not None:
            self.faults[fault] += 1
            if device is not None:
                self.faults_per_device[(fault, device)] += 1
            if tenant is not None:
                self.faults_by_tenant[(fault, tenant)] += 1
        if tenant is not None:
            self.aborts_by_tenant[tenant] += 1
            self.wasted_by_tenant[tenant] = (
                self.wasted_by_tenant.get(tenant, 0.0) + wasted_seconds
            )
        if query is not None:
            self._pending_aborts[query] += 1
            self._pending_wasted[query] = (
                self._pending_wasted.get(query, 0.0) + wasted_seconds
            )

    def record_retry(self, device: Optional[str] = None,
                     fault: Optional[str] = None,
                     query: Optional[str] = None,
                     tenant: Optional[str] = None) -> None:
        """Record one transient-fault retry of a device attempt."""
        self.retries += 1
        if device is not None:
            self.retries_per_device[device] += 1
        if query is not None:
            self._pending_retries[query] += 1
        if tenant is not None:
            self.retries_by_tenant[tenant] += 1

    def record_breaker_transition(self, device: str, old_state: str,
                                  new_state: str, now: float) -> None:
        """Record a circuit-breaker state change on ``device``."""
        self.breaker_transitions.append((device, old_state, new_state, now))

    def record_breaker_skip(self, device: str) -> None:
        """Record an attempt denied because the device's breaker was open."""
        self.breaker_skips[device] += 1

    def record_cache_hit(self) -> None:
        self.cache_hits += 1

    def record_cache_miss(self) -> None:
        self.cache_misses += 1

    def record_cache_eviction(self) -> None:
        self.cache_evictions += 1

    def record_operator(self, processor_name: str, busy_seconds: float) -> None:
        """Record one completed operator execution."""
        self.operators_per_processor[processor_name] += 1
        self.busy_seconds[processor_name] = (
            self.busy_seconds.get(processor_name, 0.0) + busy_seconds
        )

    def record_algorithm(self, cost_key: str) -> None:
        """Record the algorithm HyPE selected for one execution."""
        self.algorithms[cost_key] += 1

    def record_heap_usage(self, used_bytes: int) -> None:
        if used_bytes > self.peak_heap_bytes:
            self.peak_heap_bytes = used_bytes

    def record_query(self, name: str, user: int, start: float, end: float,
                     tenant: Optional[str] = None,
                     slo_class: Optional[str] = None,
                     admitted_at: Optional[float] = None) -> None:
        """Record one finished query, draining the abort/retry totals
        attributed to its name since the previous record."""
        self.queries.append(QueryRecord(
            name=name, user=user, start=start, end=end,
            aborts=self._pending_aborts.pop(name, 0),
            wasted_seconds=self._pending_wasted.pop(name, 0.0),
            retries=self._pending_retries.pop(name, 0),
            tenant=tenant, slo_class=slo_class, admitted_at=admitted_at,
        ))

    # -- query-lifecycle hooks ----------------------------------------

    def record_admission_wait(self, name: str, seconds: float) -> None:
        """Record one query admitted after queueing behind the gate."""
        self.admission_waits += 1
        self.admission_wait_seconds += seconds

    def record_admission_queue_depth(self, depth: int) -> None:
        """Track the deepest the admission queue ever got."""
        if depth > self.admission_queue_peak:
            self.admission_queue_peak = depth

    def record_shed(self, name: str, tenant: Optional[str] = None,
                    slo_class: Optional[str] = None) -> None:
        """Record one query rejected by the shed overload policy."""
        self.sheds[name] += 1
        if tenant is not None:
            self.sheds_by_tenant[tenant] += 1
        if slo_class is not None:
            self.sheds_by_class[slo_class] += 1

    def record_degraded(self, name: str, tenant: Optional[str] = None,
                        slo_class: Optional[str] = None) -> None:
        """Record one query admitted under degrade-to-cpu."""
        self.degraded_to_cpu[name] += 1
        if tenant is not None:
            self.degraded_by_tenant[tenant] += 1
        if slo_class is not None:
            self.degraded_by_class[slo_class] += 1

    def record_deadline_miss(self, name: str) -> None:
        """Record one query whose deadline elapsed before it finished."""
        self.deadline_misses[name] += 1

    def record_cancel(self, name: str, latency_seconds: float) -> None:
        """Record one completed cancellation and its latency (cancel
        request to the last in-flight worker fully stopped)."""
        self.cancels += 1
        self.cancel_seconds += latency_seconds

    def record_cancelled_query(self, name: str, user: int, start: float,
                               end: float, reason: str,
                               tenant: Optional[str] = None,
                               slo_class: Optional[str] = None) -> None:
        """Record a query that was cancelled instead of finishing;
        drains the pending per-name fault attribution like
        :meth:`record_query` so counts cannot leak onto a later run."""
        self._pending_aborts.pop(name, 0)
        self._pending_wasted.pop(name, 0.0)
        self._pending_retries.pop(name, 0)
        self.cancelled_queries.append(CancelledQueryRecord(
            name=name, user=user, start=start, end=end, reason=reason,
            tenant=tenant, slo_class=slo_class,
        ))

    def record_cancelled_skip(self) -> None:
        """Record a queued operator task skipped because its query was
        cancelled before a worker picked it up."""
        self.cancelled_task_skips += 1

    def record_hedge_started(self) -> None:
        """Record a straggling operator hedged onto the CPU pool."""
        self.hedges_started += 1

    def record_hedge_win(self) -> None:
        """Record a hedge whose CPU copy finished first."""
        self.hedge_wins += 1

    def record_hedge_loss(self) -> None:
        """Record a hedge whose original placement finished first."""
        self.hedge_losses += 1

    def record_hedge_wasted(self, seconds: float) -> None:
        """Record time the losing copy of a hedged operator had spent
        executing when the race resolved — hedging's wasted work."""
        self.hedge_wasted_seconds += seconds

    # -- split-execution hooks ----------------------------------------

    def record_split(self, chosen_ratio: float, realized_ratio: float,
                     rebalances: int, gpu_seconds: float,
                     cpu_seconds: float, degraded: bool = False) -> None:
        """Record one operator executed on the CPU/GPU split path.

        ``chosen_ratio`` is the GPU work fraction the cost model picked
        up front; ``realized_ratio`` the fraction the GPU actually
        completed (lower when the split degraded mid-operator)."""
        self.split_operators += 1
        self.split_rebalances += rebalances
        if degraded:
            self.split_degrades += 1
        self.split_chosen_ratio_sum += chosen_ratio
        self.split_realized_ratio_sum += realized_ratio
        self.split_gpu_seconds += gpu_seconds
        self.split_cpu_seconds += cpu_seconds

    def record_split_decline(self, reason: str) -> None:
        """Record one operator the split path declined (ran pure)."""
        self.split_declines[reason] += 1

    def record_split_wasted(self, seconds: float) -> None:
        """Record GPU time lost when a split half aborted mid-round."""
        self.split_wasted_seconds += seconds

    # -- service-mode hooks -------------------------------------------

    def record_arrival(self, tenant: str, slo_class: str) -> None:
        """Record one streaming query arrival (before admission)."""
        self.arrivals_by_tenant[tenant] += 1
        self.arrivals_by_class[slo_class] += 1

    def record_service_epoch(self) -> None:
        """Record one append batch advancing the table epoch."""
        self.service_epochs += 1

    def record_snapshot_retired(self) -> None:
        """Record one drained snapshot invalidated via the registry."""
        self.snapshots_retired += 1

    def record_starvation_promotion(self) -> None:
        """Record the starvation guard serving an aged tenant queue
        head ahead of the deficit round-robin order."""
        self.starvation_promotions += 1

    def record_phase(self, phase: str, wall_seconds: float) -> None:
        """Accumulate wall-clock time into one harness phase bucket."""
        self.phase_seconds[phase] = (
            self.phase_seconds.get(phase, 0.0) + wall_seconds
        )

    # -- derived views -----------------------------------------------

    @property
    def transfer_seconds(self) -> float:
        """Total PCIe time in both directions."""
        return self.cpu_to_gpu_seconds + self.gpu_to_cpu_seconds

    @property
    def transfer_queue_seconds(self) -> float:
        """Total channel-queueing delay in both directions."""
        return self.h2d_queue_seconds + self.d2h_queue_seconds

    @property
    def overlap_ratio(self) -> float:
        """Fraction of wire time overlapped with device compute."""
        if self.transfer_seconds <= 0:
            return 0.0
        return self.overlapped_transfer_seconds / self.transfer_seconds

    @property
    def bus_utilization(self) -> float:
        """Wire seconds per makespan second.  Above 1.0 means the
        full-duplex channels moved data faster than one serialized bus
        ever could."""
        if self.workload_seconds <= 0:
            return 0.0
        return self.transfer_seconds / self.workload_seconds

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total

    def mean_latency(self, query_name: Optional[str] = None) -> float:
        """Mean latency over all queries (optionally one query name)."""
        records = [
            q for q in self.queries if query_name is None or q.name == query_name
        ]
        if not records:
            return 0.0
        return sum(q.latency for q in records) / len(records)

    def latencies_by_query(self) -> Dict[str, float]:
        """Mean latency keyed by query name."""
        names = sorted({q.name for q in self.queries})
        return {name: self.mean_latency(name) for name in names}

    def latency_percentile(self, fraction: float,
                           query_name: Optional[str] = None) -> float:
        """Latency percentile over all (or one query's) executions.

        ``fraction`` in [0, 1]; uses the nearest-rank method, so the
        returned value is always an observed latency.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("percentile fraction must be in [0, 1]")
        latencies = sorted(
            q.latency for q in self.queries
            if query_name is None or q.name == query_name
        )
        if not latencies:
            return 0.0
        rank = min(int(fraction * len(latencies)), len(latencies) - 1)
        return latencies[rank]

    def tail_latency_report(self) -> Dict[str, Dict[str, float]]:
        """p50/p95/p99 per query — the robustness view the paper's
        worst-case-execution-time goal implies."""
        report: Dict[str, Dict[str, float]] = {}
        for name in sorted({q.name for q in self.queries}):
            report[name] = {
                "p50": self.latency_percentile(0.50, name),
                "p95": self.latency_percentile(0.95, name),
                "p99": self.latency_percentile(0.99, name),
            }
        return report

    def summary(self) -> Dict[str, float]:
        """Flat dictionary used by the harness table printers."""
        return {
            "workload_seconds": self.workload_seconds,
            "cpu_to_gpu_seconds": self.cpu_to_gpu_seconds,
            "gpu_to_cpu_seconds": self.gpu_to_cpu_seconds,
            "cpu_to_gpu_gib": self.cpu_to_gpu_bytes / float(1 << 30),
            "gpu_to_cpu_gib": self.gpu_to_cpu_bytes / float(1 << 30),
            "transfer_queue_seconds": self.transfer_queue_seconds,
            "bus_utilization": self.bus_utilization,
            "overlap_ratio": self.overlap_ratio,
            "coalesced_transfers": float(self.coalesced_transfers),
            "prefetch_transfers": float(self.prefetch_transfers),
            "prefetch_hits": float(self.prefetch_hits),
            "aborts": float(self.aborts),
            "wasted_seconds": self.wasted_seconds,
            "cache_hit_rate": self.cache_hit_rate,
            "peak_heap_gib": self.peak_heap_bytes / float(1 << 30),
        }

    def breaker_transition_counts(self) -> Dict[str, int]:
        """Breaker transitions by target state (open / half_open / closed)."""
        counts: Counter = Counter()
        for _device, _old, new_state, _now in self.breaker_transitions:
            counts[new_state] += 1
        return dict(counts)

    def breaker_open_seconds(
        self, until: Optional[float] = None
    ) -> Dict[str, float]:
        """Simulated seconds each device's breaker spent OPEN.

        Rebuilt from the transition log; an interval still open at the
        end of the run is closed at ``until`` (default: the makespan,
        or the last transition when no makespan was recorded yet).
        Deadline-miss attribution uses this to distinguish
        breaker-open waits from genuine stalls.
        """
        if until is None:
            until = self.workload_seconds
            if not until and self.breaker_transitions:
                until = max(now for _, _, _, now in self.breaker_transitions)
        open_since: Dict[str, float] = {}
        totals: Dict[str, float] = {}
        for device, _old, new_state, now in self.breaker_transitions:
            if new_state == "open":
                open_since.setdefault(device, now)
            elif device in open_since:
                totals[device] = (
                    totals.get(device, 0.0) + now - open_since.pop(device)
                )
        for device, since in open_since.items():
            totals[device] = (
                totals.get(device, 0.0) + max(until - since, 0.0)
            )
        return totals

    def fault_summary(self) -> Dict[str, float]:
        """Fault/resilience view: observed fault aborts per class plus
        retry and breaker totals (all zero when injection is off)."""
        open_seconds = self.breaker_open_seconds()
        summary: Dict[str, float] = {
            "fault_aborts": float(sum(self.faults.values())),
            "retries": float(self.retries),
            "breaker_skips": float(sum(self.breaker_skips.values())),
            "breaker_open_seconds": sum(open_seconds.values()),
        }
        for fault_class, count in sorted(self.faults.items()):
            summary["fault_{}".format(fault_class)] = float(count)
        for state, count in sorted(self.breaker_transition_counts().items()):
            summary["breaker_to_{}".format(state)] = float(count)
        for device, seconds in sorted(open_seconds.items()):
            summary["breaker_open_seconds_{}".format(device)] = seconds
        # service mode: blame chaos to the affected tenant, not just
        # the device (keys absent for batch runs — nothing recorded)
        for tenant, count in sorted(self.aborts_by_tenant.items()):
            summary["fault_aborts_{}".format(tenant)] = float(count)
        for tenant, seconds in sorted(self.wasted_by_tenant.items()):
            summary["wasted_seconds_{}".format(tenant)] = seconds
        return summary

    @staticmethod
    def _rank(sorted_values: List[float], fraction: float) -> float:
        """Nearest-rank percentile over a pre-sorted list."""
        if not sorted_values:
            return 0.0
        rank = min(int(fraction * len(sorted_values)),
                   len(sorted_values) - 1)
        return sorted_values[rank]

    def slo_ledger(
        self, targets: Optional[Dict[str, float]] = None
    ) -> Dict[str, Dict[str, float]]:
        """Per-SLO-class service ledger (empty for batch runs).

        For every class that saw traffic: arrival/completion/shed/
        degrade/cancel counts, completed-latency percentiles
        (p50/p99/p999 over arrival-to-completion), admission wait vs
        service time, chaos attribution, and — when ``targets`` maps
        the class to a latency target in simulated seconds — the
        attainment: the fraction of *arrived* queries that completed
        within the target, so shed and cancelled queries count against
        it."""
        targets = targets or {}
        classes = set(self.arrivals_by_class)
        classes.update(q.slo_class for q in self.queries
                       if q.slo_class is not None)
        ledger: Dict[str, Dict[str, float]] = {}
        for cls in sorted(classes):
            records = [q for q in self.queries if q.slo_class == cls]
            cancelled = [c for c in self.cancelled_queries
                         if c.slo_class == cls]
            latencies = sorted(q.latency for q in records)
            arrived = self.arrivals_by_class.get(cls, len(records))
            entry = {
                "arrivals": float(arrived),
                "completed": float(len(records)),
                "shed": float(self.sheds_by_class.get(cls, 0)),
                "degraded": float(self.degraded_by_class.get(cls, 0)),
                "cancelled": float(len(cancelled)),
                "p50": self._rank(latencies, 0.50),
                "p99": self._rank(latencies, 0.99),
                "p999": self._rank(latencies, 0.999),
                "mean_wait": (
                    sum(q.wait_seconds for q in records) / len(records)
                    if records else 0.0
                ),
                "mean_service": (
                    sum(q.service_seconds for q in records) / len(records)
                    if records else 0.0
                ),
                "aborts": float(sum(q.aborts for q in records)),
                "wasted_seconds": sum(q.wasted_seconds for q in records),
                "retries": float(sum(q.retries for q in records)),
            }
            if cls in targets:
                target = targets[cls]
                within = sum(1 for q in records if q.latency <= target)
                entry["target"] = target
                entry["attainment"] = (
                    within / arrived if arrived else 1.0
                )
            ledger[cls] = entry
        return ledger

    def tenant_ledger(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant service ledger (empty for batch runs)."""
        tenants = set(self.arrivals_by_tenant)
        tenants.update(q.tenant for q in self.queries
                       if q.tenant is not None)
        ledger: Dict[str, Dict[str, float]] = {}
        for tenant in sorted(tenants):
            records = [q for q in self.queries if q.tenant == tenant]
            latencies = sorted(q.latency for q in records)
            ledger[tenant] = {
                "arrivals": float(self.arrivals_by_tenant.get(
                    tenant, len(records))),
                "completed": float(len(records)),
                "shed": float(self.sheds_by_tenant.get(tenant, 0)),
                "degraded": float(self.degraded_by_tenant.get(tenant, 0)),
                "cancelled": float(sum(
                    1 for c in self.cancelled_queries
                    if c.tenant == tenant)),
                "p50": self._rank(latencies, 0.50),
                "p99": self._rank(latencies, 0.99),
                "mean_wait": (
                    sum(q.wait_seconds for q in records) / len(records)
                    if records else 0.0
                ),
                "aborts": float(self.aborts_by_tenant.get(tenant, 0)),
                "wasted_seconds": self.wasted_by_tenant.get(tenant, 0.0),
                "retries": float(self.retries_by_tenant.get(tenant, 0)),
            }
        return ledger

    def tenant_fault_report(self) -> Dict[str, Dict[str, float]]:
        """Chaos blame per tenant: fault-class counts plus abort,
        wasted-time, and retry totals (empty when nothing faulted under
        a tenant-attributed query)."""
        report: Dict[str, Dict[str, float]] = {}
        for (fault_class, tenant), count in sorted(
                self.faults_by_tenant.items()):
            entry = report.setdefault(tenant, {})
            entry["fault_{}".format(fault_class)] = float(count)
        for tenant in sorted(self.aborts_by_tenant):
            entry = report.setdefault(tenant, {})
            entry["aborts"] = float(self.aborts_by_tenant[tenant])
            entry["wasted_seconds"] = self.wasted_by_tenant.get(
                tenant, 0.0)
        for tenant, count in sorted(self.retries_by_tenant.items()):
            report.setdefault(tenant, {})["retries"] = float(count)
        return report

    def service_summary(self) -> Dict[str, float]:
        """Service-mode view: open-system traffic, fair-share, and
        epoch-mutation totals (all zero when no service harness ran)."""
        return {
            "arrivals": float(sum(self.arrivals_by_tenant.values())),
            "tenants": float(len(self.arrivals_by_tenant)),
            "tenant_sheds": float(sum(self.sheds_by_tenant.values())),
            "tenant_degrades": float(sum(
                self.degraded_by_tenant.values())),
            "starvation_promotions": float(self.starvation_promotions),
            "service_epochs": float(self.service_epochs),
            "snapshots_retired": float(self.snapshots_retired),
        }

    def lifecycle_summary(self) -> Dict[str, float]:
        """Query-lifecycle view: backpressure, deadline, cancel, and
        hedging totals (all zero when the lifecycle layer is off)."""
        return {
            "admission_waits": float(self.admission_waits),
            "admission_wait_seconds": self.admission_wait_seconds,
            "admission_queue_peak": float(self.admission_queue_peak),
            "shed_queries": float(sum(self.sheds.values())),
            "degraded_queries": float(sum(self.degraded_to_cpu.values())),
            "deadline_misses": float(sum(self.deadline_misses.values())),
            "cancelled_queries": float(len(self.cancelled_queries)),
            "cancels_drained": float(self.cancels),
            "cancel_seconds": self.cancel_seconds,
            "mean_cancel_latency": (
                self.cancel_seconds / self.cancels if self.cancels else 0.0
            ),
            "cancelled_task_skips": float(self.cancelled_task_skips),
            "hedges_started": float(self.hedges_started),
            "hedge_wins": float(self.hedge_wins),
            "hedge_losses": float(self.hedge_losses),
            "hedge_wasted_seconds": self.hedge_wasted_seconds,
        }

    def split_summary(self) -> Dict[str, float]:
        """Split-execution view: operators split, mean chosen/realized
        GPU ratios, rebalances, degrades, per-side busy time, and
        decline totals (all zero when the split path is off)."""
        ops = self.split_operators
        return {
            "split_operators": float(ops),
            "split_mean_chosen_ratio": (
                self.split_chosen_ratio_sum / ops if ops else 0.0
            ),
            "split_mean_realized_ratio": (
                self.split_realized_ratio_sum / ops if ops else 0.0
            ),
            "split_rebalances": float(self.split_rebalances),
            "split_degrades": float(self.split_degrades),
            "split_declines": float(sum(self.split_declines.values())),
            "split_gpu_seconds": self.split_gpu_seconds,
            "split_cpu_seconds": self.split_cpu_seconds,
            "split_wasted_seconds": self.split_wasted_seconds,
        }

    def per_query_fault_report(self) -> Dict[str, Dict[str, float]]:
        """Aborts, wasted time, and retries aggregated per query name."""
        report: Dict[str, Dict[str, float]] = {}
        for record in self.queries:
            entry = report.setdefault(record.name, {
                "executions": 0.0, "aborts": 0.0,
                "wasted_seconds": 0.0, "retries": 0.0,
            })
            entry["executions"] += 1
            entry["aborts"] += record.aborts
            entry["wasted_seconds"] += record.wasted_seconds
            entry["retries"] += record.retries
        return report

    def record_pool(self, counters: Dict[str, int],
                    process_faults: Optional[Dict[str, int]] = None,
                    process_fault_digest: Optional[str] = None,
                    degraded: Optional[str] = None,
                    fallbacks: int = 0,
                    orphans_reaped: int = 0) -> None:
        """Absorb one MorselPool run's self-healing counters."""
        self.worker_crashes += int(counters.get("worker_crashes", 0))
        self.worker_hangs += int(counters.get("worker_hangs", 0))
        self.heartbeat_misses += int(counters.get("heartbeat_misses", 0))
        self.worker_restarts += int(counters.get("worker_restarts", 0))
        self.worker_slow_exits += int(counters.get("worker_slow_exits", 0))
        self.worker_init_failures += int(
            counters.get("worker_init_failures", 0))
        self.chunk_requeues += int(counters.get("chunk_requeues", 0))
        self.chunk_quarantines += int(counters.get("chunk_quarantines", 0))
        self.pool_degrades += int(counters.get("pool_degrades", 0))
        self.degraded_chunks += int(counters.get("degraded_chunks", 0))
        self.float_gate_declines += int(
            counters.get("float_gate_declines", 0))
        self.shm_reexports += int(counters.get("shm_reexports", 0))
        self.shm_integrity_failures += int(
            counters.get("shm_integrity_failures", 0))
        self.pool_fallbacks += int(fallbacks)
        self.shm_orphans_reaped += int(orphans_reaped)
        if degraded is not None:
            self.pool_degrade_reason = degraded
        if process_faults:
            self.process_faults.update(process_faults)
        if process_fault_digest is not None:
            self.process_fault_digest = process_fault_digest

    def pool_summary(self) -> Dict[str, float]:
        """Self-healing pool view: crash/hang recovery, quarantine, and
        shm-integrity counters (all zero when no pool ran faulted)."""
        return {
            "worker_crashes": float(self.worker_crashes),
            "worker_hangs": float(self.worker_hangs),
            "heartbeat_misses": float(self.heartbeat_misses),
            "worker_restarts": float(self.worker_restarts),
            "worker_slow_exits": float(self.worker_slow_exits),
            "worker_init_failures": float(self.worker_init_failures),
            "chunk_requeues": float(self.chunk_requeues),
            "chunk_quarantines": float(self.chunk_quarantines),
            "pool_degrades": float(self.pool_degrades),
            "degraded_chunks": float(self.degraded_chunks),
            "pool_fallbacks": float(self.pool_fallbacks),
            "float_gate_declines": float(self.float_gate_declines),
            "shm_reexports": float(self.shm_reexports),
            "shm_integrity_failures": float(self.shm_integrity_failures),
            "shm_orphans_reaped": float(self.shm_orphans_reaped),
            "process_faults_planned": float(sum(
                self.process_faults.values())),
        }
