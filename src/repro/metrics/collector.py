"""Collects the measurements the paper reports.

One :class:`MetricsCollector` instance accompanies one workload run and
records everything Figures 1–25 need.  What every operator touches is a
scalar field with a method of its own: per-query latencies; PCIe time,
volume and channel queueing per direction; the copy engine's coalesced
copies, prefetch traffic and hits, and wire time overlapped with
compute; abort counts and the *wasted time* metric (Sec. 6.2.2: time
from operator begin to abort, accumulated); operator counts and busy
time per processor; peak heap usage and cache hits.

Everything rarer — a shed, a degrade, a deadline miss, a hedge, a split
round, a breaker skip, an arrival, a pool respawn, the fault class,
device and tenant of an abort — is booked **once**, with labels, into
the one labelled counter (:meth:`MetricsCollector.count`), and every
``*_summary`` / ``*_ledger`` / ``*_report`` view is a selection over it
(:meth:`~MetricsCollector.total`, :meth:`~MetricsCollector.by`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: what ``harness.parallel.MorselPool`` counts, in the order
#: :meth:`MetricsCollector.pool_summary` reports it — the one place
#: outside the pool that spells the names
POOL_COUNTS = (
    "worker_crashes", "worker_hangs", "heartbeat_misses", "hang_cpu_grants",
    "worker_restarts", "worker_slow_exits", "worker_init_failures",
    "chunk_requeues", "chunk_quarantines", "pool_degrades",
    "degraded_chunks", "pool_fallbacks", "float_gate_declines",
    "shm_reexports", "shm_integrity_failures", "shm_orphans_reaped",
)


def _nearest_rank(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile over a pre-sorted list, so the value is
    always an observed one (0.0 for no observations)."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(int(fraction * len(sorted_values)),
                             len(sorted_values) - 1)]


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


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
        return (0.0 if self.admitted_at is None
                else self.admitted_at - self.start)

    @property
    def service_seconds(self) -> float:
        """Time from dispatch to completion."""
        return (self.latency if self.admitted_at is None
                else self.end - self.admitted_at)


@dataclass
class CancelledQueryRecord(QueryRecord):
    """One query that was cancelled (deadline or explicit) mid-flight;
    ``end`` is when, and nothing is attributed to it."""

    reason: str = "cancelled"


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
    #: transient-fault retries
    retries: int = 0
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
    #: deepest the admission queue ever got
    admission_queue_peak: int = 0
    #: the labelled counter, ``(name, sorted (label, value) pairs) ->
    #: amount``: every rare event, booked once by :meth:`count`
    counts: Dict[tuple, float] = field(default_factory=dict)
    #: circuit-breaker transitions: (device, old_state, new_state, time)
    breaker_transitions: List[Tuple[str, str, str, float]] = field(
        default_factory=list)
    #: per-query latency records
    queries: List[QueryRecord] = field(default_factory=list)
    #: queries cancelled (deadline or explicit) instead of finishing
    cancelled_queries: List[CancelledQueryRecord] = field(
        default_factory=list)
    #: ``[aborts, wasted seconds, retries]`` per query name not yet
    #: attributed to a finished QueryRecord (drained by record_query)
    _pending: Dict[str, list] = field(default_factory=dict, repr=False)
    #: makespan of the run (set by the harness)
    workload_seconds: float = 0.0
    #: *wall-clock* seconds per harness phase (plan / des / numpy /
    #: validate) — the real time the host spends producing a run, as
    #: opposed to every other field, which is simulated time.  This is
    #: what the throughput benchmarks optimise.
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    # -- the labelled counter ------------------------------------------

    def count(self, name: str, amount: float = 1, **labels) -> None:
        """Book ``amount`` of the rare event ``name`` under the labels
        the caller knows (query, tenant, slo_class, device, ...; ``None``
        means unknown).  A float total that a view reports as one running
        sum has a name of its own, so it is added up in event order."""
        key = (name, tuple(sorted(labels.items())))
        self.counts[key] = self.counts.get(key, 0) + amount

    def total(self, name: str, **match) -> float:
        """Everything booked as ``name`` whose labels include ``match``."""
        wanted = set(match.items())
        amount = 0
        for (booked, labels), value in self.counts.items():
            if booked == name and wanted.issubset(labels):
                amount += value
        return amount

    def by(self, name: str, *labels: str) -> Dict[object, float]:
        """``name`` grouped by a label: ``{label value: amount}`` over
        the bookings that know it (by several labels: keyed by the tuple
        of their values)."""
        groups: Dict[object, float] = {}
        for (booked, pairs), value in self.counts.items():
            if booked == name:
                known = dict(pairs)
                key = tuple(map(known.get, labels))
                if None not in key:
                    key = key[0] if len(key) == 1 else key
                    groups[key] = groups.get(key, 0) + value
        return groups

    # -- recording hooks ---------------------------------------------

    def record_transfer(self, direction: str, nbytes: int, seconds: float,
                        overlapped: bool = False) -> None:
        """Record one PCIe transfer; direction is 'h2d' or 'd2h'.
        ``overlapped``: the destination device was computing, so the
        wire time was hidden behind compute."""
        if direction == "h2d":
            self.cpu_to_gpu_seconds += seconds
            self.cpu_to_gpu_bytes += nbytes
        elif direction == "d2h":
            self.gpu_to_cpu_seconds += seconds
            self.gpu_to_cpu_bytes += nbytes
        else:
            raise ValueError("unknown transfer direction {!r}".format(direction))
        if overlapped:
            self.overlapped_transfer_seconds += seconds

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
        # what count("aborts", device=, fault=, tenant=) books, written
        # out: heap-contention aborts are the one labelled event of a
        # plain batch run (Figs. 3, 12, 14: hundreds per grid), where a
        # second call per abort would show in the metrics layer
        key = ("aborts", (("device", device), ("fault", fault),
                          ("tenant", tenant)))
        self.counts[key] = self.counts.get(key, 0) + 1
        if tenant is not None:
            self.count("tenant_wasted_seconds", wasted_seconds,
                       tenant=tenant)
        if query is not None:
            pending = self._pending.setdefault(query, [0, 0.0, 0])
            pending[0] += 1
            pending[1] += wasted_seconds

    def record_retry(self, device: Optional[str] = None,
                     fault: Optional[str] = None,
                     query: Optional[str] = None,
                     tenant: Optional[str] = None) -> None:
        """Record one transient-fault retry of a device attempt."""
        self.retries += 1
        self.count("retries", device=device, tenant=tenant)
        if query is not None:
            self._pending.setdefault(query, [0, 0.0, 0])[2] += 1

    def record_breaker_transition(self, device: str, old_state: str,
                                  new_state: str, now: float) -> None:
        """Record a circuit-breaker state change on ``device``."""
        self.breaker_transitions.append((device, old_state, new_state, now))

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
            self.busy_seconds.get(processor_name, 0.0) + busy_seconds)

    def record_algorithm(self, cost_key: str) -> None:
        """Record the algorithm HyPE selected for one execution."""
        self.algorithms[cost_key] += 1

    def record_heap_usage(self, used_bytes: int) -> None:
        if used_bytes > self.peak_heap_bytes:
            self.peak_heap_bytes = used_bytes

    def record_admission_queue_depth(self, depth: int) -> None:
        """Track the deepest the admission queue ever got."""
        if depth > self.admission_queue_peak:
            self.admission_queue_peak = depth

    def record_query(self, name: str, user: int, start: float, end: float,
                     tenant: Optional[str] = None,
                     slo_class: Optional[str] = None,
                     admitted_at: Optional[float] = None) -> None:
        """Record one finished query, draining the abort/retry totals
        attributed to its name since the previous record."""
        aborts, wasted, retries = self._pending.pop(name, (0, 0.0, 0))
        self.queries.append(QueryRecord(
            name=name, user=user, start=start, end=end, aborts=aborts,
            wasted_seconds=wasted, retries=retries,
            tenant=tenant, slo_class=slo_class, admitted_at=admitted_at,
        ))

    def record_cancelled_query(self, name: str, user: int, start: float,
                               end: float, reason: str,
                               tenant: Optional[str] = None,
                               slo_class: Optional[str] = None) -> None:
        """Record a query that was cancelled instead of finishing;
        drains the pending per-name fault attribution like
        :meth:`record_query` so counts cannot leak onto a later run."""
        self._pending.pop(name, None)
        self.cancelled_queries.append(CancelledQueryRecord(
            name=name, user=user, start=start, end=end, reason=reason,
            tenant=tenant, slo_class=slo_class,
        ))

    def record_phase(self, phase: str, wall_seconds: float) -> None:
        """Accumulate wall-clock time into one harness phase bucket."""
        self.phase_seconds[phase] = (
            self.phase_seconds.get(phase, 0.0) + wall_seconds)

    def close(self, now: float) -> None:
        """The run ended at simulated ``now``.  The makespan ends with
        the last query (completed or cancelled), not with trailing
        background prefetch traffic that may still drain after it
        (identical to ``now`` when no prefetcher runs)."""
        ends = [query.end for query in self.queries]
        ends.extend(query.end for query in self.cancelled_queries)
        self.workload_seconds = max(ends, default=now)

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

    def _latencies(self, query_name: Optional[str]) -> List[float]:
        return [q.latency for q in self.queries
                if query_name is None or q.name == query_name]

    def mean_latency(self, query_name: Optional[str] = None) -> float:
        """Mean latency over all queries (optionally one query name)."""
        return _mean(self._latencies(query_name))

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
        return _nearest_rank(sorted(self._latencies(query_name)), fraction)

    def tail_latency_report(self) -> Dict[str, Dict[str, float]]:
        """p50/p95/p99 per query — the robustness view the paper's
        worst-case-execution-time goal implies."""
        return {name: {"p50": self.latency_percentile(0.50, name),
                       "p95": self.latency_percentile(0.95, name),
                       "p99": self.latency_percentile(0.99, name)}
                for name in sorted({q.name for q in self.queries})}

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
        return dict(Counter(
            new_state for _, _, new_state, _ in self.breaker_transitions))

    def breaker_open_seconds(self) -> Dict[str, float]:
        """Simulated seconds each device's breaker spent OPEN.

        Rebuilt from the transition log; an interval still open at the
        end of the run is closed at the makespan (or at the last
        transition when no makespan was recorded yet).
        """
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
                    totals.get(device, 0.0) + now - open_since.pop(device))
        for device, since in open_since.items():
            totals[device] = (
                totals.get(device, 0.0) + max(until - since, 0.0))
        return totals

    def fault_summary(self) -> Dict[str, float]:
        """Fault/resilience view: observed fault aborts per class plus
        retry and breaker totals (all zero when injection is off)."""
        open_seconds = self.breaker_open_seconds()
        faults = self.by("aborts", "fault")
        summary: Dict[str, float] = {
            "fault_aborts": float(sum(faults.values())),
            "retries": float(self.retries),
            "breaker_skips": float(self.total("breaker_skips")),
            "breaker_open_seconds": sum(open_seconds.values()),
        }
        for fault_class, count in sorted(faults.items()):
            summary["fault_{}".format(fault_class)] = float(count)
        for state, count in sorted(self.breaker_transition_counts().items()):
            summary["breaker_to_{}".format(state)] = float(count)
        for device, seconds in sorted(open_seconds.items()):
            summary["breaker_open_seconds_{}".format(device)] = seconds
        # service mode: blame chaos to the affected tenant, not just
        # the device (keys absent for batch runs — nothing recorded)
        for tenant, count in sorted(self.by("aborts", "tenant").items()):
            summary["fault_aborts_{}".format(tenant)] = float(count)
        for tenant, seconds in sorted(
                self.by("tenant_wasted_seconds", "tenant").items()):
            summary["wasted_seconds_{}".format(tenant)] = seconds
        return summary

    def _ledger(self, label: str, targets: Dict[str, float]
                ) -> Dict[str, Dict[str, float]]:
        """The service ledger per value of ``label`` that saw traffic.
        Per ``"slo_class"`` the chaos columns are what the class's
        finished records carry (name-keyed attribution), per
        ``"tenant"`` what the aborts and retries themselves were booked
        under (exact)."""
        per_class = label == "slo_class"
        arrivals = self.by("arrivals", label)
        groups = set(arrivals)
        groups.update(getattr(q, label) for q in self.queries
                      if getattr(q, label) is not None)
        ledger: Dict[str, Dict[str, float]] = {}
        for group in sorted(groups):
            where = {label: group}
            records = [q for q in self.queries if getattr(q, label) == group]
            latencies = sorted(q.latency for q in records)
            arrived = arrivals.get(group, len(records))
            entry = ledger[group] = {
                "arrivals": float(arrived),
                "completed": float(len(records)),
                "shed": float(self.total("sheds", **where)),
                "degraded": float(self.total("degraded", **where)),
                "cancelled": float(sum(
                    1 for c in self.cancelled_queries
                    if getattr(c, label) == group)),
                "p50": _nearest_rank(latencies, 0.50),
                "p99": _nearest_rank(latencies, 0.99),
            }
            if per_class:
                entry["p999"] = _nearest_rank(latencies, 0.999)
            entry["mean_wait"] = _mean([q.wait_seconds for q in records])
            if not per_class:
                entry["aborts"] = float(self.total("aborts", **where))
                entry["wasted_seconds"] = float(
                    self.total("tenant_wasted_seconds", **where))
                entry["retries"] = float(self.total("retries", **where))
                continue
            entry["mean_service"] = _mean(
                [q.service_seconds for q in records])
            entry["aborts"] = float(sum(q.aborts for q in records))
            entry["wasted_seconds"] = sum(q.wasted_seconds for q in records)
            entry["retries"] = float(sum(q.retries for q in records))
            if group in targets:
                within = sum(
                    1 for q in records if q.latency <= targets[group])
                entry["target"] = targets[group]
                entry["attainment"] = within / arrived if arrived else 1.0
        return ledger

    def slo_ledger(self, targets: Optional[Dict[str, float]] = None
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
        return self._ledger("slo_class", targets or {})

    def tenant_ledger(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant service ledger (empty for batch runs)."""
        return self._ledger("tenant", {})

    def tenant_fault_report(self) -> Dict[str, Dict[str, float]]:
        """Chaos blame per tenant: fault-class counts plus abort,
        wasted-time, and retry totals (empty when nothing faulted under
        a tenant-attributed query)."""
        wasted = self.by("tenant_wasted_seconds", "tenant")
        report: Dict[str, Dict[str, float]] = {}
        for (fault_class, tenant), count in sorted(
                self.by("aborts", "fault", "tenant").items()):
            entry = report.setdefault(tenant, {})
            entry["fault_{}".format(fault_class)] = float(count)
        for tenant, count in sorted(self.by("aborts", "tenant").items()):
            entry = report.setdefault(tenant, {})
            entry["aborts"] = float(count)
            entry["wasted_seconds"] = wasted.get(tenant, 0.0)
        for tenant, count in sorted(self.by("retries", "tenant").items()):
            report.setdefault(tenant, {})["retries"] = float(count)
        return report

    def _totals(self, *names: str) -> Dict[str, float]:
        """The columns of a view that are one count's total, by name."""
        return {name: float(self.total(name)) for name in names}

    def service_summary(self) -> Dict[str, float]:
        """Service-mode view: open-system traffic, fair-share, and
        epoch-mutation totals (all zero when no service harness ran)."""
        arrivals = self.by("arrivals", "tenant")
        return {
            "arrivals": float(sum(arrivals.values())),
            "tenants": float(len(arrivals)),
            "tenant_sheds": float(sum(self.by("sheds", "tenant").values())),
            "tenant_degrades": float(sum(self.by("degraded", "tenant").values())),
            **self._totals("starvation_promotions", "service_epochs",
                           "snapshots_retired"),
        }

    def lifecycle_summary(self) -> Dict[str, float]:
        """Query-lifecycle view: backpressure, deadline, cancel, and
        hedging totals (all zero when the lifecycle layer is off)."""
        cancels = self.total("cancels")
        cancel_seconds = float(self.total("cancel_seconds"))
        return {
            **self._totals("admission_waits", "admission_wait_seconds"),
            "admission_queue_peak": float(self.admission_queue_peak),
            "shed_queries": float(self.total("sheds")),
            "degraded_queries": float(self.total("degraded")),
            "deadline_misses": float(self.total("deadline_misses")),
            "cancelled_queries": float(len(self.cancelled_queries)),
            "cancels_drained": float(cancels),
            "cancel_seconds": cancel_seconds,
            "mean_cancel_latency": cancel_seconds / cancels if cancels else 0.0,
            **self._totals("cancelled_task_skips", "hedges_started"),
            "hedge_wins": float(self.total("hedge_races", won=True)),
            "hedge_losses": float(self.total("hedge_races", won=False)),
            "hedge_wasted_seconds": float(self.total("hedge_wasted_seconds")),
        }

    def split_summary(self) -> Dict[str, float]:
        """Split-execution view: operators split, mean chosen/realized
        GPU ratios, rebalances, degrades, per-side busy time, and
        decline totals (all zero when the split path is off)."""
        ops = self.total("split_operators")
        return {
            "split_operators": float(ops),
            "split_mean_chosen_ratio": (
                self.total("split_chosen_ratio") / ops if ops else 0.0),
            "split_mean_realized_ratio": (
                self.total("split_realized_ratio") / ops if ops else 0.0),
            "split_rebalances": float(self.total("split_rebalances")),
            "split_degrades": float(
                self.total("split_operators", degraded=True)),
            **self._totals("split_declines", "split_gpu_seconds",
                           "split_cpu_seconds", "split_wasted_seconds"),
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

    def pool_summary(self) -> Dict[str, float]:
        """Self-healing pool view: crash/hang recovery, quarantine, and
        shm-integrity counters (all zero when no pool ran faulted)."""
        return {**self._totals(*POOL_COUNTS),
                "process_faults_planned": float(self.total("process_faults"))}
