"""Deterministic, seed-driven fault injection.

The paper's whole point is *robust* query processing, yet the only
fault the seed simulation models is :class:`DeviceOutOfMemory`.  Real
co-processor stacks also see transient PCIe transfer errors, kernel
launch failures, driver stalls, and full device resets; systems like
Theseus treat surviving them via degraded execution as a first-class
design goal.  Measuring that requires a *deterministic* way to inject
faults — this module provides it.

Design:

* :class:`FaultConfig` — per-fault-class rates plus the retry/breaker
  tuning the resilience layer uses.  Parsed from the CLI ``--faults``
  flag or the ``REPRO_FAULTS`` environment variable
  (``"pcie=0.01,kernel=0.005,seed=42"``; a bare number applies one
  uniform rate to every class).
* :class:`FaultInjector` — one per workload run, holding an independent
  seeded RNG stream *per fault class*.  Each injection site in the
  hardware layer (:mod:`repro.hardware.copy_engine`, ``processor``,
  ``memory``) rolls its class's stream; because the DES executes events in a fixed
  deterministic order, the same seed always produces the same fault
  schedule.  The injector keeps an order-sensitive digest of every
  injected fault so two runs can be compared exactly.

Zero-overhead guarantee: when no injector is installed (the default)
every hook is a single ``is None`` check, and simulated timings and
results are byte-identical to a build without the subsystem.  Faults
may cost time, never correctness: the functional result of every
operator is produced by the same numpy implementations regardless of
how many attempts the simulation needed.
"""

from __future__ import annotations

import hashlib
import os
import random
from collections import Counter
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, Optional

#: Fault classes the injector can raise, in the (fixed) order their
#: rate fields appear on :class:`FaultConfig`.
FAULT_CLASSES = ("pcie", "kernel", "stall", "heap", "reset")

#: Process-level fault classes injected into real OS worker processes
#: (MorselPool).  Kept separate from the hardware classes above so a
#: uniform hardware rate never implies killing workers, and vice versa.
PROCESS_FAULT_CLASSES = ("crash", "hang", "slowexit", "unlinkrace")

#: Wall-clock seconds a slow-exiting worker lingers before dying.
SLOWEXIT_SECONDS = 0.05

#: Environment variable consulted when the CLI gives no ``--faults``.
FAULTS_ENV = "REPRO_FAULTS"


def parse_spec(cls, spec: str, what: str, aliases=None, bare_fields=()):
    """Parse ``"key=value,key=value"`` into the dataclass ``cls``.

    A value converts by its field's declared type (int, float, else
    the stripped string).  ``aliases`` maps short keys to field names.
    An entry without ``=`` must be a number and sets every field of
    ``bare_fields`` no explicit key set — with no ``bare_fields`` it is
    an error.  ``what`` names the spec in error messages.
    """
    convert = {
        f.name: (int if "int" in str(f.type)
                 else float if "float" in str(f.type) else str.strip)
        for f in fields(cls)
    }
    aliases = aliases or {}
    values: Dict[str, object] = {}
    bare: Optional[float] = None
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, equals, raw = part.partition("=")
        if not equals:
            if bare_fields:
                try:
                    bare = float(part)
                    continue
                except ValueError:
                    pass
            raise ValueError("{} spec entry {!r} is {} key=value".format(
                what, part, "neither a rate nor" if bare_fields else "not"))
        key = aliases.get(key.strip(), key.strip())
        if key not in convert:
            raise ValueError(
                "unknown {} spec key {!r}; expected one of {}".format(
                    what, key, ", ".join(sorted(convert))))
        try:
            values[key] = convert[key](raw)
        except ValueError:
            raise ValueError("{} spec {}={!r} is not a number".format(
                what, key, raw)) from None
    if bare is not None:
        for name in bare_fields:
            values.setdefault(name, bare)
    return cls(**values)


def coerce_spec(cls, value):
    """None, a spec string (``cls.parse``), or a ready ``cls``."""
    if value is None or isinstance(value, cls):
        return value
    if isinstance(value, str):
        return cls.parse(value)
    raise TypeError("expected None, a spec string, or a {}; got {!r}".format(
        cls.__name__, type(value).__name__))


@dataclass(frozen=True)
class FaultConfig:
    """Injection rates and resilience tuning for one workload run.

    Rates are per *injection opportunity* (one PCIe transfer, one
    kernel submission, one heap allocation), not per second, so a rate
    of 0.01 means roughly one fault per hundred hardware interactions.
    """

    #: transient PCIe transfer corruption (per transfer on a GPU path)
    pcie: float = 0.0
    #: spurious kernel launch failure (per device submission)
    kernel: float = 0.0
    #: driver stall killed by the watchdog (per device submission)
    stall: float = 0.0
    #: spurious heap-pressure spike (per device heap allocation)
    heap: float = 0.0
    #: forced device reset flushing the column cache (per submission)
    reset: float = 0.0
    #: RNG seed; the full fault schedule is a pure function of
    #: (seed, rates, workload)
    seed: int = 7
    #: simulated watchdog interval a stalled kernel burns before failing
    stall_seconds: float = 0.05
    #: transient-fault retries per operator attempt before CPU fallback
    max_retries: int = 3
    #: consecutive transient failures that open a device's breaker
    breaker_threshold: int = 3
    #: simulated seconds an open breaker waits before half-opening
    breaker_open_seconds: float = 0.25
    #: concurrent recovery probes admitted while half-open
    breaker_probes: int = 1
    #: worker process killed with os._exit mid-chunk (per pool chunk)
    crash: float = 0.0
    #: worker stops heartbeating mid-chunk; the watchdog kills it
    hang: float = 0.0
    #: worker finishes its chunk, then exits instead of taking more work
    slowexit: float = 0.0
    #: worker unlinks the shared segment and dies, racing pool cleanup
    unlinkrace: float = 0.0
    #: consecutive executions of one chunk a crash directive survives;
    #: 2 deterministically exercises poison-chunk quarantine
    crash_repeats: int = 1
    #: wall-clock seconds an injected hang sleeps (the watchdog should
    #: kill the worker long before this elapses)
    hang_seconds: float = 30.0

    def __post_init__(self):
        for name in FAULT_CLASSES + PROCESS_FAULT_CLASSES:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    "fault rate {}={} outside [0, 1]".format(name, rate)
                )
        if self.crash_repeats < 1:
            raise ValueError("crash_repeats must be >= 1")
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be >= 0")
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.breaker_threshold < 1 or self.breaker_probes < 1:
            raise ValueError("breaker threshold and probes must be >= 1")
        if self.breaker_open_seconds < 0:
            raise ValueError("breaker_open_seconds must be >= 0")

    # -- constructors ---------------------------------------------------

    @classmethod
    def uniform(cls, rate: float, **overrides) -> "FaultConfig":
        """One rate applied to every *hardware* fault class."""
        values = {name: rate for name in FAULT_CLASSES}
        values.update(overrides)
        return cls(**values)

    @classmethod
    def parse(cls, spec: str) -> "FaultConfig":
        """Parse a ``--faults`` / ``REPRO_FAULTS`` spec string.

        ``"pcie=0.01,kernel=0.005,seed=42"`` sets individual knobs (any
        :class:`FaultConfig` field name is accepted); a bare number
        (``"0.02"``) applies one uniform rate to every fault class.
        """
        if not spec.strip():
            raise ValueError("empty fault spec")
        return parse_spec(cls, spec, "fault", bare_fields=FAULT_CLASSES)

    @classmethod
    def from_env(cls) -> Optional["FaultConfig"]:
        """Config from ``$REPRO_FAULTS`` (None when unset/empty)."""
        raw = os.environ.get(FAULTS_ENV, "").strip()
        if not raw:
            return None
        return cls.parse(raw)

    @classmethod
    def coerce(cls, value) -> Optional["FaultConfig"]:
        """Accept None, a spec string, or a ready config."""
        return coerce_spec(cls, value)

    # -- queries --------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when any hardware fault class has a nonzero rate."""
        return any(getattr(self, name) > 0.0 for name in FAULT_CLASSES)

    @property
    def process_enabled(self) -> bool:
        """True when any process fault class has a nonzero rate."""
        return any(getattr(self, name) > 0.0
                   for name in PROCESS_FAULT_CLASSES)


class FaultInjector:
    """Rolls the dice for every hardware injection site.

    One stream per fault class (seeded from ``(seed, class)``) keeps
    the schedule of one class independent of the others' rates: raising
    the PCIe rate does not shift which kernel launches fail.  The DES
    processes events in a deterministic order, so every stream is
    consumed identically across runs with the same seed and workload —
    the determinism gate in CI asserts this by comparing
    :meth:`schedule_digest` across two runs.
    """

    def __init__(self, config: FaultConfig,
                 clock: Optional[Callable[[], float]] = None):
        self.config = config
        self._clock = clock
        self._streams: Dict[str, random.Random] = {
            name: random.Random("{}:{}".format(config.seed, name))
            for name in FAULT_CLASSES
        }
        #: injected fault counts per class and per (class, device)
        self.injected: Counter = Counter()
        self.injected_by_device: Counter = Counter()
        self._digest = hashlib.sha256()

    # -- the injection sites call these ---------------------------------

    def roll(self, fault_class: str, device: str) -> bool:
        """One injection opportunity; True means *inject now*.

        A successful roll is recorded (counter + order-sensitive
        digest) before the hardware raises, so the schedule is
        observable even when a fault is swallowed by a retry.
        """
        rate = getattr(self.config, fault_class)
        if rate <= 0.0:
            return False
        if self._streams[fault_class].random() >= rate:
            return False
        self.injected[fault_class] += 1
        self.injected_by_device[(fault_class, device)] += 1
        now = self._clock() if self._clock is not None else 0.0
        self._digest.update(
            "{}:{}:{:.9f};".format(fault_class, device, now).encode()
        )
        return True

    def fraction(self, fault_class: str) -> float:
        """Deterministic [0, 1) draw from the class stream.

        Used for partial-progress sizing (e.g. how far a PCIe transfer
        got before it failed).  Only consumed after a successful
        :meth:`roll`, so it never shifts the schedule of runs that do
        not inject.
        """
        return self._streams[fault_class].random()

    # -- reporting -------------------------------------------------------

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def schedule_digest(self) -> str:
        """Order-sensitive fingerprint of every injected fault
        (class, device, simulated time) — the determinism gate."""
        return self._digest.hexdigest()

    def summary(self) -> Dict[str, int]:
        """Injected fault counts per class (zero classes omitted)."""
        return {name: count for name, count in sorted(self.injected.items())}


@dataclass(frozen=True)
class ProcessFaultDirective:
    """One planned process fault, shipped to a worker with its chunk.

    Picklable and self-contained: the worker hook needs no access to
    the injector or config to act on it.
    """

    #: one of PROCESS_FAULT_CLASSES
    kind: str
    #: remaining executions of the chunk this directive applies to
    #: (crash only; >1 kills the re-queued chunk again → quarantine)
    repeats: int = 1
    #: wall-clock duration (hang sleep / slow-exit linger)
    seconds: float = 0.0

    def decremented(self) -> "ProcessFaultDirective":
        return replace(self, repeats=self.repeats - 1)


class ProcessFaultInjector:
    """Plans process faults per (query, chunk) — parent side.

    Unlike :class:`FaultInjector`, whose rolls happen at simulated
    injection sites inside the DES, process faults hit *real* OS
    processes whose scheduling is nondeterministic.  Determinism is
    recovered by planning: directives are rolled in the parent when a
    query's chunks are enumerated (a fixed order), never at dispatch
    time, so the schedule is a pure function of (seed, rates, query
    sequence) regardless of which worker runs what when.  The digest
    folds (class, query, chunk index) — no wall-clock time — so two
    same-seed runs compare equal.
    """

    def __init__(self, config: FaultConfig):
        self.config = config
        self._streams: Dict[str, random.Random] = {
            name: random.Random("{}:proc:{}".format(config.seed, name))
            for name in PROCESS_FAULT_CLASSES
        }
        #: injected fault counts per class and per (class, query)
        self.injected: Counter = Counter()
        self.injected_by_query: Counter = Counter()
        self._digest = hashlib.sha256()

    def plan_chunk(self, query: str,
                   chunk_index: int) -> Optional[ProcessFaultDirective]:
        """Roll every class for one chunk; at most one directive wins.

        Classes roll in PROCESS_FAULT_CLASSES order and the first hit
        takes the chunk (later streams still advance, keeping each
        class's schedule independent of the others' rates).
        """
        directive: Optional[ProcessFaultDirective] = None
        for name in PROCESS_FAULT_CLASSES:
            rate = getattr(self.config, name)
            if rate <= 0.0:
                continue
            if self._streams[name].random() >= rate:
                continue
            if directive is not None:
                continue
            if name == "crash":
                directive = ProcessFaultDirective(
                    "crash", repeats=self.config.crash_repeats)
            elif name == "hang":
                directive = ProcessFaultDirective(
                    "hang", seconds=self.config.hang_seconds)
            elif name == "slowexit":
                directive = ProcessFaultDirective(
                    "slowexit", seconds=SLOWEXIT_SECONDS)
            else:
                directive = ProcessFaultDirective("unlinkrace")
            self.injected[name] += 1
            self.injected_by_query[(name, query)] += 1
            self._digest.update(
                "{}:{}:{};".format(name, query, chunk_index).encode()
            )
        return directive

    # -- reporting -------------------------------------------------------

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def schedule_digest(self) -> str:
        """Order-sensitive fingerprint of every planned process fault
        (class, query, chunk index) — the determinism gate."""
        return self._digest.hexdigest()

    def summary(self) -> Dict[str, int]:
        """Planned fault counts per class (zero classes omitted)."""
        return {name: count for name, count in sorted(self.injected.items())}

    def report(self) -> Dict[str, Dict[str, int]]:
        """Per-query fault report: query -> {class: count}."""
        out: Dict[str, Dict[str, int]] = {}
        for (name, query), count in sorted(self.injected_by_query.items()):
            out.setdefault(query, {})[name] = count
        return out


__all__ = [
    "FAULT_CLASSES",
    "FAULTS_ENV",
    "PROCESS_FAULT_CLASSES",
    "FaultConfig",
    "FaultInjector",
    "ProcessFaultDirective",
    "ProcessFaultInjector",
]
