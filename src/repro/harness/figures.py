"""The paper's evaluation, declared once.

:data:`FIGURES` has one :class:`Figure` per figure of the paper (and
per extension sweep): id, paper section, title, and the sweep of
:mod:`repro.harness.experiments` that measures it with its full-size
and ``--fast`` arguments.  :data:`CLAIMS` has one :class:`Claim` per
sentence the paper says about a figure: the name of the tier-1 test
that asserts it, the :class:`Grid` it is measured on (claims that share
a sweep share the object, so it runs once) and its checks — a measure
over the table, a comparison and the threshold.  ``repro figures``,
``repro report``, ``tests/test_paper_shapes.py`` and
``examples/reproduce_paper.py`` read these two tables and nothing else,
so they cannot disagree.
"""

from __future__ import annotations

import inspect
import operator
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.hardware.calibration import GIB
from repro.harness import experiments as E
from repro.harness.tables import ExperimentResult

COMPARISONS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
               "<=": operator.le, "==": operator.eq}


@dataclass(frozen=True, eq=False)
class Grid:
    """A sweep, its arguments at full size, and the overrides that
    shrink it: ``--fast`` for a figure, the tier-1 grid for a claim
    (whose full-size grid contains every point a check indexes).
    ``key`` names the columns that identify a row of the table."""

    sweep: Callable[..., ExperimentResult]
    full: dict
    small: dict
    key: Tuple[str, ...] = ()

    def table(self, tables: dict, full: bool = False) -> ExperimentResult:
        """This grid's table, measured once per ``tables`` (which
        therefore serves one size)."""
        if self not in tables:
            shrink = {} if full else self.small
            tables[self] = self.sweep(**{**self.full, **shrink})
        return tables[self]

    def pivot(self, table: ExperimentResult) -> dict:
        """``{column: {key[0]: {key[1]: ... value}}}`` of ``table``."""
        pivoted: dict = {}
        for row in table.rows:
            for column in row.keys() - set(self.key):
                level = pivoted.setdefault(column, {})
                for name in self.key[:-1]:
                    level = level.setdefault(row[name], {})
                level[row[self.key[-1]]] = row[column]
        return pivoted


class Claim:
    """One sentence of the paper about one figure, as tier-1 asserts it.

    A check is ``(columns, measure, comparison, threshold)``: the
    measure takes the named columns of ``grid.pivot(table)`` — e.g.
    ``("h2d_seconds seconds", lambda h, s: h[GPU][0.0] / s[GPU][0.0],
    ">", 0.8)`` — and its value is judged against the threshold.
    """

    def __init__(self, figure: str, name: str, grid: Grid, sentence: str,
                 *checks: Tuple[str, Callable[..., float], str, float]):
        self.figure, self.name, self.grid = figure, name, grid
        self.sentence, self.checks = sentence, checks

    def evaluate(self, table: ExperimentResult) -> Tuple[bool, str]:
        """Whether the claim holds on ``table``, and every measured
        value beside the threshold it was judged against."""
        pivoted = self.grid.pivot(table)
        judged = [
            (measure(*(pivoted[column] for column in columns.split())),
             compare, threshold)
            for columns, measure, compare, threshold in self.checks]
        return (all(COMPARISONS[compare](value, threshold)
                    for value, compare, threshold in judged),
                ", ".join("{:.3g} {} {:g}".format(*check) for check in judged))


@dataclass(frozen=True)
class Figure:
    """One figure of the paper's evaluation (or one extension sweep)."""

    id: str
    section: str
    #: formatted with the sweep's arguments, e.g. ``{scale_factor}``
    title: str
    grid: Grid

    @property
    def claims(self) -> Tuple[Claim, ...]:
        return tuple(claim for claim in CLAIMS if claim.figure == self.id)

    def run(self, fast: bool = False, jobs: Optional[int] = None,
            **overrides) -> ExperimentResult:
        """The figure's table, at full size or (``fast``) shrunk; any
        other keyword replaces a sweep argument."""
        shrink = self.grid.small if fast else {}
        call = inspect.signature(self.grid.sweep).bind(
            jobs=jobs, **{**self.grid.full, **shrink, **overrides})
        call.apply_defaults()
        table = self.grid.sweep(**call.arguments)
        table.title = self.title.format(**call.arguments)
        return table


CPU, GPU, CP, DD = "cpu_only", "gpu_only", "critical_path", "data_driven"
RT, AC, CHOP, DDC = ("runtime", "admission_control", "chopping",
                     "data_driven_chopping")

# -- the --fast overrides figures of one sweep share ------------------------
_BUFFERS_FAST = dict(repetitions=2)
_USERS_FAST = dict(total_queries=30, users=(1, 7, 20))
_SCALE_FAST = dict(repetitions=1, scale_factors=(5, 15, 30))
_PARALLEL_FAST = dict(repetitions=1, users=(1, 20))

# -- the grids tier-1 measures the claims on --------------------------------
Q33_SF20 = Grid(E.figure01, dict(scale_factor=20), dict(repetitions=2),
                ("strategy",))
Q33_SF10 = Grid(E.figure01, dict(scale_factor=10), dict(repetitions=2),
                ("strategy",))
BUFFERS = Grid(E.buffer_size_sweep, dict(strategies=(GPU, DD)),
               dict(buffer_gib=(0.0, 1.0, 2.0, 2.5), repetitions=4),
               ("strategy", "buffer_gib"))
USERS = Grid(E.micro_users_sweep, dict(strategies=(GPU, DD, RT, CHOP, DDC)),
             dict(users=(4, 7, 20)), ("strategy", "users"))
SSB_SCALE = Grid(E.scale_factor_sweep,
                 dict(benchmark="ssb", strategies=(CPU, GPU, DD, CHOP, DDC)),
                 dict(repetitions=1), ("strategy", "scale_factor"))
TPCH_SCALE = Grid(E.scale_factor_sweep,
                  dict(benchmark="tpch", strategies=(CPU, GPU, DDC)),
                  dict(repetitions=1), ("strategy", "scale_factor"))
SF30_LATENCIES = Grid(E.query_latencies, {}, dict(repetitions=1),
                      ("strategy", "query"))
SSB_USERS = Grid(E.benchmark_users_sweep,
                 dict(benchmark="ssb", strategies=(GPU, CHOP, DDC)),
                 dict(users=(1, 20), repetitions=2), ("strategy", "users"))
TPCH_USERS = Grid(E.benchmark_users_sweep,
                  dict(benchmark="tpch", strategies=(GPU, DDC)),
                  dict(users=(1, 20), repetitions=2), ("strategy", "users"))
USERS20_LATENCIES = Grid(
    E.query_latencies, dict(scale_factor=10, users=20, repetitions=2,
                            strategies=(GPU, AC, CHOP, DDC)),
    {}, ("strategy", "query"))
USER_LATENCIES = Grid(E.figure25, dict(strategies=(GPU, CHOP, DDC)),
                      dict(users=(1, 10, 20)), ("strategy", "users", "query"))
TPCH_ENGINES = Grid(E.engine_comparison, dict(benchmark="tpch"),
                    dict(repetitions=1), ("engine", "backend", "query"))
SSB_ENGINES = Grid(E.engine_comparison, dict(benchmark="ssb"),
                   dict(repetitions=1), ("engine", "backend", "query"))
CACHE_FRACTIONS = Grid(E.figure24, {},
                       dict(fractions=(0.0, 0.6, 0.8), repetitions=1),
                       ("policy", "cache_fraction"))

FIGURES: Dict[str, Figure] = {figure.id: figure for figure in (
    Figure("fig01", "Sec. 1",
           "Figure 1: SSB Q3.3 execution strategies (SF {scale_factor})",
           Grid(E.figure01, {}, dict(repetitions=1))),
    Figure("fig02", "Sec. 2.3",
           "Figure 2: selection workload, operator-driven placement "
           "(cache thrashing)",
           Grid(E.buffer_size_sweep, dict(strategies=(GPU,)), _BUFFERS_FAST)),
    Figure("fig03", "Sec. 2.3",
           "Figure 3: parallel selection workload (heap contention, "
           "operator-driven)",
           Grid(E.micro_users_sweep, dict(strategies=(GPU,)), _USERS_FAST)),
    Figure("fig05", "Sec. 3",
           "Figure 5: selection workload, data-driven vs operator-driven",
           Grid(E.buffer_size_sweep, BUFFERS.full, _BUFFERS_FAST)),
    Figure("fig06", "Sec. 3",
           "Figure 6: data transfer time in the selection workload",
           Grid(E.buffer_size_sweep, {}, _BUFFERS_FAST)),
    Figure("fig07", "Sec. 3.4",
           "Figure 7: Data-Driven does not solve heap contention",
           Grid(E.micro_users_sweep, dict(strategies=(GPU, DD)), _USERS_FAST)),
    Figure("fig09", "Sec. 4",
           "Figure 9: run-time placement improves but is not optimal",
           Grid(E.micro_users_sweep, dict(strategies=(GPU, RT)), _USERS_FAST)),
    Figure("fig12", "Sec. 5",
           "Figure 12: Chopping achieves near-optimal performance",
           Grid(E.micro_users_sweep, dict(strategies=(GPU, RT, CHOP, DDC)),
                _USERS_FAST)),
    Figure("fig13", "Sec. 5", "Figure 13: operator aborts per strategy",
           Grid(E.micro_users_sweep, dict(strategies=(GPU, RT, CHOP)),
                _USERS_FAST)),
    Figure("fig14a", "Sec. 6.2",
           "Figure 14: workload execution time vs. scale factor ({benchmark})",
           Grid(E.scale_factor_sweep, dict(benchmark="ssb"), _SCALE_FAST)),
    Figure("fig14b", "Sec. 6.2",
           "Figure 14: workload execution time vs. scale factor ({benchmark})",
           Grid(E.scale_factor_sweep, dict(benchmark="tpch"), _SCALE_FAST)),
    Figure("fig15a", "Sec. 6.2",
           "Figure 15: CPU->GPU transfer time vs. scale factor ({benchmark})",
           Grid(E.scale_factor_sweep, dict(benchmark="ssb"), _SCALE_FAST)),
    Figure("fig15b", "Sec. 6.2",
           "Figure 15: CPU->GPU transfer time vs. scale factor ({benchmark})",
           Grid(E.scale_factor_sweep, dict(benchmark="tpch"), _SCALE_FAST)),
    Figure("fig16", "Sec. 6.2", "Figure 16: memory footprint of the workloads",
           Grid(E.figure16, {}, {})),
    Figure("fig17", "Sec. 6.2",
           "Figure 17: SSB query execution times, single user, SF 30",
           SF30_LATENCIES),
    Figure("fig18a", "Sec. 6.2",
           "Figure 18: workload execution time vs. #users ({benchmark})",
           Grid(E.benchmark_users_sweep, dict(benchmark="ssb"),
                _PARALLEL_FAST)),
    Figure("fig18b", "Sec. 6.2",
           "Figure 18: workload execution time vs. #users ({benchmark})",
           Grid(E.benchmark_users_sweep, dict(benchmark="tpch"),
                _PARALLEL_FAST)),
    Figure("fig19", "Sec. 6.2",
           "Figure 19: CPU->GPU transfer time vs. #users ({benchmark})",
           Grid(E.benchmark_users_sweep, dict(benchmark="ssb"),
                _PARALLEL_FAST)),
    Figure("fig20", "Sec. 6.2",
           "Figure 20: wasted time of aborted GPU operators (SSB)",
           Grid(E.benchmark_users_sweep, dict(benchmark="ssb"),
                _PARALLEL_FAST)),
    Figure("fig21", "Sec. 6.2",
           "Figure 21: SSB query latencies, 20 users, SF 10",
           Grid(E.query_latencies, USERS20_LATENCIES.full,
                dict(repetitions=1))),
    Figure("fig22", "App. A",
           "Figure 22: TPC-H per-query times, CoGaDB vs Ocelot profile",
           TPCH_ENGINES),
    Figure("fig23", "App. A",
           "Figure 23: SSB per-query times, CoGaDB vs Ocelot profile",
           SSB_ENGINES),
    Figure("fig24", "App. E",
           "Figure 24: LFU vs LRU data placement (SSB, SF {scale_factor})",
           Grid(E.figure24, {},
                dict(repetitions=1, fractions=(0.0, 0.6, 1.0)))),
    Figure("fig25", "App. E",
           "Figure 25: SSB query latencies vs. #users (SF {scale_factor})",
           Grid(E.figure25, {}, _PARALLEL_FAST)),
    # The extension sweeps are entries like any other; their assertions
    # stay beside their mechanisms (tests/test_multi_gpu.py,
    # test_faults.py, test_copy_engine.py, test_lifecycle.py).
    Figure("multigpu", "Sec. 6.3",
           "Extension: multi-GPU scale-up ({benchmark}, SF {scale_factor}, "
           "{users} users)",
           Grid(E.multi_gpu_scaling, {},
                dict(repetitions=1, gpu_counts=(1, 4)))),
    Figure("chaos", "Sec. 2.5.1",
           "Chaos: SSB under injected faults ({strategy}, SF {scale_factor})",
           Grid(E.chaos_sweep, {},
                dict(repetitions=1, fault_rates=(0.0, 0.02, 0.1)))),
    Figure("overlap", "Sec. 2.5.3",
           "Extension: copy-engine overlap sweep ({benchmark}, "
           "SF {scale_factor}, {gpu_count} GPUs)",
           Grid(E.overlap_sweep, {},
                dict(repetitions=1, users=(1, 4), scale_factor=5))),
    Figure("overload", "Sec. 5.2",
           "Extension: overload sweep ({strategy}, SF {scale_factor}, "
           "policy {overload_policy})",
           Grid(E.overload_sweep, {},
                dict(repetitions=1, loads=(1, 4), scale_factor=5))),
)}


def _mean(values) -> float:
    """(``statistics`` would cost every importer 0.6 MiB of RSS.)"""
    values = list(values)
    return sum(values) / len(values)


def _steps(curve: dict) -> list:
    """Ratios of consecutive points along a curve ``{x: y}``."""
    xs = sorted(curve)
    return [curve[after] / curve[before] for before, after in zip(xs, xs[1:])]


def _worst_vs_cpu(strategy: str, *queries: str) -> Callable[[dict], float]:
    """Largest slowdown of ``strategy`` against CPU-only over the second
    key (``queries``, or every query / scale factor of the table)."""
    return lambda s: max(s[strategy][at] / s[CPU][at]
                         for at in queries or s[CPU])


def _mean_vs(strategy: str, reference: str, *users) -> Callable[[dict], float]:
    """Mean query latency of ``strategy`` over that of ``reference``."""
    def ratio(s: dict) -> float:
        ours, theirs = s[strategy], s[reference]
        for key in users:
            ours, theirs = ours[key], theirs[key]
        return _mean(ours.values()) / _mean(theirs.values())
    return ratio


CACHE_GIB = E.FULL_CONFIG.gpu_cache_bytes / GIB

CLAIMS: Tuple[Claim, ...] = (
    Claim("fig01", "fig01_cold_gpu_slower_than_cpu", Q33_SF20,
          "Fig. 1: with uncached input, using the GPU slows the system down.",
          ("seconds", lambda s: s["gpu (cold cache)"] / s["cpu"], ">", 1.0)),
    Claim("fig01", "fig01_hot_gpu_beats_cpu_at_moderate_scale", Q33_SF10,
          "Fig. 1 (moderate SF): the hot-cache GPU accelerates by ~2.5x.",
          ("seconds", lambda s: s["cpu"] / s["gpu (hot cache)"], ">", 1.5)),
    Claim("fig02", "fig02_thrashing_degradation_factor", BUFFERS,
          "Fig. 2: ~24x degradation when the working set exceeds the cache.",
          ("seconds", lambda s: s[GPU][0.0] / s[GPU][2.5], ">", 10),
          ("seconds", lambda s: s[GPU][0.0] / s[GPU][2.5], "<", 60)),
    Claim("fig02", "fig02_degradation_vanishes_once_working_set_fits", BUFFERS,
          "Fig. 2: once the working set fits, more buffer changes nothing.",
          ("seconds", lambda s: abs(s[GPU][2.0] / s[GPU][2.5] - 1),
           "<=", 0.05)),
    Claim("fig03", "fig03_contention_degrades_beyond_seven_users", USERS,
          "Fig. 3: performance degrades once >7 users share the device "
          "(and is still fine at the breakeven point).",
          ("seconds", lambda s: s[GPU][20] / s[GPU][4], ">", 1.5),
          ("seconds", lambda s: s[GPU][7] / s[GPU][4], "<", 1.3)),
    Claim("fig03", "fig03_aborts_appear_only_past_the_memory_limit", USERS,
          "Sec. 3.4: operators abort only once more users run than fit the "
          "device heap.",
          ("aborts", lambda a: a[GPU][4], "==", 0),
          ("aborts", lambda a: a[GPU][20], ">", 0)),
    Claim("fig05", "fig05_data_driven_monotone_and_never_thrashes", BUFFERS,
          "Fig. 5: Data-Driven degrades gracefully — more cache never hurts, "
          "and it is never slower than its zero-cache (CPU) level.",
          ("seconds", lambda s: max(_steps(s[DD])), "<=", 1.05),
          ("seconds", lambda s: abs(max(s[DD].values()) / s[DD][0.0] - 1),
           "<=", 0.05)),
    Claim("fig05", "fig05_data_driven_beats_thrashing_operator_driven",
          BUFFERS, "Fig. 5: in the thrashing regime Data-Driven wins big.",
          ("seconds", lambda s: s[GPU][1.0] / s[DD][1.0], ">", 2)),
    Claim("fig06", "fig06_transfer_time_explains_thrashing", BUFFERS,
          "Fig. 6: the degradation is caused by CPU->GPU transfer time, "
          "which dominates the thrashing end.",
          ("h2d_seconds", lambda h: h[GPU][0.0] / max(h[DD][0.0], 1e-9),
           ">", 10),
          ("h2d_seconds seconds", lambda h, s: h[GPU][0.0] / s[GPU][0.0],
           ">", 0.8)),
    Claim("fig07", "fig07_data_driven_does_not_solve_contention", USERS,
          "Fig. 7: Data-Driven alone shows the same degradation.",
          ("seconds", lambda s: s[DD][20] / s[DD][4], ">", 1.5),
          ("aborts", lambda a: a[DD][20], ">", 0)),
    Claim("fig09", "fig09_runtime_placement_improves_but_not_optimal", USERS,
          "Fig. 9: run-time placement helps, yet stays off the optimum.",
          ("seconds", lambda s: s[RT][20] / s[GPU][20], "<=", 1.0),
          ("seconds", lambda s: s[RT][20] / s[CHOP][20], ">", 1.2)),
    Claim("fig12", "fig12_chopping_is_near_optimal", USERS,
          "Fig. 12: Chopping stays near the single-user-equivalent time.",
          ("seconds", lambda s: s[CHOP][20] / s[GPU][20], "<", 1.0),
          ("seconds", lambda s: s[CHOP][20] / s[CHOP][4], "<", 1.35),
          ("seconds", lambda s: s[DDC][20] / s[DDC][4], "<", 1.35)),
    Claim("fig13", "fig13_chopping_eliminates_aborts", USERS,
          "Fig. 13: the thread pool practically removes operator aborts; "
          "compile-time placement aborts the most, run-time placement less.",
          ("aborts", lambda a: a[GPU][20], ">", 0),
          ("aborts", lambda a: a[CHOP][20], "==", 0),
          ("aborts", lambda a: a[GPU][20] - a[RT][20], ">=", 0),
          ("aborts", lambda a: a[RT][20] - a[CHOP][20], ">=", 0),
          ("aborts", lambda a: a[DDC][20], "==", 0)),
    Claim("fig14a", "fig14_gpu_only_falls_behind_at_sf15", SSB_SCALE,
          "Fig. 14: GPU-only wins on small data, is inferior from SF 15 on.",
          ("seconds", lambda s: s[GPU][5] / s[CPU][5], "<", 1.0),
          ("seconds", lambda s: s[GPU][15] / s[CPU][15], ">", 1.0),
          ("seconds", lambda s: s[GPU][30] / s[CPU][30], ">", 1.5)),
    Claim("fig14a", "fig14_data_driven_chopping_is_robust", SSB_SCALE,
          "Fig. 14: Data-Driven Chopping never performs (meaningfully) "
          "worse than CPU-only, at any scale factor, and beats GPU-only by "
          "up to factor 2 when resources are scarce.",
          ("seconds", _worst_vs_cpu(DDC), "<=", 1.1),
          ("seconds", lambda s: s[GPU][30] / s[DDC][30], ">", 1.8)),
    Claim("fig14b", "fig14_tpch_robustness", TPCH_SCALE,
          "Fig. 14(b): the same robustness holds on the TPC-H workload — "
          "GPU-only collapses at scale, Data-Driven Chopping never does.",
          ("seconds", lambda s: s[GPU][30] / s[CPU][30], ">", 1.0),
          ("seconds", _worst_vs_cpu(DDC), "<=", 1.15),
          ("seconds", lambda s: s[DDC][30] / s[GPU][30], "<", 1.0)),
    Claim("fig15a", "fig15_gpu_only_transfer_time_grows_fastest", SSB_SCALE,
          "Fig. 15: GPU-only spends by far the most time on CPU->GPU IO; "
          "Data-Driven (Chopping) saves the most.",
          ("h2d_seconds", lambda h: h[GPU][30] / max(h[DDC][30], 1e-9),
           ">", 10)),
    Claim("fig15b", "fig15_tpch_gpu_only_moves_the_most_data", TPCH_SCALE,
          "Fig. 15(b): on TPC-H too, GPU-only spends more time on CPU->GPU "
          "IO than Data-Driven Chopping.",
          ("h2d_seconds", lambda h: h[GPU][30] - h[DDC][30], ">", 0)),
    Claim("fig16", "fig16_footprint_exceeds_cache_from_sf15", SSB_SCALE,
          "Fig. 16: the workload footprint crosses the data cache around "
          "SF 15, where the thrashing effects start, and grows linearly.",
          ("footprint_gib", lambda f: f[CPU][5] / CACHE_GIB, "<", 1.0),
          ("footprint_gib", lambda f: min(
              f[CPU][sf] for sf in (15, 20, 30)) / CACHE_GIB, ">", 1.0),
          ("footprint_gib", lambda f: abs(f[CPU][30] / (2 * f[CPU][15]) - 1),
           "<=", 0.1)),
    Claim("fig17", "fig17_gpu_only_slows_every_query", SF30_LATENCIES,
          "Fig. 17: at SF 30 GPU-only is slower than CPU-only on every query.",
          ("seconds", lambda s: min(s[GPU][q] / s[CPU][q] for q in s[CPU]),
           ">", 1.0)),
    Claim("fig17", "fig17_critical_path_never_slower_than_cpu_only",
          SF30_LATENCIES,
          'Fig. 17: "Critical Path is always as fast as the CPU-Only '
          'approach" — it detects the degradation instead of blindly using '
          "the GPU (ours finds hybrid plans: EXPERIMENTS.md, deviation 3).",
          ("seconds", _worst_vs_cpu(CP), "<=", 1.15)),
    Claim("fig17", "fig17_high_selectivity_queries_accelerate", SF30_LATENCIES,
          "Fig. 17: Q3.4-style high-selectivity queries gain up to ~2.5x "
          "under Data-Driven Chopping.",
          ("seconds", lambda s: s[CPU]["Q3.4"] / s[DDC]["Q3.4"], ">", 1.8)),
    Claim("fig17", "fig17_low_selectivity_queries_unharmed", SF30_LATENCIES,
          "Fig. 17: low-selectivity queries see little impact.",
          ("seconds", _worst_vs_cpu(DDC, "Q1.1", "Q2.1", "Q3.1", "Q4.1"),
           "<=", 1.25)),
    Claim("fig18a", "fig18_chopping_beats_gpu_only_under_parallel_load",
          SSB_USERS,
          "Fig. 18: with 20 users Data-Driven Chopping beats GPU-only.",
          ("seconds", lambda s: s[DDC][20] / s[GPU][20], "<", 1.0)),
    Claim("fig18b", "fig18_tpch_chopping_no_slower_under_parallel_load",
          TPCH_USERS, "Fig. 18(b): the same holds for the TPC-H workload.",
          ("seconds", lambda s: s[DDC][20] / s[GPU][20], "<=", 1.0)),
    Claim("fig19", "fig19_chopping_reduces_transfer_io", SSB_USERS,
          "Fig. 19: Data-Driven Chopping reduces CPU->GPU transfers by a "
          "large factor (48x in the paper).",
          ("h2d_seconds", lambda h: h[GPU][20] / max(h[DDC][20], 1e-9),
           ">", 10)),
    Claim("fig20",
          "fig20_wasted_time_grows_with_users_and_chopping_removes_it",
          SSB_USERS,
          "Fig. 20: the time wasted by aborted GPU operators grows with the "
          "users, and Chopping removes nearly all of it (up to 74x).",
          ("wasted_seconds", lambda w: w[GPU][20] - w[GPU][1], ">", 0),
          ("wasted_seconds", lambda w: w[GPU][20] / max(w[CHOP][20], 1e-9),
           ">", 5)),
    Claim("fig21", "fig21_chopping_as_fast_as_admission_control",
          USERS20_LATENCIES,
          "Fig. 21: with 20 users, Chopping is as fast as or faster than "
          "running one query at a time (the admission-control reference).",
          ("seconds", _mean_vs(CHOP, AC), "<=", 1.1),
          ("seconds", _mean_vs(DDC, AC), "<=", 1.1)),
    Claim("fig22", "fig22_both_engines_accelerate_on_gpu", TPCH_ENGINES,
          "App. A: both engines accelerate (all but at most one of) the "
          "TPC-H queries on the GPU.",
          ("seconds", lambda s: max(
              sum(not on["gpu"][q] < on["cpu"][q] for q in on["cpu"])
              for on in s.values()), "<=", 1)),
    Claim("fig23", "fig23_ocelot_cpu_faster_cogadb_competitive", SSB_ENGINES,
          "App. A: Ocelot's CPU backend is faster on most SSB queries, the "
          "GPU backends are comparable.",
          ("seconds", lambda s: _mean(
              s["ocelot"]["cpu"][q] < s["cogadb"]["cpu"][q]
              for q in s["cogadb"]["cpu"]), ">=", 0.7),
          ("seconds", lambda s: min(
              s["cogadb"]["gpu"][q] / s["ocelot"]["gpu"][q]
              for q in s["cogadb"]["gpu"]), ">", 0.5),
          ("seconds", lambda s: max(
              s["cogadb"]["gpu"][q] / s["ocelot"]["gpu"][q]
              for q in s["cogadb"]["gpu"]), "<", 2.0)),
    Claim("fig24", "fig24_policies_similar_and_improving_with_cache",
          CACHE_FRACTIONS,
          "App. E: execution times improve as the cache fraction grows, the "
          "placement policy itself has only minor impact.",
          ("seconds", lambda s: max(s["lru"][0.8] / s["lru"][0.0],
                                    s["lfu"][0.8] / s["lfu"][0.0]), "<", 1.0),
          ("seconds", lambda s: abs(s["lfu"][0.8] / s["lru"][0.8] - 1),
           "<=", 0.25)),
    Claim("fig25", "fig25_chopping_bounds_latencies_as_users_grow",
          USER_LATENCIES,
          "Fig. 25: with increasing parallelism Chopping keeps the query "
          "latencies bounded while a naive GPU execution degrades.",
          ("seconds", _mean_vs(CHOP, GPU, 10), "<=", 1.0),
          ("seconds", _mean_vs(DDC, GPU, 10), "<=", 1.0),
          ("seconds", _mean_vs(CHOP, GPU, 20), "<=", 1.0),
          ("seconds", _mean_vs(DDC, GPU, 20), "<=", 1.0)),
)
