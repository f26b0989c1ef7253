"""Benchmark workloads: SSBM, (modified) TPC-H, and the paper's micro
benchmarks."""

from repro.workloads.base import WorkloadQuery, sql_workload
from repro.workloads import micro, ssb, tpch

#: benchmark name -> its module (``generate`` / ``workload``): what
#: ``--benchmark``, a cell's workload and a pool's workload spec name
BENCHMARKS = {"ssb": ssb, "tpch": tpch}

__all__ = ["BENCHMARKS", "WorkloadQuery", "micro", "sql_workload", "ssb",
           "tpch"]
