"""Shared fixtures: small deterministic databases and simulation
contexts."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.engine import morsel
from repro.engine.execution import ExecutionContext
from repro.engine.expressions import ColumnRef, Comparison, Literal
from repro.engine.intermediates import OperatorResult, TidSet
from repro.engine.operators import (
    Materialize,
    PhysicalPlan,
    RefineSelect,
    ScanSelect,
    TidIntersect,
)
from repro.hardware import HardwareSystem, SystemConfig
from repro.sim import Environment
from repro.storage import ColumnType, Database
from repro.workloads import ssb, tpch


@pytest.fixture(scope="session")
def claim_tables():
    """``Grid -> measured table`` for every test that judges a claim of
    ``repro.harness.figures``: each claim sweep runs once per session,
    whether a shape test or the report asks for it first."""
    return {}


def make_context(database, config=None):
    """A fresh (env, hardware, ctx) triple for simulation tests."""
    env = Environment()
    hardware = HardwareSystem(env, config or SystemConfig())
    ctx = ExecutionContext(hardware, database)
    return env, hardware, ctx


@contextmanager
def operator_path():
    """Inside the block nothing fuses: warm-ups and
    ``execute_functional`` run operator at a time, as if every plan
    declined.  The unfused side of simulation-identity tests — the
    program itself has no switch for it."""
    with mock.patch.object(morsel, "prepare_fused",
                           lambda plan, database: False), \
            mock.patch.object(morsel, "execute_direct",
                              lambda plan, database: None):
        yield


@contextmanager
def materialised_scans():
    """Inside the block every scan hands on a materialised tid array
    instead of a lazy selection, and nothing fuses — so the operators'
    general branches run: ``RefineSelect``'s gather-and-filter,
    ``TidIntersect``'s ``intersect1d``, ``HashJoin``'s sort-and-search
    expansion.  That is how the output of a join reaches them in any
    plan; here whole workloads take them, as the reference the cached
    structures are compared with.  The program has no switch for it."""
    run = ScanSelect.run

    def materialised(self, database, child_results):
        result = run(self, database, child_results)
        tids = result.payload.positions(self.table)
        return OperatorResult(
            TidSet({self.table: tids}), result.actual_rows,
            result.nominal_rows, result.row_width_bytes)

    with operator_path(), \
            mock.patch.object(ScanSelect, "run", materialised):
        yield


def random_selection_plan(rng):
    """A bushy tree of 6-10 filtered ``toy_db`` scans combined by
    ``TidIntersect`` (some under a ``RefineSelect``), drawn from
    ``rng`` (a ``random.Random``)."""
    columns = ("skey", "amount", "price")

    def scan():
        column = rng.choice(columns)
        return ScanSelect("sales", Comparison(
            "<", ColumnRef("sales", column), Literal(rng.randint(5, 90))))

    nodes = [scan() for _ in range(rng.randint(6, 10))]
    while len(nodes) > 1:
        left = nodes.pop(rng.randrange(len(nodes)))
        right = nodes.pop(rng.randrange(len(nodes)))
        node = TidIntersect(left, right, "sales")
        if rng.random() < 0.3:
            node = RefineSelect(node, "sales", Comparison(
                ">", ColumnRef("sales", rng.choice(columns)), Literal(2)))
        nodes.append(node)
    return PhysicalPlan(Materialize(
        nodes[0], [("amount", ColumnRef("sales", "amount"))]))


@pytest.fixture(scope="session", autouse=True)
def _bounded_experiment_caches():
    """Drop the harness-level database/workload/plan-result caches when
    the session ends, so back-to-back pytest runs (and the parallel
    grid workers forked from one) never accumulate stale state."""
    yield
    from repro.harness.experiments import clear_database_caches
    from repro.storage import shm

    clear_database_caches()
    leaked = shm.leaked_segments()
    assert not leaked, (
        "shared-memory segments leaked past the test session: "
        "{}".format(leaked))


@pytest.fixture(scope="session")
def ssb_db():
    """A small SSB database (actual arrays small, nominal tiny SF)."""
    return ssb.generate(scale_factor=0.01, data_scale=0.01, seed=123)


@pytest.fixture(scope="session")
def tpch_db():
    """A small TPC-H database."""
    return tpch.generate(scale_factor=0.01, data_scale=0.01, seed=321)


@pytest.fixture()
def toy_db():
    """A two-table database with known contents for operator tests."""
    db = Database("toy")
    rng = np.random.default_rng(5)
    n = 500
    fact = db.create_table("sales", nominal_rows=1_000_000)
    fact.add_column("skey", ColumnType.INT32, rng.integers(1, 21, n))
    fact.add_column("amount", ColumnType.INT32, rng.integers(1, 100, n))
    fact.add_column("price", ColumnType.INT32, rng.integers(1, 50, n))
    dim = db.create_table("store", nominal_rows=20)
    dim.add_column("id", ColumnType.INT32, np.arange(1, 21))
    dim.add_string_column(
        "region", [["north", "south", "east", "west"][i % 4] for i in range(20)]
    )
    dim.add_column("size", ColumnType.INT32, np.arange(20) * 10)
    return db
