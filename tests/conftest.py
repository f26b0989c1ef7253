"""Shared fixtures: small deterministic databases and simulation
contexts."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.engine import morsel
from repro.engine.execution import ExecutionContext
from repro.hardware import HardwareSystem, SystemConfig
from repro.sim import Environment
from repro.storage import ColumnType, Database
from repro.workloads import ssb, tpch


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
