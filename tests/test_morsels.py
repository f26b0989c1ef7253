"""Fused morsel-driven execution and shared-memory parallel columns.

Covers the functional layer's default engine end to end:

* fused SSB/TPC-H batches are byte-identical to the operator path
  across morsel sizes, including a hypothesis sweep of random
  join/group-by queries — the root rows *and* the memo tuple recorded
  for every covered operator, whose three sizing ints drive every
  simulated transfer, footprint and compute charge;
* the partial merge in the space of the groups that exist equals, byte
  for byte and dtype for dtype, the dense-domain merge it replaced
  (kept here as ``_dense_merge``), over hypothesis-drawn partial lists;
* the shared-memory column store round-trips a database (export →
  attach) with read-only zero-copy views and tears segments down with
  ``clear_database_caches``;
* :class:`MorselPool` answers every workload query identically to
  sequential execution (payload *and* sizing metadata), builds each
  query's pipeline once, and degrades to an in-process fallback when
  workers fail;
* the fused warm-up composes with fault injection and the query
  lifecycle without changing a simulated timing or a result byte, and
  a warm run builds nothing;
* the one remaining setting, the test-facing morsel-size override.
"""

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    Planner,
    execute_reference,
    kernels,
    morsel,
    plan_cache,
)
from repro.engine.execution import execute_functional, execute_operators
from repro.engine.intermediates import SelectionVector, TidSet
from repro.engine.operators import GroupByAggregate, PhysicalPlan, ScanSelect
from repro.engine.operators.aggregate import (
    GROUP_DOMAIN_CAP,
    AggregatePartial,
    _DenseAggregate,
)
from repro.faults import FaultConfig
from repro.harness import experiments as E
from repro.harness.runner import functional_warm, run_workload
from repro.sql import bind
from repro.storage import ColumnType, Database, shm
from repro.workloads import micro, sql_workload, ssb, tpch

from benchmarks.e2e import sqlgen
from tests import test_random_queries as random_queries
from tests.conftest import operator_path

FORK_OK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(autouse=True)
def _fresh_engine_state():
    """Plan cache off (every execution must re-run), counters zeroed."""
    plan_cache.enable(False)
    morsel.reset_stats()
    yield
    plan_cache.enable(True)
    morsel.set_morsel_rows(None)


def _batch(database, queries, execute=execute_functional):
    return {
        query.name: execute(
            query.instantiate(), database).payload.row_tuples()
        for query in queries
    }


# ---------------------------------------------------------------------------
# Byte identity: fused vs operator path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("module,fixture", [(ssb, "ssb_db"),
                                            (tpch, "tpch_db")])
@pytest.mark.parametrize("rows_per_morsel", [1000, 1_000_000_000])
def test_fused_workload_identity(module, fixture, rows_per_morsel, request):
    db = request.getfixturevalue(fixture)
    queries = module.workload(db)
    reference = _batch(db, queries, execute_operators)
    with morsel.sized(rows_per_morsel):
        fused = _batch(db, queries)
    assert fused == reference
    assert morsel.snapshot_stats()["fused_queries"] > 0


def test_fused_ssb_zero_declines(ssb_db):
    """Every SSB query fuses — the benchmark's speedup covers them all."""
    _batch(ssb_db, ssb.workload(ssb_db))
    stats = morsel.snapshot_stats()
    assert stats["declined_queries"] == 0
    assert stats["fused_queries"] == len(ssb.QUERIES)
    assert stats["fused_operators"] > stats["fused_queries"]


def test_unfusable_plan_declines_cleanly(ssb_db):
    """A plan without a breaker is declined, never wrongly fused."""
    plan = PhysicalPlan(ScanSelect("lineorder"), name="bare_scan")
    with pytest.raises(morsel.Decline):
        morsel.build(plan, ssb_db)
    # ... and the execution path silently falls back:
    result = execute_functional(
        PhysicalPlan(ScanSelect("lineorder"), name="bare_scan2"), ssb_db)
    assert result.actual_rows == ssb_db.table("lineorder").actual_rows


def _assert_no_swallowed_errors():
    swallowed = {reason: count
                 for reason, count in morsel.decline_reasons.items()
                 if reason in ("error", "limit_error")}
    assert not swallowed, swallowed


@pytest.mark.parametrize("rows_per_morsel", [1, 7, None])
def test_the_catch_alls_stay_silent(rows_per_morsel, ssb_db, tpch_db):
    """``prepare_fused`` and ``execute_direct`` turn any ``Exception``
    into a counted decline and the operator path answers instead.  A
    kernel's exception would surface there too (both schedules call the
    same kernels), so what the catch-all can still hide is a bug of the
    schedule itself: over every shipped workload it must count none."""
    gathered = kernels.stats["gathered_joins"]
    with morsel.sized(rows_per_morsel):
        for db, queries in ((ssb_db, ssb.workload(ssb_db)),
                            (tpch_db, tpch.workload(tpch_db)),
                            (ssb_db, micro.parallel_selection_workload(ssb_db)),
                            (ssb_db, micro.serial_selection_workload(ssb_db))):
            _batch(db, queries)
    _assert_no_swallowed_errors()
    stats = morsel.snapshot_stats()
    assert stats["declined_queries"] == 0  # every shipped template fuses
    # ... and the one decline counted is a shape, not an error: TPC-H's
    # Limit over an aggregate keeps the ordinary fused path
    assert dict(morsel.decline_reasons) == {"limit_breaker": 1}
    # every build side is a scan: no join sorted an index of its own
    assert kernels.stats["gathered_joins"] == gathered


@given(seed=st.integers(0, 2), predicate=random_queries.predicates(2),
       shape=st.sampled_from([
           "select x, y from f where {}",
           "select x, y from f where {} limit 5",
           "select fk, min(y) as v from f where {} group by fk",
           "select w, sum(x) as s, count(*) as n from f, d "
           "where fk = id and {} group by w order by w",
           "select distinct fk from f where {}"]),
       rows_per_morsel=st.sampled_from([1, 7, None]))
@settings(max_examples=40, deadline=None)
def test_the_catch_alls_stay_silent_on_random_queries(
        seed, predicate, shape, rows_per_morsel):
    """The same over ``tests/test_random_queries.py``'s sweep (whose
    answers that file checks against the reference evaluator)."""
    db = random_queries.DATABASES[seed]
    plan = Planner(db).plan(bind(shape.format(predicate), db, name="rand"))
    with morsel.sized(rows_per_morsel):
        execute_functional(plan, db)
    _assert_no_swallowed_errors()


# ---------------------------------------------------------------------------
# Record identity: every covered operator's memo tuple
# ---------------------------------------------------------------------------

def _assert_same_payload(got, want, label):
    assert type(got) is type(want), label
    if isinstance(want, TidSet):
        assert got.table_names == want.table_names, label  # and order
        for name in want.table_names:
            entry, ref = got.tables[name], want.tables[name]
            assert isinstance(entry, SelectionVector) == isinstance(
                ref, SelectionVector), label
            if isinstance(ref, SelectionVector):
                assert entry.n == ref.n, label
                assert (entry.mask is None) == (ref.mask is None), label
                if ref.mask is not None:
                    assert np.array_equal(entry.mask, ref.mask), label
            positions = got.positions(name)
            ref_positions = want.positions(name)
            assert positions.dtype == ref_positions.dtype, label
            assert np.array_equal(positions, ref_positions), label
        return
    assert got.column_names == want.column_names, label
    for name in want.column_names:
        assert got.columns[name].dtype == want.columns[name].dtype, label
        assert np.array_equal(got.columns[name], want.columns[name]), label
    assert got.dictionaries == want.dictionaries, label


def _assert_records_identical(db, fresh_plan, label=""):
    """What the fused path records for every covered operator equals
    what the operator path produces on a fresh instance — payload
    arrays, dtypes, table order, and the three sizing ints that drive
    every simulated transfer, footprint and compute charge."""
    plan = fresh_plan()
    covered = {id(op) for op in morsel.build(plan, db).covered_ops}
    assert morsel.prepare_fused(plan, db), label
    reference = fresh_plan()
    execute_operators(reference, db)
    _assert_same_records(plan, reference, covered, label)
    return plan


def _assert_same_records(plan, reference, covered, label):
    for op, ref_op in zip(plan.operators, reference.operators):
        if id(op) not in covered:
            continue
        payload, *sizes = op._cached_result
        ref_payload, *ref_sizes = ref_op._cached_result
        assert sizes == ref_sizes, (label, op.label)
        _assert_same_payload(payload, ref_payload, (label, op.label))


MORSEL_SIZES = [64, 1000, 65536, 1_000_000_000]


@pytest.mark.parametrize("module,fixture", [
    (ssb, "ssb_db"), (tpch, "tpch_db"),
    # B.2's scan + three refines: the one shipped chain of RefineSelects
    (micro, "ssb_db")])
@pytest.mark.parametrize("rows_per_morsel", MORSEL_SIZES)
def test_recorded_operators_match_operator_path(module, fixture,
                                                rows_per_morsel, request):
    db = request.getfixturevalue(fixture)
    queries = (micro.parallel_selection_workload(db) if module is micro
               else module.workload(db))
    with morsel.sized(rows_per_morsel):
        for query in queries:
            _assert_records_identical(db, query.instantiate, query.name)
    stats = morsel.snapshot_stats()
    assert stats["fused_queries"] == len(queries)
    assert stats["declined_queries"] == 0  # every template fuses


def _edge_db():
    db = Database("edge")
    n = 300
    rng = np.random.default_rng(3)
    fact = db.create_table("f", nominal_rows=50_000)
    fact.add_column("fk", ColumnType.INT32, rng.integers(1, 6, n))
    fact.add_column("x", ColumnType.INT32, rng.integers(-20, 21, n))
    fact.add_column("y", ColumnType.INT32, rng.integers(0, 100, n))
    fact.add_column("z", ColumnType.FLOAT64, rng.normal(size=n))
    fact.add_string_column("tag", ["only"] * n)
    dim = db.create_table("d", nominal_rows=5)
    dim.add_column("id", ColumnType.INT32, np.arange(1, 6))
    dim.add_string_column("kind", ["same"] * 5)
    return db


EDGE_QUERIES = {
    # an ungrouped aggregate over zero rows still yields its one row
    "empty_scalar": "select sum(x), min(x), max(x), avg(y), count(*) "
                    "from f where y > 1000",
    "empty_scalar_float": "select sum(z), min(z), max(z) from f "
                          "where y > 1000",
    "empty_scalar_join": "select sum(x), count(*) from f, d "
                         "where f.fk = d.id and y > 1000",
    # ... a grouped one yields none
    "empty_grouped": "select fk, sum(x), min(y) from f where y > 1000 "
                     "group by fk",
    # one-entry dictionaries: a radix-1 group term
    "one_entry_fact": "select tag, sum(x), count(*) from f group by tag",
    "one_entry_dim": "select kind, fk, max(x), avg(y) from f, d "
                     "where f.fk = d.id and y < 50 group by kind, fk",
    "one_entry_float": "select tag, sum(z), avg(z) from f group by tag",
}


@pytest.mark.parametrize("name", sorted(EDGE_QUERIES))
@pytest.mark.parametrize("rows_per_morsel", [64, 1_000_000_000])
def test_edge_shapes_through_sparse_finalisation(name, rows_per_morsel):
    db = _edge_db()
    (query,) = sql_workload(db, {name: EDGE_QUERIES[name]})
    reference = execute_operators(query.instantiate(), db)
    with morsel.sized(rows_per_morsel):
        _assert_records_identical(db, query.instantiate, name)
        sequential = execute_functional(query.instantiate(), db).payload
        pipe = morsel.build(query.instantiate(), db)
        assert pipe.breaker.dense is not None
        # ... and the pooled form: chunk partials merged at the breaker
        half = pipe.fact_rows // 2
        merged = pipe.merge([pipe.run_chunk(0, half),
                             pipe.run_chunk(half, pipe.fact_rows)])
        assert (merged.actual_rows, merged.nominal_rows,
                merged.row_width_bytes) == (
            reference.actual_rows, reference.nominal_rows,
            reference.row_width_bytes)
        # one dtype per column, whichever path produced it
        dtypes = {column: array.dtype for column, array
                  in reference.payload.columns.items()}
        for payload in (merged.payload, sequential):
            assert {column: array.dtype for column, array
                    in payload.columns.items()} == dtypes, name
        if not pipe.compensated or name == "empty_scalar_float":
            # (float sums over rows round by chunk order; the pool's
            # own gate owns their values)
            _assert_same_payload(merged.payload, reference.payload, name)
    if name.startswith("empty_scalar"):
        assert reference.actual_rows == 1
    elif name == "empty_grouped":
        assert reference.actual_rows == 0


def _sorted_groups_db():
    """Group columns without a small integer domain: a float column,
    and two integer columns whose ranges multiply past the cap."""
    db = Database("sorted_groups")
    n = 400
    rng = np.random.default_rng(11)
    fact = db.create_table("f", nominal_rows=40_000)
    fact.add_column("g", ColumnType.FLOAT64, rng.integers(0, 7, n) / 4.0)
    fact.add_column("a", ColumnType.INT32,
                    rng.integers(0, 4, n) * (GROUP_DOMAIN_CAP // 2))
    fact.add_column("b", ColumnType.INT32, rng.integers(0, 5, n) * 1000)
    fact.add_column("x", ColumnType.INT32, rng.integers(-20, 21, n))
    fact.add_column("y", ColumnType.INT32, rng.integers(0, 100, n))
    return db


@pytest.mark.parametrize("sql", [
    "select g, sum(x), count(*) from f where y < 80 group by g",
    "select a, b, sum(x), min(y), avg(x) from f group by a, b",
])
def test_groups_without_a_dense_domain_sort_their_keys(sql):
    """``GroupByAggregate.partial``'s other way of finding groups —
    ``np.unique`` over the group columns — serves what ``bind`` cannot
    plan dense ids for.  No shipped template reaches it (every one of
    the 19 binds), so it is held to the reference evaluator here, under
    both schedules; its partials do not merge, so a pool declines."""
    from repro.engine import execute_reference

    db = _sorted_groups_db()
    spec = bind(sql, db, name="sorted")
    reference = sorted(execute_reference(spec, db))
    for execute in (execute_operators, execute_functional):
        result = execute(Planner(db).plan(spec), db)
        rows = result.payload.row_tuples()
        assert rows == sorted(rows)  # groups ascend, as dense ids do
        assert len(rows) == len(reference)
        for got, want in zip(rows, reference):
            assert got == pytest.approx(want), sql
    assert morsel.stats["barrier_breakers"] == 1
    assert morsel.stats["dense_aggregates"] == 0
    pipe = morsel.build(Planner(db).plan(spec), db)
    assert pipe.breaker.dense is None and not pipe.supports_partials
    with pytest.raises(morsel.Decline, match="no_partials"):
        pipe.new_accumulator()
    _assert_records_identical(db, lambda: Planner(db).plan(spec), sql)


# ---------------------------------------------------------------------------
# Resumed recording: a statement runs none of the chain prefix an
# earlier one recorded, and records what a cold run records
# ---------------------------------------------------------------------------

RESUME_SIZES = [1, 7, 65536, 1_000_000_000]


def _assert_resumed_records_identical(db, fresh_plan, label=""):
    """Record ``fresh_plan()`` on top of whatever the plan cache (or
    the plan's own template memo) already holds; every covered operator
    — resumed or run — must end up with the tuple a cold operator-path
    run produces.  Returns the movement of ``morsel.stats``."""
    plan = fresh_plan()
    covered = morsel.build(plan, db).covered_ops  # the whole chain
    before = morsel.snapshot_stats()
    fused = morsel.prepare_fused(plan, db)
    moved = morsel.stats_since(before)
    execute_operators(plan, db)  # serves the recordings, runs the tail
    assert (moved["fused_operators"] + moved["resumed_operators"]
            == (len(covered) if fused else 0)), label
    reference = fresh_plan()
    for op in reference.operators:
        op._cached_result = None
    enabled = plan_cache.enabled()
    plan_cache.enable(False)  # cold: nothing served, nothing stored
    try:
        execute_operators(reference, db)
    finally:
        plan_cache.enable(enabled)
    _assert_same_records(plan, reference, {id(op) for op in covered}, label)
    return moved


@pytest.mark.parametrize("source", ["ssb", "tpch", "sqlgen", "resume_db"])
@pytest.mark.parametrize("rows_per_morsel", RESUME_SIZES)
def test_statements_in_sequence_record_what_a_cold_run_records(
        source, rows_per_morsel, request):
    """The plan cache is never invalidated between the statements, so
    each one starts wherever the earlier ones' recordings end."""
    if source == "resume_db":
        db = _resume_db()
        queries = sql_workload(db, _resume_statements())
    else:
        db = request.getfixturevalue("tpch_db" if source == "tpch"
                                     else "ssb_db")
        queries = (sql_workload(db, sqlgen.generate(5, 39))
                   if source == "sqlgen"
                   else {"ssb": ssb, "tpch": tpch}[source].workload(db))
    plan_cache.enable(True)
    plan_cache.invalidate(db)
    try:
        with morsel.sized(rows_per_morsel):
            for query in queries:
                _assert_resumed_records_identical(
                    db, query.instantiate, query.name)
    finally:
        plan_cache.invalidate(db)
    _assert_no_swallowed_errors()
    stats = morsel.snapshot_stats()
    assert stats["declined_queries"] == 0
    # SSB's flights share scans and joins; no two TPC-H templates share
    # even a scan, so there the sequence only proves nothing is broken
    assert (stats["resumed_operators"] > 0) == (source != "tpch")


def _resume_db():
    """``f`` with three dimensions: ``d`` and ``g`` are N:1, ``e`` holds
    every key twice (a 1:N join).  Nominal rows are no whole multiple
    of the actual ones, so a nominal count chained from the wrong
    operator rounds differently."""
    db = Database("resume")
    n = 500
    rng = np.random.default_rng(17)
    fact = db.create_table("f", nominal_rows=80_007)
    fact.add_column("fk", ColumnType.INT32, rng.integers(1, 6, n))
    fact.add_column("ek", ColumnType.INT32, rng.integers(1, 5, n))
    fact.add_column("gk", ColumnType.INT32, rng.integers(1, 4, n))
    fact.add_column("x", ColumnType.INT32, rng.integers(-20, 21, n))
    fact.add_column("y", ColumnType.INT32, rng.integers(0, 100, n))
    dim = db.create_table("d", nominal_rows=5)
    dim.add_column("id", ColumnType.INT32, np.arange(1, 6))
    dim.add_column("kind", ColumnType.INT32, np.arange(5) % 2)
    twice = db.create_table("e", nominal_rows=8)
    twice.add_column("eid", ColumnType.INT32, np.repeat(np.arange(1, 5), 2))
    twice.add_column("tag", ColumnType.INT32, np.arange(8))
    third = db.create_table("g", nominal_rows=30)
    third.add_column("gid", ColumnType.INT32, np.arange(1, 4))
    third.add_column("w", ColumnType.INT32, np.arange(3) * 7)
    return db


_FD = "select count(*) from f, d where f.fk = d.id and kind = 0 and y < 60"
_FDE = ("select {}, sum(x), count(*) from f, d, e where f.fk = d.id "
        "and f.ek = e.eid and kind = 0 and y < 60 group by {}")
_FG = ("select w, sum(x) from f, g where f.gk = g.gid and w < 10 and y < 60 "
       "group by w")


def _resume_statements():
    """Literal substitution over six shapes that share prefixes, as
    ``sqlgen`` does over SSB's — but with joins that keep or double
    their input, where a mis-chained nominal count shows."""
    shapes = ("select sum(x) from f where y < 60", _FD,
              _FDE.format("tag", "tag"), _FG, _FDE.format("kind", "kind"),
              "select w, tag, count(*) from f, d, e, g where f.fk = d.id "
              "and f.ek = e.eid and f.gk = g.gid and kind = 0 and w < 10 "
              "and y < 60 group by w, tag")
    return [("r{}-{}".format(bound, index),
             shape.replace("y < 60", "y < {}".format(bound)))
            for bound in (15, 40, 60, 85)
            for index, shape in enumerate(shapes)]

#: name -> (statements recorded first, the statement under test,
#: chain operators it must resume, whether it may run a morsel)
RESUME_CASES = {
    # recorded scan mask, unrecorded join: the entry is a selection
    "entry_at_a_selection": (
        ["select sum(x) from f where y < 60"],
        _FG, 1, True),
    # the entry is a join, and the join after it is 1:N
    "one_to_many_after_the_entry": (
        [_FD], _FDE.format("tag", "tag"), 2, True),
    # same joins, another group by: only the breaker is left
    "new_breaker_over_a_recorded_chain": (
        [_FDE.format("tag", "tag")], _FDE.format("kind", "kind"), 3, False),
    # an empty recorded join is one empty morsel for the join after it
    "empty_join_entry": (
        [_FD.replace("y < 60", "y < 0")],
        _FDE.format("tag", "tag").replace("y < 60", "y < 0"), 2, True),
    # nothing in common but the statement shape: enters at the scan
    "nothing_recorded": (
        ["select sum(x) from f where y < 61"], _FD, 0, True),
}


@pytest.mark.parametrize("name", sorted(RESUME_CASES))
@pytest.mark.parametrize("memo_only", [False, True])
@pytest.mark.parametrize("rows_per_morsel", RESUME_SIZES)
def test_resume_edges(name, memo_only, rows_per_morsel):
    """``memo_only``: the plan cache is off and the recording sits in
    the plan's own template memo (the chain below the resumed depth
    memoised, everything above forgotten)."""
    first, sql, resumed, runs_morsels = RESUME_CASES[name]
    db = _resume_db()
    (query,) = sql_workload(db, {name: sql})
    with morsel.sized(rows_per_morsel):
        if memo_only:
            template = query.template_plan()
            execute_operators(template, db)
            chain = morsel.build(template, db).covered_ops
            for op in template.operators:
                if op not in chain[:resumed]:
                    op._cached_result = None
        else:
            plan_cache.enable(True)
            for earlier in sql_workload(db, dict(enumerate(first))):
                execute_functional(earlier.instantiate(), db)
        moved = _assert_resumed_records_identical(
            db, query.instantiate, name)
    assert moved["resumed_operators"] == resumed
    assert (moved["morsels"] > 0) == runs_morsels
    _assert_no_swallowed_errors()
    assert morsel.snapshot_stats()["declined_queries"] == 0


@pytest.mark.parametrize("sql,rows", [
    ("select sum(x), count(*) from f, d where f.fk = d.id and y > 1000", 1),
    ("select kind, sum(x) from f, d where f.fk = d.id and y > 1000 "
     "group by kind", 0)])
@pytest.mark.parametrize("first", [
    "select min(x) from f where y > 1000",  # an empty scan mask
    "select min(x) from f, d where f.fk = d.id and y > 1000"])  # ... join
@pytest.mark.parametrize("rows_per_morsel", [7, 1_000_000_000])
def test_an_empty_recorded_prefix_still_owes_the_scalar_row(
        sql, rows, first, rows_per_morsel):
    db = _edge_db()
    plan_cache.enable(True)
    (earlier,) = sql_workload(db, {"first": first})
    (query,) = sql_workload(db, {"empty": sql})
    with morsel.sized(rows_per_morsel):
        execute_functional(earlier.instantiate(), db)
        moved = _assert_resumed_records_identical(
            db, query.instantiate, sql)
        result = execute_functional(query.instantiate(), db)
    assert moved["resumed_operators"] >= 1
    assert result.actual_rows == rows
    assert (sorted(result.payload.row_tuples())
            == sorted(execute_reference(query.spec, db)))


def test_a_recorded_tid_array_is_no_entry_for_a_selection():
    """A selection's recording is a lazy mask wherever the program made
    it; ``materialised_scans`` plants a tid array, and the fused path
    declines rather than slice it as a mask."""
    from tests.conftest import materialised_scans

    db = _resume_db()
    plan_cache.enable(True)
    run = lambda sql: execute_functional(
        sql_workload(db, {"q": sql})[0].instantiate(), db)
    with materialised_scans():
        run("select sum(x) from f where y < 60")
    morsel.reset_stats()
    result = run(_FG)
    assert dict(morsel.decline_reasons) == {"entry_not_lazy": 1}
    assert (sorted(result.payload.row_tuples()) == sorted(execute_reference(
        sql_workload(db, {"q": _FG})[0].spec, db)))


@pytest.fixture()
def chain_calls(monkeypatch):
    """Labels of the chain operators whose ``select`` / ``match`` ran
    (``_resume_db``'s fact table is ``f``; build-side scans are not
    chain operators)."""
    from repro.engine.operators import HashJoin, RefineSelect

    calls = []
    for cls, kernel in ((ScanSelect, "select"), (RefineSelect, "select"),
                        (HashJoin, "match")):
        def logging(self, *args, _inner=getattr(cls, kernel), **kwargs):
            if getattr(self, "table", "f") == "f":
                calls.append(self.label)
            return _inner(self, *args, **kwargs)
        monkeypatch.setattr(cls, kernel, logging)
    return calls


def test_a_resumed_recording_calls_no_kernel_of_a_resumed_operator(
        chain_calls):
    """The kernel spy of ``TestOneChunkKernel``, by operator: ``match``
    never runs for a resumed stage and runs once per morsel for every
    stage after it; ``select`` never once the entry is past the
    selections."""
    db = _resume_db()
    plan_cache.enable(True)
    scan, join_d, join_e = "Scan(f)", "Join(f.fk=d.id)", "Join(f.ek=e.eid)"
    run = lambda sql: execute_functional(
        sql_workload(db, {"q": sql})[0].instantiate(), db)
    with morsel.sized(100):  # five morsels of fact rows
        run(_FD)
        assert chain_calls == [scan, join_d] * 5
        del chain_calls[:]
        survivors = len(plan_cache.peek(db, sql_workload(
            db, {"q": _FD})[0].template_plan().root.children[0]
            .fingerprint())[0])
        run(_FDE.format("tag", "tag"))
        # morsels of the recorded join's rows, not of the fact table
        assert chain_calls == [join_e] * -(-survivors // 100)
        del chain_calls[:]
        run(_FDE.format("kind", "kind"))  # only the breaker is left
        run(_FDE.format("kind", "kind"))  # everything is recorded
        assert chain_calls == []
        # entry at the scan's recorded mask: every join runs, no select
        run(_FG)
        assert chain_calls == ["Join(f.gk=g.gid)"] * 5


@pytest.mark.parametrize("stale", ["clear_database_caches",
                                   "compress_database", "epoch"])
def test_a_stale_recording_is_never_resumed(stale, chain_calls):
    """After anything that drops or outdates the plan cache the next
    statement enters at the scan — and answers as the reference does."""
    from repro.storage import EpochStore
    from repro.storage.compression import compress_database

    db = _resume_db()
    plan_cache.enable(True)
    execute_functional(sql_workload(db, {"a": _FD})[0].instantiate(), db)
    if stale == "clear_database_caches":
        E.clear_database_caches()
    elif stale == "compress_database":
        compress_database(db)
    else:
        db = EpochStore(db).advance(fraction=0.2)
    (query,) = sql_workload(db, {"b": _FDE.format("tag", "tag")})
    del chain_calls[:]
    before = morsel.snapshot_stats()
    result = execute_functional(query.instantiate(), db)
    moved = morsel.stats_since(before)
    assert moved["resumed_operators"] == 0 and moved["fused_operators"] == 4
    assert chain_calls == ["Scan(f)", "Join(f.fk=d.id)", "Join(f.ek=e.eid)"]
    assert (sorted(result.payload.row_tuples())
            == sorted(execute_reference(query.spec, db)))


# ---------------------------------------------------------------------------
# Hypothesis: random join/group-by queries, fused vs operator path
# ---------------------------------------------------------------------------

def _rand_db(seed):
    rng = np.random.default_rng(seed)
    db = Database("rand{}".format(seed))
    n = 3000
    fact = db.create_table("f", nominal_rows=100_000)
    fact.add_column("fk", ColumnType.INT32, rng.integers(1, 11, n))
    fact.add_column("x", ColumnType.INT32, rng.integers(-20, 21, n))
    fact.add_column("y", ColumnType.INT32, rng.integers(0, 100, n))
    dim = db.create_table("d", nominal_rows=10)
    dim.add_column("id", ColumnType.INT32, np.arange(1, 11))
    dim.add_column("w", ColumnType.INT32, rng.integers(0, 5, 10))
    return db


RAND_DBS = {seed: _rand_db(seed) for seed in range(2)}

TEMPLATES = (
    "select w, sum(x), count(*) from f, d where f.fk = d.id and {} "
    "group by w",
    "select sum(y), min(x), max(x) from f where {}",
    "select w, count(*) from f, d where f.fk = d.id and {} group by w",
)


@given(seed=st.integers(0, 1),
       template=st.sampled_from(TEMPLATES),
       op=st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]),
       literal=st.integers(-25, 105),
       rows_per_morsel=st.sampled_from([64, 1000, 65536, 1_000_000_000]))
@settings(max_examples=40, deadline=None)
def test_random_queries_identical_across_morsel_sizes(
        seed, template, op, literal, rows_per_morsel):
    db = RAND_DBS[seed]
    sql = template.format("y {} {}".format(op, literal))
    plan_cache.enable(False)

    def run(execute):
        plan = Planner(db).plan(bind(sql, db, name="rand"))
        result = execute(plan, db)
        return (result.payload.row_tuples(), result.actual_rows,
                result.nominal_rows, result.row_width_bytes)

    reference = run(execute_operators)
    with morsel.sized(rows_per_morsel):
        fused = run(execute_functional)
        _assert_records_identical(
            db, lambda: Planner(db).plan(bind(sql, db, name="rand")), sql)
    assert fused == reference, sql


# ---------------------------------------------------------------------------
# The partial merge against its dense-domain original
# ---------------------------------------------------------------------------

def _dense_merge(pipe, partials, domain, index=0):
    """The oracle: aggregate-partial merging as it stood before the
    merge moved into the space of the groups that exist
    (``new_accumulator`` / ``absorb`` / ``_pack_chunk`` at PR 18;
    ``GroupByAggregate.merge`` since PR 22) — accumulators over the
    whole dense domain, the groups found by ``flatnonzero`` over it."""
    breaker = pipe.breaker
    dense = breaker.dense
    counts = np.zeros(domain, dtype=np.int64)
    sums, extrema, comps = {}, {}, {}
    for aggregate in breaker.aggregates:
        if aggregate.func in ("sum", "avg"):
            sums[aggregate.alias] = np.zeros(domain)
            if aggregate.alias in dense.compensated:
                comps[aggregate.alias] = np.zeros(domain)
        elif aggregate.func == "min":
            extrema[aggregate.alias] = np.full(domain, np.inf)
        elif aggregate.func == "max":
            extrema[aggregate.alias] = np.full(domain, -np.inf)
    for partial in partials:
        present = partial.present
        counts[present] += partial.counts
        for aggregate in breaker.aggregates:
            if aggregate.func == "count":
                continue
            shipped = partial.values[aggregate.alias]
            if aggregate.func in ("sum", "avg"):
                if aggregate.alias in dense.compensated:
                    target = sums[aggregate.alias]
                    old = target[present]
                    merged = old + shipped
                    lost = np.where(
                        np.abs(old) >= np.abs(shipped),
                        (old - merged) + shipped,
                        (shipped - merged) + old,
                    )
                    comps[aggregate.alias][present] += lost
                    target[present] = merged
                else:
                    sums[aggregate.alias][present] += shipped
            elif aggregate.func == "min":
                target = extrema[aggregate.alias]
                target[present] = np.minimum(target[present], shipped)
            else:
                target = extrema[aggregate.alias]
                target[present] = np.maximum(target[present], shipped)
    present = np.flatnonzero(counts) if breaker.group_refs else np.arange(1)
    values = {}
    for alias, total in sums.items():
        values[alias] = total[present]
        if alias in comps:
            values[alias] = values[alias] + comps[alias][present]
    for alias, extreme in extrema.items():
        values[alias] = extreme[present]
    merged = AggregatePartial(present, counts[present], values)
    merged.index = index
    return merged


#: (func, alias, compensated): every merge rule, the float ones twice
_MERGE_AGGS = [("count", "n", False), ("sum", "si", False),
               ("avg", "ai", False), ("min", "lo", False),
               ("max", "hi", False), ("sum", "sf", True),
               ("avg", "af", True)]


def _merge_pipe(grouped):
    """A pipeline that is nothing but its breaker's aggregation plan —
    all the merge reads."""
    from repro.engine.expressions import Aggregate, ColumnRef

    pipe = morsel.FusedPipeline(None, None)
    pipe.breaker = GroupByAggregate(
        ScanSelect("f"), [ColumnRef("f", "g")] if grouped else [],
        [Aggregate(func, None, alias) for func, alias, _ in _MERGE_AGGS])
    pipe.breaker.dense = _DenseAggregate(
        [], [alias for _, alias, compensated in _MERGE_AGGS if compensated])
    return pipe


def _draw_partial(rng, index, grouped, ids):
    """A partial as ``GroupByAggregate.partial`` shapes it: sorted unique
    int64 ids with >= 1 row each — or, ungrouped, the one group 0,
    which exists even over zero rows (``ids`` empty)."""
    if grouped:
        present = np.array(sorted(ids), dtype=np.int64)
        counts = rng.integers(1, 10**6, len(present))
    else:
        present = np.zeros(1, dtype=np.int64)
        counts = np.array([rng.integers(1, 10**6) if ids else 0])
    n, rows = len(present), counts > 0
    whole = rng.integers(-2**40, 2**40, n).astype(np.float64)
    # floats of mixed magnitude: both Neumaier branches, real rounding
    real = rng.normal(size=n) * 10.0 ** rng.integers(-6, 13, n)
    values = {
        "si": np.where(rows, whole, 0.0), "ai": np.where(rows, whole, 0.0),
        "lo": np.where(rows, whole, np.inf),
        "hi": np.where(rows, whole, -np.inf),
        "sf": np.where(rows, real, 0.0), "af": np.where(rows, real, 0.0),
    }
    partial = AggregatePartial(present, counts.astype(np.int64), values)
    partial.index = index
    return partial


def _assert_same_partial(got, want):
    for name, a, b in ([("present", got.present, want.present),
                        ("counts", got.counts, want.counts)]
                       + [(alias, got.values[alias], want.values[alias])
                          for alias in want.values]):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        np.testing.assert_array_equal(a, b, err_msg=name)
        assert a.tobytes() == b.tobytes(), name  # == and the zero's sign
    assert got.values.keys() == want.values.keys()


def _packed(pipe, partials):
    acc = pipe.new_accumulator()
    for partial in partials:
        pipe.absorb(acc, partial)
    return pipe.breaker.merge(acc)


def _check_merge(grouped, domain, id_lists, seed, cut):
    """One level (all partials in the given absorb order) and two
    (the parent merging two workers' packed chunks), union space
    against dense domain."""
    pipe = _merge_pipe(grouped)
    rng = np.random.default_rng(seed)
    partials = [_draw_partial(rng, index, grouped, ids)
                for index, ids in id_lists]
    morsel.reset_stats()
    _assert_same_partial(_packed(pipe, partials),
                         _dense_merge(pipe, partials, domain))
    # one count per absorbed partial (and per compensated aggregate)
    assert morsel.stats["partial_merges"] == len(partials)
    assert morsel.stats["compensated_merges"] == 2 * len(partials)
    shipped = []
    for index, chunk in enumerate((partials[:cut], partials[cut:])):
        want = _dense_merge(pipe, chunk, domain, index)
        _assert_same_partial(_packed(pipe, chunk), want)
        shipped.append(want)
    _assert_same_partial(_packed(pipe, shipped),
                         _dense_merge(pipe, shipped, domain))


@st.composite
def _merge_cases(draw):
    grouped = draw(st.booleans())
    domain = draw(st.sampled_from(
        [1, 7, 4096, GROUP_DOMAIN_CAP])) if grouped else 1
    # few distinct ids, so partials overlap; both ends of the domain
    pool = sorted({0, domain - 1, *draw(st.lists(
        st.integers(0, domain - 1), max_size=6))})
    n_partials = draw(st.integers(0, 6))
    id_lists = [(index, draw(st.lists(st.sampled_from(pool), unique=True)))
                for index in draw(st.permutations(range(n_partials)))]
    return (grouped, domain, id_lists, draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(0, n_partials)))


@given(case=_merge_cases())
@settings(max_examples=60, deadline=None)
def test_union_merge_equals_the_dense_merge(case):
    _check_merge(*case)


_CAP = GROUP_DOMAIN_CAP


@pytest.mark.parametrize("grouped, domain, id_lists", [
    pytest.param(True, 4096, [], id="zero_partials"),
    pytest.param(False, 1, [], id="zero_partials_ungrouped"),
    pytest.param(True, 4096, [(0, []), (1, [])], id="zero_row_partials"),
    pytest.param(False, 1, [(0, []), (1, [])],
                 id="zero_row_partials_ungrouped"),
    pytest.param(False, 1, [(0, []), (1, [0]), (2, [])],
                 id="ungrouped"),
    pytest.param(True, 1, [(0, [0]), (1, [0])], id="one_group"),
    pytest.param(True, 4096, [(0, [17])], id="one_partial"),
    pytest.param(True, _CAP, [(0, [0, _CAP - 1]), (1, [_CAP - 1]),
                              (2, [5])], id="domain_at_the_cap"),
    pytest.param(True, 4096, [(2, [9, 3]), (0, [3, 4095]), (1, [])],
                 id="out_of_index_order"),
])
def test_union_merge_edge_cases(grouped, domain, id_lists):
    for cut in range(len(id_lists) + 1):
        _check_merge(grouped, domain, id_lists, seed=cut, cut=cut)


# ---------------------------------------------------------------------------
# Shared-memory column store
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not shm.available(), reason="no shared memory")
def test_shm_roundtrip_and_cleanup():
    db = ssb.generate(scale_factor=0.01, data_scale=0.01, seed=5)
    manifest = shm.export_database(db)
    assert shm.export_database(db) is manifest  # memoised
    assert shm.export_count(db) == 1

    attached = shm.attach_database(manifest)
    assert attached.name == db.name
    for table in db.tables:
        twin = attached.table(table.name)
        assert twin.actual_rows == table.actual_rows
        assert twin.nominal_rows == table.nominal_rows
        for column in table.columns:
            view = twin.column(column.name).values
            np.testing.assert_array_equal(view, column.values)
            assert not view.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                view[0] = 0
    for table in attached.tables:
        for column in table.columns:
            if column.dictionary is not None:
                assert column.dictionary == (
                    db.table(table.name).column(column.name).dictionary)

    shm.detach_all()
    from repro.harness.experiments import clear_database_caches
    clear_database_caches()
    assert shm.export_count() == 0


@pytest.mark.skipif(not shm.available(), reason="no shared memory")
def test_shm_attached_database_answers_queries():
    db = ssb.generate(scale_factor=0.01, data_scale=0.01, seed=6)
    queries = ssb.workload(db)
    reference = _batch(db, queries, execute_operators)
    attached = shm.attach_database(shm.export_database(db))
    try:
        assert _batch(attached, ssb.workload(attached),
                      execute_operators) == reference
        with morsel.sized(1000):
            assert _batch(attached, ssb.workload(attached)) == reference
    finally:
        kernels.invalidate(attached)
        shm.invalidate(db)
        shm.detach_all()


# ---------------------------------------------------------------------------
# MorselPool: intra-query parallelism
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not (FORK_OK and shm.available()),
                    reason="needs fork + shared memory")
def test_morsel_pool_matches_sequential():
    from repro.harness.parallel import MorselPool

    db = ssb.generate(scale_factor=0.01, data_scale=0.02, seed=11)
    queries = ssb.workload(db)
    expected = {}
    for query in queries:
        result = execute_operators(query.instantiate(), db)
        expected[query.name] = (result.payload.row_tuples(),
                                result.actual_rows, result.nominal_rows,
                                result.row_width_bytes)
    try:
        with MorselPool(db, queries, workload="ssb", jobs=2) as pool:
            pool.warm()
            results = pool.run_queries()
            assert pool.fallbacks == 0
    finally:
        shm.invalidate(db)
    got = {
        name: (result.payload.row_tuples(), result.actual_rows,
               result.nominal_rows, result.row_width_bytes)
        for name, result in results.items()
    }
    assert got == expected


@pytest.mark.skipif(not (FORK_OK and shm.available()),
                    reason="needs fork + shared memory")
def test_morsel_pool_parent_builds_each_pipeline_once(monkeypatch):
    """The parent keeps one pipeline per query name for the pool's
    life, as its workers do: a repeated query builds nothing, a
    declined one is remembered too (and still falls back, counted,
    on every call), and ``close`` drops the memo."""
    from repro.harness.parallel import MorselPool

    db = ssb.generate(scale_factor=0.01, data_scale=0.01, seed=14)
    queries = ssb.workload(db)
    fused, declined = queries[0].name, queries[3].name
    reference = _batch(db, queries, execute_operators)
    built = []
    build = morsel.build

    def spy(plan, database, **resume):
        built.append(plan.name)
        if plan.name == declined:
            raise morsel.Decline("test")
        return build(plan, database, **resume)

    try:
        with MorselPool(db, queries, workload="ssb", jobs=2) as pool:
            pool.warm()
            # patched after the fork: the workers build as ever
            monkeypatch.setattr(morsel, "build", spy)
            for calls in (1, 2, 3):
                for name in (fused, declined):
                    assert (pool.run_query(name).payload.row_tuples()
                            == reference[name])
                assert pool.fallbacks == calls
                # the pool built each once; the fallback's own
                # ``execute_functional`` tries (and declines) per call
                assert built.count(fused) == 1
                assert built.count(declined) == 1 + calls
            assert pool._pipelines[declined] is None
            assert pool._pipelines[fused].plan.name == fused
        assert pool._pipelines == {}
    finally:
        shm.invalidate(db)


@pytest.mark.skipif(not (FORK_OK and shm.available()),
                    reason="needs fork + shared memory")
def test_morsel_pool_falls_back_on_worker_failure():
    """A worker-*reported* error (engine bug, mid-run decline) falls
    back in-process; process deaths are self-healed, not fallen back."""
    from repro.harness import parallel
    from repro.harness.parallel import MorselPool

    db = ssb.generate(scale_factor=0.01, data_scale=0.01, seed=12)
    queries = ssb.workload(db)
    reference = _batch(db, queries, execute_operators)
    try:
        with MorselPool(db, queries, workload="ssb", jobs=2) as pool:
            def boom(name, pipe, tasks):
                raise parallel._PoolTaskError("worker lost")

            pool._run_pooled = boom
            results = pool.run_queries()
            assert pool.fallbacks == len(queries)
    finally:
        shm.invalidate(db)
    got = {name: result.payload.row_tuples()
           for name, result in results.items()}
    assert got == reference


@pytest.mark.skipif(not (FORK_OK and shm.available()),
                    reason="needs fork + shared memory")
def test_morsel_pool_survives_worker_kill():
    """SIGKILLing a live worker re-queues its chunks and respawns —
    results stay byte-identical with ZERO fallbacks."""
    import os
    import signal

    from repro.harness.parallel import MorselPool

    db = ssb.generate(scale_factor=0.01, data_scale=0.02, seed=13)
    queries = ssb.workload(db)
    reference = _batch(db, queries, execute_operators)
    try:
        with MorselPool(db, queries, workload="ssb", jobs=2) as pool:
            pool.warm()
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            results = pool.run_queries()
            assert pool.fallbacks == 0
            assert pool.degraded is None
            assert pool.counters["worker_restarts"] >= 1
    finally:
        shm.invalidate(db)
    got = {name: result.payload.row_tuples()
           for name, result in results.items()}
    assert got == reference


# ---------------------------------------------------------------------------
# run_workload: composition with faults and the query lifecycle
# ---------------------------------------------------------------------------

def _sim_run(db, **kwargs):
    plan_cache.invalidate(db)
    run = run_workload(db, ssb.workload(db), "runtime",
                       config=E.FULL_CONFIG, users=2, repetitions=1,
                       collect_results=True, **kwargs)
    results = {name: tuple(table.row_tuples())
               for name, table in run.results.items()}
    return run, results


def _sim_pair(db, **kwargs):
    """The same run warmed operator at a time, then fused."""
    with operator_path():
        base = _sim_run(db, **kwargs)
    assert morsel.snapshot_stats()["fused_queries"] == 0
    fused = _sim_run(db, **kwargs)
    assert morsel.snapshot_stats()["fused_queries"] == len(ssb.QUERIES)
    return base, fused


def test_run_workload_morsels_identical_simulation():
    (base_run, base_results), (fused_run, fused_results) = _sim_pair(
        E.ssb_database(1))
    assert fused_results == base_results
    assert fused_run.seconds == base_run.seconds


def test_run_workload_morsels_with_faults_identical():
    (base_run, base_results), (fused_run, fused_results) = _sim_pair(
        E.ssb_database(1), faults=FaultConfig.uniform(0.05, seed=7))
    assert fused_results == base_results
    assert fused_run.fault_digest == base_run.fault_digest
    assert fused_run.seconds == base_run.seconds


def test_run_workload_morsels_with_lifecycle_identical():
    from repro.engine.execution import LifecycleConfig

    (base_run, base_results), (fused_run, fused_results) = _sim_pair(
        E.ssb_database(1), lifecycle=LifecycleConfig(max_inflight=2))
    assert fused_results == base_results
    assert fused_run.seconds == base_run.seconds


# ---------------------------------------------------------------------------
# Warm-up: records everything once, then builds nothing
# ---------------------------------------------------------------------------

def test_warm_run_builds_nothing(monkeypatch):
    """A second warm-up on the same database asks whether the plans are
    memoised *before* analysing them: no pipeline is built, no kernel
    cache is consulted, no counter moves."""
    db = ssb.generate(scale_factor=0.01, data_scale=0.01, seed=21)
    plan_cache.enable(True)
    try:
        functional_warm(db, ssb.workload(db))
        assert morsel.snapshot_stats()["fused_queries"] == len(ssb.QUERIES)

        calls = []
        monkeypatch.setattr(
            morsel, "build",
            lambda plan, database: calls.append("morsel.build"))
        for method in ("join_index", "position_lookup", "column_bounds"):
            monkeypatch.setattr(
                kernels.KernelCache, method,
                lambda self, column, _m=method: calls.append(_m))
        before = morsel.snapshot_stats()
        reasons = dict(morsel.decline_reasons)
        functional_warm(db, ssb.workload(db))  # fresh templates
        assert calls == []
        assert morsel.snapshot_stats() == before
        assert dict(morsel.decline_reasons) == reasons
    finally:
        plan_cache.invalidate(db)


LIMIT_SQL = ("select lo_orderkey, lo_quantity from lineorder "
             "where lo_discount >= 5 limit 50")


def test_warm_up_records_limit_templates():
    """Warm-up never takes the ``Limit`` shortcut: it serves a row
    prefix and memoises nothing, which would leave the DES to re-run
    the chain operator at a time on first touch."""
    db = E.ssb_database(1)

    def run():
        plan_cache.invalidate(db)
        queries = sql_workload(db, {"lim": LIMIT_SQL})
        result = run_workload(db, queries, "runtime", config=E.FULL_CONFIG,
                              collect_results=True)
        return queries, result

    with operator_path():
        _, base_run = run()
    morsel.reset_stats()
    queries, fused_run = run()
    stats = morsel.snapshot_stats()
    assert stats["fused_queries"] == 1
    assert stats["limit_fused_queries"] == 0
    (query,) = queries
    assert all(op._cached_result is not None
               for op in query.template_plan().operators)
    assert fused_run.seconds == base_run.seconds
    assert (fused_run.results["lim"].row_tuples()
            == base_run.results["lim"].row_tuples())
    # the answer path still shortcuts
    (fresh,) = sql_workload(db, {"lim": LIMIT_SQL})
    execute_functional(fresh.instantiate(), db)
    assert morsel.snapshot_stats()["limit_fused_queries"] == 1


# ---------------------------------------------------------------------------
# Counters and the one setting
# ---------------------------------------------------------------------------

def test_metrics_surface_morsel_counters():
    """One run's warm-up shows in ``morsel.stats`` (what ``repro run``
    and the report print the movement of)."""
    db = E.ssb_database(1)
    plan_cache.enable(True)  # as ``repro run`` has it
    plan_cache.invalidate(db)
    before = morsel.snapshot_stats()
    try:
        run_workload(db, ssb.workload(db), "runtime", config=E.FULL_CONFIG)
    finally:
        plan_cache.invalidate(db)  # the database is shared
    moved = morsel.stats_since(before)
    assert moved["fused_queries"] == len(ssb.QUERIES)
    assert moved["morsels"] >= moved["fused_queries"]
    assert moved["fused_operators"] > moved["fused_queries"]
    assert moved["declined_queries"] == 0
    # the later templates resume the earlier ones' scans and joins, and
    # run + resumed is every operator the fused queries cover
    assert moved["resumed_operators"] > 0
    covered = sum(len(morsel.build(query.instantiate(), db).covered_ops)
                  for query in ssb.workload(db))
    assert (moved["fused_operators"] + moved["resumed_operators"]
            == covered)


def test_morsel_rows_override():
    assert morsel.morsel_rows() == morsel.DEFAULT_MORSEL_ROWS
    with morsel.sized(512):
        assert morsel.morsel_rows() == 512
        with morsel.sized(64):
            assert morsel.morsel_rows() == 64
        assert morsel.morsel_rows() == 512
    assert morsel.morsel_rows() == morsel.DEFAULT_MORSEL_ROWS
    with pytest.raises(ValueError):
        morsel.set_morsel_rows(0)
