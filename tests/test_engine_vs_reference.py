"""Integration: the physical engine must agree with the naive reference
evaluator on every workload query (SSBM Q1.1-Q4.3, TPC-H Q2-Q7, and the
micro-benchmark selections)."""

import math

import pytest

from repro.engine import Planner, caches, execute_reference, plan_cache
from repro.engine.execution import execute_functional, execute_operators
from repro.sql import bind
from repro.workloads import micro, ssb, tpch


def rows_close(engine_rows, reference_rows, rel=1e-9):
    """Compare row sets with float tolerance."""
    if len(engine_rows) != len(reference_rows):
        return False
    for got, want in zip(sorted(engine_rows), sorted(reference_rows)):
        if len(got) != len(want):
            return False
        for a, b in zip(got, want):
            if isinstance(a, float) or isinstance(b, float):
                if not math.isclose(float(a), float(b), rel_tol=rel,
                                    abs_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True


#: the two schedules of the one set of chunk kernels: morsel by morsel
#: (fused-first) and operator at a time (the whole column as one chunk)
SCHEDULES = (execute_functional, execute_operators)


def run_both(database, sql, name):
    """``(spec, engine rows, reference rows)`` once per schedule, each
    on a fresh plan with nothing memoised: the schedules share their
    kernels, so agreeing with each other says nothing — each is held to
    the row-at-a-time evaluator."""
    spec = bind(sql, database, name=name)
    reference_rows = execute_reference(spec, database)
    for execute in SCHEDULES:
        caches.memo(database, "plan").clear()
        plan = Planner(database).plan(spec)
        engine_rows = execute(plan, database).payload.row_tuples()
        yield spec, engine_rows, reference_rows
    caches.memo(database, "plan").clear()


@pytest.mark.parametrize("name", list(ssb.QUERIES))
def test_ssb_query_matches_reference(ssb_db, name):
    for spec, engine_rows, reference_rows in run_both(
            ssb_db, ssb.QUERIES[name], name):
        if spec.order_by:
            # engine ordering must match the (stable-sorted) reference
            # on the order-by prefix
            names = [r.name for r in spec.group_by] + [
                a.alias for a in spec.aggregates
            ]
            key_indices = [names.index(n) for n, _ in spec.order_by]
            engine_keys = [tuple(r[i] for i in key_indices)
                           for r in engine_rows]
            ref_keys = [tuple(r[i] for i in key_indices)
                        for r in reference_rows]
            assert engine_keys == ref_keys, name
        assert rows_close(engine_rows, reference_rows), name


@pytest.mark.parametrize("name", list(tpch.QUERIES))
def test_tpch_query_matches_reference(tpch_db, name):
    for spec, engine_rows, reference_rows in run_both(
            tpch_db, tpch.QUERIES[name], name):
        if spec.limit is None:
            assert rows_close(engine_rows, reference_rows), name
            continue
        # With LIMIT after ORDER BY ties may resolve differently; the
        # sorted key prefix must agree.
        assert len(engine_rows) == len(reference_rows)
        names = [r.name for r in spec.group_by] + [
            a.alias for a in spec.aggregates
        ]
        key_indices = [names.index(n) for n, _ in spec.order_by]
        for got, want in zip(engine_rows, reference_rows):
            assert tuple(got[i] for i in key_indices) == tuple(
                want[i] for i in key_indices
            )


@pytest.mark.parametrize("name", list(micro.SERIAL_SELECTION_QUERIES))
def test_micro_serial_selection_matches_reference(ssb_db, name):
    for _, engine_rows, reference_rows in run_both(
            ssb_db, micro.SERIAL_SELECTION_QUERIES[name], name):
        assert rows_close(engine_rows, reference_rows), name


def test_micro_parallel_chain_equals_fused_selection(ssb_db):
    """The four-operator chain of Appendix B.2 must select exactly the
    rows of the fused predicate."""
    import numpy as np

    from repro.engine.frame import Frame

    plan = micro.build_parallel_selection_plan(ssb_db)
    result = execute_functional(plan, ssb_db)
    predicate = micro.parallel_selection_reference_predicate()
    mask = predicate.evaluate(Frame(ssb_db))
    assert result.actual_rows == int(np.count_nonzero(mask))


def test_cross_plan_cache_serves_fresh_templates_correctly(ssb_db):
    """A rebuilt workload (new template plans) is served from the
    fingerprint cache and must still match the reference evaluator."""
    caches.memo(ssb_db, "plan").clear()
    plan_cache.reset_stats()
    for query in ssb.workload(ssb_db):
        execute_functional(query.instantiate(), ssb_db)
    warm_stats = dict(plan_cache.stats)
    assert warm_stats["stores"] > 0

    # Fresh WorkloadQuery objects: nothing memoised on their templates,
    # so every fingerprintable subplan resolves via the cross-plan cache.
    for query in ssb.workload(ssb_db):
        engine_rows = execute_functional(
            query.instantiate(), ssb_db
        ).payload.row_tuples()
        reference_rows = execute_reference(query.spec, ssb_db)
        assert rows_close(engine_rows, reference_rows), query.name
    assert plan_cache.stats["hits"] > warm_stats["hits"]
    assert plan_cache.stats["stores"] == warm_stats["stores"]
    caches.memo(ssb_db, "plan").clear()


def test_clone_memo_poisoning_does_not_leak_across_runs(ssb_db):
    """Rebinding ``_cached_result`` on a clone's operators must affect
    neither the template, the cross-plan cache, nor later clones."""
    caches.memo(ssb_db, "plan").clear()
    query = ssb.workload(ssb_db)[0]
    execute_functional(query.template_plan(), ssb_db)

    poisoned = query.instantiate()
    for op in poisoned.root.walk():
        op._cached_result = (None, -1, -1, -1)

    fresh = query.instantiate()
    engine_rows = execute_functional(fresh, ssb_db).payload.row_tuples()
    reference_rows = execute_reference(query.spec, ssb_db)
    assert rows_close(engine_rows, reference_rows)
    for op in query.template_plan().root.walk():
        assert op._cached_result != (None, -1, -1, -1)
    caches.memo(ssb_db, "plan").clear()


def test_plan_cache_invalidate_forces_recomputation(ssb_db):
    """After invalidation a fresh template stores anew (no stale hits)."""
    caches.memo(ssb_db, "plan").clear()
    plan_cache.reset_stats()
    query = ssb.workload(ssb_db)[0]
    execute_functional(query.instantiate(), ssb_db)
    assert len(caches.memo(ssb_db, "plan")) > 0
    caches.forget(ssb_db)
    assert len(caches.memo(ssb_db, "plan")) == 0
    stores_before = plan_cache.stats["stores"]
    rebuilt = ssb.workload(ssb_db)[0]
    execute_functional(rebuilt.instantiate(), ssb_db)
    assert plan_cache.stats["stores"] > stores_before
    caches.memo(ssb_db, "plan").clear()


def test_ssb_q11_revenue_value(ssb_db):
    """Spot check one aggregate end to end against a direct computation."""
    import numpy as np

    spec = bind(ssb.QUERIES["Q1.1"], ssb_db, name="Q1.1")
    plan = Planner(ssb_db).plan(spec)
    result = execute_functional(plan, ssb_db)

    lo = ssb_db.table("lineorder")
    date = ssb_db.table("date")
    discount = lo.column("lo_discount").values.astype(np.int64)
    quantity = lo.column("lo_quantity").values
    price = lo.column("lo_extendedprice").values.astype(np.int64)
    orderdate = lo.column("lo_orderdate").values
    year_of = dict(zip(date.column("d_datekey").values,
                       date.column("d_year").values))
    years = np.array([year_of[d] for d in orderdate])
    mask = (
        (years == 1993)
        & (discount >= 1) & (discount <= 3)
        & (quantity < 25)
    )
    expected = int((price[mask] * discount[mask]).sum())
    assert int(result.payload.column("revenue")[0]) == expected
