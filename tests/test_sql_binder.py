"""Unit tests for the binder (name resolution, QuerySpec construction)."""

import pytest

from repro.engine.expressions import And, Between, ColumnRef, Comparison
from repro.sql import bind
from repro.sql.binder import BindError


def test_unqualified_resolution(toy_db):
    spec = bind("select amount from sales", toy_db)
    assert spec.select_items[0][1] == ColumnRef("sales", "amount")


def test_qualified_resolution(toy_db):
    spec = bind("select sales.amount from sales", toy_db)
    assert spec.select_items[0][1] == ColumnRef("sales", "amount")


def test_unknown_table_rejected(toy_db):
    with pytest.raises(BindError):
        bind("select a from nonexistent", toy_db)


def test_unknown_column_rejected(toy_db):
    with pytest.raises(BindError):
        bind("select bogus from sales", toy_db)


def test_table_not_in_from_rejected(toy_db):
    with pytest.raises(BindError):
        bind("select store.region from sales", toy_db)


def test_join_edge_extraction(toy_db):
    spec = bind(
        "select amount from sales, store where skey = id and amount < 10",
        toy_db,
    )
    assert spec.join_edges == [
        (ColumnRef("sales", "skey"), ColumnRef("store", "id"))
    ]
    assert set(spec.filters) == {"sales"}


def test_filters_grouped_per_table(toy_db):
    spec = bind(
        "select amount from sales, store "
        "where skey = id and amount < 10 and price > 2 and size < 100",
        toy_db,
    )
    sales_filter = spec.filters["sales"]
    assert isinstance(sales_filter, And)
    assert len(sales_filter.children) == 2
    assert isinstance(spec.filters["store"], Comparison)


def test_multi_table_non_join_predicate_rejected(toy_db):
    with pytest.raises(BindError):
        bind(
            "select amount from sales, store where skey = id and amount < size",
            toy_db,
        )


def test_or_across_tables_rejected(toy_db):
    with pytest.raises(BindError):
        bind(
            "select amount from sales, store "
            "where skey = id and (amount < 5 or size > 3)",
            toy_db,
        )


def test_constant_predicate_rejected_by_name(toy_db):
    """A conjunct over no column is not a cross-table predicate: the
    message names what it is (and the conjunct)."""
    with pytest.raises(BindError, match=r"constant predicates.*1 = 1"):
        bind("select count(*) as c from sales where 1 = 1", toy_db)
    with pytest.raises(BindError, match="only equi-join predicates"):
        bind("select amount from sales, store "
             "where skey = id and amount < size", toy_db)


def test_star_expansion(toy_db):
    spec = bind("select * from sales", toy_db)
    assert [alias for alias, _ in spec.select_items] == [
        "skey", "amount", "price",
    ]


def test_aggregate_aliases(toy_db):
    spec = bind("select sum(amount), count(*) as n from sales", toy_db)
    assert spec.aggregates[0].alias == "sum_1"
    assert spec.aggregates[1].alias == "n"
    assert spec.is_aggregation


def test_group_by_resolution(toy_db):
    spec = bind(
        "select region, sum(amount) as s from sales, store "
        "where skey = id group by region",
        toy_db,
    )
    assert spec.group_by == [ColumnRef("store", "region")]


def test_non_grouped_output_rejected(toy_db):
    with pytest.raises(BindError):
        bind(
            "select price, sum(amount) as s from sales, store "
            "where skey = id group by region",
            toy_db,
        )


def test_order_by_must_reference_output(toy_db):
    with pytest.raises(BindError):
        bind("select amount from sales order by price", toy_db)


def test_order_by_aggregate_alias(toy_db):
    spec = bind(
        "select region, sum(amount) as s from sales, store "
        "where skey = id group by region order by s desc",
        toy_db,
    )
    assert spec.order_by == [("s", False)]


def test_between_bound(toy_db):
    spec = bind("select amount from sales where amount between 2 and 7", toy_db)
    assert isinstance(spec.filters["sales"], Between)


def test_required_columns(toy_db):
    spec = bind(
        "select region, sum(amount * price) as s from sales, store "
        "where skey = id and size < 50 group by region",
        toy_db,
    )
    assert spec.required_columns() == {
        "sales.skey", "sales.amount", "sales.price",
        "store.id", "store.size", "store.region",
    }


def test_limit_propagates(toy_db):
    spec = bind("select amount from sales limit 3", toy_db)
    assert spec.limit == 3


def test_ambiguous_column_rejected():
    import numpy as np

    from repro.storage import ColumnType, Database

    db = Database()
    for name in ("a", "b"):
        table = db.create_table(name)
        table.add_column("x", ColumnType.INT32, np.arange(3, dtype=np.int32))
    with pytest.raises(BindError):
        bind("select x from a, b", db)
