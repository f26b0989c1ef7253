"""TPC-H: data generator and the modified Q2-Q7 workload.

The paper runs TPC-H Q2-Q7 with modifications (Appendix C.2): CoGaDB
does not support case statements, arbitrary join conditions, substring
functions, or correlated subqueries, so the queries are simplified to
the relational core they benchmark.  Our variants follow the same
spirit; the differences to the official queries are documented on each
query string:

* Q2: the correlated min-cost subquery is replaced by a direct
  min-aggregation over the filtered join.
* Q3: unchanged in structure (dates are integer-coded yyyymmdd).
* Q4: the EXISTS subquery is replaced by a join with the commit/receipt
  comparison as a lineitem filter.
* Q5: the cyclic c_nationkey = s_nationkey condition is dropped
  (CoGaDB-style acyclic join graphs).
* Q6: unchanged (discount is stored as integer percent).
* Q7: the nation self-join is reduced to the supplier side, grouped by
  the pre-computed ship year.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.storage import ColumnType, Database
from repro.workloads.base import WorkloadQuery, sql_workload
from repro.workloads.ssb import NATION_LIST, REGION_OF_NATION, REGIONS

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]


def nominal_rows(scale_factor: float) -> Dict[str, int]:
    """TPC-H table cardinalities at ``scale_factor``."""
    sf = scale_factor
    return {
        "lineitem": int(6_000_000 * sf),
        "orders": int(1_500_000 * sf),
        "partsupp": int(800_000 * sf),
        "part": int(200_000 * sf),
        "customer": int(150_000 * sf),
        "supplier": int(10_000 * sf),
        "nation": 25,
        "region": 5,
    }


def _actual_rows(nominal: int, data_scale: float, floor: int) -> int:
    return max(min(nominal, floor), int(nominal * data_scale))


def _random_date(rng, n, start_year=1992, end_year=1998):
    """Integer yyyymmdd dates, uniform over months/days (28-day months
    keep the encoding trivially valid)."""
    years = rng.integers(start_year, end_year + 1, n)
    months = rng.integers(1, 13, n)
    days = rng.integers(1, 29, n)
    return (years * 10000 + months * 100 + days).astype(np.int32), years


def generate(
    scale_factor: float = 1.0,
    data_scale: float = 1e-4,
    seed: int = 7,
) -> Database:
    """Generate a TPC-H database (columns needed by Q2-Q7)."""
    rng = np.random.default_rng(seed)
    sizes = nominal_rows(scale_factor)
    db = Database("tpch_sf{}".format(scale_factor))

    region = db.create_table("region", nominal_rows=sizes["region"])
    region.add_column("r_regionkey", ColumnType.INT32, np.arange(5))
    region.add_string_column("r_name", REGIONS)

    nation = db.create_table("nation", nominal_rows=sizes["nation"])
    nation.add_column("n_nationkey", ColumnType.INT32, np.arange(25))
    nation.add_string_column("n_name", NATION_LIST)
    nation.add_column(
        "n_regionkey", ColumnType.INT32,
        np.array([REGIONS.index(REGION_OF_NATION[n]) for n in NATION_LIST]),
    )

    n_supplier = _actual_rows(sizes["supplier"], data_scale, 600)
    supplier = db.create_table("supplier", nominal_rows=sizes["supplier"])
    supplier.add_column("s_suppkey", ColumnType.INT32,
                        np.arange(1, n_supplier + 1))
    supplier.add_column("s_nationkey", ColumnType.INT32,
                        rng.integers(0, 25, n_supplier))
    supplier.add_column("s_acctbal", ColumnType.INT32,
                        rng.integers(-1000, 10_000, n_supplier))

    n_customer = _actual_rows(sizes["customer"], data_scale, 1200)
    customer = db.create_table("customer", nominal_rows=sizes["customer"])
    customer.add_column("c_custkey", ColumnType.INT32,
                        np.arange(1, n_customer + 1))
    customer.add_column("c_nationkey", ColumnType.INT32,
                        rng.integers(0, 25, n_customer))
    customer.add_string_column(
        "c_mktsegment", SEGMENTS,
        rng.integers(0, len(SEGMENTS), n_customer),
    )

    n_part = _actual_rows(sizes["part"], data_scale, 1500)
    part = db.create_table("part", nominal_rows=sizes["part"])
    part.add_column("p_partkey", ColumnType.INT32, np.arange(1, n_part + 1))
    part.add_column("p_size", ColumnType.INT32, rng.integers(1, 51, n_part))
    part.add_column("p_retailprice", ColumnType.INT32,
                    rng.integers(900, 2100, n_part))

    n_partsupp = _actual_rows(sizes["partsupp"], data_scale, 3000)
    partsupp = db.create_table("partsupp", nominal_rows=sizes["partsupp"])
    partsupp.add_column("ps_partkey", ColumnType.INT32,
                        rng.integers(1, n_part + 1, n_partsupp))
    partsupp.add_column("ps_suppkey", ColumnType.INT32,
                        rng.integers(1, n_supplier + 1, n_partsupp))
    partsupp.add_column("ps_supplycost", ColumnType.INT32,
                        rng.integers(1, 1001, n_partsupp))
    partsupp.add_column("ps_availqty", ColumnType.INT32,
                        rng.integers(1, 10_000, n_partsupp))

    n_orders = _actual_rows(sizes["orders"], data_scale, 2500)
    orders = db.create_table("orders", nominal_rows=sizes["orders"])
    orders.add_column("o_orderkey", ColumnType.INT32,
                      np.arange(1, n_orders + 1))
    orders.add_column("o_custkey", ColumnType.INT32,
                      rng.integers(1, n_customer + 1, n_orders))
    o_dates, _ = _random_date(rng, n_orders)
    orders.add_column("o_orderdate", ColumnType.INT32, o_dates)
    orders.add_string_column(
        "o_orderpriority", PRIORITIES,
        rng.integers(0, len(PRIORITIES), n_orders),
    )

    n_lineitem = _actual_rows(sizes["lineitem"], data_scale, 6000)
    lineitem = db.create_table("lineitem", nominal_rows=sizes["lineitem"])
    lineitem.add_column("l_orderkey", ColumnType.INT32,
                        rng.integers(1, n_orders + 1, n_lineitem))
    lineitem.add_column("l_partkey", ColumnType.INT32,
                        rng.integers(1, n_part + 1, n_lineitem))
    lineitem.add_column("l_suppkey", ColumnType.INT32,
                        rng.integers(1, n_supplier + 1, n_lineitem))
    lineitem.add_column("l_quantity", ColumnType.INT32,
                        rng.integers(1, 51, n_lineitem))
    lineitem.add_column("l_extendedprice", ColumnType.INT32,
                        rng.integers(900, 100_000, n_lineitem))
    lineitem.add_column("l_discount", ColumnType.INT32,
                        rng.integers(0, 11, n_lineitem))
    ship_dates, ship_years = _random_date(rng, n_lineitem)
    lineitem.add_column("l_shipdate", ColumnType.INT32, ship_dates)
    lineitem.add_column("l_shipyear", ColumnType.INT32, ship_years)
    commit_dates, _ = _random_date(rng, n_lineitem)
    receipt_dates, _ = _random_date(rng, n_lineitem)
    lineitem.add_column("l_commitdate", ColumnType.INT32, commit_dates)
    lineitem.add_column("l_receiptdate", ColumnType.INT32, receipt_dates)
    return db


#: The modified TPC-H queries Q2-Q7 (see module docstring).
QUERIES: Dict[str, str] = {
    "Q2": (
        "select n_name, min(ps_supplycost) as min_cost "
        "from partsupp, supplier, nation, region, part "
        "where ps_suppkey = s_suppkey and s_nationkey = n_nationkey "
        "and n_regionkey = r_regionkey and ps_partkey = p_partkey "
        "and r_name = 'EUROPE' and p_size = 15 "
        "group by n_name order by min_cost"
    ),
    "Q3": (
        "select l_orderkey, "
        "sum(l_extendedprice * (100 - l_discount)) as revenue "
        "from customer, orders, lineitem "
        "where c_mktsegment = 'BUILDING' and c_custkey = o_custkey "
        "and l_orderkey = o_orderkey and o_orderdate < 19950315 "
        "and l_shipdate > 19950315 "
        "group by l_orderkey order by revenue desc limit 10"
    ),
    "Q4": (
        "select o_orderpriority, count(*) as order_count "
        "from orders, lineitem "
        "where o_orderdate >= 19930701 and o_orderdate <= 19930930 "
        "and l_orderkey = o_orderkey and l_commitdate < l_receiptdate "
        "group by o_orderpriority order by o_orderpriority"
    ),
    "Q5": (
        "select n_name, "
        "sum(l_extendedprice * (100 - l_discount)) as revenue "
        "from customer, orders, lineitem, supplier, nation, region "
        "where c_custkey = o_custkey and l_orderkey = o_orderkey "
        "and l_suppkey = s_suppkey and s_nationkey = n_nationkey "
        "and n_regionkey = r_regionkey and r_name = 'ASIA' "
        "and o_orderdate >= 19940101 and o_orderdate <= 19941231 "
        "group by n_name order by revenue desc"
    ),
    "Q6": (
        "select sum(l_extendedprice * l_discount) as revenue "
        "from lineitem "
        "where l_shipdate >= 19940101 and l_shipdate <= 19941231 "
        "and l_discount between 5 and 7 and l_quantity < 24"
    ),
    "Q7": (
        "select n_name, l_shipyear, "
        "sum(l_extendedprice * (100 - l_discount)) as revenue "
        "from supplier, lineitem, nation "
        "where s_suppkey = l_suppkey and s_nationkey = n_nationkey "
        "and n_name in ('FRANCE', 'GERMANY') "
        "and l_shipyear in (1995, 1996) "
        "group by n_name, l_shipyear order by n_name, l_shipyear"
    ),
}


def workload(database: Database, names: List[str] = None) -> List[WorkloadQuery]:
    """WorkloadQuery objects for the modified TPC-H queries."""
    selected = QUERIES if names is None else {n: QUERIES[n] for n in names}
    return sql_workload(database, selected)
