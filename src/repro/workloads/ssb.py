"""The Star Schema Benchmark (O'Neil et al.): data generator and the 13
queries (Appendix C.1).

Nominal table cardinalities follow the SSB specification (lineorder is
6,000,000 x SF); the *actual* numpy arrays are generated at
``data_scale`` of nominal (with floors so dimension domains stay
populated), which keeps functional execution cheap while all cost
modelling uses nominal sizes.
"""

from __future__ import annotations

import datetime
import math
from typing import Dict, List

import numpy as np

from repro.storage import ColumnType, Database
from repro.workloads.base import WorkloadQuery, sql_workload

#: the five SSB regions and 25 nations (5 per region)
REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
NATIONS = {
    "AFRICA": ["ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE"],
    "AMERICA": ["ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES"],
    "ASIA": ["CHINA", "INDIA", "INDONESIA", "JAPAN", "VIETNAM"],
    "EUROPE": ["FRANCE", "GERMANY", "ROMANIA", "RUSSIA", "UNITED KINGDOM"],
    "MIDDLE EAST": ["EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA"],
}
NATION_LIST = [nation for region in REGIONS for nation in NATIONS[region]]
REGION_OF_NATION = {
    nation: region for region in REGIONS for nation in NATIONS[region]
}

MONTH_NAMES = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
               "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]

# Domains of the dictionary-encoded dimension columns; a generated row
# holds a position in one of them (see ``Column.from_strings``).
#: region of nation ``i`` of NATION_LIST
NATION_REGIONS = [REGION_OF_NATION[nation] for nation in NATION_LIST]
#: city ``10 * nation + digit``: the first 9 characters of the nation
#: plus the digit (e.g. 'UNITED KI1')
CITIES = ["{:<9.9}{}".format(nation, digit)
          for nation in NATION_LIST for digit in range(10)]
#: mfgr ``m``, category ``5 * m + c``, brand ``40 * (5 * m + c) + b``
#: for zero-based draws m, c < 5 and b < 40 (SSB numbers them from 1)
MFGRS = ["MFGR#{}".format(m) for m in range(1, 6)]
CATEGORIES = ["{}{}".format(mfgr, c) for mfgr in MFGRS for c in range(1, 6)]
BRANDS = ["{}{:02d}".format(category, b)
          for category in CATEGORIES for b in range(1, 41)]


def nominal_rows(scale_factor: float) -> Dict[str, int]:
    """SSB table cardinalities at ``scale_factor``."""
    sf = scale_factor
    part_multiplier = 1 + max(int(math.log2(max(sf, 1))), 0)
    return {
        "lineorder": int(6_000_000 * sf),
        "customer": int(30_000 * sf),
        "supplier": int(2_000 * sf),
        "part": 200_000 * part_multiplier,
        "date": 2_556,
    }


def _actual_rows(nominal: int, data_scale: float, floor: int) -> int:
    return max(min(nominal, floor), int(nominal * data_scale))


def _add_geography(table, prefix: str, rows: int, rng) -> None:
    """The ``<prefix>_nation``, ``_region`` and ``_city`` columns: one
    nation and then one city digit drawn per row."""
    nation = rng.integers(0, len(NATION_LIST), rows)
    table.add_string_column(prefix + "_nation", NATION_LIST, nation)
    table.add_string_column(prefix + "_region", NATION_REGIONS, nation)
    table.add_string_column(prefix + "_city", CITIES,
                            10 * nation + rng.integers(0, 10, rows))


def generate(
    scale_factor: float = 1.0,
    data_scale: float = 1e-4,
    seed: int = 42,
) -> Database:
    """Generate an SSB database.

    ``data_scale`` shrinks the actual arrays relative to the nominal
    (paper-scale) cardinalities used by the cost model.
    """
    rng = np.random.default_rng(seed)
    sizes = nominal_rows(scale_factor)
    db = Database("ssb_sf{}".format(scale_factor))

    # -- date -----------------------------------------------------------
    n_dates = sizes["date"]
    date_table = db.create_table("date", nominal_rows=n_dates)
    start = datetime.date(1992, 1, 1)
    days = [start + datetime.timedelta(days=i) for i in range(n_dates)]
    date_table.add_column(
        "d_datekey", ColumnType.INT32,
        np.array([d.year * 10000 + d.month * 100 + d.day for d in days]),
    )
    date_table.add_column(
        "d_year", ColumnType.INT32, np.array([d.year for d in days])
    )
    date_table.add_column(
        "d_yearmonthnum", ColumnType.INT32,
        np.array([d.year * 100 + d.month for d in days]),
    )
    date_table.add_string_column(
        "d_yearmonth",
        ["{}{}".format(MONTH_NAMES[d.month - 1], d.year) for d in days],
    )
    date_table.add_column(
        "d_weeknuminyear", ColumnType.INT32,
        np.array([(d.timetuple().tm_yday - 1) // 7 + 1 for d in days]),
    )
    date_table.add_column(
        "d_monthnuminyear", ColumnType.INT32, np.array([d.month for d in days])
    )
    datekeys = date_table.column("d_datekey").values

    # -- customer ---------------------------------------------------------
    n_customer = _actual_rows(sizes["customer"], data_scale, 1500)
    customer = db.create_table("customer", nominal_rows=sizes["customer"])
    customer.add_column(
        "c_custkey", ColumnType.INT32, np.arange(1, n_customer + 1)
    )
    _add_geography(customer, "c", n_customer, rng)

    # -- supplier --------------------------------------------------------
    n_supplier = _actual_rows(sizes["supplier"], data_scale, 800)
    supplier = db.create_table("supplier", nominal_rows=sizes["supplier"])
    supplier.add_column(
        "s_suppkey", ColumnType.INT32, np.arange(1, n_supplier + 1)
    )
    _add_geography(supplier, "s", n_supplier, rng)

    # -- part -------------------------------------------------------------
    n_part = _actual_rows(sizes["part"], data_scale, 2500)
    part = db.create_table("part", nominal_rows=sizes["part"])
    part.add_column("p_partkey", ColumnType.INT32, np.arange(1, n_part + 1))
    mfgr = rng.integers(1, 6, n_part) - 1
    category = 5 * mfgr + rng.integers(1, 6, n_part) - 1
    brand = 40 * category + rng.integers(1, 41, n_part) - 1
    part.add_string_column("p_mfgr", MFGRS, mfgr)
    part.add_string_column("p_category", CATEGORIES, category)
    part.add_string_column("p_brand1", BRANDS, brand)

    # -- lineorder --------------------------------------------------------
    n_fact = _actual_rows(sizes["lineorder"], data_scale, 5000)
    lineorder = db.create_table("lineorder", nominal_rows=sizes["lineorder"])
    lineorder.add_column(
        "lo_orderkey", ColumnType.INT32, np.arange(1, n_fact + 1)
    )
    lineorder.add_column(
        "lo_custkey", ColumnType.INT32, rng.integers(1, n_customer + 1, n_fact)
    )
    lineorder.add_column(
        "lo_partkey", ColumnType.INT32, rng.integers(1, n_part + 1, n_fact)
    )
    lineorder.add_column(
        "lo_suppkey", ColumnType.INT32, rng.integers(1, n_supplier + 1, n_fact)
    )
    lineorder.add_column(
        "lo_orderdate", ColumnType.INT32,
        datekeys[rng.integers(0, n_dates, n_fact)],
    )
    lineorder.add_column(
        "lo_quantity", ColumnType.INT32, rng.integers(1, 51, n_fact)
    )
    lineorder.add_column(
        "lo_discount", ColumnType.INT32, rng.integers(0, 11, n_fact)
    )
    lineorder.add_column(
        "lo_tax", ColumnType.INT32, rng.integers(0, 9, n_fact)
    )
    lineorder.add_column(
        "lo_extendedprice", ColumnType.INT32,
        rng.integers(90_000, 10_000_000, n_fact),
    )
    lineorder.add_column(
        "lo_ordtotalprice", ColumnType.INT32,
        rng.integers(100_000, 40_000_000, n_fact),
    )
    lineorder.add_column(
        "lo_revenue", ColumnType.INT32,
        rng.integers(80_000, 9_000_000, n_fact),
    )
    lineorder.add_column(
        "lo_supplycost", ColumnType.INT32,
        rng.integers(50_000, 120_000, n_fact),
    )
    lineorder.add_column(
        "lo_shippriority", ColumnType.INT32, np.zeros(n_fact, dtype=np.int32)
    )
    return db


#: The 13 SSB queries (flights 1-4), as the paper runs them.
QUERIES: Dict[str, str] = {
    "Q1.1": (
        "select sum(lo_extendedprice * lo_discount) as revenue "
        "from lineorder, date where lo_orderdate = d_datekey "
        "and d_year = 1993 and lo_discount between 1 and 3 "
        "and lo_quantity < 25"
    ),
    "Q1.2": (
        "select sum(lo_extendedprice * lo_discount) as revenue "
        "from lineorder, date where lo_orderdate = d_datekey "
        "and d_yearmonthnum = 199401 and lo_discount between 4 and 6 "
        "and lo_quantity between 26 and 35"
    ),
    "Q1.3": (
        "select sum(lo_extendedprice * lo_discount) as revenue "
        "from lineorder, date where lo_orderdate = d_datekey "
        "and d_weeknuminyear = 6 and d_year = 1994 "
        "and lo_discount between 5 and 7 and lo_quantity between 26 and 35"
    ),
    "Q2.1": (
        "select sum(lo_revenue) as revenue, d_year, p_brand1 "
        "from lineorder, date, part, supplier "
        "where lo_orderdate = d_datekey and lo_partkey = p_partkey "
        "and lo_suppkey = s_suppkey and p_category = 'MFGR#12' "
        "and s_region = 'AMERICA' group by d_year, p_brand1 "
        "order by d_year, p_brand1"
    ),
    "Q2.2": (
        "select sum(lo_revenue) as revenue, d_year, p_brand1 "
        "from lineorder, date, part, supplier "
        "where lo_orderdate = d_datekey and lo_partkey = p_partkey "
        "and lo_suppkey = s_suppkey "
        "and p_brand1 between 'MFGR#2221' and 'MFGR#2228' "
        "and s_region = 'ASIA' group by d_year, p_brand1 "
        "order by d_year, p_brand1"
    ),
    "Q2.3": (
        "select sum(lo_revenue) as revenue, d_year, p_brand1 "
        "from lineorder, date, part, supplier "
        "where lo_orderdate = d_datekey and lo_partkey = p_partkey "
        "and lo_suppkey = s_suppkey and p_brand1 = 'MFGR#2239' "
        "and s_region = 'EUROPE' group by d_year, p_brand1 "
        "order by d_year, p_brand1"
    ),
    "Q3.1": (
        "select c_nation, s_nation, d_year, sum(lo_revenue) as revenue "
        "from customer, lineorder, supplier, date "
        "where lo_custkey = c_custkey and lo_suppkey = s_suppkey "
        "and lo_orderdate = d_datekey and c_region = 'ASIA' "
        "and s_region = 'ASIA' and d_year >= 1992 and d_year <= 1997 "
        "group by c_nation, s_nation, d_year "
        "order by d_year asc, revenue desc"
    ),
    "Q3.2": (
        "select c_city, s_city, d_year, sum(lo_revenue) as revenue "
        "from customer, lineorder, supplier, date "
        "where lo_custkey = c_custkey and lo_suppkey = s_suppkey "
        "and lo_orderdate = d_datekey and c_nation = 'UNITED STATES' "
        "and s_nation = 'UNITED STATES' and d_year >= 1992 and d_year <= 1997 "
        "group by c_city, s_city, d_year order by d_year asc, revenue desc"
    ),
    "Q3.3": (
        "select c_city, s_city, d_year, sum(lo_revenue) as revenue "
        "from customer, lineorder, supplier, date "
        "where lo_custkey = c_custkey and lo_suppkey = s_suppkey "
        "and lo_orderdate = d_datekey "
        "and c_city in ('UNITED KI1', 'UNITED KI5') "
        "and s_city in ('UNITED KI1', 'UNITED KI5') "
        "and d_year >= 1992 and d_year <= 1997 "
        "group by c_city, s_city, d_year order by d_year asc, revenue desc"
    ),
    "Q3.4": (
        "select c_city, s_city, d_year, sum(lo_revenue) as revenue "
        "from customer, lineorder, supplier, date "
        "where lo_custkey = c_custkey and lo_suppkey = s_suppkey "
        "and lo_orderdate = d_datekey "
        "and c_city in ('UNITED KI1', 'UNITED KI5') "
        "and s_city in ('UNITED KI1', 'UNITED KI5') "
        "and d_yearmonth = 'Dec1997' "
        "group by c_city, s_city, d_year order by d_year asc, revenue desc"
    ),
    "Q4.1": (
        "select d_year, c_nation, "
        "sum(lo_revenue - lo_supplycost) as profit "
        "from date, customer, supplier, part, lineorder "
        "where lo_custkey = c_custkey and lo_suppkey = s_suppkey "
        "and lo_partkey = p_partkey and lo_orderdate = d_datekey "
        "and c_region = 'AMERICA' and s_region = 'AMERICA' "
        "and p_mfgr in ('MFGR#1', 'MFGR#2') "
        "group by d_year, c_nation order by d_year, c_nation"
    ),
    "Q4.2": (
        "select d_year, s_nation, p_category, "
        "sum(lo_revenue - lo_supplycost) as profit "
        "from date, customer, supplier, part, lineorder "
        "where lo_custkey = c_custkey and lo_suppkey = s_suppkey "
        "and lo_partkey = p_partkey and lo_orderdate = d_datekey "
        "and c_region = 'AMERICA' and s_region = 'AMERICA' "
        "and d_year in (1997, 1998) and p_mfgr in ('MFGR#1', 'MFGR#2') "
        "group by d_year, s_nation, p_category "
        "order by d_year, s_nation, p_category"
    ),
    "Q4.3": (
        "select d_year, s_city, p_brand1, "
        "sum(lo_revenue - lo_supplycost) as profit "
        "from date, customer, supplier, part, lineorder "
        "where lo_custkey = c_custkey and lo_suppkey = s_suppkey "
        "and lo_partkey = p_partkey and lo_orderdate = d_datekey "
        "and c_region = 'AMERICA' and s_nation = 'UNITED STATES' "
        "and d_year in (1997, 1998) and p_category = 'MFGR#14' "
        "group by d_year, s_city, p_brand1 order by d_year, s_city, p_brand1"
    ),
}

#: Per-query selectivity class used in the paper's discussion
#: (Fig. 17: low-selectivity queries benefit less from Data-Driven
#: Chopping than high-selectivity ones).
HIGH_SELECTIVITY = ("Q1.3", "Q2.3", "Q3.4", "Q4.3")


def workload(database: Database, names: List[str] = None) -> List[WorkloadQuery]:
    """WorkloadQuery objects for all (or the named) SSB queries."""
    selected = QUERIES if names is None else {n: QUERIES[n] for n in names}
    return sql_workload(database, selected)
