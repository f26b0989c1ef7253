"""Seeded ad-hoc SQL generator: literal substitution over the 13 SSB
query templates.

Every template is used equally often (statement ``i`` uses template
``i mod 13``), so the template mix — which decides how expensive a batch
is — does not depend on the seed; only the literals do.  The program
under test only ever sees the generated SQL text.
"""

from __future__ import annotations

from random import Random
from typing import Callable, Dict, List, Tuple

REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
NATIONS = (
    "ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE",
    "ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES",
    "CHINA", "INDIA", "INDONESIA", "JAPAN", "VIETNAM",
    "FRANCE", "GERMANY", "ROMANIA", "RUSSIA", "UNITED KINGDOM",
    "EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA",
)
MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

_FLIGHT1 = ("select sum(lo_extendedprice * lo_discount) as revenue "
            "from lineorder, date where lo_orderdate = d_datekey and ")
_FLIGHT2 = ("select sum(lo_revenue) as revenue, d_year, p_brand1 "
            "from lineorder, date, part, supplier "
            "where lo_orderdate = d_datekey and lo_partkey = p_partkey "
            "and lo_suppkey = s_suppkey and {} and s_region = '{}' "
            "group by d_year, p_brand1 order by d_year, p_brand1")
_FLIGHT3 = ("select {0}, {1}, d_year, sum(lo_revenue) as revenue "
            "from customer, lineorder, supplier, date "
            "where lo_custkey = c_custkey and lo_suppkey = s_suppkey "
            "and lo_orderdate = d_datekey and {2} "
            "group by {0}, {1}, d_year order by d_year asc, revenue desc")
_FLIGHT4 = ("select {0}, sum(lo_revenue - lo_supplycost) as profit "
            "from date, customer, supplier, part, lineorder "
            "where lo_custkey = c_custkey and lo_suppkey = s_suppkey "
            "and lo_partkey = p_partkey and lo_orderdate = d_datekey "
            "and {1} group by {0} order by {0}")


def _city(rng: Random) -> str:
    """SSB city naming: nation padded/cut to nine characters + a digit."""
    return "{:<9.9}{}".format(rng.choice(NATIONS), rng.randrange(10))


def _cities(rng: Random) -> str:
    first, second = _city(rng), _city(rng)
    return "('{}', '{}')".format(first, second)


def _years(rng: Random) -> Tuple[int, int]:
    low = rng.randint(1992, 1996)
    return low, rng.randint(low + 1, 1998)


def _mfgrs(rng: Random) -> str:
    first, second = rng.sample(range(1, 6), 2)
    return "p_mfgr in ('MFGR#{}', 'MFGR#{}')".format(first, second)


def _q11(rng):
    low = rng.randint(0, 8)
    return _FLIGHT1 + (
        "d_year = {} and lo_discount between {} and {} "
        "and lo_quantity < {}".format(
            rng.randint(1992, 1998), low, low + 2, rng.randint(15, 35)))


def _q12(rng):
    low, quantity = rng.randint(0, 8), rng.randint(1, 40)
    return _FLIGHT1 + (
        "d_yearmonthnum = {}{:02d} and lo_discount between {} and {} "
        "and lo_quantity between {} and {}".format(
            rng.randint(1992, 1998), rng.randint(1, 12), low, low + 2,
            quantity, quantity + 9))


def _q13(rng):
    low, quantity = rng.randint(0, 8), rng.randint(1, 40)
    return _FLIGHT1 + (
        "d_weeknuminyear = {} and d_year = {} "
        "and lo_discount between {} and {} "
        "and lo_quantity between {} and {}".format(
            rng.randint(1, 52), rng.randint(1992, 1998), low, low + 2,
            quantity, quantity + 9))


def _q21(rng):
    return _FLIGHT2.format(
        "p_category = 'MFGR#{}{}'".format(
            rng.randint(1, 5), rng.randint(1, 5)),
        rng.choice(REGIONS))


def _q22(rng):
    prefix = "MFGR#{}{}".format(rng.randint(1, 5), rng.randint(1, 5))
    low = rng.randint(1, 33)
    return _FLIGHT2.format(
        "p_brand1 between '{0}{1:02d}' and '{0}{2:02d}'".format(
            prefix, low, low + 7),
        rng.choice(REGIONS))


def _q23(rng):
    return _FLIGHT2.format(
        "p_brand1 = 'MFGR#{}{}{:02d}'".format(
            rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 40)),
        rng.choice(REGIONS))


def _q31(rng):
    low, high = _years(rng)
    return _FLIGHT3.format(
        "c_nation", "s_nation",
        "c_region = '{}' and s_region = '{}' "
        "and d_year >= {} and d_year <= {}".format(
            rng.choice(REGIONS), rng.choice(REGIONS), low, high))


def _q32(rng):
    low, high = _years(rng)
    return _FLIGHT3.format(
        "c_city", "s_city",
        "c_nation = '{}' and s_nation = '{}' "
        "and d_year >= {} and d_year <= {}".format(
            rng.choice(NATIONS), rng.choice(NATIONS), low, high))


def _q33(rng):
    low, high = _years(rng)
    return _FLIGHT3.format(
        "c_city", "s_city",
        "c_city in {} and s_city in {} "
        "and d_year >= {} and d_year <= {}".format(
            _cities(rng), _cities(rng), low, high))


def _q34(rng):
    return _FLIGHT3.format(
        "c_city", "s_city",
        "c_city in {} and s_city in {} and d_yearmonth = '{}{}'".format(
            _cities(rng), _cities(rng), rng.choice(MONTHS),
            rng.randint(1992, 1998)))


def _q41(rng):
    return _FLIGHT4.format(
        "d_year, c_nation",
        "c_region = '{}' and s_region = '{}' and {}".format(
            rng.choice(REGIONS), rng.choice(REGIONS), _mfgrs(rng)))


def _q42(rng):
    year = rng.randint(1992, 1997)
    return _FLIGHT4.format(
        "d_year, s_nation, p_category",
        "c_region = '{}' and s_region = '{}' and d_year in ({}, {}) "
        "and {}".format(rng.choice(REGIONS), rng.choice(REGIONS), year,
                        year + 1, _mfgrs(rng)))


def _q43(rng):
    year = rng.randint(1992, 1997)
    return _FLIGHT4.format(
        "d_year, s_city, p_brand1",
        "c_region = '{}' and s_nation = '{}' and d_year in ({}, {}) "
        "and p_category = 'MFGR#{}{}'".format(
            rng.choice(REGIONS), rng.choice(NATIONS), year, year + 1,
            rng.randint(1, 5), rng.randint(1, 5)))


TEMPLATES: Dict[str, Callable[[Random], str]] = {
    "Q1.1": _q11, "Q1.2": _q12, "Q1.3": _q13,
    "Q2.1": _q21, "Q2.2": _q22, "Q2.3": _q23,
    "Q3.1": _q31, "Q3.2": _q32, "Q3.3": _q33, "Q3.4": _q34,
    "Q4.1": _q41, "Q4.2": _q42, "Q4.3": _q43,
}


def generate(seed: int, count: int) -> List[Tuple[str, str]]:
    """``count`` distinct ``(name, sql)`` statements for ``seed``."""
    rng = Random(seed)
    makers = list(TEMPLATES.items())
    seen = set()
    statements: List[Tuple[str, str]] = []
    while len(statements) < count:
        index = len(statements)
        template, make = makers[index % len(makers)]
        sql = make(rng)
        if sql in seen:
            continue
        seen.add(sql)
        statements.append(("s{:03d}-{}".format(index, template), sql))
    return statements
