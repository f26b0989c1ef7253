"""Tests for the SSB / TPC-H data generators and workload definitions."""

import numpy as np
import pytest

from repro.workloads import micro, ssb, tpch


class TestSsbGenerator:
    def test_nominal_cardinalities_follow_spec(self):
        sizes = ssb.nominal_rows(10)
        assert sizes["lineorder"] == 60_000_000
        assert sizes["customer"] == 300_000
        assert sizes["supplier"] == 20_000
        assert sizes["date"] == 2_556
        # part grows logarithmically
        assert ssb.nominal_rows(1)["part"] == 200_000
        assert ssb.nominal_rows(10)["part"] == 200_000 * 4

    def test_deterministic_generation(self):
        db1 = ssb.generate(0.01, data_scale=0.01, seed=9)
        db2 = ssb.generate(0.01, data_scale=0.01, seed=9)
        assert np.array_equal(
            db1.column("lineorder.lo_revenue").values,
            db2.column("lineorder.lo_revenue").values,
        )

    def test_foreign_keys_reference_dimensions(self, ssb_db):
        lo = ssb_db.table("lineorder")
        assert lo.column("lo_custkey").values.max() <= (
            ssb_db.table("customer").actual_rows
        )
        assert lo.column("lo_suppkey").values.max() <= (
            ssb_db.table("supplier").actual_rows
        )
        assert lo.column("lo_partkey").values.max() <= (
            ssb_db.table("part").actual_rows
        )
        datekeys = set(ssb_db.column("date.d_datekey").values.tolist())
        orderdates = set(lo.column("lo_orderdate").values.tolist())
        assert orderdates <= datekeys

    def test_value_domains(self, ssb_db):
        lo = ssb_db.table("lineorder")
        assert lo.column("lo_quantity").values.min() >= 1
        assert lo.column("lo_quantity").values.max() <= 50
        assert lo.column("lo_discount").values.min() >= 0
        assert lo.column("lo_discount").values.max() <= 10
        assert lo.column("lo_tax").values.max() <= 8

    def test_city_naming_convention(self, ssb_db):
        cities = ssb_db.column("customer.c_city").dictionary
        for city in cities:
            assert len(city) == 10
            assert city[-1].isdigit()

    def test_brand_category_consistency(self, ssb_db):
        part = ssb_db.table("part")
        mfgr = part.column("p_mfgr")
        category = part.column("p_category")
        brand = part.column("p_brand1")
        for row in range(0, part.actual_rows, 97):
            m = mfgr.decode(mfgr.values[row])
            c = category.decode(category.values[row])
            b = brand.decode(brand.values[row])
            assert c.startswith(m)
            assert b.startswith(c)

    def test_dimension_regions_match_nations(self, ssb_db):
        customer = ssb_db.table("customer")
        nation = customer.column("c_nation")
        region = customer.column("c_region")
        for row in range(0, customer.actual_rows, 53):
            n = nation.decode(nation.values[row])
            r = region.decode(region.values[row])
            assert ssb.REGION_OF_NATION[n] == r

    def test_date_dimension_fields(self, ssb_db):
        date = ssb_db.table("date")
        assert date.actual_rows == 2556
        years = date.column("d_year").values
        assert years.min() == 1992 and years.max() == 1998
        ymn = date.column("d_yearmonthnum").values
        assert ymn.min() == 199201
        weeks = date.column("d_weeknuminyear").values
        assert weeks.min() >= 1 and weeks.max() <= 53

    def test_workload_has_13_queries(self, ssb_db):
        queries = ssb.workload(ssb_db)
        assert len(queries) == 13
        assert [q.name for q in queries][:3] == ["Q1.1", "Q1.2", "Q1.3"]

    def test_workload_selection(self, ssb_db):
        queries = ssb.workload(ssb_db, ["Q3.3"])
        assert len(queries) == 1
        assert queries[0].name == "Q3.3"

    def test_column_sizes_match_paper(self):
        """At SF 10 one lineorder int32 column is the paper's ~218 MB."""
        db = ssb.generate(10, data_scale=1e-5)
        nbytes = db.column("lineorder.lo_discount").nominal_bytes
        assert nbytes == 60_000_000 * 4
        assert 200 * 2**20 < nbytes < 240 * 2**20

    def test_serial_selection_working_set_is_1_9_gb(self):
        """The B.1 working set: eight columns, 1.9 GB at SF 10."""
        db = ssb.generate(10, data_scale=1e-5)
        total = sum(
            db.column(key).nominal_bytes
            for key in micro.SERIAL_SELECTION_COLUMNS
        )
        assert total == pytest.approx(1.9e9, rel=0.05)


class TestTpchGenerator:
    def test_nominal_cardinalities(self):
        sizes = tpch.nominal_rows(10)
        assert sizes["lineitem"] == 60_000_000
        assert sizes["orders"] == 15_000_000
        assert sizes["nation"] == 25
        assert sizes["region"] == 5

    def test_foreign_keys(self, tpch_db):
        li = tpch_db.table("lineitem")
        assert li.column("l_orderkey").values.max() <= (
            tpch_db.table("orders").actual_rows
        )
        assert tpch_db.column("nation.n_regionkey").values.max() <= 4
        assert tpch_db.column("supplier.s_nationkey").values.max() <= 24

    def test_dates_are_valid_yyyymmdd(self, tpch_db):
        dates = tpch_db.column("lineitem.l_shipdate").values
        years = dates // 10000
        months = dates // 100 % 100
        days = dates % 100
        assert years.min() >= 1992 and years.max() <= 1998
        assert months.min() >= 1 and months.max() <= 12
        assert days.min() >= 1 and days.max() <= 28

    def test_shipyear_consistent_with_shipdate(self, tpch_db):
        dates = tpch_db.column("lineitem.l_shipdate").values
        years = tpch_db.column("lineitem.l_shipyear").values
        assert np.array_equal(dates // 10000, years)

    def test_workload_has_6_queries(self, tpch_db):
        queries = tpch.workload(tpch_db)
        assert [q.name for q in queries] == ["Q2", "Q3", "Q4", "Q5", "Q6", "Q7"]

    def test_deterministic(self):
        db1 = tpch.generate(0.01, data_scale=0.01, seed=4)
        db2 = tpch.generate(0.01, data_scale=0.01, seed=4)
        assert np.array_equal(
            db1.column("lineitem.l_discount").values,
            db2.column("lineitem.l_discount").values,
        )


class TestMicroWorkloads:
    def test_serial_selection_has_8_queries(self, ssb_db):
        queries = micro.serial_selection_workload(ssb_db)
        assert len(queries) == 8
        # each query's selection operator filters a different column
        filter_columns = set()
        for query in queries:
            (leaf,) = query.template_plan().leaves
            scan_columns = leaf.required_columns()
            assert len(scan_columns) == 1
            assert scan_columns <= set(micro.SERIAL_SELECTION_COLUMNS)
            filter_columns |= scan_columns
        assert len(filter_columns) == 8

    def test_parallel_selection_plan_is_a_four_op_chain(self, ssb_db):
        plan = micro.build_parallel_selection_plan(ssb_db)
        kinds = [op.kind for op in plan.operators]
        # four selection operators executed consecutively + host
        # materialisation
        assert kinds == ["selection"] * 4 + ["projection"]
        # a chain: every operator has at most one child
        for op in plan.operators:
            assert len(op.children) <= 1

    def test_parallel_selection_uses_two_columns(self, ssb_db):
        plan = micro.build_parallel_selection_plan(ssb_db)
        selection_columns = set()
        for op in plan.operators:
            if op.kind == "selection":
                selection_columns |= op.required_columns()
        assert selection_columns == {
            "lineorder.lo_discount", "lineorder.lo_quantity",
        }

    def test_first_operator_footprint_is_paper_bound(self):
        """The B.2 chain's first operator needs 3.25x a fact column —
        the quantity in the paper's n = M / (3.25 |C|) bound."""
        from repro.hardware.calibration import COGADB_PROFILE

        db = ssb.generate(10, data_scale=1e-5)
        plan = micro.build_parallel_selection_plan(db)
        first = plan.operators[0]
        footprint = first.device_footprint_bytes(
            COGADB_PROFILE, db, [], first.input_nominal_bytes(db, []))
        column = db.column("lineorder.lo_discount").nominal_bytes
        assert footprint == int(3.25 * column)
