"""Unit tests for the storage layer."""

import numpy as np
import pytest

from repro.storage import AccessStatistics, Column, ColumnType, Database, Table


class TestColumnType:
    def test_itemsizes(self):
        assert ColumnType.INT32.itemsize == 4
        assert ColumnType.INT64.itemsize == 8
        assert ColumnType.FLOAT32.itemsize == 4
        assert ColumnType.FLOAT64.itemsize == 8
        assert ColumnType.DATE.itemsize == 4
        assert ColumnType.STRING.itemsize == 4  # dictionary codes


class TestColumn:
    def test_nominal_vs_actual_sizing(self):
        column = Column("t", "c", ColumnType.INT32,
                        np.arange(100, dtype=np.int32), nominal_rows=1_000_000)
        assert column.actual_rows == 100
        assert column.nominal_rows == 1_000_000
        assert column.nominal_bytes == 4_000_000
        assert column.values.nbytes == 400
        assert column.key == "t.c"

    def test_nominal_defaults_to_actual(self):
        column = Column("t", "c", ColumnType.INT32, np.arange(7, dtype=np.int32))
        assert column.nominal_rows == 7

    def test_dtype_coercion(self):
        column = Column("t", "c", ColumnType.INT32, np.arange(5, dtype=np.int64))
        assert column.values.dtype == np.int32

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            Column("t", "c", ColumnType.INT32, np.zeros((2, 2), dtype=np.int32))

    def test_string_column_requires_dictionary(self):
        with pytest.raises(ValueError):
            Column("t", "c", ColumnType.STRING, np.zeros(3, dtype=np.int32))

    def test_dictionary_only_for_strings(self):
        with pytest.raises(ValueError):
            Column("t", "c", ColumnType.INT32, np.zeros(3, dtype=np.int32),
                   dictionary=["a"])

    def test_string_encoding_order_preserving(self):
        column = Column.from_strings("t", "c", ["pear", "apple", "pear", "fig"])
        # sorted dictionary: apple < fig < pear
        assert column.dictionary == ["apple", "fig", "pear"]
        assert list(column.values) == [2, 0, 2, 1]
        # code order == lexicographic order
        assert column.encode("apple") < column.encode("fig") < column.encode("pear")

    @pytest.mark.parametrize("domain,index", [
        (["pear", "apple", "fig", "kiwi"], [0, 1, 0, 2]),   # kiwi unused
        (["b", "a", "b", "c"], [2, 0, 1, 1, 3]),           # repeated string
        (["a", "b"], []),
    ])
    def test_an_index_into_a_domain_encodes_the_rows_it_names(self, domain,
                                                              index):
        indexed = Column.from_strings("t", "c", domain, nominal_rows=9,
                                      index=np.array(index, dtype=np.int64))
        listed = Column.from_strings("t", "c", [domain[i] for i in index],
                                     nominal_rows=9)
        assert indexed.dictionary == listed.dictionary
        assert indexed.values.dtype == listed.values.dtype == np.int32
        assert indexed.values.tobytes() == listed.values.tobytes()
        assert indexed.nominal_rows == 9
        assert [indexed.encode(s) for s in domain] == [
            listed.encode(s) for s in domain]

    def test_encode_unknown_string(self):
        column = Column.from_strings("t", "c", ["b", "d"])
        assert column.encode("a") == -1
        assert column.encode("c") == -1

    def test_encode_bounds(self):
        column = Column.from_strings("t", "c", ["b", "d", "f"])
        # strings >= 'c' start at code of 'd' (=1)
        assert column.encode_lower_bound("c") == 1
        assert column.encode_lower_bound("b") == 0
        # strings <= 'c' end at code of 'b' (=0)
        assert column.encode_upper_bound("c") == 0
        assert column.encode_upper_bound("a") == -1
        assert column.encode_upper_bound("z") == 2

    def test_decode_scalar_and_array(self):
        column = Column.from_strings("t", "c", ["x", "y", "x"])
        assert column.decode(0) == "x"
        assert column.decode(np.array([0, 1])) == ["x", "y"]

    def test_decode_on_numeric_column_rejected(self):
        column = Column("t", "c", ColumnType.INT32, np.arange(3, dtype=np.int32))
        with pytest.raises(TypeError):
            column.decode(0)

    def test_gather(self):
        column = Column("t", "c", ColumnType.INT32,
                        np.array([10, 20, 30, 40], dtype=np.int32))
        assert list(column.gather(np.array([3, 0]))) == [40, 10]


class TestTable:
    def test_add_and_lookup(self):
        table = Table("t", nominal_rows=1000)
        table.add_column("a", ColumnType.INT32, np.arange(10, dtype=np.int32))
        table.add_string_column("b", ["x"] * 10)
        assert table.actual_rows == 10
        assert table.nominal_rows == 1000
        assert table.column("a").nominal_rows == 1000
        assert "a" in table and "missing" not in table
        assert table.column_names == ["a", "b"]
        assert table.nominal_bytes == 1000 * 4 * 2

    def test_duplicate_column_rejected(self):
        table = Table("t")
        table.add_column("a", ColumnType.INT32, np.arange(3, dtype=np.int32))
        with pytest.raises(ValueError):
            table.add_column("a", ColumnType.INT32, np.arange(3, dtype=np.int32))

    def test_mismatched_lengths_rejected(self):
        table = Table("t")
        table.add_column("a", ColumnType.INT32, np.arange(3, dtype=np.int32))
        with pytest.raises(ValueError):
            table.add_column("b", ColumnType.INT32, np.arange(4, dtype=np.int32))

    def test_missing_column_raises(self):
        table = Table("t")
        with pytest.raises(KeyError):
            table.column("nope")


class TestDatabase:
    def test_catalog(self):
        db = Database("d")
        table = db.create_table("t", nominal_rows=10)
        table.add_column("a", ColumnType.INT32, np.arange(5, dtype=np.int32))
        assert "t" in db
        assert db.table("t") is table
        assert db.column("t.a").name == "a"
        assert len(db.columns()) == 1
        assert db.nominal_bytes == 40

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table("t")
        with pytest.raises(ValueError):
            db.create_table("t")

    def test_missing_table_raises(self):
        db = Database()
        with pytest.raises(KeyError):
            db.table("nope")
        with pytest.raises(KeyError):
            db.column("nope.c")


class TestAccessStatistics:
    def test_counting(self):
        stats = AccessStatistics()
        stats.record_access("a")
        stats.record_access("a")
        stats.record_access("b")
        assert stats.access_count("a") == 2
        assert stats.access_count("b") == 1
        assert stats.access_count("never") == 0
        assert len(stats) == 2

    def test_frequency_ordering(self):
        stats = AccessStatistics()
        for _ in range(3):
            stats.record_access("hot")
        stats.record_access("cold")
        stats.record_access("warm")
        stats.record_access("warm")
        assert stats.by_frequency() == ["hot", "warm", "cold"]

    def test_frequency_ties_break_on_recency(self):
        stats = AccessStatistics()
        stats.record_access("first")
        stats.record_access("second")
        # equal counts: the more recently accessed ranks first
        assert stats.by_frequency() == ["second", "first"]

    def test_recency_ordering(self):
        stats = AccessStatistics()
        stats.record_access("a", now=1.0)
        stats.record_access("b", now=5.0)
        stats.record_access("c", now=3.0)
        assert stats.by_recency() == ["b", "c", "a"]

    def test_reset(self):
        stats = AccessStatistics()
        stats.record_access("a")
        stats.reset()
        assert len(stats) == 0
        assert stats.by_frequency() == []
        assert stats.last_access("a") == float("-inf")
