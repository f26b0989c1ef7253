"""Kernel-acceleration layer: equivalence, caching, and invalidation.

Every kernel (cached join indexes, lazy selection vectors) is a pure
acceleration — these tests pin the byte-identity against the
operators' general branches (materialised tid arrays in, see
``conftest.materialised_scans``) on the SSB and TPC-H grids, and the
invalidation contract of the cache registry.
"""

import numpy as np
import pytest

from repro.engine import Planner, caches, execute_reference, kernels, plan_cache
from repro.engine.execution import execute_functional, execute_operators
from repro.engine.expressions import ColumnRef, Comparison, Literal
from repro.engine.intermediates import SelectionVector, TidSet
from repro.engine.operators import (
    HashJoin,
    Materialize,
    PhysicalPlan,
    RefineSelect,
    ScanSelect,
    TidIntersect,
)
from repro.sql import bind
from repro.storage import ColumnType, Database
from repro.storage.compression import compress_database
from repro.workloads import micro, ssb, tpch

from tests.conftest import materialised_scans


@pytest.fixture(autouse=True)
def _kernel_state():
    """Each test starts from empty caches and zeroed counters; the
    caches are dropped again afterwards."""
    kernels.invalidate()
    plan_cache.invalidate()
    kernels.reset_stats()
    yield
    kernels.invalidate()
    plan_cache.invalidate()


def run_query(database, sql, name):
    """Fresh plan + functional execution (no cross-plan memoisation)."""
    plan_cache.invalidate()
    spec = bind(sql, database, name=name)
    plan = Planner(database).plan(spec)
    return execute_functional(plan, database).payload.row_tuples()


# ---------------------------------------------------------------------------
# SelectionVector
# ---------------------------------------------------------------------------

class TestSelectionVector:
    def test_mask_materialises_lazily(self):
        mask = np.array([True, False, True, True, False])
        sel = SelectionVector(mask)
        assert sel._tids is None
        assert len(sel) == 3
        assert sel.tids.tolist() == [0, 2, 3]
        assert sel.tids.dtype == np.int64
        assert not sel.is_all

    def test_full_table_selection(self):
        sel = SelectionVector(n=4)
        assert sel.mask is None
        assert sel.is_all
        assert len(sel) == 4
        assert sel.tids.tolist() == [0, 1, 2, 3]

    def test_all_true_mask_is_all(self):
        sel = SelectionVector(np.ones(6, dtype=bool))
        assert sel.is_all

    def test_needs_mask_or_count(self):
        with pytest.raises(ValueError):
            SelectionVector()

    def test_tidset_positions_and_gather(self, toy_db):
        sel = SelectionVector(np.arange(500) % 3 == 0)
        tids = TidSet({"sales": sel})
        assert np.array_equal(tids.positions("sales"), sel.tids)
        column = toy_db.column("sales.amount")
        assert np.array_equal(
            tids.gather("sales", column), column.values[sel.tids]
        )
        # Full-table selections gather nothing: the base array itself
        # comes back.
        full = TidSet({"sales": SelectionVector(n=500)})
        assert tids.selection("sales") is sel
        assert full.gather("sales", column) is column.values


# ---------------------------------------------------------------------------
# Cached join indexes
# ---------------------------------------------------------------------------

def _join_plan(database):
    scan = ScanSelect("sales")
    dim = ScanSelect(
        "store", Comparison("<", ColumnRef("store", "size"), Literal(120))
    )
    join = HashJoin(scan, dim, ColumnRef("sales", "skey"),
                    ColumnRef("store", "id"))
    root = Materialize(join, [
        ("amount", ColumnRef("sales", "amount")),
        ("size", ColumnRef("store", "size")),
        ("region", ColumnRef("store", "region")),
    ])
    return PhysicalPlan(root, name="join")


class TestCachedJoinIndexes:
    def _rows(self, database):
        # the operator path: these tests are about HashJoin.run itself
        plan_cache.invalidate()
        return execute_operators(_join_plan(database),
                                 database).payload.row_tuples()

    def test_filtered_dense_build_matches_seed(self, toy_db):
        with materialised_scans():
            expected = self._rows(toy_db)
        assert kernels.stats["dense_joins"] == 0
        got = self._rows(toy_db)
        assert got == expected
        # store.id is a dense ascending key: the join must have taken
        # the positional path.
        assert kernels.stats["dense_joins"] >= 1

    def test_repeated_join_hits_cache(self, toy_db):
        self._rows(toy_db)
        builds = kernels.stats["join_index_builds"]
        self._rows(toy_db)
        assert kernels.stats["join_index_builds"] == builds
        assert kernels.stats["join_index_hits"] >= 1

    def test_non_dense_build_matches_seed(self):
        db = Database("nd")
        rng = np.random.default_rng(9)
        fact = db.create_table("f", nominal_rows=4000)
        fact.add_column("k", ColumnType.INT32, rng.integers(0, 60, 4000))
        fact.add_column("v", ColumnType.INT32, rng.integers(0, 9, 4000))
        dim = db.create_table("d", nominal_rows=200)
        # Shuffled, duplicated keys: exercises the sorted-index path
        # with 1:N matches and mask filtering.
        dim.add_column("k", ColumnType.INT32, rng.integers(0, 60, 200))
        dim.add_column("w", ColumnType.INT32, rng.integers(0, 5, 200))

        def rows():
            plan_cache.invalidate()
            scan = ScanSelect("f")
            build = ScanSelect(
                "d", Comparison("<", ColumnRef("d", "w"), Literal(3))
            )
            join = HashJoin(scan, build, ColumnRef("f", "k"),
                            ColumnRef("d", "k"))
            root = Materialize(join, [
                ("v", ColumnRef("f", "v")),
                ("w", ColumnRef("d", "w")),
            ])
            result = execute_functional(PhysicalPlan(root, name="nd"), db)
            return result.payload.row_tuples()

        with materialised_scans():
            expected = rows()
        assert kernels.stats["join_index_builds"] == 0
        assert rows() == expected
        assert kernels.stats["dense_joins"] == 0
        assert kernels.stats["join_index_builds"] >= 1

    def test_ssb_queries_identical_with_and_without_kernels(self, ssb_db):
        for name, sql in ssb.QUERIES.items():
            with materialised_scans():
                expected = run_query(ssb_db, sql, name)
            assert run_query(ssb_db, sql, name) == expected, name

    def test_tpch_queries_identical_with_and_without_kernels(self, tpch_db):
        for name, sql in tpch.QUERIES.items():
            with materialised_scans():
                expected = run_query(tpch_db, sql, name)
            assert run_query(tpch_db, sql, name) == expected, name

    def test_ssb_agrees_with_reference_under_kernels(self, ssb_db):
        name = "Q2.1"
        spec = bind(ssb.QUERIES[name], ssb_db, name=name)
        plan = Planner(ssb_db).plan(spec)
        engine_rows = execute_functional(plan, ssb_db).payload.row_tuples()
        reference_rows = execute_reference(spec, ssb_db)
        assert sorted(engine_rows) == sorted(reference_rows)


# ---------------------------------------------------------------------------
# Probers: the one home of cached-index probing
# ---------------------------------------------------------------------------

#: build keys per prober kind; the offset dense range sits past the
#: span a ``key_mask`` is built for (and past int16)
PROBER_BUILDS = {
    "dense": np.arange(100, 300),
    "dense_offset": np.arange(200_000, 200_200),
    "lookup": np.random.default_rng(4).permutation(np.arange(100, 700, 3)),
    "sorted": np.random.default_rng(5).integers(100, 160, 200),
    "gathered": np.random.default_rng(7).integers(100, 160, 200),
}


class _GatheredBuild:
    """``HashJoin.run``'s general branch in miniature: an index sorted
    over the *selected* keys alone, its matches mapped back through
    their tids."""

    def __init__(self, values, mask):
        self.tids = np.arange(len(values)) if mask is None else (
            np.flatnonzero(mask))
        self.prober = kernels.gathered_prober(values[self.tids])

    def probe(self, fk):
        probe_idx, build_idx = self.prober.probe(fk)
        return probe_idx, self.tids[build_idx]


class TestProbers:
    """``prober_for`` serves ``HashJoin.run`` and the fused pipelines
    alike; the unique-key lookup is the structure ``HashJoin`` gained
    by asking it."""

    @pytest.fixture()
    def sparse_db(self):
        """Unique, shuffled, non-dense dimension keys: neither the
        positional path nor (being unique) the sorted index applies."""
        db = Database("sparse")
        rng = np.random.default_rng(4)
        keys = rng.permutation(np.arange(100, 700, 3))  # 200 unique keys
        fact = db.create_table("f", nominal_rows=4000)
        fact.add_column("k", ColumnType.INT32, rng.choice(keys, 4000))
        fact.add_column("v", ColumnType.INT32, rng.integers(0, 9, 4000))
        dim = db.create_table("d", nominal_rows=200)
        dim.add_column("k", ColumnType.INT32, keys)
        dim.add_column("w", ColumnType.INT32, rng.integers(0, 5, 200))
        return db

    def _prober(self, db, mask=None):
        build = db.column("d.k")
        selection = (SelectionVector(n=len(build.values)) if mask is None
                     else SelectionVector(mask))
        return kernels.prober_for(kernels.cache_for(db), build, selection,
                                  db.column("f.k"))

    def test_unique_sparse_build_matches_seed(self, sparse_db):
        def rows():
            plan_cache.invalidate()
            build = ScanSelect(
                "d", Comparison("<", ColumnRef("d", "w"), Literal(3)))
            join = HashJoin(ScanSelect("f"), build, ColumnRef("f", "k"),
                            ColumnRef("d", "k"))
            root = Materialize(join, [("v", ColumnRef("f", "v")),
                                      ("w", ColumnRef("d", "w"))])
            return execute_operators(PhysicalPlan(root, name="sparse"),
                                     sparse_db).payload.row_tuples()

        with materialised_scans():
            expected = rows()
        assert kernels.stats["lookup_joins"] == 0
        assert rows() == expected
        assert kernels.stats["lookup_joins"] >= 1
        assert kernels.stats["dense_joins"] == 0
        assert kernels.stats["sorted_joins"] == 0

    def test_position_lookup_is_built_narrow(self, sparse_db):
        lookup = kernels.cache_for(sparse_db).position_lookup(
            sparse_db.column("d.k"))
        assert lookup.table.dtype == np.int32
        # ... and probe outputs stay int64, so nothing downstream moves
        probe_idx, build_tids = self._prober(sparse_db).probe(
            sparse_db.column("f.k").values)
        assert probe_idx.dtype == np.int64
        assert build_tids.dtype == np.int64
        assert np.array_equal(
            sparse_db.column("d.k").values[build_tids],
            sparse_db.column("f.k").values[probe_idx])

    def test_only_a_masked_prober_copies_the_cached_table(self, sparse_db):
        lookup = kernels.cache_for(sparse_db).position_lookup(
            sparse_db.column("d.k"))
        pristine = lookup.table.copy()
        assert self._prober(sparse_db).table is lookup.table
        mask = sparse_db.column("d.w").values < 3
        masked = self._prober(sparse_db, mask)
        assert not np.shares_memory(masked.table, lookup.table)
        assert masked.table.dtype == lookup.table.dtype
        assert np.array_equal(lookup.table, pristine)  # never written
        kept = masked.table[masked.table >= 0]
        assert mask[kept].all() and len(kept) == np.count_nonzero(mask)

    # -- gathers keyed by a stored column go through ``ndarray.take`` ---

    def _dtype_prober(self, build, dtype, masked, checked):
        """(prober, build values, mask, contained probe keys)."""
        values = PROBER_BUILDS[build].astype(dtype)
        rng = np.random.default_rng(6)
        mask = rng.random(len(values)) < 0.6 if masked else None
        fk = rng.choice(values, 500)
        if build.startswith("dense"):
            prober = kernels._DenseProber(int(values[0]), len(values),
                                          mask, checked)
        elif build == "lookup":
            prober = kernels._LookupProber(
                kernels._build_position_lookup(values), mask, checked)
        elif build == "gathered":
            prober = _GatheredBuild(values, mask)
        else:
            prober = kernels._SortedProber(
                kernels._build_join_index(values), mask)
        return prober, values, mask, fk

    @staticmethod
    def _fancy_probe(prober, fk):
        """The unchecked filtered branches as they indexed before
        ``take``: plain fancy indexing with the key column."""
        if isinstance(prober, kernels._LookupProber):
            pos = prober.table[fk - prober.base]
            hit = pos >= 0
            return np.flatnonzero(hit), pos[hit].astype(np.int64)
        if prober.key_mask is not None:
            probe_idx = np.flatnonzero(prober.key_mask[fk])
            return probe_idx, fk[probe_idx].astype(np.int64) - prober.base
        pos = fk - prober.base
        hit = prober.mask[pos]
        return np.flatnonzero(hit), pos[hit].astype(np.int64)

    @pytest.mark.parametrize("build, dtype", [
        pytest.param(build, dtype, id="{}-{}".format(build, dtype.__name__))
        for build in sorted(PROBER_BUILDS)
        for dtype in (np.int16, np.int32, np.int64, np.uint32)
        if PROBER_BUILDS[build].max() <= np.iinfo(dtype).max])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("checked", [False, True])
    def test_every_prober_over_key_dtypes(self, build, dtype, masked,
                                          checked):
        prober, values, mask, fk = self._dtype_prober(
            build, dtype, masked, checked)
        probe_idx, build_tids = prober.probe(fk)
        assert probe_idx.dtype == build_tids.dtype == np.int64
        # the general expansion, row by row: probe order, then the
        # stable (ascending-tid) order of equal build keys
        selected = np.ones(len(values), bool) if mask is None else mask
        want = [(i, tid) for i, key in enumerate(fk)
                for tid in np.flatnonzero((values == key) & selected)]
        assert list(zip(probe_idx.tolist(), build_tids.tolist())) == want
        if masked and not checked and build not in ("sorted", "gathered"):
            for got, ref in zip((probe_idx, build_tids),
                                self._fancy_probe(prober, fk)):
                assert got.dtype == ref.dtype
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("build", ["dense", "dense_offset", "lookup"])
    def test_unchecked_gathers_keep_the_bounds_check(self, build):
        """``take`` runs in its default ``mode="raise"``: a key the
        bounds wrongly promised still fails loudly, as the fancy index
        did — never clipped or wrapped onto some other row."""
        prober, values, _, fk = self._dtype_prober(
            build, np.int32, masked=True, checked=False)
        if build != "lookup":  # both filtered dense branches are hit
            assert (prober.key_mask is not None) == (build == "dense")
        fk[7] = int(values.max()) + 100_000
        with pytest.raises(IndexError):
            prober.probe(fk)


# ---------------------------------------------------------------------------
# Lazy selection vectors through operator chains
# ---------------------------------------------------------------------------

class TestLazySelectionChains:
    def test_refine_chain_matches_seed(self, ssb_db):
        def rows():
            plan_cache.invalidate()
            plan = micro.build_parallel_selection_plan(ssb_db)
            return execute_operators(plan, ssb_db).payload.row_tuples()

        with materialised_scans():
            expected = rows()
        assert kernels.stats["masked_refines"] == 0
        got = rows()
        assert got == expected
        assert kernels.stats["masked_refines"] >= 3

    def test_tid_intersect_combines_masks(self, toy_db):
        amount = ColumnRef("sales", "amount")
        price = ColumnRef("sales", "price")

        def rows():
            # Fresh plan per run: per-template memos must not leak the
            # other mode's payload into the comparison.
            plan_cache.invalidate()
            left = ScanSelect("sales", Comparison(">", amount, Literal(30)))
            right = ScanSelect("sales", Comparison("<", price, Literal(25)))
            intersect = TidIntersect(left, right, "sales")
            root = Materialize(intersect,
                               [("amount", amount), ("price", price)])
            plan = PhysicalPlan(root, name="and")
            return execute_functional(plan, toy_db).payload.row_tuples()

        with materialised_scans():
            expected = rows()
        assert kernels.stats["masked_intersects"] == 0
        got = rows()
        assert got == expected
        assert kernels.stats["masked_intersects"] >= 1

    def test_scan_without_predicate_is_lazy(self, toy_db):
        result = ScanSelect("sales").run(toy_db, [])
        selection = result.payload.selection("sales")
        assert selection is not None and selection.is_all
        assert result.actual_rows == 500
        assert result.row_width_bytes == 0


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------

class TestInvalidation:
    def test_registry_contains_both_caches(self):
        assert "plan" in caches.registered()
        assert "kernels" in caches.registered()

    def test_compress_drops_kernel_cache(self, toy_db):
        self_rows = execute_functional(_join_plan(toy_db), toy_db)
        assert self_rows is not None
        assert kernels.cache_size(toy_db) > 0
        compress_database(toy_db)
        assert kernels.cache_size(toy_db) == 0
        assert plan_cache.cache_size(toy_db) == 0

    def test_clear_database_caches_drops_everything(self, toy_db):
        execute_functional(_join_plan(toy_db), toy_db)
        assert kernels.cache_size() > 0
        from repro.harness.experiments import clear_database_caches

        clear_database_caches()
        assert kernels.cache_size() == 0
        assert plan_cache.cache_size() == 0

    def test_results_stay_correct_after_compression(self, toy_db):
        before = execute_functional(_join_plan(toy_db),
                                    toy_db).payload.row_tuples()
        compress_database(toy_db)
        plan_cache.invalidate()
        after = execute_functional(_join_plan(toy_db),
                                   toy_db).payload.row_tuples()
        assert before == after


# ---------------------------------------------------------------------------
# Satellite kernels: word-level bit packing, dictionary fast paths
# ---------------------------------------------------------------------------

class TestWordLevelBitPack:
    @pytest.mark.parametrize("width_span", [
        1, 2, 3, 5, 7, 8, 13, 16, 31, 33, 40, 63,
    ])
    def test_round_trip_every_width(self, width_span):
        from repro.storage.compression import BitPackCodec

        codec = BitPackCodec()
        rng = np.random.default_rng(width_span)
        values = rng.integers(0, 2 ** width_span, 999,
                              dtype=np.int64) - 12345
        # Force the width: include the span endpoints.
        values[0] = -12345
        values[1] = 2 ** width_span - 1 - 12345
        payload = codec.encode(values)
        assert payload[0].dtype == np.uint64
        decoded = codec.decode(payload, np.int64, len(values))
        assert np.array_equal(decoded, values)

    def test_no_bit_matrix_blowup(self):
        from repro.storage.compression import BitPackCodec

        codec = BitPackCodec()
        values = np.arange(100_000, dtype=np.int64)
        words, base, width = codec.encode(values)
        assert width == 17
        # Word-level layout: ~width/64 words per value (plus spill).
        assert len(words) <= 100_000 * width // 64 + 2

    def test_delta_codec_still_exact(self):
        from repro.storage.compression import DeltaBitPackCodec

        codec = DeltaBitPackCodec()
        rng = np.random.default_rng(2)
        values = np.cumsum(rng.integers(0, 7, 5000)).astype(np.int32)
        decoded = codec.decode(codec.encode(values), np.int32, len(values))
        assert np.array_equal(decoded, values)


class TestDictionaryFastPaths:
    def test_encode_uses_cached_map(self, toy_db):
        column = toy_db.column("store.region")
        assert column.encode("north") == column.dictionary.index("north")
        assert column.encode("nowhere") == -1
        assert column._code_of is not None

    def test_bounds_cached_and_correct(self, toy_db):
        import bisect

        column = toy_db.column("store.region")
        for probe in ("east", "m", "aaa", "zzz"):
            assert column.encode_lower_bound(probe) == bisect.bisect_left(
                column.dictionary, probe
            )
            assert column.encode_upper_bound(probe) == (
                bisect.bisect_right(column.dictionary, probe) - 1
            )
        # Second lookup comes from the memo.
        assert ("m", False) in column._bound_cache

    def test_decode_vectorised_keeps_list_of_str(self, toy_db):
        column = toy_db.column("store.region")
        decoded = column.decode(column.values[:5])
        assert isinstance(decoded, list)
        assert all(isinstance(s, str) for s in decoded)
        assert decoded == [column.dictionary[int(c)]
                           for c in column.values[:5]]
        assert column.decode([]) == []
        assert column.decode(int(column.values[0])) == decoded[0]

    def test_result_frame_decoded_matches_loop(self, toy_db):
        from repro.engine.intermediates import ResultFrame

        frame = ResultFrame(
            {"region": toy_db.column("store.region").values.copy()},
            {"region": toy_db.column("store.region").dictionary},
        )
        expected = [frame.dictionaries["region"][int(c)]
                    for c in frame.columns["region"]]
        assert frame.decoded("region") == expected
        assert all(isinstance(s, str) for s in frame.decoded("region"))
