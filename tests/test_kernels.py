"""Kernel-acceleration layer: equivalence, caching, and invalidation.

Every kernel (cached join indexes, lazy selection vectors) is a pure
acceleration — these tests pin the byte-identity against the
operators' general branches (materialised tid arrays in, see
``conftest.materialised_scans``) on the SSB and TPC-H grids, and the
invalidation contract of ``caches.forget``.
"""

import ctypes
import mmap
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    Planner,
    caches,
    execute_reference,
    kernels,
    morsel,
)
from repro.engine.execution import execute_functional, execute_operators
from repro.engine.expressions import (
    COMPARISON_OPS,
    Between,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    conjunction,
)
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
from repro.engine.operators.scan import FILTER_SPAN_CAP
from repro.harness.runner import run_workload
from repro.storage import ColumnType, Database, shm
from repro.storage.column import Column
from repro.storage.compression import compress_database
from repro.workloads import micro, ssb, tpch

from tests.conftest import (
    cold_plan_cache,
    materialised_scans,
    morsel_rows,
    numpy_selections,
)


@pytest.fixture(autouse=True)
def _kernel_state():
    """Each test starts from empty caches and zeroed counters; the
    caches are dropped again afterwards."""
    caches.forget()
    kernels.reset_stats()
    yield
    caches.forget()


def run_query(database, sql, name):
    """Fresh plan + functional execution (no cross-plan memoisation)."""
    caches.memo(database, "plan").clear()
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
        caches.memo(database, "plan").clear()
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
            caches.memo(db, "plan").clear()
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
        return kernels.prober_for(
            caches.memo(db, "kernels", kernels.KernelCache), build,
            selection, db.column("f.k"))

    def test_unique_sparse_build_matches_seed(self, sparse_db):
        def rows():
            caches.memo(sparse_db, "plan").clear()
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
        lookup = caches.memo(sparse_db, "kernels",
                             kernels.KernelCache).position_lookup(
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
        lookup = caches.memo(sparse_db, "kernels",
                             kernels.KernelCache).position_lookup(
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
        with pytest.raises(IndexError):  # the chain kernel, if built
            (kernels.Chain([(prober, fk, "f", "b")], ["f"]).run(
                {"f": None}, 0, len(fk))
             or prober.probe(fk))


# ---------------------------------------------------------------------------
# The compiled chain kernel against the numpy chain it stands in for
# ---------------------------------------------------------------------------

def _require_the_loop():
    if kernels._chain_kernel() is None:
        pytest.skip("the chain kernel did not build here")


def _bound(builds, build, links, names):
    """``Chain(links, names)`` bound to the kernel's ``build`` (the
    ``chain_builds`` fixture's), skipping where it did not build."""
    if builds[build] is None:
        pytest.skip("the chain kernel did not build here")
    with mock.patch.object(kernels, "_chain_kernel", lambda: builds[build]):
        return kernels.Chain(links, names)


#: the kernel's builds held to the numpy probes on the same cases
BUILDS = ["vector", "scalar"]


def _byte_offset_view(table, offset, fill):
    """``table`` as a view ``offset`` bytes into a longer array whose
    other entries are ``fill``: a read past either end of the view
    reads a valid slot there, so only the bounds keep the answer."""
    if not offset:
        return table
    size = table.dtype.itemsize
    spare = np.full(len(table) + 8, fill, table.dtype).view(np.uint8)
    spare = spare[offset:offset + size * len(table)].view(table.dtype)
    spare[:] = table
    return spare


@st.composite
def _stage_prober(draw):
    """An unchecked prober — dense with a key mask (one of up to 70
    bytes, or one around 1,024), dense unfiltered, a lookup over an int32
    or int64 table (the kernel's), a selection term's ``ValueFilter`` or
    dense with a mask past the key-mask slack (numpy's) — over a mask
    that selects all, none or some keys; its byte slots a view 0-3 bytes,
    its int32 ones 0 or 4, into a longer array of hits; with the range
    its keys hit around."""
    kind = draw(st.sampled_from(
        ["dense", "dense_all", "lookup32", "lookup64", "filter"] * 2
        + ["dense_wide", "dense_offset"]))
    n_build = draw(st.integers(1, 30))
    base = draw(st.integers(0, 40)) + {"dense_offset": 70_000,
                                        "dense_wide": 990}.get(kind, 0)
    mask = draw(st.sampled_from(["all", "none", "some"]))
    mask = {"all": np.ones(n_build, bool), "none": np.zeros(n_build, bool),
            "some": np.arange(n_build) % 3 != 1}[mask]
    offset = draw(st.integers(0, 3))
    if kind == "filter":
        low = base - 20
        return kernels.ValueFilter(_byte_offset_view(mask, offset, True),
                                   low), n_build, low, n_build
    if kind.startswith("dense"):
        prober = kernels._DenseProber(
            base, n_build, None if kind == "dense_all" else mask, False)
        assert (prober.key_mask is not None) == (kind in ("dense",
                                                          "dense_wide"))
        if prober.key_mask is not None:
            prober.key_mask = _byte_offset_view(prober.key_mask, offset, True)
            return prober, n_build, 0, len(prober.key_mask)
        return prober, n_build, base, n_build
    step = draw(st.integers(1, 3))
    build = np.random.default_rng(draw(st.integers(0, 9))).permutation(
        np.arange(base, base + step * n_build, step))
    lookup = kernels._build_position_lookup(build)
    if kind == "lookup64":
        lookup = kernels.PositionLookup(
            lookup.base, lookup.table.astype(np.int64), lookup.n_rows)
    prober = kernels._LookupProber(lookup, mask, False)
    assert prober.table.dtype == (np.int64 if kind == "lookup64"
                                  else np.int32)
    if kind == "lookup32":
        prober.table = _byte_offset_view(prober.table, 4 * (offset > 0), 0)
    return prober, n_build, base, prober.span


def _spoil(draw, values, bad):
    """``values`` with, in one draw of eight, one entry drawn from
    ``bad`` — an index that may be out of range."""
    if len(values) and draw(st.integers(0, 7)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = draw(bad)
    return values


@st.composite
def _chain_cases(draw):
    """A chain of 1-4 stages out of table ``f`` (``f_rows`` rows), each
    keyed by an int32 or int64 column of ``f`` or of an earlier build
    table — every slot index, negative ones in [-n, 0), and sometimes
    one out of range or a key type's extreme — entered as a range, a
    range with a mask (sometimes one that clears a run of rows: whole
    blocks of it select nothing), or tids (negative ones, sometimes one
    out of range, optionally beside a second table ``g`` of carried
    tids).  A join adds its build table; a filter adds none."""
    f_rows = draw(st.integers(0, 100))
    rows = {"f": f_rows}
    entry = draw(st.sampled_from(["range", "mask", "tids"]))
    if entry == "tids":
        m = max(f_rows, 1)
        n = draw(st.integers(0, 90))
        lineage = {"f": np.array(_spoil(
            draw, draw(st.lists(st.integers(-m, m - 1), min_size=n,
                                max_size=n)),
            st.integers(-m - 2, m + 2)), np.int64)}
        if draw(st.booleans()):
            lineage["g"] = np.arange(100, 100 + n, dtype=np.int64)
        start = draw(st.integers(0, 5))
        stop, mask = start + n, None
    else:
        start = draw(st.integers(0, f_rows))
        stop = draw(st.integers(start, f_rows))
        lineage = {"f": None}
        mask = (np.array(draw(st.lists(st.booleans(), min_size=stop - start,
                                       max_size=stop - start)), bool)
                if entry == "mask" else None)
        if mask is not None and draw(st.booleans()):
            cleared = draw(st.integers(0, len(mask)))
            mask[cleared:draw(st.integers(cleared, len(mask)))] = False
    links = []
    for stage in range(draw(st.integers(1, 4))):
        prober, n_build, offset, slots = draw(_stage_prober())
        source = draw(st.sampled_from(list(rows)))
        key_type = draw(st.sampled_from([np.int32, np.int64]))
        info = np.iinfo(key_type)
        keys = draw(st.lists(st.integers(offset - slots, offset + slots - 1),
                             min_size=rows[source], max_size=rows[source]))
        values = np.array(_spoil(draw, keys, st.one_of(
            st.integers(offset - slots - 3, offset + slots + 3),
            st.sampled_from([int(info.min), int(info.max)]))), key_type)
        build = None
        if not isinstance(prober, kernels.ValueFilter):
            build = "b%d" % stage
            rows[build] = n_build
        links.append((prober, values, source, build))
    return links, lineage, start, stop, mask


def _numpy_chain(links, lineage, start, stop, mask):
    """The reference: ``FusedPipeline.run_morsel``'s per-join loop over
    ``HashJoin.match``'s numpy branch — rows entering and after each
    stage, and the last stage's aligned tids; a filter keeps the rows
    whose slot ``table.take(key - low)`` is true and adds no table."""
    if mask is not None:
        lineage = {"f": start + np.flatnonzero(mask)}
    counts = [stop - start if lineage["f"] is None else len(lineage["f"])]
    for prober, values, source, build in links:
        tids = lineage[source]
        keys = values[start:stop] if tids is None else values[tids]
        if build is None:
            probe_idx = np.flatnonzero(prober.table.take(keys - prober.low))
        else:
            probe_idx, build_tids = prober.probe(keys)
        lineage = {name: start + probe_idx if rows is None
                   else rows[probe_idx] for name, rows in lineage.items()}
        if build is not None:
            lineage[build] = build_tids
        counts.append(len(probe_idx))
    return counts, lineage


def _numpy_blocks(links, lineage, start, stop, mask, block):
    """The reference of a ranged call: :func:`_numpy_chain` block by
    block of ``block`` rows (None: one block), each block's entry tids
    and mask cut from the call's — per block counts, and the last join's
    tids concatenated over the blocks."""
    n = stop - start
    size = max(min(block or n, n), 1)
    counts, parts = [], []
    for low in range(0, max(n, 1), size):
        high = min(low + size, n)
        cut = {name: None if rows is None else rows[low:high]
               for name, rows in lineage.items()}
        got = _numpy_chain(links, cut, start + low, start + high,
                           None if mask is None else mask[low:high])
        counts.append(got[0])
        parts.append(got[1])
    return counts, {name: np.concatenate([part[name] for part in parts])
                    for name in parts[0]}


def _answers_as_numpy(chain, case, block):
    """``chain``'s call over ``case`` in blocks of ``block`` rows answers
    as :func:`_numpy_blocks`: per-block counts, each table's tids, a
    probe booked per join and block — or, where numpy raises, raises
    and books nothing."""
    links, lineage, start, stop, mask = case
    try:
        want_counts, want = _numpy_blocks(*case, block)
    except IndexError:
        before = dict(kernels.stats)
        with pytest.raises(IndexError):
            chain.run(lineage, start, stop, mask, block)
        assert kernels.stats == before  # nothing booked
        return
    before = kernels.stats["compiled_probes"]
    counts, got = chain.run(lineage, start, stop, mask, block)
    joins = sum(build is not None for *_, build in links)
    assert kernels.stats["compiled_probes"] == (
        before + joins * len(want_counts))
    assert counts.tolist() == want_counts
    assert list(got) == list(want)
    for name in got:
        assert got[name].dtype == want[name].dtype == np.int64
        assert got[name].tobytes() == want[name].tobytes()


class TestCompiledProbe:
    @given(case=_chain_cases(),
           block=st.sampled_from([None, 1, 7, 15, 16, 17, 64]))
    @settings(max_examples=300, deadline=None)
    def test_the_loop_answers_as_the_numpy_probe(self, case, block,
                                                 chain_builds):
        """One call over a range, in blocks of 1, 7, 15, 16, 17 or 64
        rows (the last one ragged; 16 is a vector's width) or one block,
        answers as the numpy chain block by block: per-block counts, and
        each table's tids concatenated — built with the vector stages
        and without them."""
        links, lineage, start, stop, mask = case
        for build in BUILDS:
            chain = _bound(chain_builds, build, links, list(lineage))
            if any(prober.native() is None for prober, *_ in links):
                assert chain.kernel is None
                assert chain.run(lineage, start, stop, mask, block) is None
            else:
                _answers_as_numpy(chain, case, block)

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("stage", ["first", "later"])
    @pytest.mark.parametrize("kind", ["all", "dense", "wide", "lookup",
                                      "filter"])
    @pytest.mark.parametrize("row", [0, 9, 15, 16, 31, 32, 47, 70, 77])
    def test_a_bad_key_or_tid_in_a_vector_lane_or_the_tail_raises(
            self, row, kind, stage, build, chain_builds):
        """Over 78 rows in one block (four vectors of 16, then a scalar
        tail of 14) a key out of range at ``row``, or a key column that
        ends at ``row`` (its tid there one past the end), fails the call
        from the first stage or from a later one over the row index (the
        rows up to ``row``, so the fault is its last row); it books
        nothing, and the same call without the fault answers as numpy."""
        rows = 78
        slots = {"all": 0, "dense": 12, "wide": 1100, "lookup": 12,
                 "filter": 12}[kind]
        rng = np.random.default_rng(row)
        if kind == "all":
            prober = kernels._DenseProber(5, 40, None, False)
            keys, bad = rng.integers(5, 45, rows), 0
        elif kind in ("dense", "wide"):
            prober = kernels._DenseProber(slots - 12, 12,
                                          np.arange(12) % 3 != 1, False)
            keys, bad = rng.integers(-slots, slots, rows), slots
        elif kind == "lookup":
            lookup = kernels._build_position_lookup(
                np.arange(-40, -40 + 2 * slots, 2, dtype=np.int32))
            prober = kernels._LookupProber(lookup, np.arange(12) % 2 == 0,
                                           False)
            span = len(lookup.table)
            keys, bad = -40 + rng.integers(-span, span, rows), -40 + span
        else:
            prober = kernels.ValueFilter(np.arange(slots) % 4 != 0, 100)
            keys, bad = 100 + rng.integers(-slots, slots, rows), 100 + slots
        links = [(prober, keys.astype(np.int32), "f",
                  None if kind == "filter" else "b")]
        if stage == "later":  # the rows up to ``row`` survive the first
            links.insert(0, (kernels._DenseProber(
                0, rows, np.arange(rows) <= row, False),
                np.arange(rows, dtype=np.int32), "f", "a"))
        chain = _bound(chain_builds, build, links, ["f"])
        case = links, {"f": None}, 0, rows, None
        _answers_as_numpy(chain, case, None)
        key_fault = [link[:1] + (link[1].copy(),) + link[2:]
                     for link in links]
        key_fault[-1][1][row] = bad
        tid_fault = links[:-1] + [(prober, links[-1][1][:row], "f",
                                   links[-1][3])]
        with pytest.raises(IndexError):  # take's rule for the range
            tid_fault[-1][1].take(np.arange(rows))
        for faulty in (key_fault, tid_fault):
            if kind == "all" and faulty is key_fault:
                continue  # an unfiltered dense stage reads no slot
            if faulty is key_fault:
                with pytest.raises(IndexError):
                    _numpy_blocks(faulty, {"f": None}, 0, rows, None, None)
            chain = _bound(chain_builds, build, faulty, ["f"])
            kernels.reset_stats()
            with pytest.raises(IndexError):
                chain.run({"f": None}, 0, rows)
            assert not any(kernels.stats.values())

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("slots", [11, 1024, 1025, 2000])
    @pytest.mark.parametrize("offset", [1, 2, 3])
    def test_negative_keys_and_the_last_slots_of_a_byte_view(
            self, offset, slots, build, chain_builds):
        """Dense keys in ``[-slots, 0)`` count from the key mask's end;
        the mask is a view 1-3 bytes into a longer array of hits, so a
        read of its last slots that strayed past them would hit — over
        ranges of 1-80 rows (vector lanes and tails), as numpy."""
        mask = np.arange(slots) % 5 == 2
        prober = kernels._DenseProber(slots - 8, 8, mask[-8:], False)
        prober.key_mask = _byte_offset_view(mask, offset, True)
        keys = np.concatenate([np.arange(-slots, 0),
                               np.arange(max(slots - 40, 0), slots)])
        keys = np.random.default_rng(slots + offset).permutation(
            np.tile(keys, 4))
        for stop in (1, 16, 17, 33, 80):
            values = keys[:stop].astype(np.int32)
            links = [(prober, values, "f", "b")]
            chain = _bound(chain_builds, build, links, ["f"])
            _answers_as_numpy(chain, (links, {"f": None}, 0, stop, None),
                              None)

    @pytest.mark.parametrize("build", BUILDS)
    def test_no_read_past_the_end_of_a_table_or_key_column(
            self, build, chain_builds):
        """Byte tables of 11, 1,025 and 2,000 slots and an int32 key
        column each end where an unreadable page starts, so a read past
        one stops the process: hits on their last slots, over ranges
        that end at the column's end, answer as numpy, and a range past
        its end raises, from the first stage or a later one."""
        page = mmap.PAGESIZE
        libc = ctypes.CDLL(None, use_errno=True)
        libc.mprotect.argtypes = (ctypes.c_void_p, ctypes.c_size_t,
                                  ctypes.c_int)
        guarded = []

        def at_a_guard(array):
            pages = -(-array.nbytes // page) + 1
            region = mmap.mmap(-1, pages * page)
            raw = np.frombuffer(region, np.uint8)
            guard = raw.ctypes.data + (pages - 1) * page
            assert libc.mprotect(guard, page, 0) == 0  # PROT_NONE
            guarded.append(guard)
            end = (pages - 1) * page
            placed = raw[end - array.nbytes:end].view(array.dtype)
            placed[:] = array
            return placed
        try:
            for slots in (11, 1025, 2000):
                mask = np.arange(slots) % 3 != 0
                prober = kernels._DenseProber(slots - 8, 8, mask[-8:], False)
                prober.key_mask = at_a_guard(mask)
                for rows in (1, 16, 17, 47, 64):
                    keys = at_a_guard((slots - 1 - np.arange(rows) % 4)
                                      .astype(np.int32))
                    links = [(prober, keys, "f", "b")]
                    chain = _bound(chain_builds, build, links, ["f"])
                    _answers_as_numpy(
                        chain, (links, {"f": None}, 0, rows, None), None)
                    with pytest.raises(IndexError):
                        chain.run({"f": None}, 0, rows + 20)
                    every = kernels._DenseProber(0, rows + 1, None, False)
                    chain = _bound(chain_builds, build, [
                        (every, np.arange(rows + 1, dtype=np.int32), "f",
                         "a")] + links, ["f"])
                    with pytest.raises(IndexError):
                        chain.run({"f": None}, 0, rows + 1)
        finally:
            for guard in guarded:
                libc.mprotect(guard, page, mmap.PROT_READ | mmap.PROT_WRITE)

    def test_a_key_out_of_range_in_a_late_block_books_nothing(self):
        """Blocks before the bad key run and write, but the call raises
        and books no probe: a recording over it records nothing."""
        _require_the_loop()
        prober = kernels._DenseProber(0, 10, np.arange(10) % 2 == 0, False)
        values = np.arange(300, dtype=np.int32) % 10
        tids = np.arange(300, dtype=np.int64)[::-1].copy()
        chain = kernels.Chain([(prober, values, "f", "b")], ["f"])
        counts, _ = chain.run({"f": tids}, 0, 300, block=64)
        assert counts.shape == (5, 2) and kernels.stats["dense_joins"] == 5
        kernels.reset_stats()
        values[9] = 10  # read at row 290, in the last block
        with pytest.raises(IndexError):
            chain.run({"f": tids}, 0, 300, block=64)
        assert not any(kernels.stats.values())

    def test_a_tid_one_past_the_end_raises(self):
        """A tid equal to the key column's length fails the call even
        where the memory after the column holds a valid key — the
        column here is the front of a longer array, and an unfiltered
        dense build hits on any key — so only the bound check refuses
        it, as ``take`` does."""
        _require_the_loop()
        prober = kernels._DenseProber(0, 10, None, False)
        values = np.arange(11, dtype=np.int32)[:10]
        tids = np.array([0, 9, 10], np.int64)
        chain = kernels.Chain([(prober, values, "f", "b")], ["f"])
        assert chain.kernel is not None
        with pytest.raises(IndexError):
            values.take(tids)
        with pytest.raises(IndexError):
            chain.run({"f": tids}, 0, len(tids))
        assert not any(kernels.stats.values())

    @staticmethod
    def _spoiled(case):
        """A one-join chain whose ``case`` array C must not read as is,
        and the join's numpy answer over the original arrays."""
        build = np.random.default_rng(3).permutation(np.arange(5, 45))
        lookup = kernels._build_position_lookup(build.astype(np.int32))
        prober = kernels._LookupProber(lookup, build % 4 != 0, False)
        values = np.arange(8, 40, dtype=np.int32)
        tids = np.arange(31, -1, -2, dtype=np.int64)
        want = prober.probe(values[tids])
        if case == "strided slots":
            prober.table = np.repeat(prober.table, 2)[::2]
        elif case == "int16 slots":
            prober.table = prober.table.astype(np.int16)
        elif case == "big-endian slots":
            prober.table = prober.table.astype(">i4")
        elif case == "strided keys":
            values = np.repeat(values, 2)[::2]
        elif case == "int16 keys":
            values = values.astype(np.int16)
        elif case == "int32 tids":
            tids = tids.astype(np.int32)
        elif case == "strided tids":
            tids = np.repeat(tids, 2)[::2]
        return prober, values, tids, want

    @pytest.mark.parametrize("case", [
        "strided slots", "int16 slots", "big-endian slots", "strided keys",
        "int16 keys", "int32 tids", "strided tids"])
    def test_an_array_c_cannot_take_answers_like_numpy(self, case):
        """A slot or key array C cannot take unbinds the join; tids,
        which are a call's own, refuse that call."""
        prober, values, tids, want = self._spoiled(case)
        join = HashJoin(ScanSelect("f"), ScanSelect("b"),
                        ColumnRef("f", "k"), ColumnRef("b", "id"))
        chain = kernels.Chain([(prober, values, "f", "b")], ["f"])
        assert (chain.kernel is None) == (case.endswith(("slots", "keys"))
                                          or kernels._chain_kernel() is None)
        assert chain.run({"f": tids}, 0, len(tids)) is None
        got = join.match(chain, {"f": tids}, 0, len(tids))
        assert got["f"].tobytes() == tids[want[0]].tobytes()
        assert got["b"].tobytes() == want[1].tobytes()
        assert kernels.stats["compiled_probes"] == 0
        assert kernels.stats["numpy_probes"] == 1

    def test_a_mask_c_cannot_take_leaves_the_chain_to_numpy(self):
        prober, values, _, _ = self._spoiled(None)
        chain = kernels.Chain([(prober, values, "f", "b")], ["f"])
        n = len(values)
        for mask in (np.ones(n, np.uint8), np.ones(2 * n, bool)[::2],
                     np.ones(n - 1, bool)):
            assert chain.run({"f": None}, 0, n, mask) is None

    @staticmethod
    def _engine(db, queries, rows):
        """Per template at ``rows`` per morsel: the memo of every
        operator a cold fused recording covers, and the rows and sizes
        of a two-chunk pooled merge; and, per template, its joins, its
        morsels, its joins the kernel does not take and the probes
        booked to each path."""
        def sized(result):
            payload = result[0]
            body = (payload.row_tuples() if hasattr(payload, "columns")
                    else [(name, payload.positions(name).dtype.str,
                           payload.positions(name).tobytes())
                          for name in payload.table_names])
            return body, tuple(result[1:])

        out, booked = {}, {}
        with morsel_rows(rows):
            for query in queries:
                kernels.reset_stats()
                morsel.reset_stats()
                caches.memo(db, "plan").clear()
                plan = query.instantiate()
                assert morsel.prepare_fused(plan, db), query.name
                pipe = morsel.build(query.instantiate(), db)
                half = pipe.fact_rows // 2
                merged = pipe.merge([pipe.run_chunk(0, half),
                                     pipe.run_chunk(half, pipe.fact_rows)])
                booked[query.name] = (
                    len(pipe.stages), morsel.stats["morsels"],
                    sum(stage.prober.native() is None
                        for stage in pipe.stages),
                    kernels.stats["compiled_probes"],
                    kernels.stats["numpy_probes"])
                # booked before the joins' deferred tids are read here
                out[query.name] = [
                    sized(op._cached_result) for op in plan.operators
                    if op._cached_result is not None], sized((
                        merged.payload, merged.actual_rows,
                        merged.nominal_rows, merged.row_width_bytes))
        return out, booked

    @staticmethod
    def _cut(db, fact, rows):
        """``db`` with its fact table cut to the first ``rows`` rows:
        what a morsel of one row costs stays small."""
        cut = Database(db.name)
        for table in db.tables:
            twin = cut.create_table(table.name, table._nominal_rows)
            for column in table.columns:
                twin._attach(Column(
                    table.name, column.name, column.ctype,
                    column.values[:rows] if table.name == fact
                    else column.values, column.nominal_rows,
                    column.dictionary))
        return cut

    @pytest.mark.parametrize("module, fact", [(ssb, "lineorder"),
                                              (tpch, "lineitem")])
    def test_engine_outputs_equal_with_the_loop_on_and_off(
            self, module, fact, monkeypatch):
        _require_the_loop()
        full = module.generate(scale_factor=0.01, data_scale=0.01, seed=8)
        for rows, cut in ((1, 250), (7, 1400), (65536, None)):
            db = full if cut is None else self._cut(full, fact, cut)
            queries = module.workload(db)
            on, booked = self._engine(db, queries, rows)
            # every morsel of every template probes each join the kernel
            # takes in the kernel, and only the others in numpy (here:
            # the SSB part join, whose sparse keys sort)
            assert all(compiled == (joins - numpy_only) * morsels
                       and numpy == numpy_only * morsels
                       for joins, morsels, numpy_only, compiled, numpy
                       in booked.values()), booked
            assert all(numpy_only < joins for joins, _, numpy_only, *_
                       in booked.values() if joins), booked
            with monkeypatch.context() as patch:
                patch.setattr(kernels, "_chain_kernel", lambda: None)
                off, booked = self._engine(db, queries, rows)
            assert all(compiled == 0 and numpy == joins * morsels
                       for joins, morsels, _, compiled, numpy
                       in booked.values()), booked
            assert on == off, rows

    def test_a_chain_numpy_must_probe_is_decided_once(self, monkeypatch):
        """SSB's part-first chains (Q2.x, Q4.x) enter at ``part`` and
        join ``lineorder`` 1:N through a sorted ``lo_partkey`` index,
        which C does not take: the binding leaves the whole chain to
        numpy when the pipeline is built, so no morsel asks the kernel
        for the chain, and every other join is one kernel call per
        morsel, through its binding of one."""
        _require_the_loop()
        db = self._cut(ssb.generate(scale_factor=0.01, data_scale=0.01,
                                    seed=8), "lineorder", 1400)
        calls, checked = [], 0  # the joins of each call that has a kernel

        def counted(self, *args, _inner=kernels.Chain.run):
            if self.kernel is not None:
                calls.append(len(self.links))
            return _inner(self, *args)
        monkeypatch.setattr(kernels.Chain, "run", counted)
        with morsel_rows(7):
            for query in ssb.workload(db):
                pipe = morsel.build(query.instantiate(), db)
                native = [stage.prober.native() is not None
                          for stage in pipe.stages]
                if all(native):
                    continue
                assert pipe.chain is None, query.name
                del calls[:]
                morsel.reset_stats()
                pipe.run_chunk(0, pipe.fact_rows)
                assert calls == [1] * sum(native) * morsel.stats["morsels"]
                checked += 1
        assert checked == 6

    @pytest.fixture()
    def rebuilt(self, monkeypatch):
        """Patches for the build; the library memoised under them is
        dropped once they are undone."""
        yield monkeypatch
        monkeypatch.undo()
        kernels._chain_kernel.cache_clear()

    @pytest.mark.parametrize("failure", ["compiler", "cache", "load"])
    def test_a_failed_build_is_booked_and_answers_the_same(
            self, rebuilt, failure, ssb_db, tmp_path):
        _require_the_loop()
        queries = ssb.workload(ssb_db)

        def rows():
            kernels.reset_stats()
            return {query.name: run_query(ssb_db, ssb.QUERIES[query.name],
                                          query.name)
                    for query in queries}

        expected = rows()
        assert kernels.stats["compiled_probes"] > 0
        build = kernels._chain_kernel
        rebuilt.setenv("XDG_CACHE_HOME", str(tmp_path))
        if failure == "compiler":  # the command is the kernel's parameter
            rebuilt.setattr(kernels, "_chain_kernel", lambda: build(
                ("repro-no-such-cc",) + kernels._COMPILE[1:]))
        elif failure == "cache":  # a directory cannot be made in a file
            (tmp_path / "file").write_text("")
            rebuilt.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        else:
            def refuse(path):
                raise OSError("cannot load " + path)
            rebuilt.setattr(kernels.ctypes, "CDLL", refuse)
        build.cache_clear()
        assert kernels._chain_kernel() is None
        assert rows() == expected
        assert kernels.stats["compiled_probes"] == 0
        assert kernels.stats["numpy_probes"] > 0


# ---------------------------------------------------------------------------
# Fact selections folded into the chain kernel as filter stages
# ---------------------------------------------------------------------------

CAP = FILTER_SPAN_CAP
#: the string column's dictionary, and literals it holds or not
_WORDS = ["ash", "elm", "fir", "oak", "yew"]
_LITERALS = _WORDS + ["aaa", "ela", "zzz"]


@st.composite
def _fold_term(draw, spans):
    """One conjunct over ``f`` — ``=, <>, <, <=, >, >=``, ``BETWEEN``
    or ``IN`` over int32 ``a``, int64 ``b`` or string ``s`` (literals
    around each column's range, so some select nothing or everything),
    or a shape that must not fold: a float column, a term over two
    columns — and whether it folds (a column spanning past the cap
    does not either)."""
    column = draw(st.sampled_from(["a", "b", "s", "a", "b", "s", "z", "ab"]))
    if column == "z":
        return Comparison("<", ColumnRef("f", "z"), Literal(0.25)), False
    if column == "ab":
        return Comparison("<", ColumnRef("f", "a"), ColumnRef("f", "b")), False
    if column == "s":
        value = st.sampled_from(_LITERALS)
    else:
        low, span = spans[column]
        high = low + span - 1
        value = st.one_of(st.integers(low - 3, low + 3),
                          st.integers(high - 3, high + 3),
                          st.integers(low, high))
    ref = ColumnRef("f", column)
    shape = draw(st.sampled_from(list(COMPARISON_OPS) + ["between", "in"]))
    if shape == "between":
        term = Between(ref, Literal(draw(value)), Literal(draw(value)))
    elif shape == "in":
        term = InList(ref, draw(st.lists(value, min_size=1, max_size=3)))
    else:
        term = Comparison(shape, ref, Literal(draw(value)))
    return term, column == "s" or spans[column][1] <= CAP


@st.composite
def _fold_cases(draw):
    """A fact table ``f`` — ``a`` int32 and ``b`` int64 over a drawn
    range (negative lows; a span far inside the cap, at it or one past
    it), ``s`` a string, ``z`` a float, ``fk`` into dimension ``d`` — a
    scan and maybe a refine over it, each a conjunction of 1-2 terms,
    maybe a join into ``d`` (filtered or not) and maybe the scan's
    recorded mask as the entry; and whether each selection folds."""
    n = draw(st.integers(0, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    spans = {"a": (draw(st.integers(-50, 50)),
                   draw(st.sampled_from([draw(st.integers(1, 40)), CAP,
                                         CAP + 1]))),
             "b": (draw(st.integers(-10 ** 12, 10 ** 12)),
                   draw(st.sampled_from([draw(st.integers(1, 40)), CAP,
                                         CAP + 1])))}
    db = Database("fold")
    fact = db.create_table("f", nominal_rows=10 * n + 7)
    for name, ctype in (("a", ColumnType.INT32), ("b", ColumnType.INT64)):
        low, span = spans[name]
        values = low + rng.integers(0, span, n)
        values[:2] = [low, low + span - 1][:n]  # the whole span occurs
        if n < 2:
            spans[name] = (low, 1)
        fact.add_column(name, ctype, values)
    fact.add_string_column("s", _WORDS, rng.integers(0, len(_WORDS), n))
    fact.add_column("z", ColumnType.FLOAT64, rng.random(n))
    fact.add_column("fk", ColumnType.INT32, rng.integers(1, 6, n))
    dim = db.create_table("d", nominal_rows=5)
    dim.add_column("id", ColumnType.INT32, np.arange(1, 6))
    dim.add_column("kind", ColumnType.INT32, np.arange(5) % 2)
    selections = [draw(st.lists(_fold_term(spans), min_size=1, max_size=2))
                  for _ in range(draw(st.integers(1, 2)))]
    join = draw(st.sampled_from([None, "all", "some"]))

    def plan():
        node = None
        for terms in selections:
            predicate = conjunction([term for term, _ in terms])
            node = (ScanSelect("f", predicate) if node is None
                    else RefineSelect(node, "f", predicate))
        if join is not None:
            build = ScanSelect("d", None if join == "all" else Comparison(
                "=", ColumnRef("d", "kind"), Literal(0)))
            node = HashJoin(node, build, ColumnRef("f", "fk"),
                            ColumnRef("d", "id"))
        return PhysicalPlan(Materialize(node, [("a", ColumnRef("f", "a"))]))

    entry = len(selections) == 2 and draw(st.booleans())
    # an empty column has no bounds to span
    folds = [n > 0 and all(folds for _, folds in terms)
             for terms in selections]
    return db, plan, entry, folds[1:] if entry else folds


def _build_pipe(db, plan, entry):
    """``plan`` bound as a pipeline — entered at its scan's recorded
    mask when ``entry`` (the scan recorded by its operator path)."""
    if entry:
        scan = plan.root.children[0]
        while scan.children:
            scan = scan.children[0]
        scan.produce(db, [])
    return morsel.build(plan, db, resume=entry)


def _probe_chain(plan):
    """The chain operators of ``plan``, scan first: its probe side."""
    chain, node = [], plan.root.children[0]
    while node is not None:
        chain.insert(0, node)
        node = node.children[0] if node.children else None
    return chain


def _per_morsel(pipe):
    """Per morsel, the rows after each chain operator; and each table's
    tids after the last, over all fact rows: from the pipeline's one
    call, or (built under ``numpy_selections``) from ``_enter`` and
    ``run_morsel`` morsel by morsel."""
    spans = pipe._spans(0, pipe.fact_rows)
    rows = lambda mask, low, high: (high - low if mask is None else
                                    int(np.count_nonzero(mask)))
    if pipe.chain is not None and pipe.folded:
        masks, counts, lineage = pipe._run(0, pipe.fact_rows)
        return [[rows(mask if mask is None else mask[low:high], low, high)
                 for mask in masks] + counts[number, pipe.counted].tolist()
                for number, (low, high) in enumerate(spans)], {
            name: tids.copy() for name, tids in lineage.items()}
    counts, parts = [], []
    for low, high in spans:
        masks, mask = pipe._enter(low, high)
        joined, lineage = pipe.run_morsel(low, high, mask)
        counts.append([rows(mask, low, high) for mask in masks] + joined[1:])
        parts.append({name: np.arange(low, high) if tids is None else tids
                      for name, tids in lineage.items()})
    return counts, {name: np.concatenate([part[name] for part in parts])
                    for name in parts[0]}


class TestFoldedSelections:
    @given(case=_fold_cases(),
           block=st.sampled_from([1, 7, morsel.MORSEL_ROWS]))
    @settings(max_examples=300, deadline=None)
    def test_a_folded_chain_answers_as_numpy_and_the_operators(
            self, case, block):
        """The kernel's per-morsel counts and lineage equal the numpy
        selections' (``_enter``, then ``run_morsel``) and the operator
        path's ``run()``, byte for byte; a selection folds exactly when
        it and every selection after it have only foldable terms (and
        the kernel built)."""
        db, plan, entry, folds = case
        compiled = kernels._chain_kernel() is not None
        with morsel_rows(block), cold_plan_cache():
            reference = plan()
            execute_operators(reference, db)
            pipe = _build_pipe(db, plan(), entry)
            with numpy_selections():
                unfolded = _build_pipe(db, plan(), entry)
            got_counts, got = _per_morsel(pipe)
            want_counts, want = _per_morsel(unfolded)
        expected = 0
        for folds_here in reversed(folds):
            if not (compiled and folds_here):
                break
            expected += 1
        assert (pipe.folded, unfolded.folded) == (expected, 0)
        assert got_counts == want_counts
        chain = _probe_chain(reference)
        ran = chain[len(chain) + 1 - len(pipe.covered_ops):]
        assert [sum(column) for column in zip(*got_counts)] == [
            op._cached_result[1] for op in ran]
        last = chain[-1]._cached_result[0]
        assert list(got) == list(want) == last.table_names
        for name in got:
            assert got[name].dtype == want[name].dtype == np.int64
            assert (got[name].tobytes() == want[name].tobytes()
                    == last.positions(name).astype(np.int64).tobytes())
        # and both record what the operator path records, deferred
        # payloads read here
        for built in (pipe, unfolded):
            with morsel_rows(block), cold_plan_cache():
                built.run_recorded()
            for op, ref in zip(_probe_chain(built.plan) + [built.breaker],
                               chain + [reference.root]):
                (payload, *sizes), (want_payload, *want_sizes) = (
                    op._cached_result, ref._cached_result)
                assert sizes == want_sizes, op.label
                if op is built.breaker:
                    assert payload.row_tuples() == want_payload.row_tuples()
                    continue
                assert payload.table_names == want_payload.table_names
                for name in payload.table_names:
                    assert (payload.positions(name).tobytes()
                            == want_payload.positions(name).tobytes())

    def test_flight_one_folds_its_fact_selection(self):
        """The witness that folding happens: every SSB flight-1
        template's fact selection (``lo_discount BETWEEN ... AND
        lo_quantity ...``) folds into the compiled chain, booked in
        ``morsel.stats["folded_selections"]`` — so the fast path cannot
        fall back to the numpy masks unnoticed — and answers as the
        operator path."""
        _require_the_loop()
        db = ssb.generate(scale_factor=1, data_scale=0.01)
        flight = [query for query in ssb.workload(db)
                  if query.name.startswith("Q1.")]
        assert len(flight) == 3
        for query in flight:
            morsel.reset_stats()
            pipe = morsel.build(query.instantiate(), db)
            assert (pipe.folded, morsel.stats["folded_selections"]) == (1, 1)
            assert pipe.chain is not None and len(pipe.selections) == 1
            merged = pipe.merge([pipe.run_chunk(0, pipe.fact_rows)])
            with cold_plan_cache():
                want = execute_operators(query.instantiate(), db)
            assert (merged.payload.row_tuples()
                    == want.payload.row_tuples()), query.name


# ---------------------------------------------------------------------------
# Lazy selection vectors through operator chains
# ---------------------------------------------------------------------------

class TestLazySelectionChains:
    def test_refine_chain_matches_seed(self, ssb_db):
        def rows():
            caches.memo(ssb_db, "plan").clear()
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
            caches.memo(toy_db, "plan").clear()
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

def _derived(db):
    """Entries of the three memos a workload fills, and the export."""
    return (len(caches.memo(db, "plan")),
            len(caches.memo(db, "kernels", kernels.KernelCache)),
            len(caches.memo(db, "placement_sizes")),
            shm.export_count(db))


class TestInvalidation:
    def test_compress_drops_kernel_cache(self, toy_db):
        self_rows = execute_functional(_join_plan(toy_db), toy_db)
        assert self_rows is not None
        assert len(caches.memo(toy_db, "kernels", kernels.KernelCache)) > 0
        compress_database(toy_db)
        assert len(caches.memo(toy_db, "kernels", kernels.KernelCache)) == 0
        assert len(caches.memo(toy_db, "plan")) == 0

    def test_clear_database_caches_drops_everything(self, toy_db):
        execute_functional(_join_plan(toy_db), toy_db)
        assert len(caches.memo(toy_db, "kernels", kernels.KernelCache)) > 0
        from repro.harness.experiments import clear_database_caches

        clear_database_caches()
        assert len(caches._memos) == 0  # no database keeps a memo

    @pytest.mark.parametrize("drop", [caches.forget, compress_database])
    def test_one_call_drops_a_workloads_memos_and_export(self, drop):
        db = ssb.generate(scale_factor=0.01, data_scale=0.01, seed=3)
        run_workload(db, ssb.workload(db), "critical_path")
        name = shm.export_database(db).shm_name
        assert all(_derived(db))
        drop(db)
        assert _derived(db) == (0, 0, 0, 0)
        assert not shm.segment_exists(name)

    def test_results_stay_correct_after_compression(self, toy_db):
        before = execute_functional(_join_plan(toy_db),
                                    toy_db).payload.row_tuples()
        compress_database(toy_db)
        caches.memo(toy_db, "plan").clear()
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
