"""Unit and property tests for the column compression codecs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import Column, ColumnType
from repro.storage.compression import (
    BitPackCodec,
    DeltaBitPackCodec,
    RunLengthCodec,
    choose_codec,
    codec_by_name,
    compress_column,
    compress_database,
    compression_summary,
)


CODECS = (RunLengthCodec(), BitPackCodec(), DeltaBitPackCodec())


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
def test_round_trip_simple(codec):
    values = np.array([5, 5, 5, 9, 9, 1, 1, 1, 1], dtype=np.int32)
    payload = codec.encode(values)
    decoded = codec.decode(payload, np.int32, len(values))
    assert np.array_equal(decoded, values)


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
def test_round_trip_empty(codec):
    values = np.empty(0, dtype=np.int32)
    payload = codec.encode(values)
    decoded = codec.decode(payload, np.int32, 0)
    assert len(decoded) == 0


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
@given(data=st.lists(st.integers(-10_000, 10_000), min_size=1, max_size=300))
@settings(max_examples=40, deadline=None)
def test_round_trip_property(codec, data):
    values = np.array(data, dtype=np.int32)
    payload = codec.encode(values)
    decoded = codec.decode(payload, np.int32, len(values))
    assert np.array_equal(decoded, values)


def test_rle_wins_on_constant_column():
    values = np.full(10_000, 7, dtype=np.int32)
    compression = choose_codec(values)
    assert compression.codec == "rle"
    assert compression.ratio < 0.01


def test_bitpack_wins_on_small_domain():
    rng = np.random.default_rng(0)
    values = rng.integers(0, 11, 10_000).astype(np.int32)  # discounts 0-10
    assert BitPackCodec().ratio(values) < 0.15
    compression = choose_codec(values)
    assert compression.ratio < 0.2


def test_delta_wins_on_sorted_keys():
    values = np.arange(1, 10_001, dtype=np.int32)  # order keys
    delta = DeltaBitPackCodec().ratio(values)
    bitpack = BitPackCodec().ratio(values)
    assert delta < bitpack


def test_random_wide_data_does_not_compress():
    rng = np.random.default_rng(1)
    values = rng.integers(-2**30, 2**30, 5000).astype(np.int32)
    compression = choose_codec(values)
    assert compression.ratio > 0.9


def test_ratio_never_exceeds_one():
    rng = np.random.default_rng(2)
    values = rng.integers(-2**30, 2**30, 100).astype(np.int32)
    for codec in CODECS:
        assert codec.ratio(values) <= 1.0


def test_codec_by_name():
    assert codec_by_name("rle").name == "rle"
    with pytest.raises(KeyError):
        codec_by_name("zstd")


def test_compress_column_shrinks_nominal_bytes():
    values = np.full(1000, 3, dtype=np.int32)
    column = Column("t", "c", ColumnType.INT32, values, nominal_rows=10**6)
    raw = column.nominal_bytes
    compression = compress_column(column)
    assert compression.codec == "rle"
    assert column.nominal_bytes < raw / 10
    assert column.nominal_bytes == int(raw * compression.ratio)


def test_compress_database_and_summary(ssb_db):
    import copy

    db = copy.deepcopy(ssb_db)
    before = db.nominal_bytes
    report = compress_database(db)
    after = db.nominal_bytes
    assert after < before  # SSB has many narrow columns
    assert set(report) == {c.key for c in db.columns()}
    text = compression_summary(report)
    assert "lineorder.lo_discount" in text
    # discounts (0-10) bit-pack well
    assert report["lineorder.lo_discount"].ratio < 0.2


def test_compression_preserves_query_results(ssb_db):
    """Compression changes sizing only — never results."""
    import copy

    from repro.engine.execution import execute_functional
    from repro.workloads import ssb

    db = copy.deepcopy(ssb_db)
    queries = ssb.workload(db, ["Q1.1", "Q2.1"])
    expected = {
        q.name: execute_functional(q.template_plan(), db).payload.row_tuples()
        for q in queries
    }
    compress_database(db)
    fresh = ssb.workload(db, ["Q1.1", "Q2.1"])
    for query in fresh:
        result = execute_functional(query.template_plan(), db)
        assert result.payload.row_tuples() == expected[query.name]


def test_compression_shifts_the_thrashing_point(ssb_db):
    """Sec. 6.3: compression shifts the breakdown to larger working
    sets but does not remove the effect."""
    import copy

    from repro.harness.runner import workload_footprint_bytes
    from repro.workloads import micro

    db = copy.deepcopy(ssb_db)
    queries = micro.serial_selection_workload(db)
    before = workload_footprint_bytes(queries, db)
    compress_database(db)
    after = workload_footprint_bytes(
        micro.serial_selection_workload(db), db
    )
    assert after < before * 0.6  # narrow fact columns pack well
    assert after > 0  # the working set does not vanish


def test_ablation_compression_moves_the_breakdown_point():
    """Sec. 6.3: "we can improve the scalability by compressing the
    database, which shifts the point where performance breaks down to
    a larger scale factor or number of users.  Thus, compression
    neither solves the cache thrashing nor the heap contention
    problem."  The serial selection workload (App. B.1) over the
    buffer-size sweep, plain and compressed.  (``pytest -s`` prints
    the table EXPERIMENTS.md quotes.)"""
    import copy

    from repro.hardware import SystemConfig
    from repro.hardware.calibration import GIB
    from repro.harness import experiments as E
    from repro.harness.runner import run_workload, workload_footprint_bytes
    from repro.harness.tables import ExperimentResult
    from repro.workloads import micro

    result = ExperimentResult(
        "Ablation: compression shifts the thrashing breakdown point")
    for compressed in (False, True):
        database = copy.deepcopy(E.ssb_database(10))
        if compressed:
            compress_database(database)
        queries = micro.serial_selection_workload(database)
        footprint = workload_footprint_bytes(queries, database)
        for gib in (0.0, 0.5, 1.0, 1.5, 2.0):
            config = SystemConfig(gpu_memory_bytes=4 * GIB,
                                  gpu_cache_bytes=int(gib * GIB))
            run = run_workload(database, queries, "gpu_only",
                               config=config, repetitions=6)
            result.add(compressed=compressed, buffer_gib=gib,
                       working_set_gib=footprint / GIB, seconds=run.seconds,
                       h2d_seconds=run.metrics.cpu_to_gpu_seconds)
    print()
    result.print()
    series = result.series("buffer_gib", "seconds", "compressed")
    plain, packed = dict(series[False]), dict(series[True])
    # the breakdown point moves left: at 1.0 GiB the compressed working
    # set already fits while the uncompressed one still thrashes
    assert packed[1.0] < plain[1.0] / 2
    # but with no cache at all, compression does not remove the effect
    assert packed[0.0] > 4 * packed[2.0]
