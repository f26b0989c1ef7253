"""Unit tests for the metrics collector and result tables."""

import pytest

from repro.harness.tables import ExperimentResult
from repro.metrics import MetricsCollector


class TestMetricsCollector:
    def test_transfer_recording(self):
        metrics = MetricsCollector()
        metrics.record_transfer("h2d", 1000, 0.5)
        metrics.record_transfer("h2d", 500, 0.25)
        metrics.record_transfer("d2h", 100, 0.05)
        assert metrics.cpu_to_gpu_bytes == 1500
        assert metrics.cpu_to_gpu_seconds == pytest.approx(0.75)
        assert metrics.gpu_to_cpu_bytes == 100
        assert metrics.transfer_seconds == pytest.approx(0.8)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector().record_transfer("upwards", 1, 1.0)

    def test_abort_and_wasted_time(self):
        metrics = MetricsCollector()
        metrics.record_abort(0.5)
        metrics.record_abort(1.5)
        assert metrics.aborts == 2
        assert metrics.wasted_seconds == pytest.approx(2.0)

    def test_cache_hit_rate(self):
        metrics = MetricsCollector()
        assert metrics.cache_hit_rate == 0.0
        metrics.record_cache_hit()
        metrics.record_cache_hit()
        metrics.record_cache_miss()
        assert metrics.cache_hit_rate == pytest.approx(2 / 3)

    def test_operator_accounting(self):
        metrics = MetricsCollector()
        metrics.record_operator("gpu", 0.1)
        metrics.record_operator("gpu", 0.2)
        metrics.record_operator("cpu", 0.5)
        assert metrics.operators_per_processor["gpu"] == 2
        assert metrics.busy_seconds["gpu"] == pytest.approx(0.3)

    def test_query_latency_aggregation(self):
        metrics = MetricsCollector()
        metrics.record_query("Q1", 0, 0.0, 1.0)
        metrics.record_query("Q1", 1, 1.0, 4.0)
        metrics.record_query("Q2", 0, 0.0, 0.5)
        assert metrics.mean_latency("Q1") == pytest.approx(2.0)
        assert metrics.mean_latency() == pytest.approx((1 + 3 + 0.5) / 3)
        assert metrics.latencies_by_query() == {
            "Q1": pytest.approx(2.0),
            "Q2": pytest.approx(0.5),
        }
        assert metrics.mean_latency("missing") == 0.0

    def test_heap_peak(self):
        metrics = MetricsCollector()
        metrics.record_heap_usage(100)
        metrics.record_heap_usage(50)
        metrics.record_heap_usage(300)
        assert metrics.peak_heap_bytes == 300

    def test_summary_keys(self):
        metrics = MetricsCollector()
        metrics.workload_seconds = 2.0
        summary = metrics.summary()
        for key in ("workload_seconds", "cpu_to_gpu_seconds", "aborts",
                    "wasted_seconds", "cache_hit_rate", "peak_heap_gib"):
            assert key in summary


class TestExperimentResult:
    def sample(self):
        result = ExperimentResult("demo", notes="a note")
        result.add(strategy="a", x=1, y=0.5)
        result.add(strategy="a", x=2, y=0.25)
        result.add(strategy="b", x=1, y=1.0)
        return result

    def test_columns_ordered_by_first_appearance(self):
        result = self.sample()
        assert result.columns() == ["strategy", "x", "y"]

    def test_series_grouping(self):
        series = self.sample().series("x", "y", "strategy")
        assert series["a"] == [(1, 0.5), (2, 0.25)]
        assert series["b"] == [(1, 1.0)]

    def test_format_table_contains_everything(self):
        text = self.sample().format_table()
        assert "demo" in text
        assert "a note" in text
        assert "strategy" in text
        assert "0.2500" in text

    def test_ragged_rows_render(self):
        result = ExperimentResult("ragged")
        result.add(a=1)
        result.add(b=2)
        text = result.format_table()
        assert "a" in text and "b" in text


class TestLatencyPercentiles:
    def collector_with_latencies(self, values, name="Q"):
        metrics = MetricsCollector()
        for i, latency in enumerate(values):
            metrics.record_query(name, 0, float(i), float(i) + latency)
        return metrics

    def test_percentiles_nearest_rank(self):
        metrics = self.collector_with_latencies(
            [float(v) for v in range(1, 101)]
        )
        assert metrics.latency_percentile(0.50) == pytest.approx(51.0)
        assert metrics.latency_percentile(0.95) == pytest.approx(96.0)
        assert metrics.latency_percentile(0.99) == pytest.approx(100.0)
        assert metrics.latency_percentile(0.0) == pytest.approx(1.0)
        assert metrics.latency_percentile(1.0) == pytest.approx(100.0)

    def test_percentile_is_an_observed_value(self):
        metrics = self.collector_with_latencies([0.5, 3.0, 9.0])
        for fraction in (0.1, 0.5, 0.9):
            assert metrics.latency_percentile(fraction) in (0.5, 3.0, 9.0)

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            MetricsCollector().latency_percentile(1.5)

    def test_empty_collector(self):
        assert MetricsCollector().latency_percentile(0.5) == 0.0

    def test_tail_latency_report(self):
        metrics = self.collector_with_latencies([1.0, 2.0, 10.0], name="A")
        for i, latency in enumerate((5.0, 5.0)):
            metrics.record_query("B", 1, float(i), float(i) + latency)
        report = metrics.tail_latency_report()
        assert set(report) == {"A", "B"}
        assert report["A"]["p50"] == pytest.approx(2.0)
        assert report["A"]["p99"] == pytest.approx(10.0)
        assert report["B"]["p95"] == pytest.approx(5.0)

    def test_tail_latencies_from_simulated_run(self):
        import numpy as np

        from repro.harness import run_workload
        from repro.storage import ColumnType, Database
        from repro.workloads import sql_workload

        db = Database("p")
        table = db.create_table("t", nominal_rows=1000)
        table.add_column("a", ColumnType.INT32,
                         np.arange(100, dtype=np.int32))
        queries = sql_workload(db, {"q": "select sum(a) as s from t"})
        run = run_workload(db, queries, "cpu_only", users=4, repetitions=8)
        report = run.metrics.tail_latency_report()
        assert report["q"]["p50"] <= report["q"]["p99"]
