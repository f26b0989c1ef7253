"""Tests of the benchmark itself (``pytest benchmarks/e2e``; not tier-1).

The layer map must stay exhaustive as ``src/repro`` grows, the fold must
keep its two invariants, and one shrunken pass must print every metric
``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.e2e import compare, layers, run, sqlgen  # noqa: E402

PACKAGE = os.path.join(ROOT, "src", "repro")


def _source_files():
    for directory, _, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py"):
                yield os.path.relpath(
                    os.path.join(directory, name), PACKAGE
                ).replace(os.sep, "/")


def test_every_source_file_maps_to_exactly_one_layer():
    wrong = {path: layers.matching_rules(path) for path in _source_files()
             if len(layers.matching_rules(path)) != 1}
    assert not wrong, "files with no layer or two: {}".format(wrong)


def test_every_rule_still_matches_a_file():
    files = list(_source_files())
    stale = [rule for rule, _ in layers.RULES
             if not any(layers.owns(rule, path) for path in files)]
    assert not stale, "rules that match no file: {}".format(stale)


def test_function_overrides_name_real_functions():
    for (path, function) in layers.FUNCTION_OVERRIDES:
        with open(os.path.join(PACKAGE, path)) as handle:
            assert "def {}(".format(function) in handle.read()


def _entry(calls, self_s, cum_s, callers=None):
    return (calls, calls, self_s, cum_s, callers or {})


def test_fold_attributes_builtins_to_callers_and_sums_to_total():
    resume = ("/x/src/repro/sim/events.py", 179, "_resume")
    transfer = ("/x/src/repro/hardware/bus.py", 40, "transfer")
    validate = ("/x/src/repro/harness/runner.py", 342, "validate_results")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    arange = ("~", 0, "<built-in method numpy.arange>")
    enum_hash = ("/usr/lib/python3.11/enum.py", 1230, "__hash__")
    shallow_copy = ("/usr/lib/python3.11/copy.py", 66, "copy")
    stats = {
        resume: _entry(10, 1.0, 3.0),
        transfer: _entry(4, 0.5, 1.5, {resume: (4, 4, 0.5, 1.5)}),
        validate: _entry(1, 0.25, 0.25),
        heappush: _entry(8, 0.4, 0.4, {resume: (6, 6, 0.3, 0.3),
                                       transfer: (2, 2, 0.1, 0.1)}),
        arange: _entry(3, 0.2, 0.2, {transfer: (3, 3, 0.2, 0.2)}),
        enum_hash: _entry(5, 0.1, 0.1, {transfer: (5, 5, 0.1, 0.1)}),
        shallow_copy: _entry(2, 0.05, 0.05, {resume: (2, 2, 0.05, 0.05)}),
    }
    fold = layers.fold(stats)
    by_layer = {name: entry["self_s"]
                for name, entry in fold["layers"].items()}
    assert by_layer["sim"] == pytest.approx(1.0 + 0.3)
    # a special method of a class outside the program is charged to
    # its caller like a builtin; an ordinary stdlib function is not
    assert by_layer["hardware"] == pytest.approx(0.5 + 0.1 + 0.1)
    assert by_layer["engine.reference"] == pytest.approx(0.25)
    assert by_layer["numpy"] == pytest.approx(0.2)
    assert by_layer["python"] == pytest.approx(0.05)
    assert fold["total_s"] == pytest.approx(2.5)
    assert sum(by_layer.values()) == pytest.approx(fold["total_s"])
    assert fold["coverage"] == pytest.approx(2.45 / 2.5)
    assert fold["layers"]["sim"]["calls"] == 10
    assert fold["layers"]["numpy"]["calls"] == 3
    edges = {(edge["caller"], edge["callee"]): edge["cum_s"]
             for edge in fold["edges"]}
    assert edges[("sim", "hardware")] == pytest.approx(1.5)
    assert edges[("hardware", "numpy")] == pytest.approx(0.2)
    assert fold["numpy_by_caller"] == {"hardware": pytest.approx(0.2)}
    assert layers.call_count(
        stats, (("sim/events.py", "_resume"),)) == 10


def test_sql_generator_is_seeded_distinct_and_balanced():
    first = sqlgen.generate(3, 100)
    assert first == sqlgen.generate(3, 100)
    assert first != sqlgen.generate(4, 100)
    assert len({sql for _, sql in first}) == 100
    templates = [name.split("-")[1] for name, _ in first]
    counts = {name: templates.count(name) for name in sqlgen.TEMPLATES}
    assert max(counts.values()) - min(counts.values()) <= 1


def test_contract_names_every_layer_and_workload():
    contract = run.load_contract()
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in contract[section]]
    assert len(names) == len(set(names)), "a name is used twice"
    per_layer = {entry["name"] for entry in contract["per_layer"]}
    for layer in layers.LAYERS:
        for suffix in (".self_s", ".share", ".calls"):
            assert layer + suffix in per_layer
    with open(os.path.join(HERE, "pinned.json")) as handle:
        pinned = json.load(handle)
    assert {w["name"] for w in contract["workloads"]} == set(pinned)
    assert any(entry["name"] == "setup_s" and entry["bound"] <= 0.25
               for entry in contract["end_to_end"])


def test_compare_verdicts():
    exact = {"value": 5, "clock": "exact"}
    assert compare.verdict(exact, dict(exact)) == "equal"
    assert compare.verdict(exact, dict(exact, value=6)) == "differs"
    host = {"value": 100.0, "q1": 99.0, "q3": 101.0, "clock": "host",
            "better": "higher", "bound": 0.10}
    assert compare.verdict(host, dict(host, value=95.0)) == "within"
    assert compare.verdict(host, dict(host, value=200.0)) == "within"
    assert compare.verdict(host, dict(host, value=80.0)) == "outside"
    noisy = dict(host, value=80.0, q1=70.0, q3=95.0)
    assert compare.verdict(host, noisy) == "unresolved"
    assert compare.verdict({"value": 1.0, "clock": "host"},
                           {"value": 2.0, "clock": "host"}) == "info"


def test_host_times_are_fastest_repeats_in_reference_seconds():
    def unit(setup_s, wall_s, slices):
        return {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": wall_s,
                "ops": 30, "slices": slices, "latencies_ms": [],
                "failures": [], "drift": [], "pinned_checks": 0,
                "peak_rss_mb": 50.0, "sim_s": 1.0, "stats": {},
                "canary_ms": [41.0, 25.0 + wall_s]}
    # key "a" once per unit, key "b" twice: a disturbed repeat of either
    # is dropped, and "b" still counts twice
    units = [
        unit(0.5, 9.0, [["a", 1.0, 0.9], ["b", 2.0, 1.9], ["b", 6.0, 2.0]]),
        unit(0.3, 8.0, [["a", 4.0, 1.0], ["b", 2.5, 2.2], ["b", 1.5, 1.4]]),
    ]
    assert run.steady_seconds(units, 1) == pytest.approx(1.0 + 2 * 1.5)
    assert run.steady_seconds(units, 2) == pytest.approx(0.9 + 2 * 1.4)
    # the reference loop's fastest reading was 33 ms against a nominal
    # 20: a second of this machine is 20/33 reference seconds
    assert run.reference_ms(units) == 33.0
    scale = run.NOMINAL_REFERENCE_MS / 33.0
    metrics = run.end_to_end(units)
    assert metrics["queries_per_s"]["raw"] == pytest.approx(30 / 4.0)
    assert metrics["queries_per_s"]["value"] == pytest.approx(
        30 / (4.0 * scale))
    assert metrics["cpu_s_per_kquery"]["value"] == pytest.approx(
        1e3 * 3.7 * scale / 30)
    assert metrics["setup_s"]["raw"] == 0.3
    assert metrics["setup_s"]["value"] == pytest.approx(0.3 * scale)
    # the spread of the per-unit values stays beside the value
    assert metrics["queries_per_s"]["q1"] < metrics["queries_per_s"]["q3"]


def test_smoke_prints_every_metric_with_its_unit(capsys):
    """One pass with every unit shrunk 10x: all five workloads untraced,
    two of them traced."""
    contract = run.load_contract()
    names = [entry["name"] for entry in contract["workloads"]]
    untraced = run.run_workloads(names, units_each=1, scale=0.1)
    traced = run.run_workloads(["serve_chaos_append", "pool_batch"],
                               trace=True, scale=0.1)
    for results, section in ((untraced, "end_to_end"),
                             (traced, "per_layer")):
        run.print_report(results, seed=0)
        printed = capsys.readouterr().out
        for name, result in results.items():
            assert result["failed"] == 0, result["failures"]
            assert result["attempted"] >= 1
            line = json.loads(run.contract_line(result))
            assert set(line) == {"correct", "attempted", "failed",
                                 "metrics"}
            for entry in contract[section]:
                metric = line["metrics"][entry["name"]]
                assert metric["unit"] == entry["unit"]
                assert isinstance(metric["value"], (int, float))
                assert "  {:42s}".format(entry["name"]) in printed
    # the traced pool_batch unit runs the fused chunks in this process,
    # so the profiler sees the functional engine and not a pipe wait
    for result in traced.values():
        coverage = result["metrics"]["trace.coverage"]["value"]
        assert coverage >= run.MIN_COVERAGE
    assert traced["pool_batch"]["metrics"]["engine.morsel.share"][
        "value"] > 0.1
    # the nine end-to-end metrics of the issue are all printed, by name
    run.print_report(untraced, seed=0)
    printed = capsys.readouterr().out
    for name in ("setup_s", "queries_per_s", "query_ms_p50", "query_ms_p95",
                 "cpu_s_per_kquery", "peak_rss_mb", "sim_s", "failed_frac",
                 "sim_drift"):
        assert "  {:42s}".format(name) in printed
