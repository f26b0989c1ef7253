"""Tests for the PriorityStore and SJF ready-queue scheduling."""

import pytest

from repro.harness import run_workload
from repro.sim import Environment, PriorityStore
from repro.workloads import sql_workload


class TestPriorityStore:
    def test_lowest_priority_first(self):
        env = Environment()
        store = PriorityStore(env)
        store.put("slow", priority=5.0)
        store.put("fast", priority=1.0)
        store.put("medium", priority=3.0)
        received = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        env.process(consumer())
        env.run()
        assert received == ["fast", "medium", "slow"]

    def test_ties_break_in_insertion_order(self):
        env = Environment()
        store = PriorityStore(env)
        for name in "abc":
            store.put(name, priority=1.0)
        received = []

        def consumer():
            for _ in range(3):
                received.append((yield store.get()))

        env.process(consumer())
        env.run()
        assert received == ["a", "b", "c"]

    def test_blocking_get(self):
        env = Environment()
        store = PriorityStore(env)
        received = []

        def consumer():
            received.append((yield store.get()))

        def producer():
            yield env.timeout(2.0)
            store.put("late", priority=0.0)

        env.process(consumer())
        env.process(producer())
        env.run()
        assert received == ["late"]
        assert env.now == 2.0

    def test_items_snapshot_in_delivery_order(self):
        env = Environment()
        store = PriorityStore(env)
        store.put("b", priority=2.0)
        store.put("a", priority=1.0)
        assert store.items == ["a", "b"]
        assert len(store) == 2


class TestSjfChopping:
    QUERIES = {
        "short": "select sum(price) as p from sales where amount < 5",
        "long": (
            "select region, sum(amount * price) as s from sales, store "
            "where skey = id group by region"
        ),
    }

    def test_invalid_scheduling_rejected(self, toy_db):
        queries = sql_workload(toy_db, self.QUERIES)
        with pytest.raises(ValueError):
            run_workload(toy_db, queries, "chopping", scheduling="lifo")

    def test_sjf_results_identical_to_fifo(self, toy_db):
        queries = sql_workload(toy_db, self.QUERIES)
        fifo = run_workload(toy_db, queries, "chopping", users=4,
                            repetitions=4, collect_results=True)
        sjf = run_workload(toy_db, queries, "chopping", users=4,
                           repetitions=4, scheduling="sjf",
                           collect_results=True)
        for name in self.QUERIES:
            assert (fifo.results[name].row_tuples()
                    == sjf.results[name].row_tuples())

    def test_sjf_helps_short_queries_under_load(self, toy_db):
        queries = sql_workload(toy_db, self.QUERIES)
        fifo = run_workload(toy_db, queries, "chopping", users=8,
                            repetitions=8)
        sjf = run_workload(toy_db, queries, "chopping", users=8,
                           repetitions=8, scheduling="sjf")
        # SJF must not hurt the short query's mean latency
        assert (sjf.metrics.mean_latency("short")
                <= fifo.metrics.mean_latency("short") * 1.05)


def test_ablation_fifo_vs_sjf_ready_queues():
    """Sec. 6.2.2: under Chopping "short running queries become slower
    to some degree, whereas long running queries are accelerated"; a
    shortest-job-first ready queue (by HyPE's runtime estimate) is the
    classic counter-measure.  The SSB mix at 20 users.  (``pytest -s``
    prints the table EXPERIMENTS.md quotes.)"""
    from repro.harness import experiments as E
    from repro.harness.tables import ExperimentResult
    from repro.workloads import ssb

    database = E.ssb_database(10)
    queries = ssb.workload(database)
    result = ExperimentResult(
        "Ablation: FIFO vs SJF ready queues (SSB, 20 users)")
    for scheduling in ("fifo", "sjf"):
        run = run_workload(database, queries, "data_driven_chopping",
                           config=E.FULL_CONFIG, users=20, repetitions=3,
                           scheduling=scheduling)
        latencies = run.metrics.latencies_by_query()
        short = min(latencies, key=latencies.get)
        long_ = max(latencies, key=latencies.get)
        result.add(scheduling=scheduling, makespan=run.seconds,
                   mean_latency=run.metrics.mean_latency(),
                   shortest_query=short, shortest_latency=latencies[short],
                   longest_query=long_, longest_latency=latencies[long_])
    print()
    result.print()
    rows = {row["scheduling"]: row for row in result.rows}
    # the discipline must not change the total amount of work
    assert rows["sjf"]["makespan"] == pytest.approx(
        rows["fifo"]["makespan"], rel=0.25)
    # SJF does not hurt the short end of the mix
    assert (rows["sjf"]["shortest_latency"]
            <= rows["fifo"]["shortest_latency"] * 1.1)
