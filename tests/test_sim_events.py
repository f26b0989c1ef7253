"""Unit tests for the DES kernel: events, processes, conditions."""

import pytest

from repro.sim import AllOf, Environment, Event, Interrupted


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5.0)
        assert env.now == 5.0
        yield env.timeout(2.5)
        assert env.now == 7.5

    env.process(proc())
    env.run()
    assert env.now == 7.5


def test_timeout_value_is_delivered():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(1.0, value="hello")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["hello"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_process_return_value_propagates():
    env = Environment()
    results = []

    def child():
        yield env.timeout(3.0)
        return 42

    def parent():
        value = yield env.process(child())
        results.append((env.now, value))

    env.process(parent())
    env.run()
    assert results == [(3.0, 42)]


def test_events_at_same_time_processed_in_creation_order():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1.0)
        order.append(name)

    env.process(proc("a"))
    env.process(proc("b"))
    env.process(proc("c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_manual_event_succeed():
    env = Environment()
    gate = env.event()
    woke = []

    def waiter():
        value = yield gate
        woke.append((env.now, value))

    def trigger():
        yield env.timeout(4.0)
        gate.succeed("go")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert woke == [(4.0, "go")]


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)
    with pytest.raises(RuntimeError):
        event.fail(ValueError("x"))


def test_failed_event_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as error:
            caught.append(str(error))

    def trigger():
        yield env.timeout(1.0)
        gate.fail(ValueError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_unhandled_failure_escalates_to_run():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise RuntimeError("unnoticed")

    env.process(bad())
    with pytest.raises(RuntimeError, match="unnoticed"):
        env.run()


def test_process_exception_propagates_to_parent():
    env = Environment()
    caught = []

    def child():
        yield env.timeout(1.0)
        raise KeyError("inner")

    def parent():
        try:
            yield env.process(child())
        except KeyError as error:
            caught.append(error.args[0])

    env.process(parent())
    env.run()
    assert caught == ["inner"]


def test_yield_already_processed_event_continues_immediately():
    env = Environment()
    trace = []

    def proc():
        done = env.timeout(0.0, value="x")
        yield env.timeout(1.0)
        # `done` triggered at t=0 and has been processed by now.
        value = yield done
        trace.append((env.now, value))

    env.process(proc())
    env.run()
    assert trace == [(1.0, "x")]


def test_yield_non_event_is_an_error():
    env = Environment()

    def proc():
        yield 42

    env.process(proc())
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_all_of_waits_for_slowest():
    env = Environment()
    result = []

    def proc():
        events = [env.timeout(t, value=t) for t in (1.0, 5.0, 3.0)]
        values = yield env.all_of(events)
        result.append((env.now, sorted(values.values())))

    env.process(proc())
    env.run()
    assert result == [(5.0, [1.0, 3.0, 5.0])]


def test_all_of_empty_succeeds_immediately():
    env = Environment()
    result = []

    def proc():
        values = yield AllOf(env, [])
        result.append((env.now, values))

    env.process(proc())
    env.run()
    assert result == [(0.0, {})]


def test_all_of_fails_fast_on_first_failure():
    env = Environment()
    caught = []

    def failing():
        yield env.timeout(1.0)
        raise ValueError("dead")

    def proc():
        try:
            yield env.all_of([env.process(failing()), env.timeout(10.0)])
        except ValueError:
            caught.append(env.now)

    env.process(proc())
    env.run()
    assert caught == [1.0]


def test_interrupt_wakes_waiting_process():
    env = Environment()
    trace = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupted as interruption:
            trace.append((env.now, interruption.cause))

    def interrupter(victim):
        yield env.timeout(3.0)
        victim.interrupt(cause="wake up")

    victim = env.process(sleeper())
    env.process(interrupter(victim))
    env.run()
    assert trace == [(3.0, "wake up")]


def test_interrupt_finished_process_is_an_error():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    proc = env.process(quick())
    env.run()
    with pytest.raises(RuntimeError):
        proc.interrupt()


def test_run_until_stops_clock():
    env = Environment()

    def proc():
        yield env.timeout(10.0)

    env.process(proc())
    env.run(until=4.0)
    assert env.now == 4.0
    env.run()
    assert env.now == 10.0


def test_run_backwards_rejected():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(2.0)
        return "done"

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive
    assert p.ok and p.value == "done"
