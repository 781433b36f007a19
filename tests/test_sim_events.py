"""Unit tests for the discrete-event kernel: events, timeouts, processes."""

import pytest

from repro.sim import (
    AllOf,
    EmptySchedule,
    Environment,
    Interrupt,
)


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 5.0
    assert env.now == 5.0


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()

    def proc(env):
        value = yield env.timeout(1.0, value="hello")
        return value

    p = env.process(proc(env))
    env.run()
    assert p.value == "hello"


def test_event_succeed_and_value():
    env = Environment()
    ev = env.event()

    def waiter(env, ev):
        value = yield ev
        return value

    def trigger(env, ev):
        yield env.timeout(2.0)
        ev.succeed(42)

    w = env.process(waiter(env, ev))
    env.process(trigger(env, ev))
    env.run()
    assert w.value == 42
    assert ev.ok
    assert ev.processed


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(RuntimeError("x"))


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_event_fail_propagates_into_process():
    env = Environment()
    ev = env.event()

    class Boom(Exception):
        pass

    def waiter(env, ev):
        try:
            yield ev
        except Boom:
            return "caught"
        return "missed"

    def trigger(env, ev):
        yield env.timeout(1.0)
        ev.fail(Boom())

    w = env.process(waiter(env, ev))
    env.process(trigger(env, ev))
    env.run()
    assert w.value == "caught"


def test_unhandled_failed_event_aborts_run():
    env = Environment()
    ev = env.event()

    def trigger(env, ev):
        yield env.timeout(1.0)
        ev.fail(ValueError("unhandled"))

    env.process(trigger(env, ev))
    with pytest.raises(ValueError):
        env.run()


def test_process_return_value():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        return "done"

    def parent(env):
        result = yield env.process(child(env))
        return result + "!"

    p = env.process(parent(env))
    env.run()
    assert p.value == "done!"


def test_process_exception_propagates_to_parent():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        raise RuntimeError("child failed")

    def parent(env):
        try:
            yield env.process(child(env))
        except RuntimeError as exc:
            return str(exc)

    p = env.process(parent(env))
    env.run()
    assert p.value == "child failed"


def test_yield_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    p = env.process(bad(env))
    with pytest.raises(RuntimeError):
        env.run()
    assert not p.ok


def test_process_non_generator_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.process(lambda: None)


def test_interrupt_delivers_cause():
    env = Environment()

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, env.now)

    def interrupter(env, victim_proc):
        yield env.timeout(3.0)
        victim_proc.interrupt("stop now")

    v = env.process(victim(env))
    env.process(interrupter(env, v))
    env.run()
    assert v.value == ("interrupted", "stop now", 3.0)


def test_interrupt_terminated_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_interrupted_process_can_continue_waiting():
    env = Environment()
    log = []

    def victim(env):
        target = env.timeout(10.0)
        try:
            yield target
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.timeout(2.0)
        log.append(("resumed", env.now))

    def interrupter(env, proc):
        yield env.timeout(4.0)
        proc.interrupt()

    v = env.process(victim(env))
    env.process(interrupter(env, v))
    env.run()
    assert log == [("interrupted", 4.0), ("resumed", 6.0)]


def test_self_interrupt_forbidden():
    env = Environment()

    def proc(env):
        yield env.timeout(0)
        env.active_process.interrupt()

    p = env.process(proc(env))
    with pytest.raises(RuntimeError):
        env.run()
    assert not p.ok


def test_all_of_condition_waits_for_everything():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(5.0, value="b")
        result = yield env.all_of([t1, t2])
        return (env.now, result[t1], result[t2])

    p = env.process(proc(env))
    env.run()
    assert p.value == (5.0, "a", "b")


def test_any_of_condition_returns_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        result = yield env.any_of([t1, t2])
        return (env.now, t1 in result, t2 in result)

    p = env.process(proc(env))
    env.run()
    assert p.value == (1.0, True, False)


def test_condition_operators():
    env = Environment()

    def proc(env):
        t1 = env.timeout(2.0, value=1)
        t2 = env.timeout(3.0, value=2)
        yield t1 & t2
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 3.0


def test_empty_all_of_triggers_immediately():
    env = Environment()

    def proc(env):
        yield env.all_of([])
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 0.0


def test_condition_mixing_environments_rejected():
    env1 = Environment()
    env2 = Environment()
    ev1 = env1.event()
    ev2 = env2.event()
    with pytest.raises(ValueError):
        AllOf(env1, [ev1, ev2])


def test_run_until_time():
    env = Environment()
    ticks = []

    def ticker(env):
        while True:
            yield env.timeout(1.0)
            ticks.append(env.now)

    env.process(ticker(env))
    env.run(until=5.5)
    assert env.now == 5.5
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=1.0)
    with pytest.raises(ValueError):
        env.run(until=0.5)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "finished"

    p = env.process(proc(env))
    result = env.run(until=p)
    assert result == "finished"
    assert env.now == 2.0


def test_run_until_already_processed_event_returns_value():
    env = Environment()
    t = env.timeout(1.0, value="done")
    env.run()
    assert t.processed
    assert env.run(until=t) == "done"


def test_run_until_already_processed_failed_event_raises():
    """run(until=ev) on a processed *failed* event must re-raise its exception,
    exactly like StopSimulation.callback does when the event fires mid-run."""
    env = Environment()
    ev = env.event()

    class Boom(Exception):
        pass

    def waiter(env, ev):
        try:
            yield ev
        except Boom:
            pass  # defuses the failure so the run itself survives

    def trigger(env, ev):
        yield env.timeout(1.0)
        ev.fail(Boom())

    env.process(waiter(env, ev))
    env.process(trigger(env, ev))
    env.run()
    assert ev.processed and not ev.ok
    with pytest.raises(Boom):
        env.run(until=ev)


def test_run_until_time_is_bit_exact():
    """run(until=t) stops at exactly t, not at now + (t - now).

    now=0.2, t=0.1*8 accumulated is a pair where the relative-delay round
    trip lands an ulp low (0.7999999999999998 != 0.7999999999999999).
    """
    t = 0.0
    for _ in range(8):
        t += 0.1
    assert 0.2 + (t - 0.2) != t  # the pair actually exhibits the round trip

    env = Environment()
    env.run(until=0.2)
    env.run(until=t)
    assert env.now == t  # exact equality, not approx

    # And it agrees bit-for-bit with a timeout_at at the same instant: the
    # earlier-scheduled timeout is processed by the same step that reaches t.
    env2 = Environment()
    env2.run(until=0.2)
    timeout = env2.timeout_at(t)
    env2.run(until=t)
    assert timeout.processed
    assert env2.now == env.now == t


def test_run_until_untriggerable_event_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        env.run(until=ev)


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(3.0)
    env.timeout(1.0)
    assert env.peek() == 1.0


def test_deterministic_ordering_same_time():
    """Events scheduled at the same instant run in insertion order."""
    env = Environment()
    order = []

    def make(name):
        def proc(env):
            yield env.timeout(1.0)
            order.append(name)

        return proc

    for name in ["a", "b", "c", "d"]:
        env.process(make(name)(env))
    env.run()
    assert order == ["a", "b", "c", "d"]


def test_already_processed_event_yield_continues_immediately():
    env = Environment()

    def proc(env):
        ev = env.timeout(1.0, value="x")
        yield env.timeout(2.0)
        # ev has already fired and been processed; yielding it again must
        # resume immediately with its value.
        value = yield ev
        return (value, env.now)

    p = env.process(proc(env))
    env.run()
    assert p.value == ("x", 2.0)


def test_timeout_at_fires_at_exact_absolute_time():
    """timeout_at replays a previously observed event time bit-for-bit, even
    when ``now + (t - now)`` would round differently."""
    env = Environment()
    # A time with no short binary representation, reached via accumulation.
    t = 0.0
    for _ in range(7):
        t += 0.1
    times = []

    def proc(env):
        yield env.timeout(0.3)
        yield env.timeout_at(t)
        times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [t]  # exact equality, not approx


def test_timeout_reports_delay_and_exact_firing_time():
    env = Environment()
    t = env.timeout(2.5)
    assert t.delay == 2.5
    assert t.at == 2.5  # env.now + delay, exact
    assert "Timeout(2.5)" in repr(t)


def test_timeout_at_reports_true_firing_time():
    """timeout_at(t) must report t itself, not the round-tripped t - now
    (which is what it was built to avoid storing in the first place)."""
    t = 0.0
    for _ in range(8):
        t += 0.1
    env = Environment()
    env.run(until=0.2)
    timeout = env.timeout_at(t)
    assert timeout.at == t  # exact
    assert timeout.delay is None  # no misleading round-tripped delay
    assert f"at={t!r}" in repr(timeout)
    env.run()
    assert env.now == t


def test_timeout_at_in_past_raises():
    env = Environment()

    def proc(env):
        yield env.timeout(5.0)
        env.timeout_at(1.0)

    p = env.process(proc(env))
    with pytest.raises(ValueError):
        env.run(until=p)


def test_urgent_events_precede_same_time_normal_events():
    """Process starts (URGENT) run before already-queued same-time NORMAL
    events — the urgent fast lane preserves the heap's priority contract."""
    env = Environment()
    order = []

    def outer(env):
        yield env.timeout(1.0)
        order.append("outer")
        env.process(inner(env))  # Initialize is URGENT at the same instant

    def inner(env):
        order.append("inner-start")
        yield env.timeout(0.0)
        order.append("inner-resumed")

    def sibling(env):
        yield env.timeout(1.0)
        order.append("sibling")

    env.process(outer(env))
    env.process(sibling(env))
    env.run()
    # inner's URGENT start outranks sibling's earlier-queued NORMAL event at
    # the same instant; inner's 0-delay NORMAL timeout then queues after it.
    assert order == ["outer", "inner-start", "sibling", "inner-resumed"]


def test_queue_size_counts_urgent_fast_lane():
    def noop(env):
        yield env.timeout(0.0)

    env = Environment()
    env.process(noop(env))
    assert env.queue_size == 1  # the Initialize event sits in the fast lane
    env.run()
    assert env.queue_size == 0


# -- process ends: only watched or failed ends enter the kernel -----------------

def _returns_after(env, delay, value):
    yield env.timeout(delay)
    return value


def test_unwatched_process_end_stays_out_of_the_queue():
    env = Environment()
    proc = env.process(_returns_after(env, 1.0, "v"))
    env.step()  # start: the process now waits on its timeout
    assert env.queue_size == 1
    env.step()  # the timeout resumes it and it returns with nobody waiting
    assert env.queue_size == 0
    assert proc.processed and proc.ok and proc.value == "v"


def test_finished_unwatched_process_value_reaches_later_waiters():
    env = Environment()
    child = env.process(_returns_after(env, 1.0, "v"))

    def parent(env):
        yield env.timeout(2.0)
        got = yield child
        both = yield env.all_of([child])
        return got, both[child], env.now

    p = env.process(parent(env))
    assert env.run(until=p) == ("v", "v", 2.0)
    assert env.run(until=child) == "v"


def test_watched_process_end_resumes_waiter_through_the_kernel():
    env = Environment()

    def parent(env):
        got = yield env.process(_returns_after(env, 1.5, "v"))
        return got, env.now

    p = env.process(parent(env))
    env.step()  # parent starts the child and waits on it
    env.step()  # child starts
    env.step()  # child's timeout: it returns while the parent waits
    assert env.queue_size == 1  # the end event, queued for its waiter
    env.run()
    assert p.value == ("v", 1.5)


def test_unwatched_failed_process_still_aborts_run():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    proc = env.process(child(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()
    assert not proc.ok
