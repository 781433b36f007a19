"""Unit tests for Resource, PriorityResource and Container."""

import pytest

from repro.sim import Container, Environment, PriorityResource, Resource


def test_resource_capacity_enforced():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []

    def user(env, res, name, hold):
        with res.request() as req:
            yield req
            log.append((name, "start", env.now))
            yield env.timeout(hold)
        log.append((name, "end", env.now))

    for i in range(4):
        env.process(user(env, res, f"u{i}", 10.0))
    env.run()

    starts = {name: t for name, kind, t in log if kind == "start"}
    assert starts["u0"] == 0.0
    assert starts["u1"] == 0.0
    assert starts["u2"] == 10.0
    assert starts["u3"] == 10.0


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_counts_and_queue():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(5.0)

    def observer(env, res, snapshots):
        yield env.timeout(1.0)
        snapshots.append((res.count, res.queued))

    snapshots = []
    env.process(holder(env, res))
    env.process(holder(env, res))
    env.process(observer(env, res, snapshots))
    env.run()
    assert snapshots == [(1, 1)]


def test_resource_release_of_queued_request_withdraws_it():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def first(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(10.0)
            order.append(("first-done", env.now))

    def second_gives_up(env, res):
        req = res.request()
        yield env.timeout(2.0)
        res.release(req)  # withdraw while still queued
        order.append(("second-gave-up", env.now))

    def third(env, res):
        yield env.timeout(3.0)
        with res.request() as req:
            yield req
            order.append(("third-start", env.now))

    env.process(first(env, res))
    env.process(second_gives_up(env, res))
    env.process(third(env, res))
    env.run()
    assert ("second-gave-up", 2.0) in order
    assert ("third-start", 10.0) in order


def test_release_is_processed_on_creation_and_stays_out_of_the_queue():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()
    waiting = res.request()
    env.run()  # grant the first request
    assert env.queue_size == 0
    release = res.release(held)
    assert release.processed and release.ok and release.value is None
    assert env.queue_size == 1  # only the waiter's grant was queued
    env.run()
    assert waiting.processed and res.users == [waiting]

    def holder(env):
        yield res.release(waiting)  # continues at once, no kernel step
        return env.now

    proc = env.process(holder(env))
    env.step()
    assert proc.processed and proc.value == env.now
    assert env.queue_size == 0


def test_resource_resize_grants_waiters():
    env = Environment()
    res = Resource(env, capacity=1)
    starts = []

    def user(env, res, name):
        with res.request() as req:
            yield req
            starts.append((name, env.now))
            yield env.timeout(100.0)

    def grower(env, res):
        yield env.timeout(5.0)
        res.resize(3)

    for i in range(3):
        env.process(user(env, res, i))
    env.process(grower(env, res))
    env.run(until=50.0)
    assert dict(starts) == {0: 0.0, 1: 5.0, 2: 5.0}


def test_priority_resource_orders_queue():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder(env, res):
        with res.request(priority=0) as req:
            yield req
            yield env.timeout(10.0)

    def user(env, res, name, priority, arrive):
        yield env.timeout(arrive)
        with res.request(priority=priority) as req:
            yield req
            order.append(name)
            yield env.timeout(1.0)

    env.process(holder(env, res))
    env.process(user(env, res, "low", 5, 1.0))
    env.process(user(env, res, "high", 1, 2.0))
    env.process(user(env, res, "mid", 3, 3.0))
    env.run()
    assert order == ["high", "mid", "low"]


def test_container_put_get():
    env = Environment()
    tank = Container(env, capacity=100.0, init=10.0)
    log = []

    def producer(env, tank):
        for _ in range(5):
            yield env.timeout(1.0)
            yield tank.put(20.0)

    def consumer(env, tank):
        yield tank.get(50.0)
        log.append(("got", env.now, tank.level))

    env.process(producer(env, tank))
    env.process(consumer(env, tank))
    env.run()
    assert log == [("got", 2.0, 0.0)]
    assert tank.level == 60.0


def test_container_put_blocks_when_full():
    env = Environment()
    tank = Container(env, capacity=10.0, init=10.0)
    log = []

    def producer(env, tank):
        yield tank.put(5.0)
        log.append(("put-done", env.now))

    def consumer(env, tank):
        yield env.timeout(4.0)
        yield tank.get(7.0)

    env.process(producer(env, tank))
    env.process(consumer(env, tank))
    env.run()
    assert log == [("put-done", 4.0)]
    assert tank.level == 8.0


def test_container_invalid_arguments():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=0.0)
    with pytest.raises(ValueError):
        Container(env, capacity=5.0, init=6.0)
    tank = Container(env, capacity=5.0)
    with pytest.raises(ValueError):
        tank.put(0.0)
    with pytest.raises(ValueError):
        tank.get(-1.0)
