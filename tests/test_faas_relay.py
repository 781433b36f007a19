"""Tests for the FaaS function registry, task records and cloud relay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import AuthorizationError, CapacityError, NotFoundError
from repro.core import FIRSTDeployment
from repro.faas import (
    HANDLER_CHAT,
    FunctionRegistry,
    RelayConfig,
    RelayService,
    TaskRecord,
    TaskStatus,
)
from repro.sim import Environment


class FakeEndpoint:
    """Minimal endpoint double: executes every task after a fixed delay."""

    def __init__(self, env, endpoint_id="ep-fake", delay=1.0, succeed=True, instances=1,
                 backlog=0):
        self.env = env
        self.endpoint_id = endpoint_id
        self.delay = delay
        self.succeed_tasks = succeed
        self.instances = instances
        self.backlog = backlog
        self.backlog_queries = []
        self.executed = 0
        self.dispatched = 0

    def ready_instance_count(self):
        return self.instances

    def kernel_backlog(self, model=None):
        self.backlog_queries.append(model)
        return self.backlog

    def enqueue(self, record, function):
        outcome = self.env.event()
        self.dispatched += 1
        self.backlog += 1

        def run(env):
            yield env.timeout(self.delay)
            self.backlog -= 1
            self.executed += 1
            if self.succeed_tasks:
                outcome.succeed({"success": True, "result": {"echo": record.payload.get("x")}})
            else:
                outcome.succeed({"success": False, "error": "boom"})

        self.env.process(run(self.env))
        return outcome


def make_relay(env, **endpoint_kwargs):
    relay = RelayService(env)
    relay.functions.register("fn-chat", "chat inference", HANDLER_CHAT, owner="admins")
    endpoint = FakeEndpoint(env, **endpoint_kwargs)
    relay.register_endpoint(endpoint)
    return relay, endpoint


# -- function registry ---------------------------------------------------------

def test_function_registry_registration_and_lookup():
    reg = FunctionRegistry()
    fn = reg.register("fn-1", "inference", HANDLER_CHAT, owner="admins")
    assert reg.is_registered("fn-1")
    assert reg.get("fn-1") is fn
    assert reg.function_ids == ["fn-1"]
    with pytest.raises(ValueError):
        reg.register("fn-1", "dup", HANDLER_CHAT, owner="admins")
    with pytest.raises(NotFoundError):
        reg.get("fn-2")


def test_unregistered_function_rejected():
    reg = FunctionRegistry()
    with pytest.raises(AuthorizationError):
        reg.require_registered("fn-evil")


# -- relay submission ------------------------------------------------------------

def test_relay_executes_task_and_resolves_future():
    env = Environment()
    relay, endpoint = make_relay(env)
    future = relay.submit("fn-chat", "ep-fake", {"x": 42})

    def run(env):
        result = yield future.done
        return (env.now, result)

    p = env.process(run(env))
    env.run(until=p)
    t, result = p.value
    assert result == {"echo": 42}
    assert future.record.status == TaskStatus.COMPLETED
    assert endpoint.executed == 1
    # Total time = submit + dispatch + execution + routing + result latencies.
    cfg = relay.config
    expected_min = cfg.submit_latency_s + cfg.dispatch_latency_s + 1.0 + cfg.result_latency_s
    assert t >= expected_min
    assert relay.stats.completed == 1


def test_relay_rejects_unregistered_function():
    env = Environment()
    relay, _ = make_relay(env)
    with pytest.raises(AuthorizationError):
        relay.submit("fn-unknown", "ep-fake", {})
    assert relay.stats.submitted == 0


def test_relay_rejects_unknown_endpoint():
    env = Environment()
    relay, _ = make_relay(env)
    with pytest.raises(NotFoundError):
        relay.submit("fn-chat", "ep-missing", {})


def test_relay_requires_authorized_client_when_configured():
    env = Environment()
    relay, _ = make_relay(env)
    relay.authorize_client("trusted-client")
    with pytest.raises(AuthorizationError):
        relay.submit("fn-chat", "ep-fake", {}, client_id="rogue")
    future = relay.submit("fn-chat", "ep-fake", {}, client_id="trusted-client")
    assert future.record.status == TaskStatus.PENDING


def test_relay_duplicate_endpoint_registration_rejected():
    env = Environment()
    relay, endpoint = make_relay(env)
    with pytest.raises(ValueError):
        relay.register_endpoint(endpoint)


def test_relay_failed_task_marks_failed_status():
    env = Environment()
    relay = RelayService(env)
    relay.functions.register("fn-chat", "chat", HANDLER_CHAT, owner="admins")
    relay.register_endpoint(FakeEndpoint(env, succeed=False))
    future = relay.submit("fn-chat", "ep-fake", {})
    env.run(until=future.done)
    assert future.record.status == TaskStatus.FAILED
    assert relay.stats.failed == 1
    with pytest.raises(RuntimeError):
        relay.get_result(future.task_id)


def test_relay_status_and_result_lookup():
    env = Environment()
    relay, _ = make_relay(env)
    future = relay.submit("fn-chat", "ep-fake", {"x": 1})
    assert relay.get_status(future.task_id) == TaskStatus.PENDING
    with pytest.raises(RuntimeError):
        relay.get_result(future.task_id)
    env.run(until=future.done)
    assert relay.get_status(future.task_id) == TaskStatus.COMPLETED
    assert relay.get_result(future.task_id) == {"echo": 1}
    with pytest.raises(NotFoundError):
        relay.get_status("task-999999")


def test_relay_queue_depth_supports_thousands_of_tasks():
    """Optimization 3: >8000 tasks can sit queued at the relay."""
    env = Environment()
    relay, endpoint = make_relay(env, delay=500.0)
    for i in range(8500):
        relay.submit("fn-chat", "ep-fake", {"x": i})
    env.run(until=10.0)
    assert relay.queued_tasks >= 8000
    assert relay.stats.peak_queued >= 8000


def test_relay_routing_scalability_curve():
    """The per-result routing rate follows R(N) = R_max * N / (N + half)."""
    env = Environment()
    relay = RelayService(env, RelayConfig(routing_rate_max=66.0, routing_half_instances=7.0))
    relay.functions.register("fn-chat", "chat", HANDLER_CHAT, owner="admins")
    rates = {}
    for n in (1, 2, 3, 4):
        relay.register_endpoint(FakeEndpoint(env, endpoint_id=f"ep-{n}", instances=0))
        relay._endpoints[f"ep-{n}"].instances = 0
    # Directly exercise the service-time computation for various instance counts.
    for n in (1, 2, 3, 4):
        for ep in relay._endpoints.values():
            ep.instances = 0
        relay._endpoints["ep-1"].instances = n
        rates[n] = 1.0 / relay.result_service_time_s()
    assert rates[1] == pytest.approx(66.0 * 1 / 8, rel=1e-6)
    assert rates[4] == pytest.approx(66.0 * 4 / 11, rel=1e-6)
    # Matches the paper's Fig. 4 throughputs within ~10%.
    assert rates[1] == pytest.approx(8.3, rel=0.10)
    assert rates[2] == pytest.approx(14.6, rel=0.10)
    assert rates[3] == pytest.approx(20.9, rel=0.10)
    assert rates[4] == pytest.approx(23.9, rel=0.10)


# -- queue-depth-aware dispatch over candidate lists -----------------------------

def make_multi_relay(env, endpoints):
    relay = RelayService(env)
    relay.functions.register("fn-chat", "chat inference", HANDLER_CHAT, owner="admins")
    for endpoint in endpoints:
        relay.register_endpoint(endpoint)
    return relay


def test_candidate_list_bypasses_busy_endpoint():
    """The regression the dispatcher exists for: with two ready endpoints,
    the one with the deeper kernel backlog is bypassed."""
    env = Environment()
    busy = FakeEndpoint(env, endpoint_id="ep-busy", backlog=7)
    idle = FakeEndpoint(env, endpoint_id="ep-idle", backlog=0)
    relay = make_multi_relay(env, [busy, idle])
    future = relay.submit("fn-chat", ["ep-busy", "ep-idle"], {"x": 1})
    env.run(until=future.done)
    assert future.record.endpoint_id == "ep-idle"
    assert idle.executed == 1 and busy.executed == 0


def test_candidate_list_prefers_ready_instances_over_backlog():
    """An endpoint with no ready instance loses to a ready one even when the
    ready one is more backlogged (a cold endpoint means a scheduler wait)."""
    env = Environment()
    cold = FakeEndpoint(env, endpoint_id="ep-cold", instances=0, backlog=0)
    warm = FakeEndpoint(env, endpoint_id="ep-warm", instances=1, backlog=9)
    relay = make_multi_relay(env, [cold, warm])
    future = relay.submit("fn-chat", ["ep-cold", "ep-warm"], {"x": 1})
    assert future.record.endpoint_id == "ep-warm"


def test_candidate_list_tie_breaks_in_candidate_order():
    env = Environment()
    a = FakeEndpoint(env, endpoint_id="ep-a", backlog=3)
    b = FakeEndpoint(env, endpoint_id="ep-b", backlog=3)
    relay = make_multi_relay(env, [a, b])
    assert relay.submit("fn-chat", ["ep-b", "ep-a"], {}).record.endpoint_id == "ep-b"
    assert relay.submit("fn-chat", ["ep-a", "ep-b"], {}).record.endpoint_id == "ep-a"


def test_candidate_dispatch_tracks_live_backlog():
    """Each dispatch sees the backlog the previous ones created, so a burst
    spreads across equivalent endpoints instead of piling onto the first."""
    env = Environment()
    a = FakeEndpoint(env, endpoint_id="ep-a", delay=50.0)
    b = FakeEndpoint(env, endpoint_id="ep-b", delay=50.0)
    relay = make_multi_relay(env, [a, b])
    futures = [relay.submit("fn-chat", ["ep-a", "ep-b"], {"x": i}) for i in range(6)]
    env.run(until=10.0)  # past submit+dispatch latencies, within the 50 s work
    assert (a.dispatched, b.dispatched) == (3, 3)
    assert {f.record.endpoint_id for f in futures} == {"ep-a", "ep-b"}


def test_candidate_dispatch_passes_payload_model_to_backlog():
    env = Environment()
    a = FakeEndpoint(env, endpoint_id="ep-a")
    b = FakeEndpoint(env, endpoint_id="ep-b")
    relay = make_multi_relay(env, [a, b])
    relay.submit("fn-chat", ["ep-a", "ep-b"], {"model": "meta/llama"})
    assert a.backlog_queries == ["meta/llama"]
    assert b.backlog_queries == ["meta/llama"]


def test_candidate_list_rejects_empty_and_unknown():
    env = Environment()
    relay, _ = make_relay(env)
    with pytest.raises(NotFoundError):
        relay.submit("fn-chat", [], {})
    with pytest.raises(NotFoundError):
        relay.submit("fn-chat", ["ep-fake", "ep-missing"], {})


def test_single_candidate_list_behaves_like_plain_id():
    env = Environment()
    relay, endpoint = make_relay(env)
    future = relay.submit("fn-chat", ["ep-fake"], {"x": 5})
    env.run(until=future.done)
    assert future.record.endpoint_id == "ep-fake"
    assert relay.get_result(future.task_id) == {"echo": 5}


def test_task_record_timing_properties():
    record = TaskRecord(task_id="t", function_id="f", endpoint_id="e", payload={},
                        submit_time=1.0)
    assert record.queue_time_s is None
    assert record.total_time_s is None
    record.dispatch_time = 3.0
    record.completion_time = 10.0
    assert record.queue_time_s == 2.0
    assert record.total_time_s == 9.0
    assert record.to_dict()["status"] == "pending"


# -- open-task accounting ---------------------------------------------------------

def open_task_scan(relay):
    """The definition ``queued_tasks`` is derived from: non-terminal records."""
    return sum(1 for t in relay._tasks.values() if not t.status.terminal)


#: Candidate-list target: two ready local endpoints, one succeeding and one
#: failing, chosen per task by the relay's queue-depth dispatcher.
LISTED = ("ep-listed-ok", "ep-listed-bad")


@settings(max_examples=40, deadline=None)
@given(schedule=st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=3.0),
              st.sampled_from(["ep-ok", "ep-bad", LISTED])),
    max_size=40))
def test_queued_tasks_counter_equals_record_scan(schedule):
    """Both terminal paths (success and failure), for tasks sent to one
    endpoint id and for tasks dispatched from a candidate list: the
    counter-derived open-task count equals the explicit scan after every
    step, peaks where the scan peaks and returns to zero at quiescence."""
    # A fixed head covers every (target, outcome) pair in every example:
    # the first listed task goes to the first candidate (equal backlogs),
    # the second sees that open dispatch and goes to the failing one.
    schedule = [(0.0, "ep-ok"), (0.0, "ep-bad"), (0.0, LISTED),
                (0.0, LISTED)] + schedule
    env = Environment()
    listed_ok = FakeEndpoint(env, endpoint_id="ep-listed-ok", delay=1.0)
    listed_bad = FakeEndpoint(env, endpoint_id="ep-listed-bad", delay=1.0, succeed=False)
    relay = make_multi_relay(env, [
        FakeEndpoint(env, endpoint_id="ep-ok", delay=2.0),
        FakeEndpoint(env, endpoint_id="ep-bad", delay=1.5, succeed=False),
        listed_ok,
        listed_bad,
    ])
    scans_after_submit = []

    def submitter(env):
        for gap, target in schedule:
            if gap > 0:
                yield env.timeout(gap)
            relay.submit("fn-chat", list(target) if target is LISTED else target,
                         {"x": len(scans_after_submit)})
            scans_after_submit.append(open_task_scan(relay))

    env.process(submitter(env))
    horizon = sum(gap for gap, _ in schedule) + 20.0
    t = 0.0
    while t < horizon:
        t += 0.25
        env.run(until=t)
        assert relay.queued_tasks == open_task_scan(relay)
    stats = relay.stats
    assert relay.queued_tasks == 0
    assert stats.submitted == len(schedule) == stats.completed + stats.failed
    assert stats.peak_queued == max(scans_after_submit)
    assert listed_ok.executed >= 1 and listed_bad.executed >= 1


def test_full_relay_rejects_with_capacity_error_and_leaks_nothing():
    env = Environment()
    limit = 3
    relay = RelayService(env, RelayConfig(max_queued_tasks=limit))
    relay.functions.register("fn-chat", "chat", HANDLER_CHAT, owner="admins")
    relay.register_endpoint(FakeEndpoint(env, delay=5.0))
    futures = [relay.submit("fn-chat", "ep-fake", {"x": i}) for i in range(limit)]
    assert relay.queued_tasks == limit

    with pytest.raises(CapacityError):
        relay.submit("fn-chat", "ep-fake", {"x": limit})
    assert relay.stats.rejected == 1
    assert relay.stats.submitted == limit
    assert len(relay._tasks) == len(relay._futures) == limit
    assert relay._open_dispatches == {"ep-fake": limit}

    env.run(until=futures[0].done)
    assert relay.queued_tasks == limit - 1
    future = relay.submit("fn-chat", "ep-fake", {"x": limit})
    env.run(until=future.done)
    assert relay.get_result(future.task_id) == {"echo": limit}
    assert relay.stats.rejected == 1


def test_full_relay_surfaces_as_overloaded_envelope():
    deployment = FIRSTDeployment.quickstart()
    deployment.relay.config.max_queued_tasks = 0
    client = deployment.client("researcher@anl.gov", raise_on_error=False)
    response = client.chat_completion("Qwen/Qwen2.5-7B-Instruct",
                                      [{"role": "user", "content": "hi"}], max_tokens=4)
    assert response["error"]["type"] == "overloaded_error"
    assert response["error"]["status"] == 503
    assert deployment.relay.stats.rejected == 1
