"""Additional edge-case coverage for gateway components and the FaaS client."""

import pytest

from repro.common import NotFoundError, ValidationError
from repro.core import (
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelDeploymentSpec,
)
from repro.gateway import GatewayConfig, GatewayMetrics, ResponseCache, ServerMode
from repro.sim import Environment

MODEL_7B = "Qwen/Qwen2.5-7B-Instruct"
EMBED = "nvidia/NV-Embed-v2"


@pytest.fixture(scope="module")
def deployment():
    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="devcluster", kind="small", num_nodes=2, scheduler="local",
                models=[
                    ModelDeploymentSpec(MODEL_7B, max_parallel_tasks=32),
                    ModelDeploymentSpec(EMBED, backend="infinity"),
                ],
            )
        ],
        users=["researcher@anl.gov"],
        generate_text=True,
    )
    d = FIRSTDeployment(config)
    d.warm_up(MODEL_7B)
    return d


# -- response cache unit behaviour -------------------------------------------------

def test_response_cache_ttl_expiry_and_eviction():
    cache = ResponseCache(ttl_s=10.0, max_entries=2)
    k1 = ResponseCache.key_for("m", "prompt one", 10)
    k2 = ResponseCache.key_for("m", "prompt two", 10)
    k3 = ResponseCache.key_for("m", "prompt three", 10)
    cache.put(k1, "r1", now=0.0)
    cache.put(k2, "r2", now=1.0)
    assert cache.get(k1, now=5.0) == "r1"
    # TTL expiry.
    assert cache.get(k1, now=20.0) is None
    # Eviction keeps the cache bounded.
    cache.put(k1, "r1", now=21.0)
    cache.put(k3, "r3", now=22.0)
    assert len(cache) <= 2
    # Different parameters produce different keys.
    assert ResponseCache.key_for("m", "p", 10) != ResponseCache.key_for("m", "p", 20)
    assert ResponseCache.key_for("m", "p", 10, {"temperature": 0.1}) != ResponseCache.key_for(
        "m", "p", 10, {"temperature": 0.9}
    )


# -- gateway metrics unit behaviour ---------------------------------------------------

def test_gateway_metrics_counters_and_dashboard():
    env = Environment()
    metrics = GatewayMetrics(env)
    metrics.request_started("m1", 100)
    metrics.request_started("m2", 50)
    assert metrics.in_flight == 2
    metrics.request_completed("m1", 200, 3.0)
    metrics.request_failed("m2")
    assert metrics.in_flight == 0
    assert metrics.peak_in_flight == 2
    assert metrics.total_requests == 2
    assert metrics.total_completed == 1
    assert metrics.total_output_tokens == 200
    dashboard = metrics.dashboard(extra={"custom": 1})
    assert dashboard["custom"] == 1
    per_model = {m["model"]: m for m in dashboard["models"]}
    assert per_model["m1"]["mean_latency_s"] == pytest.approx(3.0)
    assert per_model["m2"]["failed"] == 1


# -- request body validation ------------------------------------------------------------

def test_completions_requires_prompt(deployment):
    client = deployment.client("researcher@anl.gov")
    with pytest.raises(ValidationError):
        client.completion(MODEL_7B, prompt="", max_tokens=10)


def test_embeddings_requires_input(deployment):
    """Driving the endpoint directly returns a typed envelope, not an exception."""
    client = deployment.client("researcher@anl.gov")
    gateway = deployment.gateway
    proc = deployment.env.process(
        gateway.embeddings(client.access_token, {"model": EMBED, "input": ""})
    )
    response = deployment.env.run(until=proc)
    assert response["error"]["type"] == "invalid_request_error"
    assert response["error"]["status"] == 422
    # The client SDK re-raises the envelope as the typed exception.
    with pytest.raises(ValidationError):
        client.embedding(EMBED, "")


def test_prompt_tokens_hint_is_respected(deployment):
    client = deployment.client("researcher@anl.gov")
    gateway = deployment.gateway
    body = {
        "model": MODEL_7B,
        "messages": [{"role": "user", "content": "short"}],
        "max_tokens": 16,
        "prompt_tokens_hint": 999,
        "request_id": "hinted-req",
    }
    proc = deployment.env.process(gateway.chat_completions(client.access_token, body))
    response = deployment.env.run(until=proc)
    assert response["usage"]["prompt_tokens"] == 999


def test_sampling_params_are_accepted_and_logged(deployment):
    client = deployment.client("researcher@anl.gov")
    response = client.chat_completion(
        MODEL_7B,
        [{"role": "user", "content": "sampled"}],
        max_tokens=8,
        temperature=0.2,
        top_p=0.9,
    )
    assert response["usage"]["completion_tokens"] == 8


def test_alias_model_name_resolves_to_catalog_name(deployment):
    client = deployment.client("researcher@anl.gov")
    # The catalog accepts aliases; the canonical name comes back in the response.
    response = client.chat_completion(
        "Qwen/Qwen2.5-7B-Instruct", [{"role": "user", "content": "x"}], max_tokens=8
    )
    assert response["model"] == MODEL_7B


def test_list_models_and_jobs_are_consistent(deployment):
    client = deployment.client("researcher@anl.gov")
    hosted = {m["id"] for m in client.models()["data"]}
    job_models = {j["model"] for j in client.jobs()}
    assert hosted == job_models


def test_dashboard_includes_relay_queue_and_auth_cache(deployment):
    client = deployment.client("researcher@anl.gov")
    client.chat_completion(MODEL_7B, [{"role": "user", "content": "dash"}], max_tokens=8)
    dash = client.dashboard()
    assert "queued_at_relay" in dash
    assert dash["auth_cache"]["misses"] >= 1


def test_gateway_config_worker_slot_sizing():
    async_cfg = GatewayConfig(cpu_count=16, threads_per_worker=4)
    assert async_cfg.async_worker_slots == (16 * 2 + 1) * 4
    assert async_cfg.worker_slots() == async_cfg.async_worker_slots
    sync_cfg = GatewayConfig(server_mode=ServerMode.SYNC_LEGACY, sync_workers=9)
    assert sync_cfg.worker_slots() == 9


def test_batch_results_are_retained_in_database(deployment):
    from repro.workload import ShareGPTWorkload, requests_to_jsonl

    client = deployment.client("researcher@anl.gov")
    requests = ShareGPTWorkload().generate(MODEL_7B, num_requests=8, id_prefix="dbres")
    batch = client.create_batch(requests_to_jsonl(requests))
    final = client.wait_for_batch(batch["id"], poll_every_s=30.0)
    record = deployment.database.get_batch(batch["id"])
    assert final["request_counts"]["completed"] == 8
    assert len(record.results) == 8
    assert all(r.success for r in record.results)


def test_unknown_endpoint_in_batch_request_raises(deployment):
    from repro.workload import ShareGPTWorkload, requests_to_jsonl

    client = deployment.client("researcher@anl.gov")
    requests = ShareGPTWorkload().generate(MODEL_7B, num_requests=2, id_prefix="noep")
    with pytest.raises(NotFoundError):
        client.create_batch(requests_to_jsonl(requests), endpoint_id="ep-missing")


def test_failed_batch_records_counts_and_dashboard_failure():
    """A batch whose compute task fails records full failure accounting."""
    from repro.workload import ShareGPTWorkload, requests_to_jsonl

    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="c1", kind="small", num_nodes=2, scheduler="local",
                models=[ModelDeploymentSpec(MODEL_7B, max_parallel_tasks=32)],
            ),
            ClusterDeploymentSpec(
                name="c2", kind="small", num_nodes=2, scheduler="local",
                models=[ModelDeploymentSpec(EMBED, backend="infinity")],
            ),
        ],
        users=["researcher@anl.gov"],
        generate_text=False,
    )
    d = FIRSTDeployment(config)
    client = d.client("researcher@anl.gov")
    requests = ShareGPTWorkload().generate(MODEL_7B, num_requests=5, id_prefix="failbatch")
    # Force the batch onto the endpoint that does not host the model: the
    # compute task fails at the endpoint and the future is rejected.
    batch = client.create_batch(requests_to_jsonl(requests), endpoint_id="ep-c2")
    final = client.wait_for_batch(batch["id"], poll_every_s=10.0)
    assert final["status"] == "failed"
    assert final["error"]
    record = d.database.get_batch(batch["id"])
    assert record.completed_requests == 0
    assert record.failed_requests == 5
    assert record.output_tokens == 0
    assert record.completed_at is not None
    assert d.gateway.metrics.batches_failed == 1
    assert d.gateway.dashboard()["batches_failed"] == 1


def test_batch_partial_failure_reports_per_request_reasons():
    """A batch that completes with some failed requests surfaces which
    requests failed and why — typed envelopes on ``GET /v1/batches/{id}``,
    bucketed reasons on the dashboard."""
    from repro.serving import InferenceResult, OfflineRunResult
    from repro.workload import ShareGPTWorkload, requests_to_jsonl

    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="c1", kind="small", num_nodes=2, scheduler="local",
                models=[ModelDeploymentSpec(MODEL_7B, max_parallel_tasks=32)],
            ),
        ],
        users=["researcher@anl.gov"],
        generate_text=False,
    )
    d = FIRSTDeployment(config)
    client = d.client("researcher@anl.gov")
    requests = ShareGPTWorkload().generate(MODEL_7B, num_requests=3, id_prefix="pf")

    def result(req, success, error=None):
        return InferenceResult(
            request_id=req.request_id, model=req.model,
            prompt_tokens=req.prompt_tokens,
            output_tokens=req.max_output_tokens if success else 0,
            success=success, error=error,
        )

    run_result = OfflineRunResult(
        results=[result(requests[0], True),
                 result(requests[1], False, "KV cache exhausted"),
                 result(requests[2], False, "inference server crashed")],
        load_time_s=10.0, processing_time_s=5.0,
    )

    # Stub the compute layer: this test exercises the gateway's partial-
    # failure accounting, not the batch execution path itself.
    d.gateway.compute_client.submit = lambda *a, **k: object()

    def fake_wait(future):
        yield d.env.timeout(1.0)
        return run_result

    d.gateway.compute_client.wait_future = fake_wait

    batch = client.create_batch(requests_to_jsonl(requests))
    final = client.wait_for_batch(batch["id"], poll_every_s=5.0)

    assert final["status"] == "completed"
    assert final["request_counts"] == {"total": 3, "completed": 1, "failed": 2}
    errors = {e["request_id"]: e["error"] for e in final["errors"]["data"]}
    assert set(errors) == {requests[1].request_id, requests[2].request_id}
    assert errors[requests[1].request_id]["type"] == "overloaded_error"
    assert "KV cache exhausted" in errors[requests[1].request_id]["message"]
    assert errors[requests[2].request_id]["type"] == "internal_error"

    dashboard = d.gateway.dashboard()
    assert dashboard["batches_completed"] == 1
    assert dashboard["batch_requests_completed"] == 1
    assert dashboard["batch_requests_failed"] == 2
    assert dashboard["batch_failure_reasons"] == {
        "KV cache exhausted": 1,
        "inference server crashed": 1,
    }


def test_completed_batch_counts_in_dashboard(deployment):
    from repro.workload import ShareGPTWorkload, requests_to_jsonl

    client = deployment.client("researcher@anl.gov")
    before = deployment.gateway.metrics.batches_completed
    requests = ShareGPTWorkload().generate(MODEL_7B, num_requests=4, id_prefix="okbatch")
    batch = client.create_batch(requests_to_jsonl(requests))
    client.wait_for_batch(batch["id"], poll_every_s=30.0)
    assert deployment.gateway.metrics.batches_completed == before + 1
    assert deployment.gateway.dashboard()["batches_completed"] == before + 1


# -- stream channel unit behaviour ---------------------------------------------------------

def test_stream_channel_fifo_and_close():
    from repro.serving import StreamChannel

    env = Environment()
    channel = StreamChannel(env)
    channel.publish("a")
    channel.publish("b")
    channel.close()
    got = []

    def consume():
        while True:
            item = yield channel.get()
            if item is None:
                return got
            got.append(item)

    proc = env.process(consume())
    assert env.run(until=proc) == ["a", "b"]
    # Closed channels keep resolving to None and drop further publishes.
    channel.publish("c")
    assert env.run(until=channel.get()) is None


def test_stream_channel_delivery_latency_preserves_order():
    from repro.serving import StreamChannel

    env = Environment()
    channel = StreamChannel(env, delivery_latency_s=0.5)
    arrivals = []

    def consume():
        while True:
            item = yield channel.get()
            if item is None:
                return
            arrivals.append((item, env.now))

    env.process(consume())
    channel.publish(1)
    channel.publish(2)
    channel.close()
    env.run()
    assert arrivals == [(1, 0.5), (2, 0.5)]


class _Recorder:
    """Push-style stream consumer recording ``(item, delivery time)``."""

    def __init__(self, env):
        self.env = env
        self.seen = []

    def __call__(self, item):
        self.seen.append((item, self.env.now))


def test_stream_channel_subscribe_delivers_at_publish_time_plus_latency():
    from repro.serving import StreamChannel

    env = Environment()
    channel = StreamChannel(env, delivery_latency_s=0.5)
    sink = _Recorder(env)
    channel.subscribe(sink)
    assert channel.live
    channel.publish("a")
    env.run(until=0.25)
    channel.publish_bulk(["b", "c"])
    channel.publish("d")
    env.run(until=0.5)
    assert sink.seen == [("a", 0.5)]
    env.run(until=1.0)
    channel.close()
    channel.publish("late")
    channel.publish_bulk(["later"])
    env.run()
    # Every item lands at its publish time + 0.5 in FIFO order, the close
    # reaches the sink once, and publishes after the close are dropped.
    assert sink.seen == [("a", 0.5), ("b", 0.75), ("c", 0.75), ("d", 0.75), (None, 1.5)]


def test_stream_channel_close_schedules_once_and_releases_the_sink():
    import gc
    import weakref

    from repro.serving import StreamChannel

    env = Environment()
    channel = StreamChannel(env, delivery_latency_s=0.5)
    sink = _Recorder(env)
    channel.subscribe(sink)
    with pytest.raises(RuntimeError):
        channel.subscribe(_Recorder(env))
    channel.close()
    scheduled = env.queue_size
    channel.close()
    assert env.queue_size == scheduled == 1
    env.run()
    assert channel.closed and sink.seen == [(None, 0.5)]
    sink_ref = weakref.ref(sink)
    del sink
    gc.collect()
    assert sink_ref() is None


def test_stream_channel_subscribe_needs_a_fresh_channel():
    from repro.serving import StreamChannel

    env = Environment()
    queued = StreamChannel(env)
    queued.publish("a")
    closed = StreamChannel(env)
    closed.close()
    pulled = StreamChannel(env)
    pulled.get()
    for channel in (queued, closed, pulled):
        with pytest.raises(RuntimeError):
            channel.subscribe(_Recorder(env))
    assert env.run(until=queued.get()) == "a"


def test_streamed_request_context_is_released_while_relay_keeps_payload(
        deployment, monkeypatch):
    import gc
    import weakref

    from repro.serving import STREAM_CHANNEL_KEY

    relay = deployment.relay
    submitted = []
    real_submit = relay.submit

    def spy(function_id, endpoint_id, payload, **kwargs):
        future = real_submit(function_id, endpoint_id, payload, **kwargs)
        submitted.append((future, payload))
        return future

    monkeypatch.setattr(relay, "submit", spy)
    client = deployment.client("researcher@anl.gov")
    chunks = list(client.chat_completion(
        MODEL_7B, [{"role": "user", "content": "stream me"}], max_tokens=8, stream=True))
    assert chunks[-1]["choices"][0]["finish_reason"] == "stop"
    deployment.run_for(1.0)
    ctx_ref = weakref.ref(deployment.gateway.last_context)
    deployment.gateway.last_context = None
    gc.collect()
    (future, payload), = submitted
    assert relay.get_task(future.task_id).payload is payload
    assert payload[STREAM_CHANNEL_KEY].closed
    assert ctx_ref() is None


def test_routing_cache_reuses_decision(deployment):
    client = deployment.client("researcher@anl.gov")
    before = len(deployment.gateway.router.decisions)
    client.chat_completion(MODEL_7B, [{"role": "user", "content": "r1"}], max_tokens=8)
    client.chat_completion(MODEL_7B, [{"role": "user", "content": "r2"}], max_tokens=8)
    after = len(deployment.gateway.router.decisions)
    # Within the routing-cache TTL the second request does not re-query.
    assert after - before <= 1


# -- batch retry (POST /v1/batches/{id}/retry) ------------------------------------------

def _partial_failure_deployment():
    """A deployment whose compute layer is stubbed to return scripted batch
    results: first a partial failure, then a clean completion (the retry)."""
    from repro.serving import InferenceResult, OfflineRunResult
    from repro.workload import ShareGPTWorkload

    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="c1", kind="small", num_nodes=2, scheduler="local",
                models=[ModelDeploymentSpec(MODEL_7B, max_parallel_tasks=32)],
            ),
        ],
        users=["researcher@anl.gov"],
        generate_text=False,
    )
    d = FIRSTDeployment(config)
    requests = ShareGPTWorkload().generate(MODEL_7B, num_requests=3, id_prefix="rt")

    def result(req, success, error=None):
        return InferenceResult(
            request_id=req.request_id, model=req.model,
            prompt_tokens=req.prompt_tokens,
            output_tokens=req.max_output_tokens if success else 0,
            success=success, error=error,
        )

    first = OfflineRunResult(
        results=[result(requests[0], True),
                 result(requests[1], False, "KV cache exhausted"),
                 result(requests[2], False, "inference server crashed")],
        load_time_s=10.0, processing_time_s=5.0,
    )

    submitted = []

    def fake_submit(function_id, endpoint_id, payload, **kwargs):
        submitted.append(payload)
        return object()

    def fake_wait(future):
        yield d.env.timeout(1.0)
        batch_requests = submitted[-1]["requests"]
        if len(batch_requests) == 3:
            return first
        return OfflineRunResult(
            results=[result(r, True) for r in batch_requests],
            load_time_s=10.0, processing_time_s=2.0,
        )

    d.gateway.compute_client.submit = fake_submit
    d.gateway.compute_client.wait_future = fake_wait
    return d, requests, submitted


def test_batch_retry_resubmits_only_failed_requests():
    from repro.workload import requests_to_jsonl

    d, requests, submitted = _partial_failure_deployment()
    client = d.client("researcher@anl.gov")
    batch = client.create_batch(requests_to_jsonl(requests))
    final = client.wait_for_batch(batch["id"], poll_every_s=5.0)
    assert final["request_counts"]["failed"] == 2

    retry = client.retry_batch(batch["id"])
    assert retry["retried_from"] == batch["id"]
    assert retry["request_counts"]["total"] == 2
    # Only the failed request ids were resubmitted, nothing else.
    resubmitted_ids = {r.request_id for r in submitted[-1]["requests"]}
    assert resubmitted_ids == {requests[1].request_id, requests[2].request_id}

    # Provenance is recorded both ways.
    original = client.get_batch(batch["id"])
    assert retry["id"] in original["retry_batch_ids"]

    retried_final = client.wait_for_batch(retry["id"], poll_every_s=5.0)
    assert retried_final["status"] == "completed"
    assert retried_final["request_counts"] == {"total": 2, "completed": 2, "failed": 0}
    assert retried_final["errors"] is None


def test_batch_retry_unknown_batch_is_typed_not_found():
    d, _requests, _submitted = _partial_failure_deployment()
    client = d.client("researcher@anl.gov")
    with pytest.raises(NotFoundError):
        client.retry_batch("batch-does-not-exist")
    envelope_client = d.client("researcher@anl.gov", raise_on_error=False)
    response = envelope_client.retry_batch("batch-does-not-exist")
    assert response["error"]["type"] == "not_found_error"


def test_batch_retry_rejects_non_failed_and_running_batches():
    from repro.workload import requests_to_jsonl

    d, requests, _submitted = _partial_failure_deployment()
    client = d.client("researcher@anl.gov")
    batch = client.create_batch(requests_to_jsonl(requests))
    # Still in progress: not retryable yet.
    with pytest.raises(ValidationError):
        client.retry_batch(batch["id"])
    client.wait_for_batch(batch["id"], poll_every_s=5.0)

    # A clean retry completes with zero failures; retrying *it* is rejected.
    retry = client.retry_batch(batch["id"])
    client.wait_for_batch(retry["id"], poll_every_s=5.0)
    envelope_client = d.client("researcher@anl.gov", raise_on_error=False)
    response = envelope_client.retry_batch(retry["id"])
    assert response["error"]["type"] == "invalid_request_error"
    assert "no failed requests" in response["error"]["message"]


def test_fully_failed_batch_retries_every_request():
    """A batch whose whole compute task failed has no per-request reasons;
    retry resubmits all of them."""
    from repro.serving import InferenceResult, OfflineRunResult
    from repro.workload import requests_to_jsonl

    d, requests, submitted = _partial_failure_deployment()

    calls = {"n": 0}

    def result(req):
        return InferenceResult(
            request_id=req.request_id, model=req.model,
            prompt_tokens=req.prompt_tokens, output_tokens=req.max_output_tokens,
            success=True,
        )

    def fake_wait(future):
        yield d.env.timeout(1.0)
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("endpoint unreachable")
        return OfflineRunResult(
            results=[result(r) for r in submitted[-1]["requests"]],
            load_time_s=5.0, processing_time_s=2.0,
        )

    d.gateway.compute_client.wait_future = fake_wait
    client = d.client("researcher@anl.gov")
    batch = client.create_batch(requests_to_jsonl(requests))
    final = client.wait_for_batch(batch["id"], poll_every_s=5.0)
    assert final["status"] == "failed"

    retry = client.retry_batch(batch["id"])
    assert retry["request_counts"]["total"] == 3
    retried_final = client.wait_for_batch(retry["id"], poll_every_s=5.0)
    assert retried_final["status"] == "completed"
    assert retried_final["request_counts"]["completed"] == 3
