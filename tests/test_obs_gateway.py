"""End-to-end observability tests: the span tree of a streamed request
across every layer, the gateway's metrics/trace endpoints, Perfetto export,
and the bit-identity guarantee (tracing on == tracing off)."""

import json
import logging

import pytest

from repro.common import NotFoundError, sim_logger
from repro.core import (
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelDeploymentSpec,
    ObservabilityConfig,
)
from repro.obs import span_tree
from repro.sim import Environment

MODEL = "Qwen/Qwen2.5-7B-Instruct"


def obs_deployment(observability=None):
    return FIRSTDeployment(DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="devcluster", kind="small", num_nodes=2, scheduler="local",
                models=[ModelDeploymentSpec(MODEL, max_parallel_tasks=32)],
            )
        ],
        users=["researcher@anl.gov"],
        generate_text=False,
        observability=observability,
    ))


@pytest.fixture(scope="module")
def traced_request():
    """One streamed request through a traced deployment (shared, read-only)."""
    deployment = obs_deployment(ObservabilityConfig(profile_kernel=True))
    deployment.warm_up(MODEL)
    client = deployment.client("researcher@anl.gov")
    chunks = list(client.chat_completion(
        MODEL, [{"role": "user", "content": "hello"}], max_tokens=8, stream=True))
    trace_id = deployment.observability.tracer.trace_ids()[0]
    return deployment, client, chunks, trace_id


def _index(spans):
    return {s["name"]: s for s in spans}


# -- span-tree completeness -----------------------------------------------------

def test_streamed_request_span_tree_covers_every_layer(traced_request):
    deployment, client, chunks, trace_id = traced_request
    assert chunks[-1]["choices"][0]["finish_reason"] == "stop"
    trace = client.get_trace(trace_id)
    assert trace["trace_id"] == trace_id
    spans = trace["spans"]
    by_name = _index(spans)

    # Every layer of the pipeline shows up.
    for name, layer in [
        ("gateway.request", "gateway"),
        ("gateway.stage.routing", "gateway"),
        ("gateway.stage.dispatch", "gateway"),
        ("gateway.stream_delivery", "gateway"),
        ("relay.transfer", "relay"),
        ("relay.result", "relay"),
        ("endpoint.execute", "endpoint"),
        ("endpoint.queue_wait", "endpoint"),
        ("engine.request", "engine"),
        ("engine.queue_wait", "engine"),
        ("engine.prefill", "engine"),
    ]:
        assert name in by_name, f"missing span {name}"
        assert by_name[name]["layer"] == layer

    # Streaming forces per-token decode: one window span per post-first token.
    windows = [s for s in spans if s["name"] == "engine.decode_window"]
    assert len(windows) == 7  # 8 tokens - the prefill-produced first token
    assert all(w["attrs"]["iterations"] == 1 for w in windows)

    # The routing decision is annotated with the policy and chosen endpoint.
    routing = by_name["gateway.stage.routing"]
    assert routing["attrs"]["endpoint"] == "ep-devcluster"
    assert routing["attrs"]["policy"] == "PriorityRouter"

    root = by_name["gateway.request"]
    assert root["parent_id"] is None
    assert root["attrs"]["outcome"] == "success"
    assert root["attrs"]["stream"] is True
    assert by_name["gateway.stream_delivery"]["attrs"]["tokens"] == 8


def test_span_nesting_and_monotone_timestamps(traced_request):
    deployment, client, _, trace_id = traced_request
    trace = client.get_trace(trace_id)
    spans = trace["spans"]
    by_id = {s["span_id"]: s for s in spans}

    for span in spans:
        assert span["end"] is not None, f"unclosed span {span['name']}"
        assert span["end"] >= span["start"] >= trace["started_at"]
        assert span["end"] <= trace["finished_at"]
        parent = by_id.get(span["parent_id"]) if span["parent_id"] else None
        if parent is not None:
            # Children start within their parent.
            assert span["start"] >= parent["start"]

    roots = span_tree(spans)
    assert [r["name"] for r in roots] == ["gateway.request"]

    # The pipeline stages nest in chain order down to dispatch, which owns
    # the cross-layer subtree.
    node = roots[0]
    chain = []
    while node is not None:
        chain.append(node["name"])
        node = next((c for c in node["children"]
                     if c["name"].startswith("gateway.stage.")), None)
    assert chain == [
        "gateway.request", "gateway.stage.validation", "gateway.stage.auth",
        "gateway.stage.rate-limit", "gateway.stage.response-cache",
        "gateway.stage.accounting", "gateway.stage.routing",
        "gateway.stage.dispatch",
    ]

    dispatch = _index(trace["spans"])["gateway.stage.dispatch"]["span_id"]
    for name in ("relay.transfer", "relay.result", "endpoint.execute",
                 "engine.request", "gateway.stream_delivery"):
        assert _index(spans)[name]["parent_id"] == dispatch
    engine_root = _index(spans)["engine.request"]["span_id"]
    for name in ("engine.queue_wait", "engine.prefill", "engine.decode_window"):
        assert _index(spans)[name]["parent_id"] == engine_root


# -- retrieval endpoints --------------------------------------------------------

def test_trace_and_metrics_endpoints(traced_request):
    deployment, client, _, trace_id = traced_request
    with pytest.raises(NotFoundError):
        client.get_trace("no-such-trace")

    text = client.metrics_text()
    assert '# TYPE gateway_requests_total counter' in text
    assert f'gateway_requests_total{{model="{MODEL}",outcome="success"}} 1' in text
    assert "gateway_request_latency_seconds_count" in text
    assert "gateway_ttft_seconds_count" in text
    assert f'gateway_tokens_total{{model="{MODEL}",kind="output"}} 8' in text
    assert "gateway_in_flight_requests 0" in text

    dashboard = client.dashboard()
    json.dumps(dashboard)  # plain JSON-serializable
    assert dashboard["uptime_s"] > 0
    obs = dashboard["observability"]
    assert obs["tracing"]["finished"] == 1
    assert obs["kernel"]["events_total"] > 0
    assert obs["slowest"][0]["trace_id"] == trace_id


def test_disabled_observability_endpoints_raise(traced_request):
    deployment = obs_deployment()  # no observability configured
    assert deployment.observability is None
    with pytest.raises(NotFoundError):
        deployment.gateway.metrics_text()
    with pytest.raises(NotFoundError):
        deployment.gateway.get_trace("anything")


def test_perfetto_export(traced_request):
    deployment, client, _, trace_id = traced_request
    perfetto = client.get_trace_perfetto(trace_id)
    json.dumps(perfetto)
    events = perfetto["traceEvents"]
    slices = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert {m["args"]["name"] for m in metas} == {
        "gateway", "relay", "endpoint", "engine"}
    names = {e["name"] for e in slices}
    assert "engine.prefill" in names and "relay.transfer" in names
    trace = client.get_trace(trace_id)
    for e in slices:
        assert e["dur"] >= 0
        assert e["ts"] >= trace["started_at"] * 1e6  # µs of simulated time
    assert perfetto["otherData"]["clock"] == "simulated"
    with pytest.raises(NotFoundError):
        client.get_trace_perfetto("no-such-trace")


# -- failing stage --------------------------------------------------------------

def test_failing_stage_span_records_the_error_and_every_span_closes():
    """An invalid token fails the auth stage of a traced request: its span
    carries the error status, every opened span is closed on unwind, the root
    records the failure, and the caller still gets the typed envelope."""
    deployment = obs_deployment(ObservabilityConfig())
    deployment.warm_up(MODEL)
    body = {"model": MODEL, "messages": [{"role": "user", "content": "hi"}],
            "max_tokens": 8}
    proc = deployment.env.process(
        deployment.gateway.chat_completions("not-a-token", body))
    envelope = deployment.env.run(until=proc)
    assert envelope["error"]["type"] == "authentication_error"

    (trace_id,) = deployment.observability.tracer.trace_ids()
    spans = deployment.gateway.get_trace(trace_id)["spans"]
    by_name = _index(spans)
    stages = [s["name"] for s in spans if s["name"].startswith("gateway.stage.")]
    assert stages == ["gateway.stage.validation", "gateway.stage.auth"]
    assert by_name["gateway.stage.auth"]["status"] == "error:AuthenticationError"
    for span in spans:
        assert span["end"] is not None, f"unclosed span {span['name']}"
    root = by_name["gateway.request"]
    assert root["status"] == "error:AuthenticationError"
    assert root["attrs"]["outcome"] == "exception"


# -- bit-identity ---------------------------------------------------------------

def _workload_signature(observability):
    deployment = obs_deployment(observability)
    deployment.warm_up(MODEL)
    client = deployment.client("researcher@anl.gov")
    signature = []
    for i in range(4):
        stream = i % 2 == 0
        response = client.chat_completion(
            MODEL, [{"role": "user", "content": f"msg {i}"}],
            max_tokens=6 + i, stream=stream)
        if stream:
            list(response)
        signature.append(deployment.env.now)
    signature.append(deployment.gateway.metrics.total_output_tokens)
    return signature


def test_results_bit_identical_with_tracing_on_or_off():
    baseline = _workload_signature(None)
    traced = _workload_signature(ObservabilityConfig(profile_kernel=True))
    sampled_off = _workload_signature(ObservabilityConfig(sample_rate=0.0))
    assert traced == baseline
    assert sampled_off == baseline


# -- sim-time structured logging ------------------------------------------------

def test_sim_logger_stamps_simulated_time(caplog):
    env = Environment()
    log = sim_logger("repro.test", env)

    def proc():
        yield env.timeout(12.5)
        log.warning("queue full", depth=3, limit=2)

    env.process(proc())
    with caplog.at_level(logging.WARNING, logger="repro.test"):
        env.run()
    record = caplog.records[-1]
    assert record.sim_time == 12.5
    assert record.sim_fields == {"depth": 3, "limit": 2}
    assert record.getMessage() == "[t=12.500s] queue full (depth=3 limit=2)"
