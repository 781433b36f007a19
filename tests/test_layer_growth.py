"""Complexity gate: per-request host cost of every layer stays flat as the
request count doubles.

Three FIRST chat scenarios each run at N and 2N requests under cProfile,
after a warm-up run that takes imports and lazy set-up out of the
measurement: one prewarmed 70B instance on a single Sophia-like cluster,
the two-cluster Sophia + Polaris federation of the hash-seed guard
(least-loaded routing, one warm 8B instance per cluster), and that
federation again with every request streamed.  Calls are
aggregated by ``repro.<package>`` (everything outside ``repro`` is
``other``).  Call counts of a deterministic simulation
are themselves deterministic, so the bound can be tight: a layer whose cost
per request grows with history (a scan over every record ever kept, say)
shows up as a ratio near 2, while linear layers sit at 1.00 within edge
effects.

Beside the gate, three budgets: kernel events per non-streamed request
(a release or an unwatched process end should not cost the kernel an
event), kernel events per streamed output token (a delivered token should
cost the kernel one timer, not a process), and
``repro.serving`` calls per request on an all-at-once burst into one engine
(a macro window should cost one pass over the batch, not a call per
sequence).  The burst gets a budget rather than a growth check: its fill
and drain phases, when the batch is partly empty, do not scale with N, so
its cost per request is not flat in N by construction.
"""

import cProfile
import gc
import os
import pstats

import pytest

from repro.analysis.detsan import federated_deployment
from repro.cluster import A100_40GB, dgx_a100_spec
from repro.core import FIRSTDeployment, sophia_benchmark_config
from repro.obs import KernelProfiler
from repro.serving import (
    ContinuousBatchingEngine,
    EngineConfig,
    PerformanceModel,
    default_catalog,
)
from repro.sim import Environment
from repro.workload import BenchmarkClient, PoissonArrival, ShareGPTWorkload

N = 300
MAX_GROWTH = 1.05
#: Kernel events per output token on the streamed scenario at N, all events
#: of the run counted.  A per-token delivery process feeding a pulling
#: gateway forwarder measured 4.51, a delivery timer feeding that pulling
#: forwarder 2.48, and a delivery timer pushing into the forwarder 1.46
#: (1.465).  Keeping releases and unwatched process ends out of the kernel,
#: and one relay timer for submit + dispatch, measured 1.401.
MAX_EVENTS_PER_STREAMED_TOKEN = 1.45
#: Kernel events per request on the non-streamed single-cluster scenario at
#: N, all events of the run counted.  Every resource release and process
#: end in the kernel queue, and two relay timers for submit + dispatch,
#: measured 42.9; releases and unwatched process ends kept out of the
#: kernel, with one relay timer, 30.9.
MAX_EVENTS_PER_REQUEST = 32
#: Requests in the engine-cell burst.
ENGINE_BURST = 600
#: ``repro.serving`` calls per request on that burst.  Per-token admission
#: iterations and a multi-pass window planner measured 980 (996 at 1,200
#: requests); one pass per window, with single iterations also taking the
#: window path, 24.1 (23.8).
MAX_ENGINE_SERVING_CALLS_PER_REQUEST = 500

_MARK = os.sep + "repro" + os.sep


def layer_of(filename):
    """``.../repro/faas/relay.py`` → ``faas``; anything else → ``other``."""
    at = filename.rfind(_MARK)
    if at < 0:
        return "other"
    return filename[at + len(_MARK):].split(os.sep, 1)[0]


def single_cluster_deployment():
    model = "meta-llama/Llama-3.3-70B-Instruct"
    deployment = FIRSTDeployment(sophia_benchmark_config(model=model))
    deployment.warm_up(model)
    return deployment


#: Scenario name → (deployment builder, whether every request streams).
SCENARIOS = {
    "single-cluster": (single_cluster_deployment, False),
    "two-cluster": (federated_deployment, False),
    "streamed": (federated_deployment, True),
}


def prepare(scenario, n):
    """The deployment of ``scenario`` and a benchmark client running ``n``
    Poisson chats at 4 req/s (below saturation) on it."""
    build, stream = SCENARIOS[scenario]
    deployment = build()
    model = deployment.config.clusters[0].models[0].model
    user = deployment.config.users[0]
    requests = ShareGPTWorkload().generate(model, num_requests=n, user=user)
    for request in requests:
        request.stream = stream
    bench = BenchmarkClient(deployment.env, deployment.client(user), label="growth")
    return deployment, lambda: bench.run(requests, arrival=PoissonArrival(rate=4.0))


def profile_layers(run, n):
    """Calls per request, by layer, while ``run()`` serves ``n`` requests."""
    # Collect earlier runs' garbage now: generator finalizers of a dropped
    # deployment must not be billed to this one.
    gc.collect()
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    layers = {}
    for (filename, _line, _func), (_cc, calls, *_rest) in pstats.Stats(profiler).stats.items():
        layer = layer_of(filename)
        layers[layer] = layers.get(layer, 0) + calls
    return {layer: calls / n for layer, calls in layers.items()}


def calls_per_request(scenario, n):
    """Profiled calls per request, by layer, for ``n`` chats of ``scenario``,
    plus the tasks each endpoint executed."""
    deployment, traffic = prepare(scenario, n)
    summaries = []

    def run():
        summaries.append(deployment.env.run(until=deployment.env.process(traffic())))

    layers = profile_layers(run, n)
    assert summaries[0].num_successful == n
    executed = {eid: ep.tasks_executed for eid, ep in deployment.endpoints.items()}
    return layers, executed


def engine_burst_calls_per_request(n):
    """Profiled calls per request, by layer, for ``n`` ShareGPT requests
    submitted at once to one 70B TP-8 engine."""
    env = Environment()
    spec = default_catalog().get("Llama-3.3-70B")
    perf = PerformanceModel(spec, 8, A100_40GB, node_spec=dgx_a100_spec())
    engine = ContinuousBatchingEngine(env, perf, EngineConfig(generate_text=False))
    requests = ShareGPTWorkload().generate(spec.name, num_requests=n)
    events = []

    def run():
        events.extend(engine.submit(request) for request in requests)
        env.run(until=env.all_of(events))

    layers = profile_layers(run, n)
    assert all(event.value.success for event in events)
    return layers


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_layer_cost_per_request_is_flat_in_request_count(scenario):
    calls_per_request(scenario, N // 6)  # warm-up
    at_n, executed_n = calls_per_request(scenario, N)
    at_2n, executed_2n = calls_per_request(scenario, 2 * N)
    # Every endpoint serves traffic (both clusters in the federated case).
    assert all(executed_n.values()) and all(executed_2n.values())
    assert {"gateway", "auth", "faas", "serving", "sim"} <= set(at_n) == set(at_2n)
    growth = {layer: at_2n[layer] / at_n[layer] for layer in at_n}
    grown = {layer: round(ratio, 3) for layer, ratio in growth.items() if ratio > MAX_GROWTH}
    assert not grown, f"calls/request grow with request count: {grown}"


def kernel_events(scenario, n):
    """The deployment, run summary and kernel event count of ``n`` chats of
    ``scenario``."""
    deployment, traffic = prepare(scenario, n)
    profiler = KernelProfiler()
    deployment.env.attach_profiler(profiler)
    summary = deployment.env.run(until=deployment.env.process(traffic()))
    deployment.env.detach_profiler()
    assert summary.num_successful == n
    return deployment, summary, profiler.events_total


def test_non_streamed_request_costs_a_bounded_number_of_kernel_events():
    _, _, events = kernel_events("single-cluster", N)
    per_request = events / N
    assert per_request <= MAX_EVENTS_PER_REQUEST, (
        f"{per_request:.2f} kernel events per non-streamed request")


def test_streamed_token_costs_a_bounded_number_of_kernel_events():
    deployment, summary, events = kernel_events("streamed", N)
    assert deployment.gateway.last_context.gateway_token_times  # it did stream
    per_token = events / summary.total_output_tokens
    assert per_token <= MAX_EVENTS_PER_STREAMED_TOKEN, (
        f"{per_token:.2f} kernel events per streamed token")


def test_engine_burst_serving_calls_per_request_stay_within_budget():
    engine_burst_calls_per_request(ENGINE_BURST // 6)  # warm-up
    serving = engine_burst_calls_per_request(ENGINE_BURST)["serving"]
    assert serving <= MAX_ENGINE_SERVING_CALLS_PER_REQUEST, (
        f"{serving:.0f} repro.serving calls per request on the engine burst")
