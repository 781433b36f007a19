"""Complexity gate: per-request host cost of every layer stays flat as the
request count doubles.

A single-cluster FIRST chat scenario runs at N and 2N requests under
cProfile, after a warm-up run that takes imports and lazy set-up out of the
measurement.  Calls are aggregated by ``repro.<package>`` (everything
outside ``repro`` is ``other``).  Call counts of a deterministic simulation
are themselves deterministic, so the bound can be tight: a layer whose cost
per request grows with history (a scan over every record ever kept, say)
shows up as a ratio near 2, while linear layers sit at 1.00 within edge
effects.
"""

import cProfile
import os
import pstats

from repro.core import FIRSTDeployment, sophia_benchmark_config
from repro.workload import BenchmarkClient, PoissonArrival, ShareGPTWorkload

MODEL = "meta-llama/Llama-3.3-70B-Instruct"
USER = "benchmark@anl.gov"
N = 300
MAX_GROWTH = 1.05

_MARK = os.sep + "repro" + os.sep


def layer_of(filename):
    """``.../repro/faas/relay.py`` → ``faas``; anything else → ``other``."""
    at = filename.rfind(_MARK)
    if at < 0:
        return "other"
    return filename[at + len(_MARK):].split(os.sep, 1)[0]


def calls_per_request(n):
    """Profiled calls per request, by layer, for ``n`` Poisson chats at
    4 req/s (below saturation) on one prewarmed instance."""
    deployment = FIRSTDeployment(sophia_benchmark_config(model=MODEL))
    deployment.warm_up(MODEL)
    client = deployment.client(USER)
    requests = ShareGPTWorkload().generate(MODEL, num_requests=n, user=USER)
    bench = BenchmarkClient(deployment.env, client, label="growth")
    profiler = cProfile.Profile()
    profiler.enable()
    proc = deployment.env.process(bench.run(requests, arrival=PoissonArrival(rate=4.0)))
    summary = deployment.env.run(until=proc)
    profiler.disable()
    assert summary.num_successful == n
    layers = {}
    for (filename, _line, _func), (_cc, calls, *_rest) in pstats.Stats(profiler).stats.items():
        layer = layer_of(filename)
        layers[layer] = layers.get(layer, 0) + calls
    return {layer: calls / n for layer, calls in layers.items()}


def test_every_layer_cost_per_request_is_flat_in_request_count():
    calls_per_request(N // 6)  # warm-up
    at_n = calls_per_request(N)
    at_2n = calls_per_request(2 * N)
    assert {"gateway", "auth", "faas", "serving", "sim"} <= set(at_n) == set(at_2n)
    growth = {layer: at_2n[layer] / at_n[layer] for layer in at_n}
    grown = {layer: round(ratio, 3) for layer, ratio in growth.items() if ratio > MAX_GROWTH}
    assert not grown, f"calls/request grow with request count: {grown}"
