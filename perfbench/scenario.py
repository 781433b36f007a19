"""One repetition of one benchmark workload, in a fresh interpreter.

Run from the root of a checkout::

    python3 perfbench/scenario.py --workload steady_chat --seed 1 --mode timed

``--mode timed`` measures set-up and the traffic phase with nothing attached.
``--mode profile`` attaches cProfile to the traffic phase and ``--mode memory``
takes a tracemalloc snapshot at quiescence; both feed the per-layer ledger
(see ``ledger.py``).  ``--scale`` shortens the traffic phase (the half-length
pass behind ``<layer>.calls_growth``).  The last line of standard output is
one JSON object; a failed correctness check exits with code 1.

The script builds every input from ``--seed`` itself: prompt and output
lengths, arrival schedules and batch files.  The program under test receives
only the generated requests, through the public ``repro.core`` deployment
and client.
"""

import time

# Set-up is measured from the first line, in CPU time: what the interpreter
# used to start, then the steady clock (see clock.py).
STARTUP_CPU_S = time.process_time()

import clock  # noqa: E402  (imports are part of the measured set-up)

CLOCK = clock.SteadyClock()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import astuple, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import NormalDist  # noqa: E402
from typing import List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.core import (  # noqa: E402
    FIRSTDeployment,
    ObservabilityConfig,
    federated_config,
    sophia_benchmark_config,
)
from repro.serving import InferenceRequest  # noqa: E402
from repro.workload import BenchmarkClient, TraceReplayArrival  # noqa: E402

import ledger  # noqa: E402

CONFIG = json.loads((HERE / "workloads.json").read_text())
USER = "benchmark@anl.gov"


class CheckFailed(Exception):
    """A correctness check on the program's outputs failed."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------- inputs
def lengths(rng, shape, n):
    """``n`` clamped lognormal token counts whose arithmetic mean before
    clamping is ``shape['mean']``, in random order.

    The draws are stratified, one from each of ``n`` equal-probability
    slices, so the tail that sets a p99 is the same size under every seed;
    the seed moves each draw within its slice and shuffles the order."""
    mu = math.log(shape["mean"]) - 0.5 * shape["sigma"] ** 2
    normal = NormalDist(mu, shape["sigma"])
    draws = (math.exp(normal.inv_cdf((i + rng.random()) / n)) for i in range(n))
    out = [int(min(shape["max"], max(shape["min"], x))) for x in draws]
    rng.shuffle(out)
    return out


def chat_requests(rng, spec, n, stream):
    prompts = lengths(rng, spec["prompt"], n)
    outputs = lengths(rng, spec["output"], n)
    return [
        InferenceRequest(
            request_id=f"req-{i:06d}",
            model=spec["model"],
            prompt_tokens=prompts[i],
            max_output_tokens=outputs[i],
            user=USER,
            prompt_text=f"[conversation {i}] benchmark prompt",
            stream=stream,
        )
        for i in range(n)
    ]


def arrivals(rng, start, length, count):
    """A Poisson process conditioned on its count: ``count`` arrivals at
    uniformly random times in ``[start, start + length)``.  Fixing the count
    keeps the offered load, and so the simulated run's length, the same
    under every seed."""
    return sorted(start + length * rng.random() for _ in range(count))


def burst_offsets(rng, cycles, burst_rate, burst_s, calm_rate, calm_s):
    """On/off traffic: each cycle is a burst at ``burst_rate`` for ``burst_s``
    and then a calm spell at ``calm_rate`` for ``calm_s``.  The first burst
    meets the cold start, so the cold start sets the latency tail."""
    out, start = [], 0.0
    for _ in range(cycles):
        for rate, length in ((burst_rate, burst_s), (calm_rate, calm_s)):
            out.extend(arrivals(rng, start, length, round(rate * length)))
            start += length
    return out


def batch_file(rng, spec, index, n):
    """A §4.4 batch input file, as the JSON Lines text a user uploads."""
    prompts = lengths(rng, spec["prompt"], n)
    outputs = lengths(rng, spec["output"], n)
    return "\n".join(json.dumps({
        "custom_id": f"batch{index}-{i:05d}",
        "method": "POST",
        "url": "/v1/chat/completions",
        "body": {
            "model": spec["model"],
            "messages": [{"role": "user", "content": f"[batch {index} item {i}]"}],
            "max_tokens": outputs[i],
            "prompt_tokens_hint": prompts[i],
        },
    }) for i in range(n))


# ---------------------------------------------------------------- outcomes
def percentile(values, q):
    """Linear-interpolated percentile (numpy's default rule)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass
class Outcome:
    """One request's simulated outcome as the client saw it.

    ``token_times`` holds the gateway-observed timestamps of a streamed
    request; ``gap`` is the time per output token after the first for a
    request whose tokens the client does not see one by one.
    """

    rid: str
    due: float
    send: float
    first: float
    done: float
    tokens: int
    wanted: int
    success: bool
    token_times: Optional[List[float]] = None
    gap: Optional[float] = None


def digest(outcomes):
    """Hash of every request's simulated outcome, independent of host timing."""
    h = hashlib.sha256()
    for o in sorted(outcomes, key=lambda o: o.rid):
        h.update(repr(astuple(o)).encode())
    return h.hexdigest()[:16]


def check_outcomes(outcomes, sent_ids):
    ids = [o.rid for o in outcomes]
    check(len(ids) == len(set(ids)), "a request reached more than one terminal outcome")
    check(set(ids) == set(sent_ids), "a sent request has no terminal outcome")
    for o in outcomes:
        # Open loop: in simulated time the generator is never late.
        check(o.send == o.due, f"{o.rid} was sent at {o.send!r}, due at {o.due!r}")
        if not o.success:
            continue
        check(o.tokens == max(1, o.wanted),
              f"{o.rid} produced {o.tokens} tokens, asked for {o.wanted}")
        if o.token_times is not None:
            check(len(o.token_times) == o.tokens,
                  f"{o.rid} streamed {len(o.token_times)} token timestamps "
                  f"for {o.tokens} tokens")
            check(all(a <= b for a, b in zip(o.token_times, o.token_times[1:])),
                  f"{o.rid} token timestamps decrease")


def sim_metrics(outcomes, traffic_start, slo, deployment):
    """Simulated service quality over the traffic phase.

    A failed request counts against ``sim_slo_attainment``.  The first token
    is the gateway-observed one for streamed requests and the engine's for
    the rest; ``sim_itl_*`` pools streamed token gaps and, for requests not
    streamed, each request's mean time per output token after the first.
    """
    ok = [o for o in outcomes if o.success]
    check(ok, "no request succeeded")
    itl = []
    for o in ok:
        if o.token_times is not None:
            itl.extend(b - a for a, b in zip(o.token_times, o.token_times[1:]))
        elif o.gap is not None:
            itl.append(o.gap)
    latency = [o.done - o.send for o in ok]
    ttft = [o.first - o.send for o in ok]
    met = sum(1 for o in ok
              if o.first - o.send <= slo["ttft_s"] and o.done - o.send <= slo["latency_s"])
    end = max(o.done for o in outcomes)
    gpu_s = sum(s.gpu_seconds() for s in deployment.schedulers.values())
    return {
        "sim_latency_p50_s": percentile(latency, 50),
        "sim_latency_p99_s": percentile(latency, 99),
        "sim_ttft_p50_s": percentile(ttft, 50),
        "sim_ttft_p99_s": percentile(ttft, 99),
        "sim_itl_p50_s": percentile(itl, 50),
        "sim_itl_p99_s": percentile(itl, 99),
        "sim_output_tok_per_s": sum(o.tokens for o in ok) / (end - traffic_start),
        "sim_slo_attainment": met / len(outcomes),
        "sim_gpu_hours": gpu_s / 3600.0,
        "success_rate": len(ok) / len(outcomes),
    }


# ---------------------------------------------------------------- workloads
class Workload:
    """Set-up, traffic and outcome collection of one workload.

    ``setup()`` runs before the clock for the traffic phase starts;
    ``traffic()`` is the timed phase and ends at quiescence.
    """

    def __init__(self, name, seed, scale):
        self.name = name
        self.spec = CONFIG["workloads"][name]
        self.rng = random.Random(f"{name}:{seed}")
        self.scale = scale
        self.warmup = {"sent": 0, "succeeded": 0, "failed": 0}


class ChatWorkload(Workload):
    """Open-loop chat traffic sent by ``BenchmarkClient`` on a fixed schedule."""

    stream = False
    prewarm = 0

    def setup(self):
        self.offsets = self.schedule()
        self.requests = chat_requests(self.rng, self.spec, len(self.offsets), self.stream)
        self.deployment = FIRSTDeployment(self.config())
        model = self.spec["model"]
        if self.prewarm:
            self.deployment.warm_up(model, instances=self.prewarm)
        self.client = self.deployment.client(USER)
        if self.prewarm:
            # One request fills the gateway's token cache, so traffic meets
            # the steady state of a deployment that is already serving.
            warm = InferenceRequest(request_id="warmup-0", model=model, prompt_tokens=32,
                                    max_output_tokens=8, user=USER, prompt_text="warm-up")
            result = self.deployment.env.run(until=self.client.submit(warm))
            self.warmup = {"sent": 1, "succeeded": int(result.success),
                           "failed": int(not result.success)}

    def traffic(self):
        env = self.deployment.env
        self.traffic_start = env.now
        bench = BenchmarkClient(env, self.client, label=self.name)
        proc = env.process(bench.run(self.requests, arrival=TraceReplayArrival(self.offsets)))
        env.run(until=proc)
        self.records = bench.collector.records

    def collect(self):
        wanted = {r.request_id: r.max_output_tokens for r in self.requests}
        due = {r.request_id: self.traffic_start + off
               for r, off in zip(self.requests, self.offsets)}
        outcomes = []
        for rec in self.records:
            first = rec.first_token_time
            if first is None:
                first = rec.completion_time
            gap = None
            if not self.stream and rec.output_tokens > 1:
                gap = (rec.completion_time - first) / (rec.output_tokens - 1)
            outcomes.append(Outcome(
                rec.request_id, due[rec.request_id], rec.send_time, first,
                rec.completion_time, rec.output_tokens, wanted[rec.request_id], rec.success,
                token_times=rec.token_times if self.stream else None, gap=gap))
        return outcomes, list(wanted)


class SteadyChat(ChatWorkload):
    prewarm = 1

    def schedule(self):
        n = max(1, round(self.spec["requests"] * self.scale))
        return arrivals(self.rng, 0.0, n / self.spec["rate_per_s"], n)

    def config(self):
        return sophia_benchmark_config(model=self.spec["model"], num_nodes=self.spec["nodes"])


class BurstStream(ChatWorkload):
    stream = True

    def schedule(self):
        b = self.spec["bursts"]
        return burst_offsets(self.rng, max(1, round(b["cycles"] * self.scale)),
                             b["burst_rate_per_s"], b["burst_s"],
                             b["calm_rate_per_s"], b["calm_s"])

    def config(self):
        config = federated_config(model=self.spec["model"])
        # Production posture: the stage runs, but no trace is retained.
        config.observability = ObservabilityConfig(sample_rate=0.0, slowest_k=0)
        return config


class BatchBulk(Workload):
    """§4.4 batch files submitted together through ``/v1/batches``."""

    def setup(self):
        per_file = self.spec["requests_per_file"]
        files = max(1, round(self.spec["files"] * self.scale))
        self.files = [batch_file(self.rng, self.spec, i, per_file) for i in range(files)]
        self.deployment = FIRSTDeployment(sophia_benchmark_config(
            model=self.spec["model"], num_nodes=self.spec["nodes"]))
        self.client = self.deployment.client(USER)

    def traffic(self):
        env = self.deployment.env
        self.traffic_start = env.now
        token = self.client.access_token
        procs = [env.process(self.deployment.gateway.create_batch(token, text))
                 for text in self.files]
        created = env.run(until=env.all_of(procs))
        batches = [created[p] for p in procs]
        for batch in batches:
            check(batch.get("object") == "batch", f"create_batch failed: {batch}")
        self.final = [self.client.wait_for_batch(b["id"]) for b in batches]

    def collect(self):
        outcomes, sent = [], []
        for text, final in zip(self.files, self.final):
            counts = final["request_counts"]
            lines = [json.loads(line) for line in text.splitlines()]
            check(counts["completed"] + counts["failed"] == counts["total"] == len(lines),
                  f"batch {final['id']} counts do not add up: {counts}")
            record = self.deployment.database.batches[final["id"]]
            results = {r.request_id: r for r in record.results}
            for line in lines:
                rid = line["custom_id"]
                sent.append(rid)
                r = results.get(rid)
                if r is None:
                    continue
                # The client sees a batch request's output when its batch
                # completes; the engine's timestamps give its token timing.
                gap = ((r.completion_time - r.first_token_time) / (r.output_tokens - 1)
                       if r.output_tokens > 1 else None)
                outcomes.append(Outcome(
                    rid, final["created_at"], final["created_at"], r.first_token_time,
                    final["completed_at"], r.output_tokens, line["body"]["max_tokens"],
                    r.success, gap=gap))
        return outcomes, sent


WORKLOADS = {"steady_chat": SteadyChat, "burst_stream": BurstStream, "batch_bulk": BatchBulk}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "profile", "memory"), default="timed")
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    run = WORKLOADS[args.workload](args.workload, args.seed, args.scale)
    run.setup()
    setup_s = STARTUP_CPU_S + CLOCK.read()
    if args.mode != "timed":
        CLOCK.stop()  # keep its signal handler out of the profiles
    probe = ledger.Probe(args.mode)
    try:
        probe.start()
        t0, c0, s0 = time.perf_counter(), time.process_time(), CLOCK.read()
        run.traffic()
        host_s = time.perf_counter() - t0
        cpu_s = time.process_time() - c0
        steady_s = CLOCK.read() - s0
        CLOCK.stop()
        layers = probe.stop(run.deployment)
        outcomes, sent_ids = run.collect()
        check_outcomes(outcomes, sent_ids)
        relay = run.deployment.relay.stats
        check(relay.submitted == relay.completed + relay.failed,
              f"relay counts do not balance at quiescence: {relay}")
        sim = sim_metrics(outcomes, run.traffic_start, run.spec["slo"], run.deployment)
    except CheckFailed as exc:
        print(f"correctness check failed on {args.workload}: {exc}", file=sys.stderr)
        return 1
    sent = len(sent_ids)
    succeeded = sum(1 for o in outcomes if o.success)
    print(json.dumps({
        "mode": args.mode,
        "setup_s": setup_s,
        "host_s": host_s,
        "cpu_s": cpu_s,
        # The run is single-threaded and CPU-bound: its cost is CPU time,
        # rescaled so that the shared machine's changing speed drops out.
        "host_us_per_request": steady_s * 1e6 / sent,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim": sim,
        "sim_digest": digest(outcomes),
        "phases": {
            "warmup": run.warmup,
            "traffic": {"sent": sent, "succeeded": succeeded, "failed": sent - succeeded},
        },
        "counts": ledger.counts(run.deployment, sent),
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
