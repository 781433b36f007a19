"""Golden-trace and property tests for engine macro-stepping.

The macro-stepped engine must reproduce the per-token reference loop
(`EngineConfig(macro_stepping=False)`) *exactly* in simulated time: same
per-request timings, same stats, same KV accounting, same preemptions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import A100_40GB, dgx_a100_spec
from repro.obs.trace import TRACE_KEY, TraceContext
from repro.serving import (
    ContinuousBatchingEngine,
    EngineConfig,
    InferenceRequest,
    PerformanceModel,
    default_catalog,
)
from repro.serving.stream import STREAM_CHANNEL_KEY, StreamChannel
from repro.sim import Environment
from repro.workload import PoissonArrival, ShareGPTWorkload

CATALOG = default_catalog()
SPEC_70B = CATALOG.get("Llama-3.3-70B")
SPEC_8B = CATALOG.get("Llama-3.1-8B")

RESULT_FIELDS = (
    "request_id",
    "success",
    "error",
    "prompt_tokens",
    "output_tokens",
    "engine_enqueue_time",
    "prefill_start_time",
    "first_token_time",
    "completion_time",
)


def result_trace(result):
    return tuple(getattr(result, f) for f in RESULT_FIELDS)


def make_engine(env, macro, spec=SPEC_70B, tp=8, kv_capacity=None, max_num_seqs=256):
    perf = PerformanceModel(spec, tp, A100_40GB, node_spec=dgx_a100_spec())
    if kv_capacity is not None:
        class TinyKV(PerformanceModel):
            def kv_capacity_tokens(self, vram_utilization=0.9):
                return kv_capacity
        perf = TinyKV(spec, tp, A100_40GB, node_spec=dgx_a100_spec())
    config = EngineConfig(generate_text=False, macro_stepping=macro,
                          max_num_seqs=max_num_seqs)
    return ContinuousBatchingEngine(env, perf, config)


def run_trace(macro, requests, offsets, kv_capacity=None, stream_indices=(),
              stop_at=None, drain_at=None, max_num_seqs=256):
    """Drive one engine over a timed workload; returns the full golden trace."""
    env = Environment()
    engine = make_engine(env, macro, kv_capacity=kv_capacity,
                         max_num_seqs=max_num_seqs)
    stream_events = {}
    events = []

    def consume(channel, sink):
        while True:
            item = yield channel.get()
            if item is None:
                return
            sink.append((item.kind, item.index, item.time))

    def driver(env):
        last = 0.0
        for i, (request, offset) in enumerate(zip(requests, offsets)):
            if offset > last:
                yield env.timeout(offset - last)
                last = offset
            if i in stream_indices:
                channel = StreamChannel(env)
                request.stream = True
                request.metadata[STREAM_CHANNEL_KEY] = channel
                stream_events[i] = []
                env.process(consume(channel, stream_events[i]))
            events.append(engine.submit(request))

    def stopper(env):
        yield env.timeout(stop_at)
        engine.stop()

    def drainer(env):
        yield env.timeout(drain_at)
        engine.drain()

    env.process(driver(env))
    if stop_at is not None:
        env.process(stopper(env))
    if drain_at is not None:
        env.process(drainer(env))
    env.run()
    traces = [result_trace(ev.value) for ev in events]
    return {
        "results": traces,
        "stats": engine.stats.snapshot(),
        "allocation_failures": engine.kv.allocation_failures,
        "preemptions": engine.kv.preemptions,
        "kv_used": engine.kv.used_blocks,
        "end_time": env.now,
        "streams": stream_events,
    }


def fresh_requests(lengths, model=SPEC_70B.name):
    return [
        InferenceRequest(f"g-{i:04d}", model, prompt_tokens=p, max_output_tokens=o)
        for i, (p, o) in enumerate(lengths)
    ]


def test_golden_trace_poisson_workload_is_bit_identical():
    """Fixed seed, Poisson arrivals: every timing field matches exactly."""
    workload = ShareGPTWorkload()
    offsets = PoissonArrival(rate=4.0, seed=11).offsets(120)
    golden = run_trace(False, workload.generate(SPEC_70B.name, num_requests=120), offsets)
    macro = run_trace(True, workload.generate(SPEC_70B.name, num_requests=120), offsets)
    assert macro == golden


def test_golden_trace_with_streaming_request_mid_batch():
    """A streaming consumer in the middle of the batch sees identical
    per-token events, and the surrounding requests keep identical timings."""
    lengths = [(64, 40), (128, 60), (96, 25), (200, 80), (50, 35), (80, 50)]
    offsets = [0.0, 0.1, 0.25, 0.4, 0.9, 1.4]
    golden = run_trace(False, fresh_requests(lengths), offsets, stream_indices={2})
    macro = run_trace(True, fresh_requests(lengths), offsets, stream_indices={2})
    assert macro["streams"][2]  # the consumer actually saw tokens
    assert macro == golden


def test_golden_trace_all_at_once_burst():
    """Infinite-rate burst (everything at t=0) matches exactly."""
    workload = ShareGPTWorkload()
    offsets = [0.0] * 150
    golden = run_trace(False, workload.generate(SPEC_70B.name, num_requests=150), offsets)
    macro = run_trace(True, workload.generate(SPEC_70B.name, num_requests=150), offsets)
    assert macro == golden


def test_golden_trace_stop_mid_run():
    """stop() mid-run reports identical partial progress in both modes."""
    lengths = [(100, 300), (120, 280), (90, 260), (110, 240)]
    offsets = [0.0, 0.0, 0.5, 0.5]
    golden = run_trace(False, fresh_requests(lengths), offsets, stop_at=3.0)
    macro = run_trace(True, fresh_requests(lengths), offsets, stop_at=3.0)
    # The queue-drain time differs (the collapsed window timeout outlives the
    # stop), but every result, stat and KV counter must match exactly.
    golden.pop("end_time")
    macro.pop("end_time")
    assert macro == golden
    assert all(not trace[1] for trace in macro["results"])  # everything failed


def test_submit_then_stop_in_one_callback_does_not_double_count_busy_time():
    """A submit() immediately followed by stop() while a window is in flight
    queues a window-split interrupt that is delivered *after* the stop; the
    abandoned window must not be accounted twice."""

    def run(macro):
        env = Environment()
        engine = make_engine(env, macro)
        engine.submit(InferenceRequest("bt-0", SPEC_70B.name, prompt_tokens=80,
                                       max_output_tokens=200))

        def submit_then_stop(env):
            yield env.timeout(2.0)  # mid-window for the macro engine
            engine.submit(InferenceRequest("bt-1", SPEC_70B.name, prompt_tokens=80,
                                           max_output_tokens=200))
            engine.stop()

        env.process(submit_then_stop(env))
        env.run()
        return engine.stats.snapshot()

    assert run(True) == run(False)


def test_stop_counts_each_failed_sequence_exactly_once():
    env = Environment()
    engine = make_engine(env, macro=True)
    for i in range(5):
        engine.submit(InferenceRequest(f"s-{i}", SPEC_70B.name, prompt_tokens=50,
                                       max_output_tokens=100))

    def stopper(env):
        yield env.timeout(1.0)
        engine.stop()
        engine.stop()  # idempotent: second stop finds nothing outstanding

    env.process(stopper(env))
    env.run()
    assert engine.stats.failed == 5
    assert engine.stats.submitted == 5
    assert engine.is_idle
    assert engine.kv.used_blocks == 0


@settings(max_examples=20, deadline=None)
@given(
    lengths=st.lists(
        st.tuples(st.integers(min_value=50, max_value=500),
                  st.integers(min_value=5, max_value=150)),
        min_size=4,
        max_size=24,
    ),
    kv_capacity=st.integers(min_value=1200, max_value=4000),
)
def test_property_macro_stepping_never_skips_kv_preemption(lengths, kv_capacity):
    """Under KV pressure, macro-stepping falls back to per-token stepping and
    reproduces every preemption (and every other outcome) of the reference
    engine — it never glosses over a pressure event inside a window."""
    offsets = [0.0] * len(lengths)
    golden = run_trace(False, fresh_requests(lengths), offsets, kv_capacity=kv_capacity)
    macro = run_trace(True, fresh_requests(lengths), offsets, kv_capacity=kv_capacity)
    assert macro["preemptions"] == golden["preemptions"]
    assert macro["stats"]["preempted"] == golden["stats"]["preempted"]
    assert macro == golden


def test_interrupted_window_releases_unexecuted_kv_reservation():
    """A window abandoned by a mid-flight submission must leave the KV pool
    in the exact per-token state: the end-of-window growth probed at planning
    time must not stay reserved, or the newcomer's admission (and any
    resulting preemption) diverges from the reference engine."""
    lengths = [(100, 400), (100, 400), (100, 50)]
    offsets = [0.0, 0.0, 5.0]  # the third request interrupts a long window
    golden = run_trace(False, fresh_requests(lengths), offsets, kv_capacity=1100)
    macro = run_trace(True, fresh_requests(lengths), offsets, kv_capacity=1100)
    assert macro == golden


def test_no_window_right_after_a_failed_kv_growth():
    """A sequence whose growth failed (and forced a preemption) is a block
    short of its one-token lookahead until its next per-token step.  A
    window planned right then could trust the O(1) block bound, or skip
    that sequence's growth because it crosses no block boundary, and the
    KV pool, with every later admission and preemption, would drift from
    the reference engine."""
    lengths = [(163, 99), (274, 82), (230, 65), (214, 71), (86, 90),
               (203, 90), (200, 26), (254, 36), (185, 20), (133, 73)]
    offsets = [0.0] * len(lengths)
    golden = run_trace(False, fresh_requests(lengths), offsets, kv_capacity=2044)
    macro = run_trace(True, fresh_requests(lengths), offsets, kv_capacity=2044)
    assert golden["preemptions"] > 0
    assert macro == golden


@settings(max_examples=15, deadline=None)
@given(
    lengths=st.lists(
        st.tuples(st.integers(min_value=50, max_value=400),
                  st.integers(min_value=5, max_value=150)),
        min_size=2,
        max_size=10,
    ),
    kv_capacity=st.integers(min_value=1500, max_value=3000),
    rate=st.floats(min_value=0.2, max_value=2.0),
)
def test_property_kv_pressure_with_staggered_arrivals(lengths, kv_capacity, rate):
    """KV pressure plus arrivals that interrupt in-flight windows: every
    admission, preemption and timing must still match the reference loop.

    The domain is bounded (modest outputs, KV that fits several sequences):
    deeper starvation regimes make the *reference* engine thrash through
    quadratic preemption restarts, which is a cost problem, not a divergence
    one — equivalence there is covered by the deterministic tests above."""
    offsets = PoissonArrival(rate=rate, seed=13).offsets(len(lengths))
    golden = run_trace(False, fresh_requests(lengths), offsets, kv_capacity=kv_capacity)
    macro = run_trace(True, fresh_requests(lengths), offsets, kv_capacity=kv_capacity)
    assert macro == golden


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    rate=st.floats(min_value=0.5, max_value=30.0),
    max_seqs=st.integers(min_value=1, max_value=8),
)
def test_property_macro_equivalence_under_bounded_concurrency(n, rate, max_seqs):
    workload = ShareGPTWorkload()
    offsets = PoissonArrival(rate=rate, seed=3).offsets(n)
    golden = run_trace(False, workload.generate(SPEC_8B.name, num_requests=n),
                       offsets, max_num_seqs=max_seqs)
    macro = run_trace(True, workload.generate(SPEC_8B.name, num_requests=n),
                      offsets, max_num_seqs=max_seqs)
    assert macro == golden


def test_golden_trace_controller_drain_mid_window():
    """An autoscale controller draining the engine mid-macro-window (a scale
    event) splits the window like an admission does; every request still
    completes with timings bit-identical to the per-token engine."""
    lengths = [(100, 300), (120, 280), (90, 260), (110, 240)]
    offsets = [0.0, 0.0, 0.5, 0.5]
    golden = run_trace(False, fresh_requests(lengths), offsets, drain_at=7.0)
    macro = run_trace(True, fresh_requests(lengths), offsets, drain_at=7.0)
    assert macro == golden
    assert all(trace[1] for trace in macro["results"])  # all succeeded


def test_golden_trace_drain_then_stop():
    """Scale-down drain followed by a hard terminate: partial progress at the
    stop must match the reference engine exactly."""
    lengths = [(100, 300), (120, 280), (90, 260), (110, 240)]
    offsets = [0.0, 0.0, 0.5, 0.5]
    golden = run_trace(False, fresh_requests(lengths), offsets,
                       drain_at=3.0, stop_at=9.0)
    macro = run_trace(True, fresh_requests(lengths), offsets,
                      drain_at=3.0, stop_at=9.0)
    # Same queue-drain caveat as test_golden_trace_stop_mid_run.
    golden.pop("end_time")
    macro.pop("end_time")
    assert macro == golden


@settings(max_examples=15, deadline=None)
@given(
    drain_at=st.floats(min_value=0.1, max_value=60.0),
    rate=st.floats(min_value=0.5, max_value=8.0),
    n=st.integers(min_value=2, max_value=20),
)
def test_property_drain_is_equivalence_preserving(drain_at, rate, n):
    """Wherever the controller's scale event lands — inside a window, at a
    boundary, before admission, after completion — splitting the window must
    not perturb any simulated timing."""
    workload = ShareGPTWorkload()
    offsets = PoissonArrival(rate=rate, seed=5).offsets(n)
    golden = run_trace(False, workload.generate(SPEC_70B.name, num_requests=n),
                       offsets, drain_at=drain_at)
    macro = run_trace(True, workload.generate(SPEC_70B.name, num_requests=n),
                      offsets, drain_at=drain_at)
    assert macro == golden


def test_macro_stepping_uses_fewer_kernel_events():
    """The point of the exercise: same simulated outcome, far fewer events."""

    def count_steps(macro):
        env = Environment()
        engine = make_engine(env, macro)
        steps = 0
        original = env.step

        def counting_step():
            nonlocal steps
            steps += 1
            original()

        env.step = counting_step
        events = [
            engine.submit(InferenceRequest(f"c-{i}", SPEC_70B.name, prompt_tokens=100,
                                           max_output_tokens=150))
            for i in range(4)
        ]
        env.run(until=env.all_of(events))
        return steps

    assert count_steps(True) * 5 < count_steps(False)


def _run_streaming_unconsumed(macro):
    """One streaming request nobody reads plus a plain neighbour; returns the
    channel's undelivered event trace and the kernel-event count."""
    env = Environment()
    engine = make_engine(env, macro)
    channel = StreamChannel(env)
    request = InferenceRequest("ns-0", SPEC_70B.name, prompt_tokens=80,
                               max_output_tokens=120)
    request.stream = True
    request.metadata[STREAM_CHANNEL_KEY] = channel
    steps = 0
    original = env.step

    def counting_step():
        nonlocal steps
        steps += 1
        original()

    env.step = counting_step
    done = engine.submit(request)
    other = engine.submit(InferenceRequest("ns-1", SPEC_70B.name, prompt_tokens=60,
                                           max_output_tokens=90))
    env.run(until=env.all_of([done, other]))
    trace = [(item.kind, item.index, item.time) for item in channel._items]
    return trace, steps


def test_unconsumed_stream_macro_steps_with_identical_events():
    """A streaming channel nobody is reading must not force per-token
    stepping: the macro engine delivers the same event sequence (same kinds,
    indices and production times) in window-sized batches, with far fewer
    kernel events."""
    macro_trace, macro_steps = _run_streaming_unconsumed(True)
    ref_trace, ref_steps = _run_streaming_unconsumed(False)
    assert macro_trace == ref_trace
    assert macro_trace[-1][0] == "done"
    assert len(macro_trace) == 121  # 120 tokens + done
    assert macro_steps * 5 < ref_steps


@pytest.mark.parametrize("macro", [True, False], ids=["macro", "per-token"])
def test_request_admitted_into_running_batch_traces_each_token_once(macro):
    """A request admitted while a batch is decoding: its prefill span ends at
    its first token, and its decode windows count every later token once,
    tile the time from the first token to completion without gaps, and end
    at completion.  Under macro-stepping the admission iteration opens the
    newcomer's window, so the window must not also count the prefill token."""
    env = Environment()
    engine = make_engine(env, macro)
    for i in range(3):
        engine.submit(InferenceRequest(f"tr-{i}", SPEC_70B.name, prompt_tokens=100,
                                       max_output_tokens=300))
    trace = TraceContext("trace-late", env, sampled=True)
    late = InferenceRequest("tr-late", SPEC_70B.name, prompt_tokens=200,
                            max_output_tokens=120)
    late.metadata[TRACE_KEY] = trace
    submitted = []

    def submit_late(env):
        yield env.timeout(2.0)  # mid-window for the macro engine
        submitted.append(engine.submit(late))

    env.process(submit_late(env))
    env.run()
    result = submitted[0].value
    assert result.success and result.output_tokens == 120
    (prefill,) = trace.find_spans("engine.prefill")
    assert prefill.end == result.first_token_time
    windows = sorted(trace.find_spans("engine.decode_window"), key=lambda s: s.start)
    assert sum(w.attrs["iterations"] for w in windows) == result.output_tokens - 1
    assert windows[0].start == result.first_token_time
    for before, after in zip(windows, windows[1:]):
        assert after.start == before.end
    assert windows[-1].end == result.completion_time
    if macro:
        assert len(windows) < result.output_tokens - 1  # it did macro-step
