"""Property-based and invariant tests for the continuous-batching engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import A100_40GB, dgx_a100_spec
from repro.serving import (
    ContinuousBatchingEngine,
    EngineConfig,
    InferenceRequest,
    PerformanceModel,
    default_catalog,
)
from repro.sim import Environment

CATALOG = default_catalog()
SPEC_8B = CATALOG.get("Llama-3.1-8B")


def make_engine(env, max_num_seqs=256):
    perf = PerformanceModel(SPEC_8B, 4, A100_40GB, node_spec=dgx_a100_spec())
    return ContinuousBatchingEngine(
        env, perf, EngineConfig(max_num_seqs=max_num_seqs, generate_text=False)
    )


@settings(max_examples=25, deadline=None)
@given(
    lengths=st.lists(
        st.tuples(st.integers(min_value=1, max_value=600),
                  st.integers(min_value=1, max_value=300)),
        min_size=1,
        max_size=60,
    )
)
def test_property_every_request_completes_with_exact_token_counts(lengths):
    env = Environment()
    engine = make_engine(env)
    events = []
    for i, (prompt, output) in enumerate(lengths):
        events.append(
            engine.submit(InferenceRequest(f"p-{i}", SPEC_8B.name, prompt_tokens=prompt,
                                           max_output_tokens=output))
        )
    env.run(until=env.all_of(events))
    results = [ev.value for ev in events]
    assert all(r.success for r in results)
    assert [r.output_tokens for r in results] == [o for _, o in lengths]
    assert [r.prompt_tokens for r in results] == [p for p, _ in lengths]
    # Engine accounting matches the workload exactly.
    assert engine.stats.completed == len(lengths)
    assert engine.stats.output_tokens == sum(o for _, o in lengths)
    # All KV blocks were returned to the pool.
    assert engine.kv.used_blocks == 0
    assert engine.is_idle


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    output=st.integers(min_value=10, max_value=200),
    max_seqs=st.integers(min_value=1, max_value=16),
)
def test_property_bounded_concurrency_never_exceeded(n, output, max_seqs):
    env = Environment()
    engine = make_engine(env, max_num_seqs=max_seqs)
    events = [
        engine.submit(InferenceRequest(f"b-{i}", SPEC_8B.name, prompt_tokens=64,
                                       max_output_tokens=output))
        for i in range(n)
    ]
    env.run(until=env.all_of(events))
    assert engine.stats.peak_batch_size <= max_seqs
    assert engine.stats.completed == n


@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=1, max_value=30))
def test_property_completion_times_monotone_in_request_count(n):
    """Adding requests never makes the whole batch finish earlier."""

    def duration_for(count):
        env = Environment()
        engine = make_engine(env)
        events = [
            engine.submit(InferenceRequest(f"m-{i}", SPEC_8B.name, prompt_tokens=100,
                                           max_output_tokens=100))
            for i in range(count)
        ]
        env.run(until=env.all_of(events))
        return env.now

    shorter = duration_for(n)
    longer = duration_for(n + 5)
    assert longer >= shorter


def test_latency_increases_with_batch_size_but_throughput_improves():
    """Per-request latency grows with concurrency while aggregate throughput rises."""

    def run(count):
        env = Environment()
        engine = make_engine(env)
        events = [
            engine.submit(InferenceRequest(f"t-{i}", SPEC_8B.name, prompt_tokens=120,
                                           max_output_tokens=120))
            for i in range(count)
        ]
        env.run(until=env.all_of(events))
        latencies = [ev.value.engine_latency_s for ev in events]
        return sum(latencies) / len(latencies), (count * 120) / env.now

    lat_small, thr_small = run(4)
    lat_big, thr_big = run(64)
    assert lat_big > lat_small
    assert thr_big > 2 * thr_small


def test_first_token_time_precedes_completion_and_follows_enqueue():
    env = Environment()
    engine = make_engine(env)
    events = [
        engine.submit(InferenceRequest(f"f-{i}", SPEC_8B.name, prompt_tokens=200,
                                       max_output_tokens=50))
        for i in range(10)
    ]
    env.run(until=env.all_of(events))
    for ev in events:
        result = ev.value
        assert result.engine_enqueue_time <= result.first_token_time <= result.completion_time
        assert result.time_to_first_token_s >= 0.0
        assert result.engine_latency_s > 0.0


def test_interleaved_submission_keeps_engine_utilised():
    """Requests arriving while others are running join the same batch."""
    env = Environment()
    engine = make_engine(env)
    results = []

    def submit_later(env, delay, rid):
        yield env.timeout(delay)
        ev = engine.submit(InferenceRequest(rid, SPEC_8B.name, prompt_tokens=100,
                                            max_output_tokens=150))
        result = yield ev
        results.append(result)

    procs = [env.process(submit_later(env, 0.2 * i, f"late-{i}")) for i in range(20)]
    env.run(until=env.all_of(procs))
    assert len(results) == 20
    assert engine.stats.peak_batch_size > 5
