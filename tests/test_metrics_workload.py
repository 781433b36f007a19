"""Tests for metrics summaries, workload generation, arrivals and batch files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ValidationError
from repro.metrics import MetricsCollector, RequestRecord, percentile, summarize
from repro.workload import (
    BATCH_GENERATION_CONFIG,
    InfiniteArrival,
    PoissonArrival,
    ShareGPTConfig,
    ShareGPTWorkload,
    UniformArrival,
    make_arrival,
    parse_batch_lines,
    read_batch_file,
    write_batch_file,
)


# -- metrics -------------------------------------------------------------------

def make_record(i, send, latency, tokens=100, success=True):
    return RequestRecord(
        request_id=f"r{i}",
        model="m",
        send_time=send,
        completion_time=send + latency,
        prompt_tokens=50,
        output_tokens=tokens,
        success=success,
    )


def test_request_record_latency():
    rec = make_record(0, send=2.0, latency=3.5)
    assert rec.latency_s == pytest.approx(3.5)
    rec.first_token_time = 2.5
    assert rec.time_to_first_token_s == pytest.approx(0.5)


def test_summarize_matches_paper_metric_definitions():
    records = [make_record(i, send=0.0, latency=float(i + 1), tokens=100) for i in range(10)]
    summary = summarize(records, label="test", duration_s=10.0)
    assert summary.num_successful == 10
    assert summary.request_throughput == pytest.approx(1.0)
    assert summary.output_token_throughput == pytest.approx(100.0)
    assert summary.median_latency_s == pytest.approx(5.5)
    assert summary.duration_s == 10.0
    assert "req/s" in summary.row()
    assert summary.to_dict()["num_requests"] == 10


def test_summarize_excludes_failures_from_throughput():
    records = [make_record(i, 0.0, 1.0) for i in range(5)]
    records += [make_record(10 + i, 0.0, 1.0, success=False) for i in range(5)]
    summary = summarize(records, duration_s=5.0)
    assert summary.num_requests == 10
    assert summary.num_successful == 5
    assert summary.request_throughput == pytest.approx(1.0)


def test_summarize_default_duration_spans_send_to_last_completion():
    records = [make_record(0, send=1.0, latency=2.0), make_record(1, send=3.0, latency=4.0)]
    summary = summarize(records)
    assert summary.duration_s == pytest.approx(6.0)  # from t=1 to t=7


def test_summarize_empty():
    summary = summarize([], label="empty")
    assert summary.num_requests == 0
    assert summary.request_throughput == 0.0


def test_percentile_empty_and_basic():
    assert percentile([], 50) == 0.0
    assert percentile([1.0, 2.0, 3.0], 50) == 2.0


def test_collector_partitions_success_and_failure():
    collector = MetricsCollector()
    collector.record(make_record(0, 0.0, 1.0))
    collector.record(make_record(1, 0.0, 1.0, success=False))
    assert len(collector) == 2
    assert len(collector.successful) == 1
    assert len(collector.failed) == 1
    collector.clear()
    assert len(collector) == 0


# -- ShareGPT-like workload --------------------------------------------------------

def test_sharegpt_workload_is_deterministic():
    w1 = ShareGPTWorkload().generate("m", num_requests=50)
    w2 = ShareGPTWorkload().generate("m", num_requests=50)
    assert [(r.prompt_tokens, r.max_output_tokens) for r in w1] == [
        (r.prompt_tokens, r.max_output_tokens) for r in w2
    ]


def test_sharegpt_workload_matches_target_means():
    requests = ShareGPTWorkload().generate("m", num_requests=2000)
    mean_prompt = np.mean([r.prompt_tokens for r in requests])
    mean_output = np.mean([r.max_output_tokens for r in requests])
    # Calibrated to the effective ShareGPT means implied by the paper
    # (~220 prompt / ~180 output tokens); truncation shifts them slightly.
    assert 170 <= mean_prompt <= 270
    assert 140 <= mean_output <= 220


def test_sharegpt_workload_respects_bounds_and_config_validation():
    cfg = ShareGPTConfig(num_requests=500, max_output_tokens=300, min_output_tokens=10)
    requests = ShareGPTWorkload(cfg).generate("m")
    assert all(10 <= r.max_output_tokens <= 300 for r in requests)
    with pytest.raises(ValueError):
        ShareGPTConfig(num_requests=0)
    with pytest.raises(ValueError):
        ShareGPTConfig(mean_prompt_tokens=-1)


def test_batch_generation_profile_longer_outputs():
    interactive = ShareGPTWorkload().generate("m", num_requests=300)
    batch = ShareGPTWorkload(BATCH_GENERATION_CONFIG).generate("m", num_requests=300)
    assert np.mean([r.max_output_tokens for r in batch]) > 2 * np.mean(
        [r.max_output_tokens for r in interactive]
    )


# -- arrivals ------------------------------------------------------------------------

def test_infinite_arrival_all_zero():
    assert InfiniteArrival().offsets(5) == [0.0] * 5
    assert InfiniteArrival().label == "inf"


def test_uniform_arrival_spacing():
    offsets = UniformArrival(rate=2.0).offsets(4)
    assert offsets == [0.0, 0.5, 1.0, 1.5]


def test_poisson_arrival_mean_rate():
    offsets = PoissonArrival(rate=10.0, seed=3).offsets(5000)
    assert offsets[0] == 0.0
    observed_rate = (len(offsets) - 1) / offsets[-1]
    assert observed_rate == pytest.approx(10.0, rel=0.1)


def test_arrival_validation_and_factory():
    with pytest.raises(ValueError):
        PoissonArrival(0.0)
    with pytest.raises(ValueError):
        UniformArrival(-1.0)
    assert isinstance(make_arrival(None), InfiniteArrival)
    assert isinstance(make_arrival(float("inf")), InfiniteArrival)
    assert isinstance(make_arrival(5.0), PoissonArrival)
    assert isinstance(make_arrival(5.0, poisson=False), UniformArrival)


@settings(max_examples=30, deadline=None)
@given(rate=st.floats(min_value=0.1, max_value=100.0), n=st.integers(min_value=1, max_value=200))
def test_property_arrival_offsets_sorted_nonnegative(rate, n):
    for arrival in (PoissonArrival(rate, seed=1), UniformArrival(rate), InfiniteArrival()):
        offsets = arrival.offsets(n)
        assert len(offsets) == n
        assert all(o >= 0 for o in offsets)
        assert offsets == sorted(offsets)


# -- batch JSONL files -------------------------------------------------------------------

def test_batch_jsonl_roundtrip(tmp_path):
    requests = ShareGPTWorkload().generate("meta-llama/Llama-3.3-70B-Instruct", num_requests=20)
    path = write_batch_file(tmp_path / "batch.jsonl", requests)
    parsed = read_batch_file(path)
    assert len(parsed) == 20
    assert parsed[0].model == "meta-llama/Llama-3.3-70B-Instruct"
    assert parsed[0].request_id == requests[0].request_id
    assert parsed[0].max_output_tokens == requests[0].max_output_tokens
    assert parsed[0].prompt_tokens == requests[0].prompt_tokens


def test_batch_jsonl_validation_errors():
    with pytest.raises(ValidationError):
        parse_batch_lines("not json at all")
    with pytest.raises(ValidationError):
        parse_batch_lines('{"custom_id": "x", "body": {"messages": []}}')  # missing model
    with pytest.raises(ValidationError):
        parse_batch_lines('{"custom_id": "x", "body": {"model": "m", "max_tokens": 0}}')
    with pytest.raises(ValidationError):
        parse_batch_lines("")


def test_batch_jsonl_estimates_prompt_tokens_when_no_hint():
    line = ('{"custom_id": "a", "body": {"model": "m", "max_tokens": 10, '
            '"messages": [{"role": "user", "content": "one two three four five six"}]}}')
    parsed = parse_batch_lines(line)
    assert parsed[0].prompt_tokens >= 6
