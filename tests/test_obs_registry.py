"""Tests for the observability metrics registry: Counter/Gauge/Histogram,
Prometheus text exposition, and exact shard merging."""

import json

import pytest

from repro.obs import Gauge, Histogram, MetricsRegistry


# -- metric types ---------------------------------------------------------------

def test_counter_basics_and_labels():
    registry = MetricsRegistry()
    c = registry.counter("requests_total", "requests", labelnames=("model",))
    c.labels(model="a").inc()
    c.labels(model="a").inc(2)
    c.labels(model="b").inc(5)
    assert c.value == 8
    assert c.child_values() == {("a",): 3.0, ("b",): 5.0}
    with pytest.raises(ValueError):
        c.labels(model="a").inc(-1)
    with pytest.raises(ValueError):
        c.labels(wrong="a")


def test_gauge_set_inc_dec():
    g = Gauge("in_flight", "in flight")
    g.inc()
    g.inc()
    g.dec()
    assert g.value == 1
    g.set(7)
    assert g.value == 7


def test_histogram_quantile_accuracy():
    h = Histogram("latency", "latency", rel_err=0.01)
    for i in range(1, 1001):
        h.observe(i / 100.0)  # 0.01 .. 10.0
    assert h.count == 1000
    # Log-bucket quantiles are within the configured relative error.
    assert h.quantile(0.5) == pytest.approx(5.0, rel=0.03)
    assert h.quantile(0.99) == pytest.approx(9.9, rel=0.03)


def test_registry_registration_idempotent_and_checked():
    registry = MetricsRegistry()
    a = registry.counter("x_total", "x", labelnames=("m",))
    assert registry.counter("x_total", "x", labelnames=("m",)) is a
    with pytest.raises(ValueError):
        registry.gauge("x_total")
    with pytest.raises(ValueError):
        registry.counter("x_total", labelnames=("other",))
    assert registry.get("x_total") is a
    assert registry.get("missing") is None


# -- Prometheus exposition ------------------------------------------------------

def parse_prometheus(text):
    """Tiny parser: returns ({name: type}, [(metric, labels, value)])."""
    types = {}
    samples = []
    for line in text.strip().splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        metric, _, value = line.rpartition(" ")
        labels = {}
        if "{" in metric:
            metric, _, rest = metric.partition("{")
            for pair in rest.rstrip("}").split(","):
                k, _, v = pair.partition("=")
                labels[k] = v.strip('"')
        samples.append((metric, labels, value))
    return types, samples


def test_prometheus_text_parses_and_is_cumulative():
    registry = MetricsRegistry()
    registry.counter("reqs_total", "requests", labelnames=("model",)) \
        .labels(model="m").inc(3)
    registry.gauge("in_flight", "now running").set(2)
    h = registry.histogram("lat_seconds", "latency", labelnames=("model",))
    for v in (0.1, 0.5, 1.0, 2.0, 0.0):
        h.labels(model="m").observe(v)

    text = registry.prometheus_text()
    assert text.endswith("\n")
    types, samples = parse_prometheus(text)
    assert types == {"reqs_total": "counter", "in_flight": "gauge",
                     "lat_seconds": "histogram"}

    buckets = [(lbl, float(val)) for name, lbl, val in samples
               if name == "lat_seconds_bucket"]
    # Bucket counts are cumulative and end at +Inf == _count.
    counts = [v for _, v in buckets]
    assert counts == sorted(counts)
    assert buckets[-1][0]["le"] == "+Inf"
    assert buckets[-1][1] == 5
    count = [v for name, _, v in samples if name == "lat_seconds_count"]
    assert count == ["5"]
    total = [v for name, lbl, v in samples
             if name == "reqs_total" and lbl == {"model": "m"}]
    assert total == ["3"]


def test_label_values_are_escaped():
    registry = MetricsRegistry()
    registry.counter("c_total", labelnames=("m",)).labels(m='a"b\\c\nd').inc()
    text = registry.prometheus_text()
    assert 'm="a\\"b\\\\c\\nd"' in text


# -- exact shard merge ----------------------------------------------------------

def _shard(values):
    registry = MetricsRegistry()
    registry.counter("reqs_total", "r", labelnames=("model",))
    h = registry.histogram("lat_seconds", "l", labelnames=("model",))
    for model, v in values:
        registry.get("reqs_total").labels(model=model).inc()
        h.labels(model=model).observe(v)
    return registry


def test_merge_is_exact_across_shards():
    # Dyadic values: float sums are exact in any addition order, so the
    # mergeable guarantee (identical buckets/counts) extends to _sum too.
    shard_a = [("m", 0.125), ("m", 4.25), ("n", 0.75)]
    shard_b = [("m", 2.5), ("n", 7.5), ("n", 0.0625)]

    merged = _shard(shard_a)
    merged.merge(_shard(shard_b))
    single = _shard(shard_a + shard_b)

    # Bit-identical exposition: merging shard registries equals one registry
    # fed the union of samples.
    assert merged.prometheus_text() == single.prometheus_text()
    assert merged.to_dict() == single.to_dict()


def test_merge_rejects_layout_mismatch():
    a = MetricsRegistry()
    a.counter("x_total", labelnames=("m",))
    b = MetricsRegistry()
    b.gauge("x_total")
    with pytest.raises(ValueError):
        a.merge(b)


def test_registry_dict_round_trip_is_json_safe():
    registry = _shard([("m", 0.25), ("n", 1.5)])
    registry.gauge("g").set(3)
    payload = json.loads(json.dumps(registry.to_dict()))
    restored = MetricsRegistry.from_dict(payload)
    assert restored.prometheus_text() == registry.prometheus_text()
    # A restored shard keeps merging exactly.
    restored.merge(_shard([("m", 9.0)]))
    direct = _shard([("m", 0.25), ("n", 1.5), ("m", 9.0)])
    assert (restored.get("lat_seconds").labels(model="m").count
            == direct.get("lat_seconds").labels(model="m").count)
