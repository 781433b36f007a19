"""Gateway wiring for the observability layer.

Per ROADMAP conventions new gateway behavior lands as pipeline stages via
``GatewayConfig.middleware_factories``, never as edits to
``InferenceGatewayAPI``.  :func:`observability_middleware_factories` returns
the stock chain with an :class:`ObservabilityMiddleware` prepended: the
stage begins a :class:`~repro.obs.trace.TraceContext` for every request,
roots the span tree, stamps the request metadata so downstream layers
(relay → endpoint → engine) join the same trace, and records the gateway's
RED metrics (rate/errors/duration) into a mergeable
:class:`~repro.obs.registry.MetricsRegistry`.

The factory is a plain picklable dataclass so deployments configured with
it survive the sweep plane's spawn-based sharding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..gateway.pipeline import Middleware, default_middleware_factories
from .kernel import KernelProfiler
from .registry import MetricsRegistry
from .trace import TRACE_KEY, Tracer, TracerConfig

__all__ = [
    "ObservabilityConfig",
    "ObservabilityLayer",
    "ObservabilityMiddleware",
    "ObservabilityMiddlewareFactory",
    "observability_middleware_factories",
]


@dataclass
class ObservabilityConfig:
    """Deployment-level observability knobs (picklable)."""

    #: Master switch — False builds the stage but records nothing.
    enabled: bool = True
    #: Head-sampling probability for trace retention (see TracerConfig).
    sample_rate: float = 1.0
    #: Always-retained top-K-slowest reservoir size.
    slowest_k: int = 8
    #: FIFO bound on head-sampled retained traces.
    max_traces: int = 256
    #: Per-trace span cap.
    max_spans_per_trace: int = 512
    #: Seed of the deterministic hash-based head-sampling decision.
    seed: int = 0
    #: Relative error of the registry's log-bucket histograms.
    rel_err: float = 0.01
    #: Attach a KernelProfiler to the deployment's Environment.
    profile_kernel: bool = False


class ObservabilityLayer:
    """Tracer + metrics registry + (optional) kernel profiler for one gateway."""

    def __init__(self, env, config: Optional[ObservabilityConfig] = None,
                 rng=None):
        self.env = env
        self.config = config or ObservabilityConfig()
        self.tracer = Tracer(
            env,
            TracerConfig(
                sample_rate=self.config.sample_rate,
                slowest_k=self.config.slowest_k,
                max_traces=self.config.max_traces,
                max_spans_per_trace=self.config.max_spans_per_trace,
            ),
            rng=rng,
            seed=self.config.seed,
        )
        self.registry = MetricsRegistry()
        rel_err = self.config.rel_err
        self.requests_total = self.registry.counter(
            "gateway_requests_total", "Requests finished by the gateway",
            labelnames=("model", "outcome"))
        self.request_latency = self.registry.histogram(
            "gateway_request_latency_seconds",
            "End-to-end simulated request latency", labelnames=("model",),
            rel_err=rel_err)
        self.ttft = self.registry.histogram(
            "gateway_ttft_seconds",
            "Gateway-observed time to first streamed token",
            labelnames=("model",), rel_err=rel_err)
        self.tokens_total = self.registry.counter(
            "gateway_tokens_total", "Tokens through the gateway",
            labelnames=("model", "kind"))
        self.in_flight = self.registry.gauge(
            "gateway_in_flight_requests", "Requests currently in the pipeline")
        self.kernel_profiler: Optional[KernelProfiler] = None
        if self.config.profile_kernel:
            self.kernel_profiler = KernelProfiler()
            env.attach_profiler(self.kernel_profiler)

    # -- exposition ---------------------------------------------------------
    def metrics_text(self) -> str:
        """Prometheus text exposition of the registry."""
        return self.registry.prometheus_text()

    def trace(self, trace_id: str) -> Optional[dict]:
        ctx = self.tracer.get(trace_id)
        return ctx.to_dict() if ctx is not None else None

    def trace_perfetto(self, trace_id: str) -> Optional[dict]:
        ctx = self.tracer.get(trace_id)
        if ctx is None:
            return None
        from .export import to_chrome_trace

        return to_chrome_trace(ctx)

    def summary(self) -> dict:
        """JSON-serializable snapshot for the gateway dashboard."""
        out = {"tracing": self.tracer.stats(),
               "slowest": [{"trace_id": tid, "duration_s": dur}
                           for dur, tid in self.tracer.slowest()]}
        if self.kernel_profiler is not None:
            out["kernel"] = self.kernel_profiler.snapshot()
        return out


class ObservabilityMiddleware(Middleware):
    """First pipeline stage: root the trace, record RED metrics on unwind."""

    name = "observability"

    def __init__(self, api, layer: ObservabilityLayer):
        super().__init__(api)
        self.layer = layer

    def process(self, ctx, call_next):
        layer = self.layer
        if not layer.config.enabled:
            return call_next(ctx)
        tctx = layer.tracer.begin(ctx.request.request_id)
        if not tctx.recording:
            # The trace has no path to retention: record metrics only, keep
            # the span machinery (and the downstream layers) untouched.
            return self._metrics_only(ctx, call_next, tctx)
        return self._traced(ctx, call_next, tctx)

    def _traced(self, ctx, call_next, tctx):
        layer = self.layer
        request = ctx.request
        ctx.trace_context = tctx
        # The trace rides the request's own metadata downstream (relay →
        # endpoint → engine), the same way the stream channel travels.
        request.metadata[TRACE_KEY] = tctx
        root = tctx.start_span(
            "gateway.request", layer="gateway",
            attrs={"model": request.model, "kind": request.kind.value,
                   "stream": ctx.streaming})
        tctx.current = root
        layer.in_flight.inc()
        outcome = "exception"
        try:
            yield from call_next(ctx)
            outcome = self._record_result(ctx)
        except Exception as exc:
            root.status = f"error:{type(exc).__name__}"
            raise
        finally:
            self._record_finish(ctx, outcome)
            root.attrs["outcome"] = outcome
            tctx.end_span(root)
            tctx.current = None
            # Drop our metadata entry if the request never reached the
            # engine (which pops it from result metadata itself).
            request.metadata.pop(TRACE_KEY, None)
            layer.tracer.finish(tctx)

    def _metrics_only(self, ctx, call_next, tctx):
        """The unretained-trace fast path: RED metrics, no spans."""
        self.layer.in_flight.inc()
        outcome = "exception"
        try:
            yield from call_next(ctx)
            outcome = self._record_result(ctx)
        finally:
            self._record_finish(ctx, outcome)
        self.layer.tracer.finish(tctx)

    def _record_result(self, ctx) -> str:
        """Classify the finished pipeline run; counts tokens on success."""
        layer = self.layer
        result = ctx.result
        if result is None or not result.success:
            return "failure"
        model = ctx.model_name or ctx.request.model
        layer.tokens_total.labels(model=model,
                                  kind="prompt").inc(result.prompt_tokens)
        layer.tokens_total.labels(model=model,
                                  kind="output").inc(result.output_tokens)
        return "cache_hit" if ctx.cache_hit else "success"

    def _record_finish(self, ctx, outcome: str) -> None:
        layer = self.layer
        model = ctx.model_name or ctx.request.model
        layer.in_flight.dec()
        layer.requests_total.labels(model=model, outcome=outcome).inc()
        layer.request_latency.labels(model=model).observe(
            layer.env.now - ctx.started_at)
        if ctx.gateway_token_times:
            layer.ttft.labels(model=model).observe(
                ctx.gateway_token_times[0] - ctx.started_at)


@dataclass
class ObservabilityMiddlewareFactory:
    """Picklable factory: builds the layer once and publishes it on the api.

    The gateway application exposes the layer as ``api.observability`` so
    the ``GET /v1/metrics`` and ``GET /v1/traces/{id}`` endpoints (and the
    dashboard) can reach it.
    """

    config: ObservabilityConfig = field(default_factory=ObservabilityConfig)

    def __call__(self, api) -> ObservabilityMiddleware:
        layer = ObservabilityLayer(api.env, self.config)
        api.observability = layer
        return ObservabilityMiddleware(api, layer)


def observability_middleware_factories(
    config: Optional[ObservabilityConfig] = None,
) -> List:
    """The stock gateway chain with the observability stage prepended."""
    return [ObservabilityMiddlewareFactory(config or ObservabilityConfig()),
            *default_middleware_factories()]
