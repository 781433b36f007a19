"""Composable middleware pipeline — the Gateway API v2 request path.

The monolithic ``InferenceGatewayAPI._handle`` generator of API v1 is
decomposed into seven single-purpose stages composed by
:class:`GatewayPipeline`::

    request ──▶ Validation ─▶ Auth ─▶ RateLimit ─▶ ResponseCache
                    │                                   │ (hit: short-circuit)
                    ▼                                   ▼
               Accounting ─▶ Routing ─▶ Dispatch ──▶ result
                    ▲                       │
                    └── db/metrics ◀────────┘ (post-order unwinding)

Each stage is a :class:`Middleware` whose ``process(ctx, call_next)`` is a
simulation generator: it may read/write the :class:`RequestContext`, spend
simulated time, raise a typed error (mapped to an envelope at the edge), or
*not* call ``call_next`` to short-circuit the rest of the chain (response
cache hits).  Code after ``yield from call_next(ctx)`` runs while the chain
unwinds, which is how accounting observes the final result.  ``call_next``
returns the next stage's generator itself (span-wrapped only when traced), so
a request's wake-up crosses one generator frame per stage.

Deployments customise the chain without touching ``InferenceGatewayAPI``:
``GatewayConfig.middleware_factories`` holds a list of callables that take
the gateway application and return a middleware — start from
:func:`default_middleware_factories` and insert/replace/remove stages.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..faas import HANDLER_CHAT, HANDLER_EMBEDDING
from ..serving import RequestKind, StreamChannel
from .cache import ResponseCache
from .config import RetrievalMode, ServerMode
from .context import RequestContext
from .database import RequestLogEntry

__all__ = [
    "Middleware",
    "GatewayPipeline",
    "ValidationMiddleware",
    "AuthMiddleware",
    "RateLimitMiddleware",
    "ResponseCacheMiddleware",
    "AccountingMiddleware",
    "RoutingMiddleware",
    "DispatchMiddleware",
    "default_middleware_factories",
    "MiddlewareFactory",
]

#: A factory takes the gateway application and returns a middleware instance.
MiddlewareFactory = Callable[[object], "Middleware"]


class Middleware:
    """One stage of the gateway pipeline.

    Subclasses override :meth:`process`; the base implementation is a
    transparent pass-through.  ``call_next(ctx)`` returns the generator of
    the remaining chain — not calling it short-circuits the pipeline (the
    context must then carry a ``result``).
    """

    #: Stable stage name recorded in ``ctx.trace`` (observability/tests).
    name = "middleware"

    def __init__(self, api):
        self.api = api

    def process(self, ctx: RequestContext, call_next):
        yield from call_next(ctx)


class GatewayPipeline:
    """Runs a request context through an ordered middleware chain."""

    def __init__(self, middlewares: Sequence[Middleware]):
        self.middlewares: List[Middleware] = list(middlewares)

    def run(self, ctx: RequestContext):
        """The generator driving ``ctx`` through every stage (``yield from`` it)."""
        return self._call(0, ctx)

    def _call(self, index: int, ctx: RequestContext):
        """Stage ``index``'s own ``process`` generator, wrapped by :meth:`_spanned` if traced."""
        if index >= len(self.middlewares):
            return iter(())
        middleware = self.middlewares[index]
        ctx.trace.append(middleware.name)

        def call_next(c: RequestContext):
            return self._call(index + 1, c)

        stage = middleware.process(ctx, call_next)
        if ctx.trace_context is None:
            return stage
        return self._spanned(middleware.name, ctx.trace_context, stage)

    def _spanned(self, name: str, tctx, stage):
        # Span per stage.  Stages nest (each runs the rest of the chain from
        # inside its own process), so the previous stage's span is this one's
        # parent; `current` is restored on unwind so post-order code (cache
        # fill, accounting) is attributed to its own stage.
        prev = tctx.current
        span = tctx.start_span(f"gateway.stage.{name}", parent=prev, layer="gateway")
        tctx.current = span
        try:
            yield from stage
        except Exception as exc:
            span.status = f"error:{type(exc).__name__}"
            raise
        finally:
            tctx.end_span(span)
            tctx.current = prev

    def stage_names(self) -> List[str]:
        return [m.name for m in self.middlewares]


# --------------------------------------------------------------------------- stages
class ValidationMiddleware(Middleware):
    """Resolve the model against the catalog and pay the ingress CPU cost.

    In sync-legacy server mode this stage also acquires the worker slot that
    stays held for the whole request (Optimization 3's "only nine requests
    at a time" behaviour); the gateway releases it when the pipeline ends.
    """

    name = "validation"

    def process(self, ctx: RequestContext, call_next):
        api = self.api
        cfg = api.config
        ctx.model_name = api.validate_model(ctx.request.model)
        ctx.request.model = ctx.model_name
        if ctx.streaming and ctx.request.kind == RequestKind.EMBEDDING:
            from ..common import ValidationError

            raise ValidationError("stream=True is not supported for embeddings")
        if cfg.server_mode == ServerMode.SYNC_LEGACY:
            ctx.sync_slot = api.workers.request()
            yield ctx.sync_slot
        # Ingress CPU work (parse/validate/convert).
        if cfg.server_mode == ServerMode.ASYNC:
            yield from api.worker_slot(cfg.ingress_processing_s)
        else:
            yield api.env.timeout(cfg.ingress_processing_s)
        yield from call_next(ctx)


class AuthMiddleware(Middleware):
    """Token introspection (cached, single-flight) + per-model policy check."""

    name = "auth"

    def process(self, ctx: RequestContext, call_next):
        api = self.api
        info = yield from api.auth_layer.authenticate(ctx.access_token)
        api.auth_layer.authorize(info, f"model:{ctx.model_name}")
        ctx.token_info = info
        ctx.request.user = info.username
        yield from call_next(ctx)


class RateLimitMiddleware(Middleware):
    """Per-user sliding-window rate limiting."""

    name = "rate-limit"

    def process(self, ctx: RequestContext, call_next):
        api = self.api
        api.rate_limiter.check(ctx.request.user, api.env.now)
        yield from call_next(ctx)


class ResponseCacheMiddleware(Middleware):
    """Serve identical prompts from the response cache; fill it on the way out.

    A cache hit records its own metrics and returns without calling the rest
    of the chain, so accounting/routing/dispatch never run.  Streaming
    requests bypass the cache: their value is per-token timing, which a
    cached body cannot reproduce.
    """

    name = "response-cache"

    def process(self, ctx: RequestContext, call_next):
        api = self.api
        cache = api.response_cache
        request = ctx.request
        if (
            cache is not None
            and not ctx.streaming
            and request.kind != RequestKind.EMBEDDING
        ):
            ctx.cache_key = ResponseCache.key_for(
                ctx.model_name, request.prompt_text, request.max_output_tokens,
                request.params,
            )
            cached = cache.get(ctx.cache_key, api.env.now)
            if cached is not None:
                api.metrics.request_started(ctx.model_name, request.prompt_tokens)
                api.metrics.request_completed(ctx.model_name, cached.output_tokens, 0.0)
                ctx.cache_hit = True
                ctx.result = cached
                return
        yield from call_next(ctx)
        if ctx.cache_key is not None and ctx.result is not None and ctx.result.success:
            cache.put(ctx.cache_key, ctx.result, api.env.now)


class AccountingMiddleware(Middleware):
    """Metrics + request-log bookkeeping around the downstream stages."""

    name = "accounting"

    def process(self, ctx: RequestContext, call_next):
        api = self.api
        request = ctx.request
        api.metrics.request_started(ctx.model_name, request.prompt_tokens)
        entry = RequestLogEntry(
            request_id=request.request_id,
            user=request.user,
            model=ctx.model_name,
            endpoint="",
            kind=request.kind.value,
            submitted_at=api.env.now,
            prompt_tokens=request.prompt_tokens,
        )
        ctx.log_entry = entry
        if api.config.db_write_s > 0:
            yield api.env.timeout(api.config.db_write_s)
        api.db.log_request(entry)
        try:
            yield from call_next(ctx)
        except Exception as exc:
            # Downstream failure (routing/dispatch): settle the books so the
            # dashboard's in-flight gauge and per-model failure counts stay
            # truthful, then let the edge map the exception to an envelope.
            api.db.complete_request(entry, 0, api.env.now, status="failed",
                                    error=str(exc) or type(exc).__name__)
            api.metrics.request_failed(ctx.model_name)
            raise
        result = ctx.result
        latency = api.env.now - entry.submitted_at
        api.db.complete_request(
            entry, result.output_tokens, api.env.now,
            status="completed" if result.success else "failed",
            error=result.error,
        )
        if result.success:
            api.metrics.request_completed(
                ctx.model_name, result.output_tokens, latency,
                endpoint=ctx.endpoint.endpoint_id if ctx.endpoint else None,
            )
        else:
            api.metrics.request_failed(ctx.model_name)


class RoutingMiddleware(Middleware):
    """Pick a federated endpoint for the model (short-lived routing cache)."""

    name = "routing"

    def process(self, ctx: RequestContext, call_next):
        api = self.api
        endpoint = yield from api.route(ctx.model_name, tenant=ctx.request.user)
        ctx.endpoint = endpoint
        if ctx.log_entry is not None:
            ctx.log_entry.endpoint = endpoint.endpoint_id
        tctx = ctx.trace_context
        if tctx is not None and tctx.current is not None:
            tctx.current.attrs.update(
                endpoint=endpoint.endpoint_id,
                policy=type(api.router).__name__,
            )
        yield from call_next(ctx)


class DispatchMiddleware(Middleware):
    """Convert the request into a compute task and retrieve the result.

    For streaming requests an ingress :class:`~repro.serving.StreamChannel`
    travels with the task down to the engine; a :class:`_StreamForwarder`
    subscribed to it timestamps every token at the gateway (the gateway-
    observed TTFT/ITL) and relays the events to the caller's egress channel.
    """

    name = "dispatch"

    def process(self, ctx: RequestContext, call_next):
        api = self.api
        cfg = api.config
        request = ctx.request
        handler = (
            HANDLER_EMBEDDING if request.kind == RequestKind.EMBEDDING else HANDLER_CHAT
        )
        ingress = None
        forwarder = None
        if ctx.streaming:
            ingress = StreamChannel(api.env, delivery_latency_s=cfg.stream_chunk_latency_s)
            forwarder = _StreamForwarder(api.env, ctx)
            ingress.subscribe(forwarder)
        future = api.compute_client.submit(
            api.function_for(handler),
            ctx.endpoint.endpoint_id,
            {"request": request},
            submitter=request.user,
            stream_channel=ingress,
        )
        try:
            if cfg.retrieval_mode == RetrievalMode.FUTURES:
                result = yield from api.compute_client.wait_future(future)
            else:
                result = yield from api.compute_client.wait_polling(future)
        except BaseException:
            if ingress is not None:
                # The engine never completed (or never ran): close the
                # channel so the forwarder (and any egress consumer) cannot
                # hang on it.
                ingress.close()
            raise
        if forwarder is not None:
            # Wait for the engine's terminal event (or its close) to reach
            # the forwarder before touching the channel: even if the result
            # future somehow beat the per-chunk delivery latency, no
            # in-flight token events are dropped and the gateway-observed
            # timeline is complete.
            yield forwarder.finished
            ingress.close()

        # Egress CPU work (serialise the response).
        if cfg.server_mode == ServerMode.ASYNC:
            yield from api.worker_slot(cfg.egress_processing_s)
        else:
            yield api.env.timeout(cfg.egress_processing_s)

        if ctx.streaming:
            token_times = list(ctx.gateway_token_times)
            result.metadata["gateway_token_times"] = token_times
            if token_times:
                result.metadata["gateway_first_token_time"] = token_times[0]
                # Feed the metrics layer's rolling TTFT/ITL windows — the
                # autoscaling control plane samples these medians.
                api.metrics.record_stream_timing(
                    ctx.model_name,
                    token_times[0] - ctx.started_at,
                    [b - a for a, b in zip(token_times, token_times[1:])],
                    endpoint=ctx.endpoint.endpoint_id if ctx.endpoint else None,
                )
        ctx.result = result
        yield from call_next(ctx)


class _StreamForwarder:
    """Push consumer of the ingress channel: timestamps each token at the
    gateway, relays it to the caller's egress channel, and succeeds
    :attr:`finished` on the engine's ``done`` event or the channel's close."""

    def __init__(self, env, ctx: RequestContext):
        self.env = env
        self.ctx = ctx
        self.finished = env.event()
        tctx = ctx.trace_context
        self._anchor = tctx.current if tctx is not None else None
        self._span = None

    def __call__(self, event) -> None:
        ctx = self.ctx
        if event is not None and event.kind == "token":
            ctx.gateway_token_times.append(self.env.now)
            if ctx.trace_context is not None and self._span is None:
                self._span = ctx.trace_context.start_span(
                    "gateway.stream_delivery", parent=self._anchor, layer="gateway")
            if ctx.egress is not None:
                ctx.egress.deliver(event)
        elif (event is None or event.kind == "done") and not self.finished.triggered:
            # The terminal chunk for the caller is emitted by the gateway
            # once the authoritative result arrives via the future path.
            if self._span is not None:
                self._span.attrs["tokens"] = len(ctx.gateway_token_times)
                ctx.trace_context.end_span(self._span)
            self.finished.succeed()


def default_middleware_factories() -> List[MiddlewareFactory]:
    """The stock API v2 chain, in order.  Mutate a copy to customise."""
    return [
        ValidationMiddleware,
        AuthMiddleware,
        RateLimitMiddleware,
        ResponseCacheMiddleware,
        AccountingMiddleware,
        RoutingMiddleware,
        DispatchMiddleware,
    ]
