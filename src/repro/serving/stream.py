"""Stream-event channel for end-to-end token streaming.

When a request arrives with ``stream=True`` the gateway opens a
:class:`StreamChannel` and threads it through the compute layer down to the
engine (gateway → ComputeClient payload → relay → endpoint → engine).  The
continuous-batching engine publishes one :class:`StreamEvent` per generated
token — using the *same* iteration timing the performance model produces for
non-streaming requests — so TTFT and inter-token latency become observable
outside the serving engine for the first time.

The channel is a single-producer/single-consumer queue in simulated time.
``delivery_latency_s`` models the per-chunk network hop (the SSE frame
travelling engine → relay → gateway): every published item becomes visible
to the consumer that many simulated seconds later, preserving FIFO order,
at the cost of one kernel timer per publish (its callback hands items on).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Optional

from ..sim import Environment, Event

__all__ = ["STREAM_CHANNEL_KEY", "StreamEvent", "StreamChannel"]

#: Key under which a :class:`StreamChannel` rides in ``InferenceRequest.metadata``
#: (and in the FaaS task payload) on its way to the engine.
STREAM_CHANNEL_KEY = "stream_channel"


@dataclass
class StreamEvent:
    """One server-sent event of a streaming response.

    ``kind`` is one of ``"token"`` (a generated token), ``"done"`` (the
    response is complete; ``result``/``finish_reason`` are set) or
    ``"error"`` (the request failed before completing; ``error`` holds the
    typed envelope and ``exception`` the original exception).
    """

    kind: str
    index: int = 0
    #: Simulation time the event was *produced* (engine side for tokens).
    time: float = 0.0
    text: str = ""
    finish_reason: Optional[str] = None
    result: Any = None
    error: Optional[dict] = None
    exception: Optional[BaseException] = None
    metadata: dict = field(default_factory=dict)


class StreamChannel:
    """FIFO channel of :class:`StreamEvent` items in simulated time.

    Producers call :meth:`publish` / :meth:`close`.  The one consumer either
    yields :meth:`get` (the next item, or ``None`` once closed and drained)
    or :meth:`subscribe`\\ s a sink, called with each item at delivery and
    with ``None`` at close, at no kernel event of its own.  The close drops
    the sink: relay-held channels must not pin the consumer's state.
    """

    __slots__ = ("env", "delivery_latency_s", "_items", "_waiters", "_sink",
                 "_close_requested", "_closed", "_consumed")

    def __init__(self, env: Environment, delivery_latency_s: float = 0.0):
        self.env = env
        self.delivery_latency_s = delivery_latency_s
        self._items: Deque[Any] = deque()
        self._waiters: Deque[Event] = deque()
        self._sink: Optional[Callable[[Any], None]] = None
        self._close_requested = False
        self._closed = False
        self._consumed = False

    # -- producer side -----------------------------------------------------
    def publish(self, item: Any) -> None:
        """Make ``item`` available to the consumer after the delivery latency."""
        if self.delivery_latency_s > 0:
            self.env.timeout(self.delivery_latency_s, item).callbacks.append(self._deliver)
        else:
            self._push(item)

    def publish_bulk(self, items: list) -> None:
        """Publish several events as one batch.

        The engine uses this under macro-stepping when no live consumer is
        attached (see :attr:`live`): instead of one channel round-trip per
        token, a whole window's events arrive together.  Each event still
        carries its own production ``time``, so TTFT/ITL math downstream is
        unchanged.  With a delivery latency the batch rides a single
        delayed-delivery hop (items become visible ``delivery_latency_s``
        after the *publish*, not after their production times — only
        possible when nobody was consuming live).
        """
        if self.delivery_latency_s > 0:
            self.env.timeout(self.delivery_latency_s, items).callbacks.append(self._deliver_bulk)
        else:
            for item in items:
                self._push(item)

    def close(self) -> None:
        """Close the channel; pending ``get``\\ s resolve to ``None``.

        The close travels through the same delayed-delivery path as items so
        it can never overtake an in-flight event.  Repeated calls are no-ops.
        """
        if self._close_requested:
            return
        self._close_requested = True
        if self.delivery_latency_s > 0:
            self.env.timeout(self.delivery_latency_s).callbacks.append(self._close_now)
        else:
            self._close_now()

    def _deliver(self, timer: Event) -> None:
        self._push(timer.value)

    def _deliver_bulk(self, timer: Event) -> None:
        for item in timer.value:
            self._push(item)

    def _push(self, item: Any) -> None:
        if self._closed:
            return
        if self._sink is not None:
            self._sink(item)
        elif self._waiters:
            self._waiters.popleft().succeed(item)
        else:
            self._items.append(item)

    def _close_now(self, _timer: Optional[Event] = None) -> None:
        if self._closed:
            return
        self._closed = True
        sink, self._sink = self._sink, None
        if sink is not None:
            sink(None)
        while self._waiters:
            self._waiters.popleft().succeed(None)

    # -- consumer side -----------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def pending(self) -> int:
        return len(self._items)

    @property
    def live(self) -> bool:
        """True once a consumer has subscribed or ever called :meth:`get`.

        A live channel's consumer observes per-token timing, so the engine
        keeps emitting one kernel event per iteration for it; channels that
        nobody is reading (yet) may receive their events in window-sized
        batches instead.
        """
        return self._consumed

    def subscribe(self, sink: Callable[[Any], None]) -> None:
        """Attach ``sink`` as the push consumer of a fresh channel.

        Raises ``RuntimeError`` once a consumer is attached or anything arrived.
        """
        if self._consumed or self._items or self._closed:
            raise RuntimeError("subscribe() needs a StreamChannel nothing was delivered to")
        self._consumed = True
        self._sink = sink

    def get(self) -> Event:
        """Event resolving to the next item, or ``None`` when closed and empty."""
        self._consumed = True
        event = self.env.event()
        if self._items:
            event.succeed(self._items.popleft())
        elif self._closed:
            event.succeed(None)
        else:
            self._waiters.append(event)
        return event
