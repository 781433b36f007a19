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
to the consumer that many simulated seconds later, preserving FIFO order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Optional

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

    Producers call :meth:`publish` / :meth:`close`; the consumer repeatedly
    yields :meth:`get`, which resolves to the next item or ``None`` once the
    channel is closed and drained.  Both sides are simulation-safe: a
    pending consumer is woken as soon as an item is delivered.
    """

    def __init__(self, env: Environment, delivery_latency_s: float = 0.0):
        self.env = env
        self.delivery_latency_s = delivery_latency_s
        self._items: Deque[Any] = deque()
        self._waiters: Deque[Event] = deque()
        self._closed = False
        self._consumed = False
        self.published = 0
        self.delivered = 0

    # -- producer side -----------------------------------------------------
    def publish(self, item: Any) -> None:
        """Make ``item`` available to the consumer after the delivery latency."""
        self.published += 1
        if self.delivery_latency_s > 0:
            self.env.process(self._deliver_later(item, close=False))
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
        self.published += len(items)
        if self.delivery_latency_s > 0:
            self.env.process(self._deliver_bulk_later(items))
        else:
            for item in items:
                self._push(item)

    def close(self) -> None:
        """Close the channel (idempotent); pending ``get``\\ s resolve to ``None``.

        The close travels through the same delayed-delivery path as items so
        it can never overtake an in-flight event.
        """
        if self.delivery_latency_s > 0:
            self.env.process(self._deliver_later(None, close=True))
        else:
            self._close_now()

    def _deliver_later(self, item: Any, close: bool):
        yield self.env.timeout(self.delivery_latency_s)
        if close:
            self._close_now()
        else:
            self._push(item)

    def _deliver_bulk_later(self, items: list):
        yield self.env.timeout(self.delivery_latency_s)
        for item in items:
            self._push(item)

    def _push(self, item: Any) -> None:
        if self._closed:
            return
        if self._waiters:
            self.delivered += 1
            self._waiters.popleft().succeed(item)
        else:
            self._items.append(item)

    def _close_now(self) -> None:
        if self._closed:
            return
        self._closed = True
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
        """True once a consumer has ever called :meth:`get`.

        A live channel's consumer observes per-token timing, so the engine
        keeps emitting one kernel event per iteration for it; channels that
        nobody is reading (yet) may receive their events in window-sized
        batches instead.
        """
        return self._consumed

    def get(self) -> Event:
        """Event resolving to the next item, or ``None`` when closed and empty."""
        self._consumed = True
        event = self.env.event()
        if self._items:
            self.delivered += 1
            event.succeed(self._items.popleft())
        elif self._closed:
            event.succeed(None)
        else:
            self._waiters.append(event)
        return event
