"""Model of the OpenAI-compatible API server fronting an engine.

The paper attributes the FIRST-vs-Direct crossover (Fig. 3) to the vLLM API
server's limited request-handling capacity under many concurrent
connections ("vLLM's API server historically being single-threaded", §4.4,
§5.3.1).  This module models that front-end explicitly:

* requests are handled by a small pool of server threads (1 by default —
  the historical single-threaded server);
* the per-request handling cost grows with the number of concurrently open
  connections (event-loop and serialization overhead), so hammering the
  server with 1000 simultaneous connections degrades it sharply, while a
  bounded admission (as enforced by a FIRST endpoint's ``max_parallel_tasks``)
  keeps it healthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim import Environment, Event, Resource
from .engine import ContinuousBatchingEngine
from .request import InferenceRequest

__all__ = ["APIServerConfig", "APIServerStats", "APIServer"]


@dataclass
class APIServerConfig:
    """Front-end behaviour.

    ``base_handling_s`` is the per-request CPU cost with few open
    connections (the single-threaded server tops out around 12 req/s even
    when idle); the cost additionally scales by ``(1 + open_connections /
    degradation_connections)``, calibrated so ~1000 concurrent open
    connections push the server down to roughly 4-6 req/s as in the paper's
    Direct-infinite measurement.
    """

    threads: int = 1
    base_handling_s: float = 0.08
    degradation_connections: float = 400.0
    #: Maximum simultaneously open connections (0 = unlimited). Requests
    #: beyond the limit wait to connect.
    max_connections: int = 0


@dataclass
class APIServerStats:
    handled: int = 0
    rejected: int = 0
    peak_open_connections: int = 0
    handling_time_s: float = 0.0


class APIServer:
    """Front-end that forwards requests to a :class:`ContinuousBatchingEngine`."""

    def __init__(
        self,
        env: Environment,
        engine: ContinuousBatchingEngine,
        config: Optional[APIServerConfig] = None,
    ):
        self.env = env
        self.engine = engine
        self.config = config or APIServerConfig()
        self.stats = APIServerStats()
        self._threads = Resource(env, capacity=max(1, self.config.threads))
        self._open_connections = 0

    # -- queries -----------------------------------------------------------
    @property
    def open_connections(self) -> int:
        return self._open_connections

    def handling_cost_s(self) -> float:
        """Current per-request front-end cost given open connections."""
        cfg = self.config
        return cfg.base_handling_s * (
            1.0 + self._open_connections / cfg.degradation_connections
        )

    # -- request path --------------------------------------------------------
    def submit(self, request: InferenceRequest) -> Event:
        """Open a connection and process ``request``; returns a result event."""
        done = self.env.event()
        self.env.process(self._handle(request, done))
        return done

    def handle(self, request: InferenceRequest):
        """Simulation process form: ``result = yield from server.handle(req)``."""
        result = yield self.submit(request)
        return result

    def _handle(self, request: InferenceRequest, done: Event):
        self._open_connections += 1
        self.stats.peak_open_connections = max(
            self.stats.peak_open_connections, self._open_connections
        )
        try:
            # Ingress: parse/validate/tokenize on a server thread.
            with self._threads.request() as req:
                yield req
                cost = self.handling_cost_s() / 2.0
                self.stats.handling_time_s += cost
                yield self.env.timeout(cost)

            result = yield self.engine.submit(request)

            # Egress: serialize the response on a server thread.
            with self._threads.request() as req:
                yield req
                cost = self.handling_cost_s() / 2.0
                self.stats.handling_time_s += cost
                yield self.env.timeout(cost)

            self.stats.handled += 1
            done.succeed(result)
        finally:
            self._open_connections -= 1
