"""Shared-resource primitives: resources, priority resources and containers.

These model contended capacities in the FIRST reproduction: GPU slots on a
node, gateway worker threads, the single-threaded vLLM API front-end, relay
dispatch channels, and so on.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Deque, List

from .events import Event

__all__ = [
    "Request",
    "Release",
    "Resource",
    "PriorityRequest",
    "PriorityResource",
    "Container",
    "ContainerPut",
    "ContainerGet",
]


class Request(Event):
    """Request for one unit of a :class:`Resource` (usable as a context manager)."""

    def __init__(self, resource: "Resource"):
        super().__init__(resource._env)
        self.resource = resource
        self.proc = resource._env.active_process
        self.time_requested = resource._env.now
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot (or withdraw the pending request)."""
        self.resource.release(self)


class Release(Event):
    """A slot release: immediate and never awaited, so it is created processed and never queued."""

    def __init__(self, resource: "Resource", request: Request):
        super().__init__(resource._env)
        self.resource = resource
        self.request = request
        self._value = self.callbacks = None


class Resource:
    """A resource with a fixed integer ``capacity`` and a FIFO wait queue.

    The wait queue is a deque: granting the next waiter is O(1), while
    withdrawing a pending request (cancellation) remains an O(n) removal
    with unchanged semantics.
    """

    def __init__(self, env, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self._env = env
        self._capacity = int(capacity)
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def env(self):
        return self._env

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self.queue)

    # -- public API ------------------------------------------------------
    def request(self) -> Request:
        """Request a slot.  Yields when a slot is granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Release a previously granted slot (or withdraw a pending request)."""
        if request in self.users:
            self.users.remove(request)
            self._trigger_waiters()
        elif request in self.queue:
            self.queue.remove(request)
        return Release(self, request)

    def resize(self, capacity: int) -> None:
        """Change the capacity (used for auto-scaling models)."""
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self._capacity = int(capacity)
        self._trigger_waiters()

    # -- internals -------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)

    def _trigger_waiters(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            request = self.queue.popleft()
            self.users.append(request)
            request.succeed()


class PriorityRequest(Request):
    """Request with a priority (lower value = more important) and FIFO tie-break."""

    def __init__(self, resource: "PriorityResource", priority: int = 0):
        self.priority = priority
        self.key = (priority, resource._env.now, next(resource._ticket))
        super().__init__(resource)


class PriorityResource(Resource):
    """Resource whose wait queue is ordered by request priority.

    The queue is a list kept sorted by insertion (``bisect.insort``), which
    replaces the seed's full re-sort on every request and wake-up.
    """

    def __init__(self, env, capacity: int = 1):
        super().__init__(env, capacity)
        from itertools import count as _count

        self._ticket = _count()
        self.queue: List[Request] = []

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        return PriorityRequest(self, priority)

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self.users.append(request)
            request.succeed()
        else:
            insort(self.queue, request, key=lambda r: r.key)  # type: ignore[attr-defined]

    def _trigger_waiters(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            request = self.queue.pop(0)
            self.users.append(request)
            request.succeed()


class ContainerPut(Event):
    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError("amount must be > 0")
        super().__init__(container._env)
        self.amount = amount
        container._put_queue.append(self)
        container._trigger()


class ContainerGet(Event):
    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError("amount must be > 0")
        super().__init__(container._env)
        self.amount = amount
        container._get_queue.append(self)
        container._trigger()


class Container:
    """A continuous-quantity resource (e.g. GPU memory in GB, queue depth)."""

    def __init__(self, env, capacity: float = float("inf"), init: float = 0.0):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        if init < 0 or init > capacity:
            raise ValueError("init must be within [0, capacity]")
        self._env = env
        self._capacity = capacity
        self._level = init
        self._put_queue: Deque[ContainerPut] = deque()
        self._get_queue: Deque[ContainerGet] = deque()

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerPut:
        """Put ``amount`` into the container (waits if it would overflow)."""
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        """Take ``amount`` from the container (waits until available)."""
        return ContainerGet(self, amount)

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_queue:
                put = self._put_queue[0]
                if self._level + put.amount <= self._capacity:
                    self._put_queue.popleft()
                    self._level += put.amount
                    put.succeed()
                    progressed = True
            if self._get_queue:
                get = self._get_queue[0]
                if self._level >= get.amount:
                    self._get_queue.popleft()
                    self._level -= get.amount
                    get.succeed()
                    progressed = True
