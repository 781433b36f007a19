"""The cloud-hosted FaaS relay (the Globus Compute web service).

The relay is the communication layer between the Inference Gateway and the
HPC endpoints (§3.2): it validates that the invoked function is
pre-registered, that the caller is an authorised confidential client,
dispatches the task to the requested endpoint, and relays the result back.

Two timing behaviours matter for the paper's evaluation:

* fixed per-hop network latencies (submit, dispatch, result) — these add the
  constant overhead visible at low request rates in Fig. 3;
* a *routing scalability* limit on the result-forwarding path — the paper
  attributes the sub-linear auto-scaling in Fig. 4 to "the ability of Globus
  Compute to scale and route requests to the multiple instances".  The relay
  therefore serialises result forwarding through a channel whose service
  rate follows ``R(N) = R_max * N / (N + N_half)`` where ``N`` is the number
  of active model instances; the constants are fitted to Fig. 4 (see
  ``repro.core.calibration``).

A submission may name a *list* of candidate endpoints instead of one; the
relay then dispatches queue-depth-aware: endpoints with ready instances are
preferred, ties broken by the shortest kernel-queue backlog
(:meth:`~repro.faas.endpoint.ComputeEndpoint.kernel_backlog`), and finally
by candidate order, keeping selection deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from ..common import AuthorizationError, CapacityError, IdGenerator, NotFoundError, sim_logger
from ..obs.trace import TRACE_KEY
from ..sim import Environment, Resource
from .functions import FunctionRegistry
from .task import TaskFuture, TaskRecord, TaskStatus

__all__ = ["RelayConfig", "RelayStats", "RelayService"]


@dataclass
class RelayConfig:
    """Timing and capacity parameters of the cloud relay."""

    #: Client SDK → cloud service (accept + persist) latency.
    submit_latency_s: float = 0.6
    #: Cloud service → endpoint dispatch latency (includes the endpoint's
    #: task-queue pickup).
    dispatch_latency_s: float = 1.2
    #: Endpoint → cloud → client result delivery latency.
    result_latency_s: float = 1.0
    #: Routing-scalability ceiling (tasks/s) as the instance count grows.
    routing_rate_max: float = 66.0
    #: Instance count at which the routing rate reaches half its ceiling.
    routing_half_instances: float = 7.0
    #: Maximum tasks the cloud service will hold (the paper observed >8000
    #: tasks queued without issue).
    max_queued_tasks: int = 200000


@dataclass
class RelayStats:
    """Lifetime task counters of one relay.

    ``submitted == completed + failed + queued`` holds at all times, where
    ``queued`` is :attr:`RelayService.queued_tasks`: a record is counted as
    submitted when it is created and as completed or failed at its single
    terminal transition.  ``rejected`` submissions never create a record.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    peak_queued: int = 0


class RelayService:
    """Cloud relay connecting clients (the gateway) to compute endpoints."""

    def __init__(
        self,
        env: Environment,
        config: Optional[RelayConfig] = None,
        ids: Optional[IdGenerator] = None,
        authorized_client_ids: Optional[List[str]] = None,
    ):
        self.env = env
        self.config = config or RelayConfig()
        self.functions = FunctionRegistry()
        self.stats = RelayStats()
        self._ids = ids or IdGenerator()
        self._endpoints: Dict[str, Any] = {}
        self._tasks: Dict[str, TaskRecord] = {}
        self._futures: Dict[str, TaskFuture] = {}
        self._result_channel = Resource(env, capacity=1)
        #: Tasks routed to an endpoint but not yet handed to it (still inside
        #: the submit/dispatch latencies).  The endpoint cannot see these, so
        #: the queue-depth dispatcher adds them to its reported backlog —
        #: otherwise a same-instant burst would all pick the same endpoint.
        self._open_dispatches: Dict[str, int] = {}
        #: Confidential client ids allowed to submit (None = open, used in tests).
        self.authorized_client_ids = set(authorized_client_ids or [])
        self._log = sim_logger("repro.faas.relay", env)

    # -- registration -----------------------------------------------------------
    def register_endpoint(self, endpoint) -> None:
        """Attach a :class:`~repro.faas.endpoint.ComputeEndpoint` to the relay."""
        if endpoint.endpoint_id in self._endpoints:
            raise ValueError(f"Endpoint {endpoint.endpoint_id} already registered")
        self._endpoints[endpoint.endpoint_id] = endpoint

    def get_endpoint(self, endpoint_id: str):
        try:
            return self._endpoints[endpoint_id]
        except KeyError:
            raise NotFoundError(f"Unknown endpoint id: {endpoint_id}") from None

    @property
    def endpoint_ids(self) -> List[str]:
        return sorted(self._endpoints)

    def authorize_client(self, client_id: str) -> None:
        self.authorized_client_ids.add(client_id)

    # -- routing scalability ---------------------------------------------------------
    def active_instance_count(self) -> int:
        """Number of ready model instances across all registered endpoints."""
        return sum(ep.ready_instance_count() for ep in self._endpoints.values())

    def result_service_time_s(self) -> float:
        """Per-result forwarding time on the shared routing channel."""
        n = max(1, self.active_instance_count())
        cfg = self.config
        rate = cfg.routing_rate_max * n / (n + cfg.routing_half_instances)
        return 1.0 / rate

    # -- task submission --------------------------------------------------------------
    @property
    def queued_tasks(self) -> int:
        """Tasks accepted by the cloud service that have not yet completed.

        Derived from the counters, O(1) per call: the identity
        ``stats.submitted == stats.completed + stats.failed + queued_tasks``
        holds at all times (see :class:`RelayStats`).
        """
        stats = self.stats
        return stats.submitted - stats.completed - stats.failed

    def select_endpoint(
        self,
        endpoint_id: Union[str, Sequence[str]],
        model: Optional[str] = None,
    ):
        """Resolve a submission target to one endpoint.

        A single id resolves directly.  A sequence of candidate ids is
        dispatched queue-depth-aware with a deterministic key: endpoints
        with at least one ready instance first, then the shortest kernel
        backlog (for ``model`` when given), then candidate order.
        """
        if isinstance(endpoint_id, str):
            return self.get_endpoint(endpoint_id)
        candidates = [self.get_endpoint(eid) for eid in endpoint_id]
        if not candidates:
            raise NotFoundError("Submission named no candidate endpoints")
        if len(candidates) == 1:
            return candidates[0]

        def dispatch_key(index: int):
            endpoint = candidates[index]
            backlog = endpoint.kernel_backlog(model)
            backlog += self._open_dispatches.get(endpoint.endpoint_id, 0)
            return (
                0 if endpoint.ready_instance_count() > 0 else 1,
                backlog,
                index,
            )

        return candidates[min(range(len(candidates)), key=dispatch_key)]

    @staticmethod
    def _payload_model(payload: Dict[str, Any]) -> Optional[str]:
        """Model name a task is for, when the payload reveals one."""
        request = payload.get("request")
        model = getattr(request, "model", None)
        return model if model is not None else payload.get("model")

    @staticmethod
    def _payload_trace(payload: Dict[str, Any]):
        """TraceContext riding the payload's request, when tracing is on."""
        metadata = getattr(payload.get("request"), "metadata", None)
        return metadata.get(TRACE_KEY) if metadata else None

    def submit(
        self,
        function_id: str,
        endpoint_id: Union[str, Sequence[str]],
        payload: Dict[str, Any],
        submitter: str = "",
        client_id: Optional[str] = None,
    ) -> TaskFuture:
        """Submit a task; returns a :class:`TaskFuture` immediately.

        ``endpoint_id`` may be one endpoint id or a sequence of candidates;
        see :meth:`select_endpoint` for how a candidate list is dispatched.
        """
        if self.authorized_client_ids and client_id not in self.authorized_client_ids:
            self.stats.rejected += 1
            self._log.warning("relay rejected submission: unauthorised client",
                              client_id=client_id, submitter=submitter)
            raise AuthorizationError(
                "Caller is not an authorised confidential client of the relay"
            )
        function = self.functions.require_registered(function_id)
        endpoint = self.select_endpoint(endpoint_id, model=self._payload_model(payload))
        if self.queued_tasks >= self.config.max_queued_tasks:
            self.stats.rejected += 1
            self._log.warning("relay rejected submission: task queue full",
                              queued=self.queued_tasks,
                              limit=self.config.max_queued_tasks)
            raise CapacityError("Relay task queue is full")

        record = TaskRecord(
            task_id=self._ids.next("task"),
            function_id=function_id,
            endpoint_id=endpoint.endpoint_id,
            payload=payload,
            submitter=submitter,
            submit_time=self.env.now,
        )
        future = TaskFuture(self.env, record)
        self._tasks[record.task_id] = record
        self._futures[record.task_id] = future
        self.stats.submitted += 1
        self.stats.peak_queued = max(self.stats.peak_queued, self.queued_tasks)
        eid = endpoint.endpoint_id
        self._open_dispatches[eid] = self._open_dispatches.get(eid, 0) + 1
        # Anchor the relay's spans under the caller's active span (the
        # gateway's dispatch stage) — captured here, synchronously, while
        # the caller is still the running process.
        trace = self._payload_trace(payload)
        anchor = trace.current if trace is not None else None
        self.env.process(self._process_task(record, future, function, endpoint,
                                            trace=trace, anchor=anchor))
        return future

    def _process_task(self, record: TaskRecord, future: TaskFuture, function,
                      endpoint, trace=None, anchor=None):
        cfg = self.config
        span = None
        if trace is not None:
            span = trace.start_span("relay.transfer", parent=anchor,
                                    layer="relay",
                                    attrs={"task_id": record.task_id,
                                           "endpoint": record.endpoint_id})
        # Submit + dispatch as one timer, at the exact float sum two timeouts reach.
        yield self.env.timeout_at((self.env.now + cfg.submit_latency_s) + cfg.dispatch_latency_s)
        record.status = TaskStatus.DISPATCHED
        record.dispatch_time = self.env.now

        outcome_event = endpoint.enqueue(record, function)
        if span is not None:
            trace.end_span(span)
        # From here the endpoint's own backlog accounting covers the task.
        open_count = self._open_dispatches.get(record.endpoint_id, 0)
        if open_count <= 1:
            self._open_dispatches.pop(record.endpoint_id, None)
        else:
            self._open_dispatches[record.endpoint_id] = open_count - 1
        outcome = yield outcome_event

        # Result forwarding through the shared routing channel.
        result_span = None
        if trace is not None:
            result_span = trace.start_span("relay.result", parent=anchor,
                                           layer="relay",
                                           attrs={"task_id": record.task_id})
        with self._result_channel.request() as req:
            yield req
            yield self.env.timeout(self.result_service_time_s())
        yield self.env.timeout(cfg.result_latency_s)

        record.completion_time = self.env.now
        if outcome.get("success", False):
            record.status = TaskStatus.COMPLETED
            record.result = outcome.get("result")
            self.stats.completed += 1
            if result_span is not None:
                result_span.attrs["success"] = True
                trace.end_span(result_span)
            future.resolve(record.result)
        else:
            record.status = TaskStatus.FAILED
            record.error = outcome.get("error", "unknown error")
            self.stats.failed += 1
            self._log.warning("task failed at endpoint",
                              task_id=record.task_id,
                              endpoint=record.endpoint_id, error=record.error)
            if result_span is not None:
                result_span.attrs["success"] = False
                result_span.status = "error"
                trace.end_span(result_span)
            future.reject(record.error)

    # -- status / results (the polling path of Optimization 1) -------------------------
    def get_task(self, task_id: str) -> TaskRecord:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise NotFoundError(f"Unknown task id: {task_id}") from None

    def get_status(self, task_id: str) -> TaskStatus:
        return self.get_task(task_id).status

    def get_result(self, task_id: str) -> Any:
        record = self.get_task(task_id)
        if not record.status.terminal:
            raise RuntimeError(f"Task {task_id} has not completed yet")
        if record.status != TaskStatus.COMPLETED:
            raise RuntimeError(f"Task {task_id} failed: {record.error}")
        return record.result

    def get_future(self, task_id: str) -> TaskFuture:
        try:
            return self._futures[task_id]
        except KeyError:
            raise NotFoundError(f"Unknown task id: {task_id}") from None
