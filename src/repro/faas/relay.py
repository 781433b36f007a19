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

__all__ = ["RelayConfig", "RelayStats", "RelayService", "RelayBoundaryProxy"]


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


class RelayBoundaryProxy:
    """Stand-in for a :class:`~repro.faas.endpoint.ComputeEndpoint` whose
    cluster runs in another partition (see :mod:`repro.parallel`).

    The proxy registers with the relay like a real endpoint and answers the
    queue-depth dispatcher's load questions from the cluster's last barrier
    snapshot (a :class:`~repro.placement.PoolSignal` held by the shared
    :class:`~repro.placement.TopologyView`), topped up with the boundary
    dispatches the snapshot cannot have seen yet.  Tasks routed to it do not
    execute here: they are appended to an outbox with a deterministic
    arrival stamp (``submit_time + submit latency + dispatch latency`` — the
    partition scheme's conservative lookahead) and shipped across the
    barrier; :meth:`complete` resolves the held outcome event when the
    result message returns.

    Snapshot staleness is window-granular by construction, and identically
    so in the serial ``workers=1`` fallback, which is what keeps routing
    decisions bit-identical across worker counts.
    """

    is_boundary_proxy = True

    def __init__(self, env: Environment, endpoint_id: str, cluster: str,
                 models: Sequence[str], view=None):
        self.env = env
        self.endpoint_id = endpoint_id
        self.cluster_name = cluster
        self.models = list(models)
        #: The gateway partition's :class:`~repro.placement.TopologyView`;
        #: remote snapshots land there (``apply_partition_snapshot``) and the
        #: proxy reads them back, keeping the view in the routing loop.
        self.view = view
        #: ``task_id -> (outcome event, dispatch arrival time)`` for tasks
        #: shipped across the boundary and not yet completed.
        self._open: Dict[str, tuple] = {}
        #: Outbox drained by the owning partition at each window barrier.
        self.outbox: List[dict] = []
        self._seq = 0

    # -- endpoint interface the relay dispatcher reads ----------------------
    def _signals(self):
        if self.view is None:
            return []
        signals = []
        for model in self.models:
            signal = self.view.pool_signal(self.endpoint_id, model)
            if signal is not None:
                signals.append(signal)
        return signals

    def ready_instance_count(self) -> int:
        return sum(s.ready_instances for s in self._signals())

    def _unseen_dispatches(self, as_of: float) -> int:
        """Boundary tasks the cluster's snapshot cannot include yet."""
        return sum(1 for _evt, arrival in self._open.values() if arrival > as_of)

    def kernel_backlog(self, model: Optional[str] = None) -> int:
        backlog = 0
        as_of = -1.0
        for signal in self._signals():
            if model is not None and signal.model != model:
                continue
            backlog += signal.waiting_tasks + signal.in_flight_tasks
            as_of = max(as_of, signal.computed_at)
        return backlog + self._unseen_dispatches(as_of)

    def hosts_model(self, model: str) -> bool:
        return model in self.models

    # -- boundary mechanics --------------------------------------------------
    def enqueue_boundary(self, record: TaskRecord, function,
                         arrival_time: float):
        """Ship ``record`` across the partition boundary; returns the outcome
        event resolved by :meth:`complete` when the result message returns."""
        outcome = self.env.event()
        self._open[record.task_id] = (outcome, arrival_time)
        self.outbox.append({
            "task_id": record.task_id,
            "function_id": record.function_id,
            "endpoint_id": self.endpoint_id,
            "arrival_time": arrival_time,
            "submit_time": record.submit_time,
            "submitter": record.submitter,
            "seq": self._seq,
            "payload": record.payload,
        })
        self._seq += 1
        return outcome

    def drain_outbox(self) -> List[dict]:
        out, self.outbox = self.outbox, []
        return out

    def complete(self, task_id: str, outcome: Dict[str, Any]) -> None:
        """Resolve a boundary task with the outcome carried by a result
        message (called by the owning partition at the stamped arrival)."""
        event, _arrival = self._open.pop(task_id)
        event.succeed(outcome)

    @property
    def open_tasks(self) -> int:
        return len(self._open)


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
        if getattr(endpoint, "is_boundary_proxy", False):
            yield from self._process_boundary_task(record, future, function,
                                                   endpoint)
            return
        cfg = self.config
        span = None
        if trace is not None:
            span = trace.start_span("relay.transfer", parent=anchor,
                                    layer="relay",
                                    attrs={"task_id": record.task_id,
                                           "endpoint": record.endpoint_id})
        yield self.env.timeout(cfg.submit_latency_s)
        yield self.env.timeout(cfg.dispatch_latency_s)
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

    def _process_boundary_task(self, record: TaskRecord, future: TaskFuture,
                               function, endpoint: RelayBoundaryProxy):
        """Relay path for tasks whose endpoint lives in another partition.

        The submit+dispatch wire time spends no simulated time here: it
        rides the boundary message's arrival stamp (that sum is exactly the
        gateway partition's conservative lookahead, so the stamp can never
        land inside the window that produced it).  The returning result
        likewise already paid ``result_latency_s`` as its message transfer;
        only the shared routing channel — the paper's R(N) scalability
        limit, which is cloud-side state — is still modeled here.
        """
        cfg = self.config
        arrival = record.submit_time + cfg.submit_latency_s + cfg.dispatch_latency_s
        record.status = TaskStatus.DISPATCHED
        record.dispatch_time = arrival
        outcome_event = endpoint.enqueue_boundary(record, function, arrival)
        # The proxy's open-task accounting covers the task from here on.
        open_count = self._open_dispatches.get(record.endpoint_id, 0)
        if open_count <= 1:
            self._open_dispatches.pop(record.endpoint_id, None)
        else:
            self._open_dispatches[record.endpoint_id] = open_count - 1
        outcome = yield outcome_event

        with self._result_channel.request() as req:
            yield req
            yield self.env.timeout(self.result_service_time_s())

        record.completion_time = self.env.now
        if outcome.get("success", False):
            record.status = TaskStatus.COMPLETED
            record.result = outcome.get("result")
            self.stats.completed += 1
            future.resolve(record.result)
        else:
            record.status = TaskStatus.FAILED
            record.error = outcome.get("error", "unknown error")
            self.stats.failed += 1
            self._log.warning("task failed at remote partition",
                              task_id=record.task_id,
                              endpoint=record.endpoint_id, error=record.error)
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
