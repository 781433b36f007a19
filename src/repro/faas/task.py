"""Task records and futures for the FaaS layer."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..sim import Environment, Event

__all__ = ["TaskStatus", "TaskRecord", "TaskFuture"]


class TaskStatus(str, enum.Enum):
    """Lifecycle of a compute task as reported by the relay."""

    PENDING = "pending"          # accepted by the cloud service, waiting for dispatch
    DISPATCHED = "dispatched"    # handed to the endpoint
    RUNNING = "running"          # executing on the endpoint
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (TaskStatus.COMPLETED, TaskStatus.FAILED, TaskStatus.CANCELLED)


@dataclass
class TaskRecord:
    """Cloud-side record of a task."""

    task_id: str
    function_id: str
    endpoint_id: str
    payload: Dict[str, Any]
    submitter: str = ""
    status: TaskStatus = TaskStatus.PENDING
    submit_time: float = 0.0
    dispatch_time: Optional[float] = None
    start_time: Optional[float] = None
    completion_time: Optional[float] = None
    result: Any = None
    error: Optional[str] = None

    @property
    def queue_time_s(self) -> Optional[float]:
        if self.dispatch_time is None:
            return None
        return self.dispatch_time - self.submit_time

    @property
    def total_time_s(self) -> Optional[float]:
        if self.completion_time is None:
            return None
        return self.completion_time - self.submit_time

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "function_id": self.function_id,
            "endpoint_id": self.endpoint_id,
            "status": self.status.value,
            "submit_time": self.submit_time,
            "completion_time": self.completion_time,
            "error": self.error,
        }


class TaskFuture:
    """Future returned by the Compute client SDK.

    ``done`` is a simulation event that succeeds with the task result as
    soon as the relay delivers it (the "concurrent future objects" of
    Optimization 1).  ``record`` exposes the task's status for the legacy
    polling path.
    """

    def __init__(self, env: Environment, record: TaskRecord):
        self.env = env
        self.record = record
        self.done: Event = env.event()

    @property
    def task_id(self) -> str:
        return self.record.task_id

    @property
    def status(self) -> TaskStatus:
        return self.record.status

    def resolve(self, result: Any) -> None:
        if not self.done.triggered:
            self.done.succeed(result)

    def reject(self, error: str) -> None:
        self.record.error = error
        if not self.done.triggered:
            self.done.succeed(None)
