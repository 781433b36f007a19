"""Globus-Compute-like Function-as-a-Service substrate.

The relay (cloud service), compute endpoints deployed on clusters, the
function registry, task records/futures and the client SDK used by the
Inference Gateway.  Together these reproduce §3.2 of the paper, including
auto-scaling, hot-node management, fault tolerance and the pre-registered
function security model.
"""

from .client import ComputeClient, ComputeClientConfig
from .endpoint import ComputeEndpoint, EndpointConfig, ModelHostingConfig, ModelPoolStatus
from .functions import (
    HANDLER_BATCH,
    HANDLER_CHAT,
    HANDLER_EMBEDDING,
    FunctionRegistry,
    RegisteredFunction,
)
from .relay import RelayConfig, RelayService, RelayStats
from .task import TaskFuture, TaskRecord, TaskStatus

__all__ = [
    "FunctionRegistry",
    "RegisteredFunction",
    "HANDLER_CHAT",
    "HANDLER_EMBEDDING",
    "HANDLER_BATCH",
    "TaskRecord",
    "TaskFuture",
    "TaskStatus",
    "RelayService",
    "RelayConfig",
    "RelayStats",
    "ComputeEndpoint",
    "EndpointConfig",
    "ModelHostingConfig",
    "ModelPoolStatus",
    "ComputeClient",
    "ComputeClientConfig",
]
