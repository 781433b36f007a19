"""Compute-node model: a set of GPUs plus host resources.

Nodes are what the scheduler allocates to jobs and what Globus-Compute-like
endpoint managers hold while a model instance is "hot".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .gpu import GPU, GPUSpec, A100_40GB

__all__ = ["NodeSpec", "Node", "dgx_a100_spec"]


@dataclass(frozen=True)
class NodeSpec:
    """Static description of a node type."""

    name: str
    gpu_spec: GPUSpec
    gpus_per_node: int = 8
    cpu_cores: int = 128
    memory_gb: float = 1024.0
    local_ssd_tb: float = 15.0
    #: Sustained read bandwidth of local storage in GB/s; bounds model-weight
    #: load time together with the parallelism of the load.
    storage_read_gbps: float = 4.0

    def __post_init__(self):
        if self.gpus_per_node <= 0:
            raise ValueError("gpus_per_node must be > 0")


def dgx_a100_spec(gpu_spec: GPUSpec = A100_40GB) -> NodeSpec:
    """The DGX A100 node type used by Sophia (8 GPUs, dual AMD Rome, 15 TB SSD)."""
    return NodeSpec(
        name="DGX-A100",
        gpu_spec=gpu_spec,
        gpus_per_node=8,
        cpu_cores=128,
        memory_gb=1024.0,
        local_ssd_tb=15.0,
        storage_read_gbps=4.0,
    )


class Node:
    """A compute node with individually reservable GPUs."""

    def __init__(self, name: str, spec: NodeSpec):
        self.name = name
        self.spec = spec
        self.gpus: List[GPU] = [GPU(index=i, spec=spec.gpu_spec) for i in range(spec.gpus_per_node)]
        #: Name of the job currently holding the whole node, if any.
        self.allocated_to: Optional[str] = None
        self.up: bool = True

    # -- whole-node allocation (scheduler level) ---------------------------
    @property
    def allocated(self) -> bool:
        return self.allocated_to is not None

    def allocate(self, job_id: str) -> None:
        if not self.up:
            raise RuntimeError(f"Node {self.name} is down")
        if self.allocated:
            raise RuntimeError(f"Node {self.name} already allocated to {self.allocated_to}")
        self.allocated_to = job_id

    def deallocate(self) -> None:
        self.allocated_to = None
        for gpu in self.gpus:
            gpu.free()

    # -- GPU-level reservation (model co-location) -------------------------
    @property
    def free_gpus(self) -> List[GPU]:
        """GPUs with no model instance on them."""
        return [g for g in self.gpus if not g.in_use]

    @property
    def total_vram_gb(self) -> float:
        return sum(g.spec.memory_gb for g in self.gpus)

    @property
    def free_vram_gb(self) -> float:
        return sum(g.free_gb for g in self.gpus)

    def reserve_gpus(self, count: int, vram_per_gpu_gb: float, owner: str) -> List[GPU]:
        """Reserve ``count`` free GPUs for a model instance.

        Raises ``RuntimeError`` if not enough free GPUs (or per-GPU VRAM) are
        available; the caller (endpoint manager) decides whether to acquire
        another node instead.
        """
        candidates = [g for g in self.free_gpus if g.spec.memory_gb >= vram_per_gpu_gb]
        if len(candidates) < count:
            raise RuntimeError(
                f"Node {self.name} has {len(candidates)} suitable free GPUs, need {count}"
            )
        selected = candidates[:count]
        for gpu in selected:
            gpu.reserve(vram_per_gpu_gb, owner)
        return selected

    def release_gpus(self, owner: str) -> int:
        """Release every GPU held by ``owner``; returns how many were freed."""
        released = 0
        for gpu in self.gpus:
            if gpu.owner == owner:
                gpu.free()
                released += 1
        return released

    def fail(self) -> None:
        """Mark the node as down (used for fault-tolerance tests)."""
        self.up = False

    def recover(self) -> None:
        self.up = True

    def __repr__(self) -> str:
        state = "busy" if self.allocated else "free"
        return f"<Node {self.name} ({self.spec.gpus_per_node}x{self.spec.gpu_spec.name}) {state}>"
