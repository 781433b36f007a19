"""Cluster model: a named collection of nodes plus interconnect."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .node import Node, NodeSpec

__all__ = ["Interconnect", "ClusterStatus", "Cluster"]


@dataclass(frozen=True)
class Interconnect:
    """Inter-node fabric description.

    Multi-node model loads (e.g. a 405B model spanning nodes) pay a
    coordination cost derived from the fabric latency, mirroring the paper's
    note that large models "require coordinating the loading process across
    multiple nodes and GPUs, significantly increasing the cold start time".
    """

    name: str = "HDR InfiniBand fat-tree"
    bandwidth_gbps: float = 200.0
    latency_us: float = 1.5

    def coordination_overhead_s(self, num_nodes: int) -> float:
        """Extra start-up seconds incurred when a model spans ``num_nodes``."""
        if num_nodes <= 1:
            return 0.0
        # Collective setup + NCCL-style ring formation grows with node count.
        return 5.0 * (num_nodes - 1)


@dataclass
class ClusterStatus:
    """Publicly queryable snapshot used by the federation layer (§4.5)."""

    cluster: str
    total_nodes: int
    free_nodes: int
    allocated_nodes: int
    down_nodes: int
    queued_jobs: int
    running_jobs: int

    def to_dict(self) -> dict:
        return {
            "cluster": self.cluster,
            "total_nodes": self.total_nodes,
            "free_nodes": self.free_nodes,
            "allocated_nodes": self.allocated_nodes,
            "down_nodes": self.down_nodes,
            "queued_jobs": self.queued_jobs,
            "running_jobs": self.running_jobs,
        }


class Cluster:
    """A named HPC cluster: nodes + interconnect.

    The scheduler (see :mod:`repro.cluster.scheduler`) owns job admission;
    the cluster only tracks physical node state.
    """

    def __init__(
        self,
        name: str,
        nodes: List[Node],
        interconnect: Optional[Interconnect] = None,
    ):
        if not nodes:
            raise ValueError("A cluster needs at least one node")
        self.name = name
        self.nodes = list(nodes)
        self.interconnect = interconnect or Interconnect()

    # -- factory -----------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        name: str,
        node_spec: NodeSpec,
        num_nodes: int,
        interconnect: Optional[Interconnect] = None,
        node_prefix: Optional[str] = None,
    ) -> "Cluster":
        prefix = node_prefix or name.lower()
        nodes = [Node(f"{prefix}-{i:03d}", node_spec) for i in range(num_nodes)]
        return cls(name, nodes, interconnect)

    # -- queries -----------------------------------------------------------
    @property
    def total_nodes(self) -> int:
        return len(self.nodes)

    @property
    def up_nodes(self) -> List[Node]:
        return [n for n in self.nodes if n.up]

    @property
    def free_nodes(self) -> List[Node]:
        """Nodes that are up and not allocated to any job."""
        return [n for n in self.nodes if n.up and not n.allocated]

    @property
    def allocated_nodes(self) -> List[Node]:
        return [n for n in self.nodes if n.allocated]

    @property
    def down_nodes(self) -> List[Node]:
        return [n for n in self.nodes if not n.up]

    def find_node(self, name: str) -> Node:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"No node named {name} in cluster {self.name}")

    def status(self, queued_jobs: int = 0, running_jobs: int = 0) -> ClusterStatus:
        """Snapshot of node availability (job counts supplied by the scheduler)."""
        return ClusterStatus(
            cluster=self.name,
            total_nodes=self.total_nodes,
            free_nodes=len(self.free_nodes),
            allocated_nodes=len(self.allocated_nodes),
            down_nodes=len(self.down_nodes),
            queued_jobs=queued_jobs,
            running_jobs=running_jobs,
        )

    def __repr__(self) -> str:
        return f"<Cluster {self.name}: {len(self.free_nodes)}/{self.total_nodes} nodes free>"
