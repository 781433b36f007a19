"""Ready-made facility descriptions modelled on the paper's deployment.

* ``sophia_like()`` — 24 DGX A100 nodes, 8 GPUs each, two nodes with 80 GB
  GPUs (the paper's proof-of-concept deployment target at ALCF).
* ``polaris_like()`` — a second ALCF system used for the federation
  proof-of-concept; modelled as 4-GPU A100 nodes.
"""

from __future__ import annotations

from .cluster import Cluster, Interconnect
from .gpu import A100_40GB, A100_80GB
from .node import Node, NodeSpec, dgx_a100_spec

__all__ = ["sophia_like", "polaris_like", "small_test_cluster"]


def sophia_like(num_nodes: int = 24, num_80gb_nodes: int = 2) -> Cluster:
    """A Sophia-like cluster: ``num_nodes`` DGX A100 nodes, last two with 80 GB GPUs."""
    if num_80gb_nodes > num_nodes:
        raise ValueError("num_80gb_nodes cannot exceed num_nodes")
    spec_40 = dgx_a100_spec(A100_40GB)
    spec_80 = dgx_a100_spec(A100_80GB)
    nodes = []
    for i in range(num_nodes):
        spec = spec_80 if i >= num_nodes - num_80gb_nodes else spec_40
        nodes.append(Node(f"sophia-{i:03d}", spec))
    fabric = Interconnect(name="Mellanox HDR InfiniBand fat-tree", bandwidth_gbps=200.0)
    return Cluster("sophia", nodes, fabric)


def polaris_like(num_nodes: int = 40) -> Cluster:
    """A Polaris-like cluster: A100 nodes with 4 GPUs each."""
    spec = NodeSpec(
        name="Polaris-node",
        gpu_spec=A100_40GB,
        gpus_per_node=4,
        cpu_cores=64,
        memory_gb=512.0,
        local_ssd_tb=3.2,
        storage_read_gbps=2.0,
    )
    nodes = [Node(f"polaris-{i:03d}", spec) for i in range(num_nodes)]
    fabric = Interconnect(name="Slingshot-11 dragonfly", bandwidth_gbps=200.0)
    return Cluster("polaris", nodes, fabric)


def small_test_cluster(name: str = "testcluster", num_nodes: int = 2,
                       gpus_per_node: int = 8) -> Cluster:
    """A tiny cluster for unit tests and the quickstart example."""
    spec = NodeSpec(
        name="test-node",
        gpu_spec=A100_40GB,
        gpus_per_node=gpus_per_node,
        cpu_cores=32,
        memory_gb=256.0,
        local_ssd_tb=1.0,
        storage_read_gbps=4.0,
    )
    return Cluster.homogeneous(name, spec, num_nodes)
