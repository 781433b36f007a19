"""Model specifications and the model catalog.

The catalog mirrors the model families the paper exposes (§4.2): Qwen2.5,
Meta-Llama 3/3.1/3.3, Mistral/Mixtral, the science-focused AuroraGPT suite,
vision-language models, and NVIDIA's NV-Embed-v2 embedding model.

A :class:`ModelSpec` carries just enough architectural detail to drive the
serving timing model: parameter count, weight footprint, KV-cache bytes per
token, default tensor parallelism, and context length.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["ModelKind", "ModelSpec", "ModelCatalog", "default_catalog"]


class ModelKind(str, enum.Enum):
    """Functional group of a model (the paper's three groups, §4.2)."""

    CHAT = "chat"
    VISION = "vision"
    EMBEDDING = "embedding"


@dataclass(frozen=True)
class ModelSpec:
    """Static description of a servable model."""

    name: str
    params_b: float
    kind: ModelKind = ModelKind.CHAT
    #: Default tensor-parallel degree used by the deployment (paper §5.2.1:
    #: TP=4 for Llama 3.1 8B, TP=8 for Llama 3.3 70B).
    default_tp: int = 1
    #: Number of transformer layers (drives the KV-cache footprint).
    n_layers: int = 32
    #: KV heads × head dim (grouped-query attention reduces this).
    kv_heads: int = 8
    head_dim: int = 128
    context_length: int = 8192
    #: Bytes per parameter of the stored weights (2 = fp16/bf16).
    bytes_per_param: float = 2.0
    #: Embedding output dimension (embedding models only).
    embedding_dim: int = 0
    aliases: tuple = ()

    def __post_init__(self):
        if self.params_b <= 0:
            raise ValueError("params_b must be > 0")
        if self.default_tp <= 0:
            raise ValueError("default_tp must be > 0")

    # -- derived sizes -----------------------------------------------------
    @property
    def weights_gb(self) -> float:
        """Total weight footprint in GB."""
        return self.params_b * self.bytes_per_param

    @property
    def kv_bytes_per_token(self) -> float:
        """KV-cache bytes stored per generated/prompt token (fp16 K and V)."""
        return 2.0 * self.n_layers * self.kv_heads * self.head_dim * 2.0

    def vram_per_gpu_gb(self, tp: Optional[int] = None, overhead: float = 1.2) -> float:
        """Per-GPU VRAM needed for the weights alone (plus runtime overhead)."""
        tp = tp or self.default_tp
        return self.weights_gb * overhead / tp

    def gpus_required(self, gpu_memory_gb: float, overhead: float = 1.2) -> int:
        """Minimum number of GPUs needed to hold the weights."""
        import math

        return max(1, math.ceil(self.weights_gb * overhead / gpu_memory_gb))

    @property
    def is_embedding(self) -> bool:
        return self.kind == ModelKind.EMBEDDING

    def matches(self, name: str) -> bool:
        return name == self.name or name in self.aliases


class ModelCatalog:
    """Registry of servable models, keyed by name (with alias lookup).

    The paper notes that "adding a new model is straightforward: the model
    only needs to be supported by one of the configured back-ends, after
    which it can be registered via the service's dashboard" — hence
    :meth:`register` is a first-class operation.
    """

    def __init__(self, specs: Optional[List[ModelSpec]] = None):
        self._specs: Dict[str, ModelSpec] = {}
        for spec in specs or []:
            self.register(spec)

    def register(self, spec: ModelSpec) -> None:
        if spec.name in self._specs:
            raise ValueError(f"Model {spec.name} already registered")
        self._specs[spec.name] = spec

    def unregister(self, name: str) -> None:
        self._specs.pop(self.get(name).name)

    def get(self, name: str) -> ModelSpec:
        if name in self._specs:
            return self._specs[name]
        for spec in self._specs.values():
            if spec.matches(name):
                return spec
        raise KeyError(f"Unknown model: {name}")

    def __contains__(self, name: str) -> bool:
        try:
            self.get(name)
            return True
        except KeyError:
            return False

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self):
        return iter(self._specs.values())

    @property
    def names(self) -> List[str]:
        return sorted(self._specs)

    def by_kind(self, kind: ModelKind) -> List[ModelSpec]:
        return [s for s in self._specs.values() if s.kind == kind]


def default_catalog() -> ModelCatalog:
    """The model catalogue of the paper's deployment (§4.2, §5.2, Table 1)."""
    specs = [
        # Qwen2.5 chat family
        ModelSpec("Qwen/Qwen2.5-7B-Instruct", 7, default_tp=1, n_layers=28, kv_heads=4),
        ModelSpec("Qwen/Qwen2.5-14B-Instruct", 14, default_tp=2, n_layers=48, kv_heads=8),
        ModelSpec("Qwen/Qwen2.5-32B-Instruct", 32, default_tp=4, n_layers=64, kv_heads=8),
        # Meta-Llama family (benchmark models of §5)
        ModelSpec("meta-llama/Llama-3.1-8B-Instruct", 8, default_tp=4, n_layers=32,
                  kv_heads=8, aliases=("Llama-3.1-8B", "meta-llama/Meta-Llama-3.1-8B-Instruct")),
        ModelSpec("meta-llama/Llama-3.3-70B-Instruct", 70, default_tp=8, n_layers=80,
                  kv_heads=8, aliases=("Llama-3.3-70B", "meta-llama/Meta-Llama-3-70B-Instruct")),
        ModelSpec("meta-llama/Llama-3.1-405B-Instruct", 405, default_tp=16, n_layers=126,
                  kv_heads=8, aliases=("Llama-3.1-405B",)),
        # Mistral / Mixtral
        ModelSpec("mistralai/Mistral-7B-Instruct-v0.3", 7, default_tp=1, n_layers=32, kv_heads=8),
        ModelSpec("mistralai/Mixtral-8x22B-Instruct-v0.1", 141, default_tp=8, n_layers=56,
                  kv_heads=8),
        # Gemma (Table 1)
        ModelSpec("google/gemma-2-27b-it", 27, default_tp=4, n_layers=46, kv_heads=16,
                  aliases=("Gemma-27B",)),
        # AuroraGPT science suite
        ModelSpec("argonne-private/AuroraGPT-7B", 7, default_tp=1, n_layers=32, kv_heads=8),
        ModelSpec("argonne-private/AuroraGPT-IT-v4-0125", 7, default_tp=1, n_layers=32,
                  kv_heads=8),
        ModelSpec("argonne-private/AuroraGPT-Tulu3-SFT-0125", 8, default_tp=1, n_layers=32,
                  kv_heads=8),
        # Vision-language models
        ModelSpec("Qwen/Qwen2-VL-72B-Instruct", 72, kind=ModelKind.VISION, default_tp=8,
                  n_layers=80, kv_heads=8),
        ModelSpec("meta-llama/Llama-3.2-90B-Vision-Instruct", 90, kind=ModelKind.VISION,
                  default_tp=8, n_layers=100, kv_heads=8),
        # Embedding model
        ModelSpec("nvidia/NV-Embed-v2", 7.8, kind=ModelKind.EMBEDDING, default_tp=1,
                  n_layers=32, kv_heads=8, embedding_dim=4096),
    ]
    return ModelCatalog(specs)
