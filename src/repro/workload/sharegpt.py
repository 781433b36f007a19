"""Synthetic ShareGPT-like workload.

The paper benchmarks with the ShareGPT dataset ("thousands of real-world
user-AI conversations across diverse topics", §5.2.2), sampling 1000
requests and reusing the same prompts/output lengths across scenarios for a
fair comparison.  ShareGPT itself cannot be redistributed here, so this
module generates a statistically similar workload: lognormal prompt and
output token lengths whose means match the effective values implied by the
paper's measurements (≈220 prompt tokens and ≈180 output tokens per
request), with a fixed seed so every scenario sees the identical request
set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..common import RandomSource
from ..serving import InferenceRequest, RequestKind

__all__ = ["ShareGPTConfig", "ShareGPTWorkload", "BATCH_GENERATION_CONFIG"]

_TOPICS = [
    "genomic sequence annotation",
    "climate model downscaling",
    "particle collision reconstruction",
    "HPC job scheduler troubleshooting",
    "materials synthesis planning",
    "radio telescope calibration",
    "protein folding energetics",
    "turbulent flow simulation",
]


@dataclass(frozen=True)
class ShareGPTConfig:
    """Shape of the synthetic conversation workload."""

    num_requests: int = 1000
    mean_prompt_tokens: float = 220.0
    prompt_sigma: float = 0.8
    mean_output_tokens: float = 180.0
    output_sigma: float = 0.7
    min_prompt_tokens: int = 8
    max_prompt_tokens: int = 3072
    min_output_tokens: int = 4
    max_output_tokens: int = 1500
    seed: int = 20240714

    def __post_init__(self):
        if self.num_requests <= 0:
            raise ValueError("num_requests must be > 0")
        if self.mean_prompt_tokens <= 0 or self.mean_output_tokens <= 0:
            raise ValueError("token means must be > 0")


#: Length profile used for the offline batch-mode experiments (§5.3.1), where
#: generations are not capped by interactive chat targets and run much longer.
BATCH_GENERATION_CONFIG = ShareGPTConfig(
    num_requests=1000,
    mean_prompt_tokens=280.0,
    mean_output_tokens=860.0,
    output_sigma=0.6,
    max_output_tokens=4096,
    seed=20240715,
)


class ShareGPTWorkload:
    """Deterministic generator of ShareGPT-like requests."""

    def __init__(self, config: Optional[ShareGPTConfig] = None):
        self.config = config or ShareGPTConfig()

    def generate(
        self,
        model: str,
        num_requests: Optional[int] = None,
        user: str = "benchmark@anl.gov",
        id_prefix: str = "sharegpt",
    ) -> List[InferenceRequest]:
        """Produce the request list for ``model``.

        The same seed always produces the same (prompt length, output length)
        pairs, mirroring the paper's "same set of input prompts and
        corresponding target output lengths ... for each model across all
        relevant tests".
        """
        cfg = self.config
        n = num_requests or cfg.num_requests
        rng = RandomSource(seed=cfg.seed)
        requests = []
        for i in range(n):
            prompt_tokens = int(
                min(cfg.max_prompt_tokens,
                    max(cfg.min_prompt_tokens, rng.lognormal(cfg.mean_prompt_tokens, cfg.prompt_sigma)))
            )
            output_tokens = int(
                min(cfg.max_output_tokens,
                    max(cfg.min_output_tokens, rng.lognormal(cfg.mean_output_tokens, cfg.output_sigma)))
            )
            topic = _TOPICS[i % len(_TOPICS)]
            requests.append(
                InferenceRequest(
                    request_id=f"{id_prefix}-{i:06d}",
                    model=model,
                    prompt_tokens=prompt_tokens,
                    max_output_tokens=output_tokens,
                    kind=RequestKind.CHAT_COMPLETION,
                    user=user,
                    prompt_text=f"[conversation {i}] Please help with {topic}.",
                    metadata={"workload": "sharegpt-like", "index": i},
                )
            )
        return requests

    def mean_output_tokens(self, requests: List[InferenceRequest]) -> float:
        if not requests:
            return 0.0
        return sum(r.max_output_tokens for r in requests) / len(requests)
