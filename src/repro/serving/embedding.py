"""Embedding engine (the Infinity-like backend).

Embedding requests (NV-Embed-v2 in the paper) are latency-light and batch
well: the engine gathers requests over a short batching window and processes
them together.  Vectors are produced by a deterministic hashing featurizer so
that downstream retrieval (the RAG case study, §6.2) behaves consistently:
similar texts map to similar vectors because the featurizer hashes word
unigrams/bigrams into a fixed-size space.

Under load the engine macro-steps: when the backlog already holds complete
batches, their composition can no longer change (arrivals only append), so
the engine precomputes each batch's completion boundary with the same float
additions the stepwise loop performs and schedules one kernel event per
batch instead of two — halving event pressure while every
``InferenceResult.completion_time`` stays bit-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Optional

try:  # The simulator core stays importable without numpy; only the
    import numpy as np  # featurizer below actually needs it.
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None

from ..sim import Environment, Event
from .models import ModelSpec
from .request import InferenceRequest, InferenceResult

__all__ = ["hash_embedding", "EmbeddingEngineConfig", "EmbeddingEngine"]


def hash_embedding(text: str, dim: int = 384) -> np.ndarray:
    """Deterministic bag-of-words hashing embedding, L2-normalised.

    Word unigrams and bigrams are hashed into ``dim`` buckets with a signed
    hashing trick; texts sharing vocabulary therefore land near each other
    in cosine space, which is all the RAG case study requires.
    """
    if np is None:
        raise RuntimeError("hash_embedding requires numpy")
    vec = np.zeros(dim, dtype=np.float64)
    words = text.lower().split()
    grams = words + [" ".join(p) for p in zip(words, words[1:])]
    for gram in grams:
        digest = hashlib.md5(gram.encode()).digest()
        bucket = int.from_bytes(digest[:4], "little") % dim
        sign = 1.0 if digest[4] % 2 == 0 else -1.0
        vec[bucket] += sign
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


@dataclass
class EmbeddingEngineConfig:
    """Batching and throughput parameters of the embedding server."""

    max_batch_size: int = 32
    batch_window_s: float = 0.01
    #: Prompt tokens embedded per second per GPU.
    tokens_per_s_per_gpu: float = 60000.0
    fixed_batch_overhead_s: float = 0.005
    embedding_dim: int = 384
    #: Collapse already-full backlog batches into one kernel event each
    #: (instead of window + service timeouts).  Bit-identical results; set
    #: False to force the stepwise reference loop.
    macro_stepping: bool = True


class EmbeddingEngine:
    """Batched embedding server."""

    def __init__(
        self,
        env: Environment,
        model: ModelSpec,
        num_gpus: int = 1,
        config: Optional[EmbeddingEngineConfig] = None,
        featurizer: Callable[[str, int], np.ndarray] = hash_embedding,
        instance_id: str = "embedding-0",
    ):
        self.env = env
        self.model = model
        self.num_gpus = max(1, num_gpus)
        self.config = config or EmbeddingEngineConfig(
            embedding_dim=model.embedding_dim or 384
        )
        self.featurizer = featurizer
        self.instance_id = instance_id
        self._queue: List[tuple] = []
        self._idle: Optional[Event] = None
        self.completed = 0
        self._loop = env.process(self._run())

    @property
    def throughput_tok_s(self) -> float:
        return self.config.tokens_per_s_per_gpu * self.num_gpus

    def submit(self, request: InferenceRequest) -> Event:
        """Queue an embedding request; the event succeeds with an :class:`InferenceResult`."""
        event = self.env.event()
        self._queue.append((request, event))
        if self._idle is not None and not self._idle.triggered:
            self._idle.succeed()
        return event

    def _run(self):
        env = self.env
        cfg = self.config
        while True:
            if not self._queue:
                self._idle = env.event()
                yield self._idle
                self._idle = None
            full = (len(self._queue) // cfg.max_batch_size
                    if cfg.macro_stepping else 0)
            if full >= 1:
                # Macro-step: the backlog's leading ``full`` batches are
                # complete, so arrivals (which only append) cannot change
                # their composition.  Precompute each completion boundary
                # with the same float additions the stepwise loop performs
                # (window, then service) and wake once per batch.
                t = env.now
                boundaries = []
                for i in range(full):
                    start = i * cfg.max_batch_size
                    batch = self._queue[start:start + cfg.max_batch_size]
                    total_tokens = sum(req.prompt_tokens for req, _ in batch)
                    t += cfg.batch_window_s
                    t += (cfg.fixed_batch_overhead_s
                          + total_tokens / self.throughput_tok_s)
                    boundaries.append(t)
                for boundary in boundaries:
                    yield env.timeout_at(boundary)
                    batch, self._queue = (
                        self._queue[: cfg.max_batch_size],
                        self._queue[cfg.max_batch_size:],
                    )
                    self._complete_batch(batch)
                continue
            # Small batching window to gather concurrent requests.
            yield env.timeout(cfg.batch_window_s)
            batch, self._queue = (
                self._queue[: cfg.max_batch_size],
                self._queue[cfg.max_batch_size:],
            )
            if not batch:
                continue
            total_tokens = sum(req.prompt_tokens for req, _ in batch)
            service = cfg.fixed_batch_overhead_s + total_tokens / self.throughput_tok_s
            yield env.timeout(service)
            self._complete_batch(batch)

    def _complete_batch(self, batch) -> None:
        """Featurize and succeed one processed batch at the current time."""
        env = self.env
        cfg = self.config
        for req, event in batch:
            vector = self.featurizer(req.prompt_text or req.request_id, cfg.embedding_dim)
            result = InferenceResult(
                request_id=req.request_id,
                model=req.model,
                prompt_tokens=req.prompt_tokens,
                output_tokens=0,
                embedding=vector.tolist(),
                success=True,
                arrival_time=req.arrival_time,
                engine_enqueue_time=req.arrival_time,
                completion_time=env.now,
                instance_id=self.instance_id,
            )
            self.completed += 1
            event.succeed(result)
