"""Paged KV-cache block manager (the PagedAttention memory model).

vLLM's PagedAttention stores each sequence's KV cache in fixed-size blocks so
GPU memory can be allocated on demand and reclaimed without fragmentation.
The engine uses this manager to decide how many sequences can run
concurrently; when the pool is exhausted, admission stalls (and, under
sustained pressure, the engine preempts the most recently admitted sequence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["KVCacheConfig", "KVCacheManager"]


@dataclass(frozen=True)
class KVCacheConfig:
    """Sizing of the paged KV cache."""

    capacity_tokens: int
    block_size: int = 16

    def __post_init__(self):
        if self.capacity_tokens < 0:
            raise ValueError("capacity_tokens must be >= 0")
        if self.block_size <= 0:
            raise ValueError("block_size must be > 0")

    @property
    def total_blocks(self) -> int:
        return self.capacity_tokens // self.block_size


class KVCacheManager:
    """Tracks block allocation per sequence."""

    def __init__(self, config: KVCacheConfig):
        self.config = config
        self._allocated: Dict[str, int] = {}
        self._used_blocks = 0
        #: Cumulative count of allocation failures (admission stalls).
        self.allocation_failures = 0
        #: Cumulative count of preemptions performed by the engine.
        self.preemptions = 0

    # -- queries -----------------------------------------------------------
    @property
    def total_blocks(self) -> int:
        return self.config.total_blocks

    @property
    def used_blocks(self) -> int:
        return self._used_blocks

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self._used_blocks

    @property
    def utilization(self) -> float:
        if self.total_blocks == 0:
            return 1.0
        return self._used_blocks / self.total_blocks

    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to store ``tokens`` tokens of KV cache."""
        return math.ceil(max(0, tokens) / self.config.block_size)

    def can_allocate(self, tokens: int) -> bool:
        return self.blocks_for(tokens) <= self.free_blocks

    def holds(self, seq_id: str) -> bool:
        return seq_id in self._allocated

    # -- mutation ------------------------------------------------------------
    def allocate(self, seq_id: str, tokens: int) -> bool:
        """Reserve blocks for a new sequence; returns False if it does not fit."""
        if seq_id in self._allocated:
            raise ValueError(f"Sequence {seq_id} already has an allocation")
        blocks = self.blocks_for(tokens)
        if blocks > self.free_blocks:
            self.allocation_failures += 1
            return False
        self._allocated[seq_id] = blocks
        self._used_blocks += blocks
        return True

    def grow(self, seq_id: str, new_total_tokens: int) -> bool:
        """Grow a sequence's allocation to cover ``new_total_tokens`` tokens."""
        if seq_id not in self._allocated:
            raise KeyError(f"Sequence {seq_id} has no allocation")
        needed = self.blocks_for(new_total_tokens)
        current = self._allocated[seq_id]
        if needed <= current:
            return True
        extra = needed - current
        if extra > self.free_blocks:
            self.allocation_failures += 1
            return False
        self._allocated[seq_id] = needed
        self._used_blocks += extra
        return True

    def _bulk_growth(self, requirements) -> Tuple[int, List[Tuple[str, int]]]:
        """Extra blocks needed to grow every ``(seq_id, tokens)``
        requirement, and the ``(seq_id, blocks)`` allocations that grow."""
        allocated = self._allocated
        block_size = self.config.block_size
        grown = []
        extra = 0
        for seq_id, tokens in requirements:
            if seq_id not in allocated:
                raise KeyError(f"Sequence {seq_id} has no allocation")
            # blocks_for(tokens) inlined for the macro-stepper's hot path (a
            # negative count gives <= 0 blocks, which never grows either).
            needed = -(-tokens // block_size)
            current = allocated[seq_id]
            if needed > current:
                grown.append((seq_id, needed))
                extra += needed - current
        return extra, grown

    def can_grow_bulk(self, requirements) -> bool:
        """Whether every growth in ``requirements`` could be applied together.

        Because block demand per sequence is monotone in tokens, a ``True``
        answer proves that growing the same sequences one token at a time (in
        any interleaving, up to their requirement) cannot fail either; the
        engine's macro-stepper relies on exactly that property to rule out
        preemption inside a window.  A pure probe: nothing is allocated and a
        ``False`` answer does not count towards :attr:`allocation_failures`
        (the caller falls back to per-token stepping, whose individual
        :meth:`grow` calls keep the failure accounting of the non-bulk path).
        """
        return self._bulk_growth(requirements)[0] <= self.free_blocks

    def grow_bulk(self, requirements) -> None:
        """Atomically grow several sequences' allocations.

        ``requirements`` is an iterable of ``(seq_id, new_total_tokens)``
        pairs, one per sequence, that the caller has proven to fit (see
        :meth:`can_grow_bulk`).  If they do not, nothing changes and a
        :class:`RuntimeError` names the shortfall, rather than leaving
        sequences under-allocated.
        """
        extra, grown = self._bulk_growth(requirements)
        free = self.free_blocks
        if extra > free:
            raise RuntimeError(f"KV growth needs {extra} blocks but only {free} "
                               f"are free (short by {extra - free})")
        allocated = self._allocated
        for seq_id, needed in grown:
            allocated[seq_id] = needed
        self._used_blocks += extra

    def free(self, seq_id: str) -> None:
        """Release every block held by ``seq_id`` (no-op if unknown)."""
        blocks = self._allocated.pop(seq_id, 0)
        self._used_blocks -= blocks

    def preempt(self, seq_id: str) -> None:
        """Free a sequence's blocks due to preemption (tracked separately)."""
        if seq_id in self._allocated:
            self.preemptions += 1
            self.free(seq_id)

    def reset(self) -> None:
        self._allocated.clear()
        self._used_blocks = 0
