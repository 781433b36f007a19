"""Response cache (part of the gateway's protection layer, §3.1.1)."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["ResponseCache"]


@dataclass
class _Entry:
    value: Any
    stored_at: float


class ResponseCache:
    """TTL cache keyed by (model, prompt, sampling parameters).

    Disabled by default in the deployment config: chat completions are
    usually unique, but repeated identical requests (health checks, retries,
    eval sweeps re-running the same prompt) short-circuit here.
    """

    def __init__(self, ttl_s: float = 300.0, max_entries: int = 10000):
        self.ttl_s = ttl_s
        self.max_entries = max_entries
        self._entries: Dict[str, _Entry] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(model: str, prompt_text: str, max_tokens: int, params: Optional[dict] = None) -> str:
        material = f"{model}|{prompt_text}|{max_tokens}|{sorted((params or {}).items())}"
        return hashlib.sha256(material.encode()).hexdigest()

    def get(self, key: str, now: float) -> Optional[Any]:
        entry = self._entries.get(key)
        if entry is None or now - entry.stored_at > self.ttl_s:
            if entry is not None:
                self._entries.pop(key, None)
            self.misses += 1
            return None
        self.hits += 1
        return entry.value

    def put(self, key: str, value: Any, now: float) -> None:
        if len(self._entries) >= self.max_entries:
            # Drop the oldest entry (simple FIFO eviction).
            oldest = min(self._entries, key=lambda k: self._entries[k].stored_at)
            self._entries.pop(oldest, None)
        self._entries[key] = _Entry(value=value, stored_at=now)

    def __len__(self) -> int:
        return len(self._entries)
