"""WebUI concurrency benchmark (Table 1 of the paper).

"Benchmarks were performed using simulated concurrent WebUI sessions
targeting three models ... both token and request throughput scale nearly
linearly from 50 to 500 concurrent sessions, with diminishing returns beyond
this point ... Shorter runs (60 sec) consistently yielded higher throughput
than longer runs (120 sec)."

Sessions here are closed-loop: each session sends a turn, waits for the
response, then immediately sends the next turn.  Chat histories grow turn by
turn, so longer runs spend more of their time on long-prompt turns — the
mechanism behind the 60 s vs 120 s gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common import RandomSource
from .server import WebUIServer

__all__ = ["WebUIBenchResult", "WebUIConcurrencyBenchmark"]


@dataclass
class WebUIBenchResult:
    """One (model, concurrency, duration) cell of Table 1."""

    model: str
    concurrency: int
    duration_s: float
    completed_requests: int
    output_tokens: int

    @property
    def request_throughput(self) -> float:
        return self.completed_requests / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def token_throughput(self) -> float:
        return self.output_tokens / self.duration_s if self.duration_s > 0 else 0.0

    def row(self) -> str:
        return (
            f"{self.model:<36s} conc={self.concurrency:<4d} {self.duration_s:>5.0f}s  "
            f"TP/s={self.token_throughput:>8.2f}  Req/s={self.request_throughput:>6.2f}"
        )

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "concurrency": self.concurrency,
            "duration_s": self.duration_s,
            "tokens_per_s": round(self.token_throughput, 2),
            "requests_per_s": round(self.request_throughput, 2),
        }


class WebUIConcurrencyBenchmark:
    """Drives N concurrent closed-loop chat sessions for a fixed duration."""

    def __init__(self, webui: WebUIServer, user: str = "benchmark@anl.gov",
                 mean_user_message_tokens: float = 45.0,
                 turn_output_tokens: int = 140, seed: int = 5):
        self.webui = webui
        self.env = webui.env
        self.user = user
        self.mean_user_message_tokens = mean_user_message_tokens
        self.turn_output_tokens = turn_output_tokens
        self.seed = seed

    def run(self, model: str, concurrency: int, duration_s: float) -> WebUIBenchResult:
        """Run one benchmark cell (blocking: advances the simulation)."""
        random = RandomSource(seed=self.seed)
        counters = {"completed": 0, "tokens": 0}
        start = self.env.now
        deadline = start + duration_s
        stoppers = []

        def session_loop(env, session_id):
            while env.now < deadline:
                msg_tokens = max(5, int(random.lognormal(self.mean_user_message_tokens, 0.5)))
                ev = self.webui.chat_turn(
                    session_id,
                    user_message="please continue the analysis",
                    output_tokens=self.turn_output_tokens,
                    user_message_tokens=msg_tokens,
                )
                try:
                    yield ev
                except Exception:  # noqa: BLE001 - a failed turn ends the session
                    return
                if env.now <= deadline:
                    counters["completed"] += 1
                    counters["tokens"] += self.turn_output_tokens

        for i in range(concurrency):
            session = self.webui.new_session(self.user, model)
            stoppers.append(self.env.process(session_loop(self.env, session.session_id)))

        # Advance to the deadline, then let in-flight turns finish (they do not
        # count toward the window, mirroring a fixed-duration load test).
        self.env.run(until=deadline)
        return WebUIBenchResult(
            model=model,
            concurrency=concurrency,
            duration_s=duration_s,
            completed_requests=counters["completed"],
            output_tokens=counters["tokens"],
        )
