"""Request arrival processes.

The paper's benchmark sweeps offered request rates of 1, 5, 10, 20 req/s and
an "infinite" rate where every request is sent at t=0 to saturate the server
(§5.2.2).  Arrival processes generate the per-request send offsets.

Beyond the paper's stationary processes, the autoscaling benchmarks drive
*shifting* traffic: :class:`DiurnalArrival` (sinusoidal day/night load),
:class:`RampArrival` (linear ramp to a plateau) and
:class:`TraceReplayArrival` (replay of recorded send offsets, e.g. a
hand-built flash crowd).  The time-varying processes are nonhomogeneous
Poisson processes sampled by thinning, seeded for reproducibility.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..common import RandomSource

__all__ = [
    "ArrivalProcess",
    "InfiniteArrival",
    "PoissonArrival",
    "UniformArrival",
    "DiurnalArrival",
    "RampArrival",
    "TraceReplayArrival",
    "make_arrival",
]


class ArrivalProcess:
    """Base class: produces send-time offsets for ``n`` requests."""

    def offsets(self, n: int) -> List[float]:
        raise NotImplementedError

    @property
    def label(self) -> str:
        raise NotImplementedError


class InfiniteArrival(ArrivalProcess):
    """All requests are sent immediately (the paper's "infinite request rate")."""

    def offsets(self, n: int) -> List[float]:
        return [0.0] * n

    @property
    def label(self) -> str:
        return "inf"


class PoissonArrival(ArrivalProcess):
    """Poisson arrivals at ``rate`` requests/s (vLLM benchmark default)."""

    def __init__(self, rate: float, seed: int = 7):
        if rate <= 0:
            raise ValueError("rate must be > 0")
        self.rate = rate
        self.seed = seed

    def offsets(self, n: int) -> List[float]:
        rng = RandomSource(seed=self.seed)
        t = 0.0
        out = []
        for _ in range(n):
            out.append(t)
            t += rng.exponential(1.0 / self.rate)
        return out

    @property
    def label(self) -> str:
        return f"{self.rate:g} req/s (poisson)"


class UniformArrival(ArrivalProcess):
    """Deterministic, evenly spaced arrivals at ``rate`` requests/s."""

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError("rate must be > 0")
        self.rate = rate

    def offsets(self, n: int) -> List[float]:
        return [i / self.rate for i in range(n)]

    @property
    def label(self) -> str:
        return f"{self.rate:g} req/s (uniform)"


class _ThinnedArrival(ArrivalProcess):
    """Nonhomogeneous Poisson arrivals via Lewis-Shedler thinning.

    Subclasses provide :meth:`rate_at` (instantaneous rate, req/s) and
    :attr:`peak_rate` (an upper bound on it); candidate events are drawn
    from a homogeneous process at the peak rate and accepted with
    probability ``rate_at(t) / peak_rate``.
    """

    peak_rate: float = 1.0

    def __init__(self, seed: int = 7):
        self.seed = seed

    def rate_at(self, t: float) -> float:
        raise NotImplementedError

    def offsets(self, n: int) -> List[float]:
        if self.peak_rate <= 0:
            raise ValueError("peak_rate must be > 0")
        rng = RandomSource(seed=self.seed)
        out: List[float] = []
        t = 0.0
        while len(out) < n:
            t += rng.exponential(1.0 / self.peak_rate)
            if rng.uniform() * self.peak_rate <= self.rate_at(t):
                out.append(t)
        return out


class DiurnalArrival(_ThinnedArrival):
    """Sinusoidal day/night load between ``base_rate`` and ``peak_rate``.

    The cycle starts at the trough (night) and peaks half a period in, so a
    benchmark run beginning at t=0 always exercises a cold ramp first.
    """

    def __init__(self, base_rate: float, peak_rate: float,
                 period_s: float = 86400.0, phase_s: float = 0.0, seed: int = 7):
        if base_rate < 0 or peak_rate <= 0 or peak_rate < base_rate:
            raise ValueError("need 0 <= base_rate <= peak_rate, peak_rate > 0")
        if period_s <= 0:
            raise ValueError("period_s must be > 0")
        super().__init__(seed=seed)
        self.base_rate = base_rate
        self.peak_rate = peak_rate
        self.period_s = period_s
        self.phase_s = phase_s

    def rate_at(self, t: float) -> float:
        mid = (self.base_rate + self.peak_rate) / 2.0
        amplitude = (self.peak_rate - self.base_rate) / 2.0
        phase = 2.0 * math.pi * (t + self.phase_s) / self.period_s
        return mid - amplitude * math.cos(phase)

    @property
    def label(self) -> str:
        return (f"diurnal {self.base_rate:g}-{self.peak_rate:g} req/s "
                f"(period {self.period_s:g}s)")


class RampArrival(_ThinnedArrival):
    """Linear ramp from ``start_rate`` to ``end_rate`` over ``ramp_s``,
    holding the end rate afterwards (a launch-day traffic shape)."""

    def __init__(self, start_rate: float, end_rate: float, ramp_s: float,
                 seed: int = 7):
        if start_rate < 0 or end_rate < 0 or max(start_rate, end_rate) <= 0:
            raise ValueError("rates must be >= 0 with a positive maximum")
        if ramp_s <= 0:
            raise ValueError("ramp_s must be > 0")
        super().__init__(seed=seed)
        self.start_rate = start_rate
        self.end_rate = end_rate
        self.ramp_s = ramp_s
        self.peak_rate = max(start_rate, end_rate)

    def rate_at(self, t: float) -> float:
        if t >= self.ramp_s:
            return self.end_rate
        frac = t / self.ramp_s
        return self.start_rate + (self.end_rate - self.start_rate) * frac

    @property
    def label(self) -> str:
        return (f"ramp {self.start_rate:g}->{self.end_rate:g} req/s "
                f"over {self.ramp_s:g}s")


class TraceReplayArrival(ArrivalProcess):
    """Replay recorded send offsets (e.g. a production trace or a hand-built
    flash crowd).  Requests beyond the trace length wrap around, shifted by
    whole trace spans, so any ``n`` is serviceable."""

    def __init__(self, trace: Sequence[float], name: str = "trace"):
        if not trace:
            raise ValueError("trace must be non-empty")
        offsets = sorted(float(t) for t in trace)
        if offsets[0] < 0:
            raise ValueError("trace offsets must be >= 0")
        self.trace = offsets
        self.name = name
        # Wrap period: the trace span plus one mean inter-arrival gap, so a
        # repeated trace does not emit two simultaneous requests at the seam.
        span = offsets[-1] - offsets[0]
        mean_gap = span / (len(offsets) - 1) if len(offsets) > 1 else 1.0
        self._wrap_s = span + max(mean_gap, 1e-9)

    def offsets(self, n: int) -> List[float]:
        out: List[float] = []
        rounds = 0
        while len(out) < n:
            shift = rounds * self._wrap_s
            take = min(len(self.trace), n - len(out))
            out.extend(t + shift for t in self.trace[:take])
            rounds += 1
        return out

    @property
    def label(self) -> str:
        return f"replay:{self.name} ({len(self.trace)} events)"


def make_arrival(rate: Optional[float], poisson: bool = True, seed: int = 7) -> ArrivalProcess:
    """``rate=None`` (or ``inf``) → infinite arrival; otherwise Poisson/uniform."""
    if rate is None or rate == float("inf"):
        return InfiniteArrival()
    return PoissonArrival(rate, seed=seed) if poisson else UniformArrival(rate)
