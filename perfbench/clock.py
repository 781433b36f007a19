"""CPU time rescaled to a fixed machine speed.

The shared machines this benchmark runs on change speed by up to a factor
of two within seconds, as other tenants come and go on the same cores, and
CPU time follows.  ``SteadyClock`` times a fixed reference loop every
``INTERVAL_S`` of CPU time, from a profiling-timer signal, and scales that
slice of CPU time by the loop's reference duration over its measured one.
The result reads as CPU seconds on a machine where the loop always takes
``REFERENCE_S``; the loop's own time is left out.
"""

import heapq
import signal
import time

INTERVAL_S = 0.02
#: Duration of ``reference_loop`` on the machine the benchmark was defined on.
REFERENCE_S = 0.0003


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def reference_loop():
    """Interpreter-bound work shaped like the simulator's: a heap of
    tuples, small objects, dict lookups and method calls."""
    heap, table, total = [], {}, 0
    for i in range(300):
        item = _Item(i & 31, i)
        heapq.heappush(heap, (i * 7919 % 101, i, item))
        table[item.key] = item
        if len(heap) > 16:
            _, _, old = heapq.heappop(heap)
            total += old.value + len(table)
    return total


class SteadyClock:
    """Accumulates rescaled CPU time from construction until ``stop()``."""

    def __init__(self):
        self.total = 0.0
        self.factor = 1.0
        self.last = time.process_time()
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def _tick(self, signum, frame):
        now = time.process_time()
        # Wall time: the loop is shorter than the CPU clock's update step
        # on some kernels, and it is too short to be descheduled often.
        start = time.perf_counter()
        reference_loop()
        self.factor = REFERENCE_S / max(time.perf_counter() - start, 1e-6)
        self.total += (now - self.last) * self.factor
        self.last = time.process_time()

    def read(self):
        """Rescaled CPU seconds so far."""
        return self.total + (time.process_time() - self.last) * self.factor

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
