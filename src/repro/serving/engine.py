"""Continuous-batching inference engine (the vLLM-like core).

The engine advances in *iterations*: each iteration generates one token for
every running sequence and (optionally) prefills newly admitted sequences.
Iteration duration comes from the :class:`~repro.serving.timing.PerformanceModel`,
so aggregate throughput saturates with batch size exactly as described in the
paper's evaluation.  Admission is bounded by ``max_num_seqs`` and by the
paged KV cache (:class:`~repro.serving.kvcache.KVCacheManager`).

Performance notes (macro-stepping)
----------------------------------

Naively the engine costs one kernel event plus O(batch) Python work per
decode iteration, which dominates the wall-clock time of large benchmark
sweeps.  With ``EngineConfig.macro_stepping`` (the default) the loop instead
computes how many iterations can pass before the simulation state can
change and collapses them into a single kernel event, bulk-updating token
counts, KV allocations (:meth:`KVCacheManager.grow_bulk`) and stats.  The
simulated-time results are reproduced exactly — iteration boundary times are
accumulated with the same sequence of float additions the per-token loop
performs, and absolute-time scheduling (``Environment.timeout_at``) replays
them bit-for-bit.

Each window costs one planning and one applying pass over the batch.  The
iteration that admits (prefills) new sequences is the window's iteration 0,
with its own duration; the rest share one decode step.  KV growth is first
checked against the O(1) bound ``len(running) * ceil((iters + 1) / B) <=
free_blocks``: every allocation covers at least its sequence's tokens (the
engine steps per token right after a failed growth), and ``ceil((x + y) /
B) <= ceil(x / B) + ceil(y / B)``.  Only when the bound fails does the exact
probe (:meth:`KVCacheManager.can_grow_bulk`) run, so no window the probe
would allow is lost.  Single iterations take the window path too; the
per-token :meth:`_advance` runs only where exact per-token semantics matter.
The window math is plain Python; no numpy.  The kernel's pending-event
structure is pluggable (``Environment(queue=)``, see :mod:`repro.sim.queues`);
every backend pops the same total order.

A macro-step window ends at the earliest of:

* the earliest completion among running sequences (state changes there);
* the next boundary, when the per-step prefill budget stopped admission
  with work waiting, room in the batch and KV to spare;
* KV growth that cannot be guaranteed for the whole window
  (the probe fails ⇒ fall back to per-token stepping, which performs
  preemption with the exact original semantics);
* a running sequence with a *live* stream channel — one with a subscribed
  sink (the gateway) or a reader of ``get`` (:attr:`StreamChannel.live`);
  live consumers observe per-token timing, so the engine keeps emitting one
  event per iteration.
  Streaming sequences nobody is reading yet macro-step normally: their
  token events are published as one bulk batch per window, each event
  stamped with its exact iteration-boundary time, so TTFT/ITL math is
  unchanged.

When a request is submitted mid-window, the window is split: the loop is
interrupted, catches up to the last boundary already passed, finishes the
in-flight iteration with an exact per-token step, and re-plans — so the
newcomer is admitted at the same iteration boundary the per-token engine
would have used.  ``stop()`` likewise syncs the window before failing
sequences so their token counts and the busy-time accounting match.

Two divergences from the per-token engine are tolerated, neither visible in
results or stats.  First, floating-point *tie-breaking*: if an external
event lands at exactly (bit-for-bit) an interior iteration boundary, the
relative order of that event and the engine's bookkeeping may differ;
continuous-valued workloads never hit this in practice.  Second, post-stop
*queue drain*: a window abandoned by ``stop()`` leaves its already-scheduled
end-of-window timeout in the event heap, so ``env.run()``-to-empty finishes
at the window's end rather than at the next per-token boundary — ``env.now``
after draining a stopped engine is therefore mode-dependent.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Set, Tuple

from ..obs.trace import TRACE_KEY
from ..sim import Environment, Event, Interrupt
from .kvcache import KVCacheConfig, KVCacheManager
from .request import InferenceRequest, InferenceResult, RequestKind
from .stream import STREAM_CHANNEL_KEY, StreamEvent
from .textgen import SyntheticTextGenerator
from .timing import PerformanceModel

__all__ = ["EngineConfig", "EngineStats", "ContinuousBatchingEngine"]


@dataclass
class EngineConfig:
    """Engine scheduling limits (vLLM-style)."""

    max_num_seqs: int = 256
    #: Cap on prompt tokens prefetched in a single iteration (chunked prefill).
    max_prefill_tokens_per_step: int = 16384
    kv_block_size: int = 16
    vram_utilization: float = 0.9
    #: Generate actual response text (slower, used by examples; benchmarks
    #: usually disable it).
    generate_text: bool = True
    #: Collapse state-preserving runs of decode iterations into a single
    #: kernel event (see the module docstring).  Disable to force the
    #: reference one-event-per-iteration loop; simulated-time results are
    #: identical either way.
    macro_stepping: bool = True


@dataclass
class EngineStats:
    """Cumulative engine counters."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    preempted: int = 0
    output_tokens: int = 0
    prompt_tokens: int = 0
    busy_time_s: float = 0.0
    peak_batch_size: int = 0

    def snapshot(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "preempted": self.preempted,
            "output_tokens": self.output_tokens,
            "prompt_tokens": self.prompt_tokens,
            "busy_time_s": self.busy_time_s,
            "peak_batch_size": self.peak_batch_size,
        }


class _Sequence:
    """Internal per-request state."""

    __slots__ = (
        "request",
        "seq_id",
        "target_tokens",
        "event",
        "generated",
        "enqueue_time",
        "admit_time",
        "first_token_time",
        "stream_channel",
        "streamed",
        "stream_words",
        "trace",
        "trace_spans",
    )

    def __init__(self, request: InferenceRequest, event: Event, enqueue_time: float):
        self.request = request
        self.seq_id = request.request_id
        self.target_tokens = max(1, request.max_output_tokens)
        self.event = event
        self.generated = 0
        self.enqueue_time = enqueue_time
        self.admit_time: Optional[float] = None
        self.first_token_time: Optional[float] = None
        #: Stream channel carried in the request metadata (``stream=True`` only).
        self.stream_channel = (
            request.metadata.get(STREAM_CHANNEL_KEY) if request.stream else None
        )
        #: Observability: TraceContext riding the request metadata (or None),
        #: and this sequence's open engine-layer spans keyed by phase.
        self.trace = request.metadata.get(TRACE_KEY)
        self.trace_spans = None
        #: High-water mark of tokens already streamed, so a preempted sequence
        #: that recomputes from scratch does not re-emit chunks the consumer
        #: has already seen.
        self.streamed = 0
        self.stream_words = None

    @property
    def total_tokens(self) -> int:
        return self.request.prompt_tokens + self.generated


class _Window:
    """An in-flight macro-step: ``len(boundaries)`` iterations collapsed into
    one kernel event.

    ``boundaries`` holds the absolute simulated time of every iteration
    boundary in the window; ``done`` counts how many have been applied (a
    window interrupted mid-flight is applied piecewise).  Iteration 0 lasts
    ``first_step`` (the decode step plus any prefill admitted at ``start``),
    every later one ``step``.
    """

    __slots__ = ("start", "first_step", "step", "boundaries", "kv_blocked",
                 "done", "interrupted", "closed")

    def __init__(self, start: float, first_step: float, step: float,
                 boundaries: List[float], kv_blocked: bool):
        self.start = start
        self.first_step = first_step
        self.step = step
        self.boundaries = boundaries
        self.kv_blocked = kv_blocked
        self.done = 0
        self.interrupted = False
        #: Set by stop(): the window's remaining accounting is settled and the
        #: loop must not touch it again (e.g. an Interrupt queued by a submit
        #: in the same callback as the stop is still in flight).
        self.closed = False

    def step_of(self, i: int) -> float:
        """Duration of iteration ``i``."""
        return self.first_step if i == 0 else self.step

    def start_of(self, i: int) -> float:
        """Simulated time iteration ``i`` begins."""
        return self.boundaries[i - 1] if i else self.start


class ContinuousBatchingEngine:
    """A continuous-batching LLM engine bound to a fixed GPU allocation."""

    def __init__(
        self,
        env: Environment,
        perf: PerformanceModel,
        config: Optional[EngineConfig] = None,
        instance_id: str = "instance-0",
        cluster: str = "",
        text_generator: Optional[SyntheticTextGenerator] = None,
    ):
        self.env = env
        self.perf = perf
        self.config = config or EngineConfig()
        self.instance_id = instance_id
        self.cluster = cluster
        self.text_generator = text_generator or SyntheticTextGenerator()
        self.kv = KVCacheManager(
            KVCacheConfig(
                capacity_tokens=perf.kv_capacity_tokens(self.config.vram_utilization),
                block_size=self.config.kv_block_size,
            )
        )
        self.stats = EngineStats()
        self.waiting: Deque[_Sequence] = deque()
        self.running: List[_Sequence] = []
        self._idle: Optional[Event] = None
        self._window: Optional[_Window] = None
        #: The last per-token iteration failed a KV growth (see _plan_window).
        self._kv_short = False
        self._stopped = False
        self._draining = False
        self._loop = env.process(self._run())

    # -- public API ----------------------------------------------------------
    def submit(self, request: InferenceRequest) -> Event:
        """Queue a request; the returned event succeeds with an :class:`InferenceResult`."""
        if self._stopped:
            raise RuntimeError("Engine has been stopped")
        event = self.env.event()
        seq = _Sequence(request, event, self.env.now)
        trace = seq.trace
        if trace is not None:
            # `current` is the caller's active span (the gateway's dispatch
            # stage, still suspended) — the whole engine subtree hangs off it.
            root = trace.start_span("engine.request", parent=trace.current,
                                    layer="engine",
                                    attrs={"instance": self.instance_id})
            seq.trace_spans = {
                "request": root,
                "queue": trace.start_span("engine.queue_wait", parent=root,
                                          layer="engine"),
            }
        self.waiting.append(seq)
        self.stats.submitted += 1
        self.stats.prompt_tokens += request.prompt_tokens
        self._notify()
        return event

    def drain(self) -> None:
        """Scale-down notification: finish outstanding work, expect no more.

        The autoscale control plane calls this when it begins drain-before-
        terminate on the owning instance.  Queued and running sequences
        complete normally (``stop()`` is the hard variant); the only engine-
        level effect is that the scale event ends any *in-flight* macro-step
        window the same way an admission does, so token counts and stats are
        exact at the moment of the drain decision.  Later windows are
        planned normally — completions bound them, so ``in_flight`` is
        always exact at event boundaries, which is all the drain monitor
        reads.  Simulated-time results are unchanged either way: window
        splitting is equivalence-preserving.
        """
        if self._stopped or self._draining:
            return
        self._draining = True
        self._notify()

    @property
    def draining(self) -> bool:
        return self._draining

    def stop(self) -> None:
        """Stop accepting requests and fail anything still queued or running."""
        window = self._window
        if window is not None:
            # Bring token counts and timings up to the last iteration boundary
            # already passed so the failed results report the same progress the
            # per-token engine would have.
            self._window = None
            self._sync_window(window)
            if window.done < len(window.boundaries):
                # The iteration in flight at stop time still occupies the GPU
                # until its boundary (the per-token loop accounts it when its
                # pending timeout fires).
                self.stats.busy_time_s += window.step_of(window.done)
            window.closed = True
        self._stopped = True
        failed = 0
        for group in (self.waiting, self.running):
            for seq in group:
                if not seq.event.triggered:
                    failed += 1
                    seq.event.succeed(self._make_result(seq, success=False,
                                                        error="engine stopped"))
                if seq.stream_channel is not None:
                    seq.stream_channel.close()
                self.kv.free(seq.seq_id)
        self.stats.failed += failed
        self.waiting.clear()
        self.running.clear()
        self._notify()

    @property
    def current_batch_size(self) -> int:
        return len(self.running)

    @property
    def queue_depth(self) -> int:
        return len(self.waiting)

    @property
    def in_flight(self) -> int:
        return len(self.waiting) + len(self.running)

    @property
    def is_idle(self) -> bool:
        return not self.waiting and not self.running

    # -- engine loop -----------------------------------------------------------
    def _notify(self) -> None:
        idle = self._idle
        if idle is not None and not idle.triggered:
            idle.succeed()
            return
        window = self._window
        if window is not None and not window.interrupted:
            # New work arrived mid-macro-step: split the window so the loop
            # can admit at the next per-token iteration boundary.
            window.interrupted = True
            self._loop.interrupt()

    def _run(self):
        env = self.env
        while True:
            if self._stopped and self.is_idle:
                # Park forever; a stopped engine never wakes up again.
                self._idle = env.event()
                yield self._idle
                continue
            if self.is_idle:
                self._idle = env.event()
                yield self._idle
                self._idle = None
                continue

            prefill_tokens, kv_blocked = self._admit()
            batch = len(self.running)
            if batch == 0:
                # Nothing admitted (e.g. KV exhausted with nothing running);
                # this should not normally happen, but avoid a busy loop.
                self._idle = env.event()
                yield self._idle
                self._idle = None
                continue

            if batch > self.stats.peak_batch_size:
                self.stats.peak_batch_size = batch
            step = self.perf.decode_step_time_s(batch)
            first_step = step
            if prefill_tokens:
                first_step += prefill_tokens / self.perf.prefill_tok_s
            start = env.now

            # Admission stopped by the prefill budget alone resumes at the
            # next boundary, so that iteration runs alone.
            budget_bound = bool(self.waiting and not kv_blocked
                                and batch < self.config.max_num_seqs)
            iters = self._plan_window(budget_bound)
            if not iters:
                end = start + first_step
                yield env.timeout_at(end)
                self.stats.busy_time_s += first_step
                self._advance(start, end)
                continue

            # Macro-step: one kernel event covers ``iters`` iterations, the
            # admission iteration (if any) first.  The boundary times are
            # accumulated with the same float additions the per-token loop
            # performs, so they replay bit-for-bit.
            t = start + first_step
            boundaries = [t]
            for _ in range(iters - 1):
                t += step
                boundaries.append(t)
            window = _Window(start, first_step, step, boundaries, kv_blocked)
            if iters == 1:
                # A newcomer waits for this boundary anyway, so there is
                # nothing to split: run uninterrupted, like a per-token step.
                # A stop() meanwhile empties the batch; only the busy time
                # is then applied, as in the per-token loop.
                yield env.timeout_at(t)
                self._apply_iterations(window, 1)
                continue
            self._window = window
            try:
                yield env.timeout_at(t)
            except Interrupt:
                # A submission arrived mid-window: catch up to the boundaries
                # already passed, then finish the in-flight iteration with an
                # exact per-token step so the newcomer is admitted where the
                # per-token engine would have admitted it.  A window stop()
                # already closed (submit-then-stop in one callback) is fully
                # accounted; touching it again would double-count busy time.
                self._window = None
                if not window.closed:
                    self._sync_window(window)
                    done = window.done
                    if done < iters:
                        yield env.timeout_at(boundaries[done])
                        self.stats.busy_time_s += window.step_of(done)
                        self._advance(window.start_of(done), boundaries[done])
                continue
            if self._window is None:
                continue  # stop() drained the window while we slept
            self._window = None
            self._apply_iterations(window, iters)

    def _admit(self) -> Tuple[int, bool]:
        """Move sequences from waiting to running.

        Returns the prefill tokens added and whether admission stalled on a
        failed KV allocation (as opposed to ``max_num_seqs`` or the per-step
        prefill budget).
        """
        prefill_tokens = 0
        kv_blocked = False
        waiting = self.waiting
        running = self.running
        cfg = self.config
        while (
            waiting
            and len(running) < cfg.max_num_seqs
            and prefill_tokens < cfg.max_prefill_tokens_per_step
        ):
            seq = waiting[0]
            reserve = seq.request.prompt_tokens + cfg.kv_block_size
            if not self.kv.allocate(seq.seq_id, reserve):
                kv_blocked = True
                break
            waiting.popleft()
            seq.admit_time = self.env.now
            if seq.trace is not None:
                self._trace_admit(seq)
            prefill_tokens += seq.request.prompt_tokens
            running.append(seq)
        return prefill_tokens, kv_blocked

    # -- macro-stepping ---------------------------------------------------------
    def _plan_window(self, single: bool) -> int:
        """Number of iterations, counting the current one, until the next
        possible state change (just this one if ``single``), or 0 when the
        iteration must take the exact per-token path.

        A nonzero return value guarantees that no KV-pressure preemption can
        occur inside the window: the O(1) block bound (see the module
        docstring) or, when it fails, the exact probe
        :meth:`KVCacheManager.can_grow_bulk`.  Neither allocates: growth is
        applied by :meth:`_apply_iterations` only for iterations that
        actually execute, so a window that is interrupted and abandoned
        leaves the free-block pool in the exact per-token state.
        """
        if not self.config.macro_stepping or self._kv_short:
            # After a failed growth the needy sequence lacks its lookahead
            # block; one per-token step grows it (or preempts again) and
            # restores the allocation invariant windows rely on.
            return 0
        running = self.running
        iters = None
        for seq in running:
            channel = seq.stream_channel
            if channel is not None and channel.live:
                # A live consumer observes per-token timing; keep exact
                # events.  Channels nobody reads yet get their window's
                # events in bulk from _apply_iterations instead.
                return 0
            remaining = seq.target_tokens - seq.generated
            if iters is None or remaining < iters:
                iters = remaining
        if single:
            iters = 1
        kv = self.kv
        per_seq = -(-(iters + 1) // kv.config.block_size)
        if (len(running) * per_seq > kv.free_blocks
                and not kv.can_grow_bulk(self._window_growth(iters))):
            # KV pressure possible: the per-token path reproduces the
            # original preemption semantics exactly.
            return 0
        return iters

    def _window_growth(self, iters: int) -> List[Tuple[str, int]]:
        """Per-sequence KV token targets at the end of an ``iters`` window.

        Sequences that finish exactly at the window end stop growing one
        iteration earlier (the per-token loop checks completion before
        growing), hence the missing one-token lookahead for them.
        """
        growth = []
        for seq in self.running:
            lookahead = 0 if seq.target_tokens - seq.generated == iters else 1
            growth.append((seq.seq_id, seq.total_tokens + iters + lookahead))
        return growth

    def _sync_window(self, window: _Window) -> None:
        """Apply every window iteration whose boundary time has passed."""
        now = self.env.now
        boundaries = window.boundaries
        upto = window.done
        total = len(boundaries)
        while upto < total and boundaries[upto] <= now:
            upto += 1
        self._apply_iterations(window, upto)

    def _apply_iterations(self, window: _Window, upto: int) -> None:
        """Bulk-apply window iterations ``window.done + 1 .. upto`` in one
        pass over the batch.

        Completions are only possible at the final boundary (the window is
        sized to the earliest completion), so interior catch-ups are pure
        token/stat arithmetic.
        """
        done = window.done
        n = upto - done
        if n <= 0:
            return
        running = self.running
        stats = self.stats
        boundaries = window.boundaries
        step = window.step
        for i in range(done, upto):  # same addition order as the per-token loop
            stats.busy_time_s += step if i else window.first_step
        if window.kv_blocked:
            # The per-token loop re-attempts (and fails) the blocked head-of-
            # line admission at every interior boundary; mirror its failure
            # accounting.  The final boundary re-attempts in the next loop
            # iteration's _admit, so it is excluded here.
            last_interior = len(boundaries) - 1
            retries = min(upto, last_interior) - min(done, last_interior)
            if retries > 0:
                self.kv.allocation_failures += retries
        start = window.start_of(done)
        end = boundaries[upto - 1]
        profiler = self.env.profiler
        if profiler is not None:
            profiler.on_window(n, end - start)
        first_token = boundaries[0]
        block = self.kv.config.block_size
        growth = []
        finished = []
        for seq in running:
            before = seq.generated
            generated = before + n
            seq.generated = generated
            if seq.first_token_time is None:
                # Admitted at the window start: its first token is the
                # prefill's output at boundary 0, not a decode iteration.
                seq.first_token_time = first_token
                if seq.trace is not None:
                    self._trace_end(seq, "prefill", t=first_token)
                    if n > 1:
                        self._trace_decode(seq, first_token, end, n - 1)
            elif seq.trace is not None:
                self._trace_decode(seq, start, end, n)
            if seq.stream_channel is not None and generated > seq.streamed:
                self._publish_window_tokens(seq, before, window, done)
            if generated >= seq.target_tokens:
                finished.append(seq)
                continue
            # Allocations cover total_tokens + 1 (see _plan_window), so only
            # a sequence crossing a block boundary grows, to that lookahead.
            prompt = seq.request.prompt_tokens
            if (prompt + before) // block != (prompt + generated) // block:
                growth.append((seq.seq_id, prompt + generated + 1))
        if growth:
            self.kv.grow_bulk(growth)
        stats.output_tokens += n * len(running)
        window.done = upto
        if finished:
            self.running = [seq for seq in running
                            if seq.generated < seq.target_tokens]
            now = self.env.now
            for seq in finished:
                self._finish_sequence(seq, now)

    def _finish_sequence(self, seq: _Sequence, now: float) -> None:
        """Release and succeed one completed sequence (already off ``running``)."""
        self.kv.free(seq.seq_id)
        self.stats.completed += 1
        if seq.stream_channel is not None:
            seq.stream_channel.publish(
                StreamEvent(kind="done", index=seq.generated, time=now,
                            finish_reason="stop")
            )
            seq.stream_channel.close()
        seq.event.succeed(self._make_result(seq, success=True))

    # -- observability (observe-only: no sim-time spends, no RNG draws) -----------
    def _trace_admit(self, seq: _Sequence) -> None:
        """Close the queue-wait span and open the prefill span."""
        trace = seq.trace
        spans = seq.trace_spans
        self._trace_end(seq, "queue")
        root = spans.get("request")
        if root is not None:
            trace.event(root, "engine.admitted")
        spans["prefill"] = trace.start_span("engine.prefill", parent=root,
                                            layer="engine")

    def _trace_end(self, seq: _Sequence, key: str, t: Optional[float] = None) -> None:
        """End one of the sequence's open phase spans, if recording."""
        if seq.trace is None or seq.trace_spans is None:
            return
        span = seq.trace_spans.pop(key, None)
        if span is not None:
            seq.trace.end_span(span, t=t)

    def _trace_decode(self, seq: _Sequence, start: float, end: float,
                      iterations: int) -> None:
        """Record one (macro or per-token) decode window as a complete span."""
        trace = seq.trace
        span = trace.start_span("engine.decode_window",
                                parent=seq.trace_spans.get("request"),
                                layer="engine",
                                attrs={"iterations": iterations}, t=start)
        trace.end_span(span, t=end)

    # -- per-token stepping -------------------------------------------------------
    def _advance(self, start: float, now: float) -> None:
        """One token generated for every running sequence, in the iteration
        from ``start`` to ``now``."""
        running = self.running
        stats = self.stats
        kv = self.kv
        #: Sequences that left the batch during this iteration (preempted,
        #: failed, or finished); an O(1) membership index replacing the
        #: seed's ``seq not in self.running`` scans and in-place removals.
        inactive: Set[_Sequence] = set()
        finished: List[_Sequence] = []
        short = False
        for seq in running:
            if seq in inactive:
                # Preempted earlier in this same iteration by another
                # sequence's KV growth; it will be re-prefilled later.
                continue
            seq.generated += 1
            stats.output_tokens += 1
            if seq.first_token_time is None:
                # The first token is the prefill's output, not a decode
                # window: close the prefill span and emit no window for it.
                seq.first_token_time = now
                self._trace_end(seq, "prefill", t=now)
            elif seq.trace is not None:
                self._trace_decode(seq, start, now, 1)
            if seq.stream_channel is not None and seq.generated > seq.streamed:
                self._publish_token(seq, now)
            if seq.generated >= seq.target_tokens:
                finished.append(seq)
                # Not a preemption candidate: its blocks are freed right below.
                inactive.add(seq)
                continue
            if not kv.grow(seq.seq_id, seq.total_tokens + 1):
                short = True
                self._handle_kv_pressure(seq, inactive)
        self._kv_short = short
        if inactive:
            self.running = [seq for seq in running if seq not in inactive]
        for seq in finished:
            self._finish_sequence(seq, now)

    def _publish_token(self, seq: _Sequence, now: float) -> None:
        """Emit one per-token stream event at the engine's iteration timing."""
        text = ""
        if self.config.generate_text and seq.request.kind != RequestKind.EMBEDDING:
            if seq.stream_words is None:
                seq.stream_words = self.text_generator.stream_pieces(seq.request)
            text = next(seq.stream_words)
        seq.streamed = seq.generated
        seq.stream_channel.publish(
            StreamEvent(kind="token", index=seq.generated - 1, time=now, text=text)
        )

    def _publish_window_tokens(self, seq: _Sequence, before: int,
                               window: _Window, done: int) -> None:
        """Bulk-publish one catch-up's token events for a non-live channel.

        Covers token counts ``before + 1 .. seq.generated`` (skipping any
        already streamed before a preemption), each stamped with the window
        boundary the per-token loop would have published it at, and consumes
        ``stream_words`` in the same order — so a consumer attaching later
        sees an identical event sequence.
        """
        words = None
        if self.config.generate_text and seq.request.kind != RequestKind.EMBEDDING:
            if seq.stream_words is None:
                seq.stream_words = self.text_generator.stream_pieces(seq.request)
            words = seq.stream_words
        boundaries = window.boundaries
        events = []
        for count in range(max(before, seq.streamed) + 1, seq.generated + 1):
            text = next(words) if words is not None else ""
            events.append(
                StreamEvent(kind="token", index=count - 1,
                            time=boundaries[done + count - before - 1], text=text)
            )
        seq.streamed = seq.generated
        seq.stream_channel.publish_bulk(events)

    def _handle_kv_pressure(self, needy: _Sequence, inactive: Set[_Sequence]) -> None:
        """Preempt the most recently admitted other sequence to free blocks."""
        victim = None
        for seq in reversed(self.running):
            if seq is not needy and seq not in inactive:
                victim = seq
                break
        if victim is None:
            # Nothing to preempt: fail the sequence (it cannot make progress).
            inactive.add(needy)
            self.kv.free(needy.seq_id)
            self.stats.failed += 1
            if needy.stream_channel is not None:
                needy.stream_channel.close()
            needy.event.succeed(self._make_result(needy, success=False,
                                                  error="KV cache exhausted"))
            return
        inactive.add(victim)
        self.kv.preempt(victim.seq_id)
        self.stats.preempted += 1
        # The victim restarts from scratch (recompute preemption).
        victim.generated = 0
        victim.admit_time = None
        if victim.trace is not None:
            trace = victim.trace
            self._trace_end(victim, "prefill")
            root = victim.trace_spans.get("request")
            if root is not None:
                trace.event(root, "engine.preempted")
            victim.trace_spans["queue"] = trace.start_span(
                "engine.queue_wait", parent=root, layer="engine")
        self.waiting.appendleft(victim)

    def _close_seq_spans(self, seq: _Sequence, error: Optional[str] = None) -> None:
        """End every still-open engine span for a terminating sequence."""
        trace = seq.trace
        if trace is None or seq.trace_spans is None:
            return
        self._trace_end(seq, "queue")
        self._trace_end(seq, "prefill")
        root = seq.trace_spans.pop("request", None)
        if root is not None:
            if error is not None:
                root.status = f"error:{error}"
            root.attrs["output_tokens"] = seq.generated
            trace.end_span(root)

    def _make_result(self, seq: _Sequence, success: bool, error: Optional[str] = None) -> InferenceResult:
        self._close_seq_spans(seq, error=None if success else error)
        request = seq.request
        text = ""
        if success and self.config.generate_text and request.kind != RequestKind.EMBEDDING:
            text = self.text_generator.generate(request, seq.generated)
        metadata = dict(request.metadata)
        # The stream channel is transport plumbing, not response metadata.
        metadata.pop(STREAM_CHANNEL_KEY, None)
        # So is the trace context (it is not picklable response payload).
        metadata.pop(TRACE_KEY, None)
        return InferenceResult(
            request_id=request.request_id,
            model=request.model,
            prompt_tokens=request.prompt_tokens,
            output_tokens=seq.generated,
            text=text,
            success=success,
            error=error,
            arrival_time=request.arrival_time,
            engine_enqueue_time=seq.enqueue_time,
            prefill_start_time=seq.admit_time if seq.admit_time is not None else seq.enqueue_time,
            first_token_time=seq.first_token_time or 0.0,
            completion_time=self.env.now,
            instance_id=self.instance_id,
            cluster=self.cluster,
            metadata=metadata,
        )
