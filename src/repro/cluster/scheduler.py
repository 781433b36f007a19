"""Batch-scheduler simulators: PBS, Slurm, Kubernetes and a local provider.

The paper's endpoints acquire nodes "either on local nodes, inside a
Kubernetes pod, or through a batch-scheduler submission (e.g., PBS or
Slurm)".  Each scheduler here exposes the same interface —
:meth:`SchedulerBase.submit` returning a :class:`JobHandle` — so the
Globus-Compute-like endpoint manager (:mod:`repro.faas`) is provider
agnostic, exactly as in FIRST.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..common import IdGenerator, NotFoundError
from ..sim import Environment, Event
from .cluster import Cluster
from .job import Job, JobRequest, JobState

__all__ = [
    "SchedulerConfig",
    "JobHandle",
    "SchedulerBase",
    "PBSScheduler",
    "SlurmScheduler",
    "KubernetesScheduler",
    "LocalScheduler",
    "make_scheduler",
]


@dataclass
class SchedulerConfig:
    """Tunable scheduler behaviour.

    ``cycle_latency_s`` models the scheduler's scheduling-iteration delay:
    even on an idle cluster a PBS job does not start instantaneously.
    """

    cycle_latency_s: float = 5.0
    backfill: bool = True
    enforce_walltime: bool = True
    #: Extra fixed provisioning delay once nodes are assigned (node prologue,
    #: container/pod start, environment setup) before the job is "running".
    prologue_s: float = 10.0
    max_queued_jobs: int = 10000


class JobHandle:
    """Handle returned by :meth:`SchedulerBase.submit`.

    Attributes
    ----------
    job:
        The underlying :class:`Job` record (state, timings, nodes).
    started:
        Event that succeeds with the list of allocated nodes when the job
        transitions to RUNNING.  Fails if the job is cancelled while queued.
    finished:
        Event that succeeds with the terminal :class:`JobState` when the job
        ends for any reason (released, cancelled, walltime exceeded, failed).
    """

    def __init__(self, env: Environment, job: Job):
        self.job = job
        self.started: Event = env.event()
        self.finished: Event = env.event()

    @property
    def nodes(self):
        return self.job.nodes

    @property
    def state(self) -> JobState:
        return self.job.state


class SchedulerBase:
    """Shared machinery for every scheduler flavour."""

    scheduler_type = "base"

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        config: Optional[SchedulerConfig] = None,
        ids: Optional[IdGenerator] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.config = config or SchedulerConfig()
        self._ids = ids or IdGenerator()
        self._queue: List[JobHandle] = []
        self._running: Dict[str, JobHandle] = {}
        self._all_jobs: Dict[str, JobHandle] = {}
        self.jobs_drained = 0
        self._wakeup = env.event()
        self._loop = env.process(self._scheduling_loop())

    # -- public API --------------------------------------------------------
    def submit(self, request: JobRequest) -> JobHandle:
        """Submit a job request; returns immediately with a :class:`JobHandle`."""
        if len(self._queue) >= self.config.max_queued_jobs:
            raise RuntimeError(f"{self.cluster.name} scheduler queue is full")
        if request.num_nodes > self.cluster.total_nodes:
            raise ValueError(
                f"Job requests {request.num_nodes} nodes but cluster "
                f"{self.cluster.name} only has {self.cluster.total_nodes}"
            )
        job = Job(
            job_id=self._ids.next(f"{self.cluster.name}-job"),
            request=request,
            submit_time=self.env.now,
        )
        handle = JobHandle(self.env, job)
        self._queue.append(handle)
        self._all_jobs[job.job_id] = handle
        self._notify()
        return handle

    def cancel(self, job_id: str, reason: str = "cancelled") -> None:
        """Cancel a queued or running job."""
        handle = self._lookup(job_id)
        job = handle.job
        if job.state.terminal:
            return
        if job.state == JobState.QUEUED:
            self._queue.remove(handle)
            job.state = JobState.CANCELLED
            job.end_time = self.env.now
            job.exit_reason = reason
            if not handle.started.triggered:
                handle.started.fail(RuntimeError(f"job {job_id} cancelled while queued"))
                handle.started.defuse()
            handle.finished.succeed(JobState.CANCELLED)
        else:
            self._end_job(handle, JobState.CANCELLED, reason)

    def release(self, job_id: str) -> None:
        """Normal completion: the job's owner relinquishes its nodes."""
        handle = self._lookup(job_id)
        if handle.job.state.terminal:
            return
        if handle.job.state == JobState.QUEUED:
            self.cancel(job_id, reason="released before start")
            return
        self._end_job(handle, JobState.COMPLETED, "released")

    def release_drained(self, job_id: str) -> None:
        """Release a job whose instance the autoscaler drained.

        Identical lifecycle to :meth:`release` but tagged so operators (and
        leak tests) can tell planned scale-downs from walltime expiries and
        crashes in the job history.
        """
        handle = self._lookup(job_id)
        if handle.job.state.terminal:
            return
        self.jobs_drained += 1
        if handle.job.state == JobState.QUEUED:
            self.cancel(job_id, reason="drained before start")
            return
        self._end_job(handle, JobState.COMPLETED, "drained (scale-down)")

    def gpu_seconds(self, now: Optional[float] = None) -> float:
        """GPU-seconds consumed by every job this scheduler ever started.

        Running jobs are charged up to ``now`` (defaults to the current
        simulation time); this is the cost axis autoscaling benchmarks trade
        against latency.
        """
        now = self.env.now if now is None else now
        total = 0.0
        for handle in self._all_jobs.values():
            job = handle.job
            if job.start_time is None:
                continue
            end = job.end_time if job.end_time is not None else now
            gpus = job.request.num_nodes * job.request.gpus_per_node
            total += max(0.0, end - job.start_time) * gpus
        return total

    def get_job(self, job_id: str) -> Job:
        return self._lookup(job_id).job

    @property
    def queued_jobs(self) -> List[Job]:
        return [h.job for h in self._queue]

    @property
    def running_jobs(self) -> List[Job]:
        return [h.job for h in self._running.values()]

    @property
    def all_jobs(self) -> List[Job]:
        return [h.job for h in self._all_jobs.values()]

    def status(self):
        """Cluster status including this scheduler's queue depth (for federation)."""
        return self.cluster.status(
            queued_jobs=len(self._queue), running_jobs=len(self._running)
        )

    # -- scheduling loop ----------------------------------------------------
    def _notify(self) -> None:
        if not self._wakeup.triggered:
            self._wakeup.succeed()

    def _scheduling_loop(self):
        while True:
            yield self._wakeup
            self._wakeup = self.env.event()
            if self.config.cycle_latency_s > 0:
                yield self.env.timeout(self.config.cycle_latency_s)
            self._schedule_pass()

    def _order_queue(self) -> List[JobHandle]:
        """Queue ordering policy; overridden by subclasses."""
        return list(self._queue)

    def _schedule_pass(self) -> None:
        ordered = self._order_queue()
        free = list(self.cluster.free_nodes)
        started: List[JobHandle] = []
        blocked_head: Optional[JobHandle] = None
        shadow_time: Optional[float] = None
        spare_at_shadow: Optional[int] = None

        for handle in ordered:
            need = handle.job.request.num_nodes
            if blocked_head is None:
                if need <= len(free):
                    nodes, free = free[:need], free[need:]
                    self._start_job(handle, nodes)
                    started.append(handle)
                else:
                    blocked_head = handle
                    if not self.config.backfill:
                        break
                    shadow_time, spare_at_shadow = self._compute_shadow(need, len(free))
            else:
                # EASY backfill: a later job may start now if it fits in the
                # currently free nodes and does not delay the blocked head job.
                if need > len(free):
                    continue
                finishes_before_shadow = (
                    shadow_time is None
                    or self.env.now + handle.job.request.walltime_s <= shadow_time
                )
                within_spare = spare_at_shadow is not None and need <= spare_at_shadow
                if finishes_before_shadow or within_spare:
                    nodes, free = free[:need], free[need:]
                    self._start_job(handle, nodes)
                    started.append(handle)
                    if within_spare and not finishes_before_shadow:
                        spare_at_shadow -= need

        if started:
            # One O(n) rebuild instead of an O(n) remove per started job.
            started_set = set(started)
            self._queue = [h for h in self._queue if h not in started_set]

    def _compute_shadow(self, need: int, currently_free: int):
        """Estimate when the blocked head job could start (EASY backfill)."""
        releases = sorted(
            (
                (h.job.start_time or self.env.now) + h.job.request.walltime_s,
                h.job.request.num_nodes,
            )
            for h in self._running.values()
        )
        available = currently_free
        for when, count in releases:
            available += count
            if available >= need:
                return when, available - need
        return None, None

    # -- job lifecycle -------------------------------------------------------
    def _start_job(self, handle: JobHandle, nodes) -> None:
        job = handle.job
        job.state = JobState.STARTING
        job.start_time = self.env.now
        job.nodes = list(nodes)
        for node in nodes:
            node.allocate(job.job_id)
        self._running[job.job_id] = handle
        self.env.process(self._job_runner(handle))

    def _job_runner(self, handle: JobHandle):
        job = handle.job
        if self.config.prologue_s > 0:
            yield self.env.timeout(self.config.prologue_s)
        if job.state.terminal:
            return
        job.state = JobState.RUNNING
        if not handle.started.triggered:
            handle.started.succeed(list(job.nodes))
        if self.config.enforce_walltime:
            expiry = self.env.timeout(job.request.walltime_s)
            result = yield expiry | handle.finished
            if handle.finished not in result and not job.state.terminal:
                self._end_job(handle, JobState.TIMEOUT, "walltime exceeded")

    def _end_job(self, handle: JobHandle, state: JobState, reason: str) -> None:
        job = handle.job
        if job.state.terminal:
            return
        job.state = state
        job.end_time = self.env.now
        job.exit_reason = reason
        for node in job.nodes:
            node.deallocate()
        self._running.pop(job.job_id, None)
        if not handle.started.triggered:
            handle.started.fail(RuntimeError(f"job {job.job_id} ended before starting: {reason}"))
            handle.started.defuse()
        if not handle.finished.triggered:
            handle.finished.succeed(state)
        self._notify()

    def _lookup(self, job_id: str) -> JobHandle:
        try:
            return self._all_jobs[job_id]
        except KeyError:
            raise NotFoundError(f"Unknown job id {job_id}") from None


class PBSScheduler(SchedulerBase):
    """PBS Professional-like FIFO scheduler with EASY backfill (Sophia's default)."""

    scheduler_type = "pbs"

    def _order_queue(self) -> List[JobHandle]:
        return sorted(self._queue, key=lambda h: h.job.submit_time)


class SlurmScheduler(SchedulerBase):
    """Slurm-like scheduler: priority first, then submission order, with backfill."""

    scheduler_type = "slurm"

    def __init__(self, env, cluster, config: Optional[SchedulerConfig] = None, ids=None):
        config = config or SchedulerConfig(cycle_latency_s=2.0)
        super().__init__(env, cluster, config, ids)

    def _order_queue(self) -> List[JobHandle]:
        return sorted(
            self._queue,
            key=lambda h: (-h.job.request.priority, h.job.submit_time),
        )


class KubernetesScheduler(SchedulerBase):
    """Kubernetes-like provider: near-immediate pod placement, no walltime kill."""

    scheduler_type = "kubernetes"

    def __init__(self, env, cluster, config: Optional[SchedulerConfig] = None, ids=None):
        config = config or SchedulerConfig(
            cycle_latency_s=1.0, prologue_s=3.0, enforce_walltime=False, backfill=False
        )
        super().__init__(env, cluster, config, ids)


class LocalScheduler(SchedulerBase):
    """Bare-metal/local provider: nodes handed out immediately with no queue delay."""

    scheduler_type = "local"

    def __init__(self, env, cluster, config: Optional[SchedulerConfig] = None, ids=None):
        config = config or SchedulerConfig(
            cycle_latency_s=0.0, prologue_s=0.0, enforce_walltime=False, backfill=False
        )
        super().__init__(env, cluster, config, ids)


_SCHEDULERS = {
    "pbs": PBSScheduler,
    "slurm": SlurmScheduler,
    "kubernetes": KubernetesScheduler,
    "local": LocalScheduler,
}


def make_scheduler(
    kind: str,
    env: Environment,
    cluster: Cluster,
    config: Optional[SchedulerConfig] = None,
    ids: Optional[IdGenerator] = None,
) -> SchedulerBase:
    """Factory used by deployment configs (``scheduler: pbs|slurm|kubernetes|local``)."""
    try:
        cls = _SCHEDULERS[kind.lower()]
    except KeyError:
        raise ValueError(
            f"Unknown scheduler kind {kind!r}; expected one of {sorted(_SCHEDULERS)}"
        ) from None
    return cls(env, cluster, config, ids)
